#include "serve/server.hpp"

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace ivory::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw InvalidParameter("serve: " + what + ": " + std::strerror(errno));
}

/// Socket write that can never raise SIGPIPE: a client that disconnects
/// mid-response must cost exactly its own connection, not the process.
/// MSG_NOSIGNAL turns the signal into an EPIPE return. Returns false when
/// the peer is gone (EPIPE, ECONNRESET, ...), so the caller can mark the
/// consumer dead and stop producing for it.
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;  // client went away; drop its remaining responses
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

/// Shared between the reader thread, the writer thread, and the scheduler's
/// producers (dispatcher sink sets plain slots, stream workers push frames).
struct Server::Connection {
  int fd = -1;
  int client = -1;  ///< scheduler client id
  std::mutex mu;    ///< guards fd teardown vs stop()'s SHUT_RD
  std::atomic<bool> alive{true};  ///< false after a write error
  std::unique_ptr<DeliveryQueue> delivery;
};

Server::Server(ServerOptions opt) : opt_(std::move(opt)), service_(opt_.service) {}

Server::~Server() { stop(); }

void Server::start() {
  require(!opt_.socket_path.empty(), "serve: socket_path is required");
  // Belt to MSG_NOSIGNAL's suspenders: any stray write to a dead peer (e.g.
  // through a library that bypasses write_all) must not kill the server.
  ::signal(SIGPIPE, SIG_IGN);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(opt_.socket_path.size() < sizeof(addr.sun_path),
          "serve: socket path longer than sockaddr_un allows: " + opt_.socket_path);
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(), sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  ::unlink(opt_.socket_path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    sys_fail("bind " + opt_.socket_path);
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    sys_fail("listen");
  }

  Scheduler::Options sopt;
  sopt.queue_capacity = opt_.queue_capacity;
  sopt.wave = opt_.wave;
  sopt.stream_slots = opt_.stream_slots;
  scheduler_ = std::make_unique<Scheduler>(service_, sopt);

  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Closing the listen socket makes accept() fail and the accept loop exit.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock readers stuck on read(): shut down every live connection's
  // receive side; readers then close their delivery queues, join their
  // writers (which drain every already-submitted response), and exit.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& c : conns_) {
      std::lock_guard<std::mutex> conn_lock(c->mu);
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
  }
  for (std::thread& t : reader_threads_)
    if (t.joinable()) t.join();
  reader_threads_.clear();

  scheduler_.reset();  // drains nothing further; all jobs were delivered
  ::unlink(opt_.socket_path.c_str());
}

void Server::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed by stop()
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->client = scheduler_->open_client();
    conn->delivery = std::make_unique<DeliveryQueue>(opt_.stream_window);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  // Writer: the single consumer of this connection's DeliveryQueue. A write
  // error marks the consumer gone, which unwinds in-flight stream producers;
  // the loop keeps draining so every producer finishes.
  std::thread writer([conn] {
    std::string bytes;
    while (conn->delivery->next(bytes)) {
      if (!conn->alive.load(std::memory_order_relaxed)) continue;
      if (!write_all(conn->fd, bytes.data(), bytes.size())) {
        conn->alive.store(false, std::memory_order_relaxed);
        conn->delivery->shutdown();
      }
    }
  });

  std::string buf;
  std::size_t scanned = 0;  // leading bytes of buf known to hold no '\n'
  char chunk[4096];
  while (true) {
    const ssize_t r = ::read(conn->fd, chunk, sizeof chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;  // EOF or error: stop reading, flush what we have
    buf.append(chunk, static_cast<std::size_t>(r));
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', scanned); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) scheduler_->dispatch(conn->client, std::move(line), *conn->delivery);
    }
    buf.erase(0, start);
    scanned = buf.size();
  }
  // Every already-submitted job still delivers; the writer drains them all
  // (or drops them past a write error) before the queue reports empty.
  conn->delivery->close_submit();
  writer.join();
  scheduler_->close_client(conn->client);
  std::lock_guard<std::mutex> lock(conn->mu);
  ::close(conn->fd);
  conn->fd = -1;
}

// ---------------------------------------------------------------------------
// BlockingClient
// ---------------------------------------------------------------------------

BlockingClient::BlockingClient(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(socket_path.size() < sizeof(addr.sun_path),
          "serve: socket path longer than sockaddr_un allows: " + socket_path);
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) sys_fail("socket");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    sys_fail("connect " + socket_path);
  }
}

BlockingClient::~BlockingClient() {
  if (fd_ >= 0) ::close(fd_);
}

void BlockingClient::send_line(const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  write_all(fd_, out.data(), out.size());
}

std::string BlockingClient::recv_line() {
  std::size_t scanned = 0;  // leading bytes of buf_ known to hold no '\n'
  while (true) {
    const std::size_t nl = buf_.find('\n', scanned);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    scanned = buf_.size();
    char chunk[4096];
    const ssize_t r = ::read(fd_, chunk, sizeof chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw NumericalError("serve: connection closed while awaiting response");
    buf_.append(chunk, static_cast<std::size_t>(r));
  }
}

std::size_t BlockingClient::recv_raw(char* out, std::size_t cap) {
  if (!buf_.empty()) {
    const std::size_t n = std::min(cap, buf_.size());
    std::memcpy(out, buf_.data(), n);
    buf_.erase(0, n);
    return n;
  }
  while (true) {
    const ssize_t r = ::read(fd_, out, cap);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) throw NumericalError("serve: socket read failed while streaming");
    return static_cast<std::size_t>(r);
  }
}

}  // namespace ivory::serve
