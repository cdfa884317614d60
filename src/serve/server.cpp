#include "serve/server.hpp"

#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "serve/unix_socket.hpp"

namespace ivory::serve {

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
  // through a library that bypasses send_all) must not kill the server.
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = listen_unix(opt_.socket_path, "serve");

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
    const int fd = accept_unix(listen_fd_);
    if (fd < 0) return;  // listen socket closed by stop()
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->client = scheduler_->open_client();
    conn->delivery = std::make_unique<DeliveryQueue>(
        opt_.stream_window,
        [fd](const char* data, std::size_t n) { return try_send(fd, data, n); });
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
      if (!send_all(conn->fd, bytes.data(), bytes.size())) {
        conn->alive.store(false, std::memory_order_relaxed);
        conn->delivery->shutdown();
      }
    }
  });

  std::string buf;
  std::size_t scanned = 0;  // leading bytes of buf known to hold no '\n'
  char chunk[4096];
  while (true) {
    const std::ptrdiff_t r = recv_some(conn->fd, chunk, sizeof chunk);
    if (r <= 0) break;  // EOF or error: stop reading, flush what we have
    buf.append(chunk, static_cast<std::size_t>(r));
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', scanned); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      std::string_view line(buf.data() + start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) scheduler_->dispatch(conn->client, line, *conn->delivery);
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
  fd_ = connect_unix(socket_path, "serve");
  if (fd_ < 0)
    throw InvalidParameter("serve: connect " + socket_path + ": " + std::strerror(errno));
}

BlockingClient::~BlockingClient() {
  if (fd_ >= 0) ::close(fd_);
}

void BlockingClient::send_line(const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  send_all(fd_, out.data(), out.size());
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
    const std::ptrdiff_t r = recv_some(fd_, chunk, sizeof chunk);
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
  const std::ptrdiff_t r = recv_some(fd_, out, cap);
  if (r < 0) throw NumericalError("serve: socket read failed while streaming");
  return static_cast<std::size_t>(r);
}

}  // namespace ivory::serve
