#include "serve/supervisor.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "serve/frame.hpp"
#include "serve/unix_socket.hpp"

namespace ivory::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw InvalidParameter("fleet: " + what + ": " + std::strerror(errno));
}

std::size_t count_newlines(const char* data, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += data[i] == '\n';
  return c;
}

metrics::Counter& g_restarts() {
  static metrics::Counter& c = metrics::registry().counter("fleet.worker_restarts");
  return c;
}
metrics::Counter& g_retry_errors() {
  static metrics::Counter& c = metrics::registry().counter("fleet.retry_errors");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker / Proxy state
// ---------------------------------------------------------------------------

struct Supervisor::Worker {
  enum class State { Stopped, Starting, Healthy, Backoff, Failed };

  int index = 0;
  std::string socket;
  pid_t pid = -1;
  State state = State::Stopped;
  std::uint64_t restarts = 0;
  std::uint64_t crashes = 0;
  int consecutive_failures = 0;
  int ping_failures = 0;
  std::chrono::steady_clock::time_point started_at;
  std::chrono::steady_clock::time_point restart_at;

  const char* state_name() const {
    switch (state) {
      case State::Stopped: return "stopped";
      case State::Starting: return "starting";
      case State::Healthy: return "healthy";
      case State::Backoff: return "backoff";
      case State::Failed: return "failed";
    }
    return "?";
  }
};

/// One client connection pinned to one worker: two pump threads and the
/// response bookkeeping that turns a worker crash into retryable errors.
/// Requests are always newline-delimited lines; responses may be binary
/// streams, so the w2c pump counts them through a frame-aware
/// ResponseScanner instead of counting newlines.
struct Supervisor::Proxy {
  int client_fd = -1;
  int worker_fd = -1;
  std::atomic<std::uint64_t> requests{0};   ///< newlines client -> worker
  std::atomic<std::uint64_t> responses{0};  ///< completed responses worker -> client
  ResponseScanner scanner;                  ///< w2c pump thread only
  std::atomic<bool> done_c2w{false};
  std::atomic<bool> done_w2c{false};
  std::thread t_c2w;
  std::thread t_w2c;

  bool done() const { return done_c2w.load() && done_w2c.load(); }

  void shutdown_both() {
    if (client_fd >= 0) ::shutdown(client_fd, SHUT_RDWR);
    if (worker_fd >= 0) ::shutdown(worker_fd, SHUT_RDWR);
  }

  ~Proxy() {
    // The destructor can run on one of the pump threads themselves (the
    // lambda's shared_ptr may be the last reference): joining yourself is
    // a deadlock, detaching a thread that is mid-return is fine.
    auto reap = [](std::thread& t) {
      if (!t.joinable()) return;
      if (t.get_id() == std::this_thread::get_id()) t.detach();
      else t.join();
    };
    reap(t_c2w);
    reap(t_w2c);
    if (client_fd >= 0) ::close(client_fd);
    if (worker_fd >= 0) ::close(worker_fd);
  }
};

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

Supervisor::Supervisor(SupervisorOptions opt) : opt_(std::move(opt)) {}

Supervisor::~Supervisor() { stop(); }

std::string Supervisor::retryable_error_line() {
  // Built once; id is null because a byte-level mux cannot know which
  // request ids died with the worker. "retryable":true is the client's cue
  // to resubmit — the evaluation is deterministic and the result cache
  // makes the retry cheap.
  json::Value::Object err;
  err.emplace_back("code", "worker_unavailable");
  err.emplace_back("site", "fleet");
  err.emplace_back("candidate", "");
  err.emplace_back("detail",
                   "worker crashed with the request in flight; safe to retry");
  err.emplace_back("retryable", true);
  json::Value::Object root;
  root.emplace_back("id", json::Value());
  root.emplace_back("ok", false);
  root.emplace_back("error", json::Value(std::move(err)));
  return json::Value(std::move(root)).write();
}

void Supervisor::start() {
  require(!opt_.socket_path.empty(), "fleet: socket_path is required");
  require(opt_.workers >= 1, "fleet: need at least one worker");
  ::signal(SIGPIPE, SIG_IGN);

  std::lock_guard<std::mutex> lock(mu_);
  // Every path is checked before the first fork: past it, a throw must not
  // leave a worker behind.
  check_socket_path(opt_.socket_path, "fleet");
  workers_.clear();
  for (int i = 0; i < opt_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->socket = opt_.socket_path + ".w" + std::to_string(i);
    check_socket_path(w->socket, "fleet");
    workers_.push_back(std::move(w));
  }
  try {
    for (auto& w : workers_) {
      spawn_locked(*w);
      if (!wait_ready(*w))
        throw InvalidParameter("fleet: worker did not come up on " + w->socket);
      w->state = Worker::State::Healthy;
    }
    listen_fd_ = listen_unix(opt_.socket_path, "fleet");
  } catch (...) {
    // running_ is still false, so neither stop() nor the destructor would
    // reap what was spawned: kill, reap and unlink it here.
    for (auto& w : workers_)
      if (w->pid > 0) ::kill(w->pid, SIGKILL);
    for (auto& w : workers_) {
      if (w->pid > 0) ::waitpid(w->pid, nullptr, 0);
      w->pid = -1;
      w->state = Worker::State::Stopped;
      ::unlink(w->socket.c_str());
    }
    throw;
  }

  // The threads take mu_ once start() returns.
  running_.store(true);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  monitor_thread_ = std::thread([this] { monitor_loop(); });
}

void Supervisor::spawn_locked(Worker& w) {
  std::string exe = opt_.exe;
  if (exe.empty()) exe = "/proc/self/exe";

  std::vector<std::string> args = {exe,        "serve", "--socket",
                                   w.socket,   "--worker", "1"};
  for (const std::string& a : opt_.worker_args) args.push_back(a);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) sys_fail("fork");
  if (pid == 0) {
    // Child: restore default signal dispositions and a clear mask, then
    // exec — nothing of the multithreaded parent survives into the worker.
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGPIPE, SIG_DFL);
    sigset_t none;
    sigemptyset(&none);
    pthread_sigmask(SIG_SETMASK, &none, nullptr);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  w.pid = pid;
  w.state = Worker::State::Starting;
  w.ping_failures = 0;
  w.started_at = std::chrono::steady_clock::now();
}

bool Supervisor::wait_ready(Worker& w) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(opt_.spawn_wait_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = connect_unix(w.socket, "fleet");
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    int status = 0;
    if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
      w.pid = -1;  // died before its socket came up (bad flags, port clash)
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

void Supervisor::note_death_locked(Worker& w,
                                   const std::chrono::steady_clock::time_point& now) {
  w.pid = -1;
  ++w.crashes;
  ++w.consecutive_failures;
  w.ping_failures = 0;
  if (w.consecutive_failures >= opt_.flap_limit) {
    // Crash loop: park the worker instead of burning the machine. The rest
    // of the fleet keeps serving; a stats() reader sees "failed".
    w.state = Worker::State::Failed;
    return;
  }
  int backoff = opt_.backoff_initial_ms;
  for (int i = 1; i < w.consecutive_failures && backoff < opt_.backoff_max_ms; ++i)
    backoff *= 2;
  if (backoff > opt_.backoff_max_ms) backoff = opt_.backoff_max_ms;
  w.state = Worker::State::Backoff;
  w.restart_at = now + std::chrono::milliseconds(backoff);
}

bool Supervisor::ping(const std::string& socket) const {
  const int fd = connect_unix(socket, "fleet", opt_.ping_timeout_ms);
  if (fd < 0) return false;
  const std::string req = "{\"id\":\"fleet-health\",\"op\":\"stats\"}\n";
  bool ok = send_all(fd, req.data(), req.size());
  char buf[4096];
  bool got_line = false;
  while (ok && !got_line) {
    const std::ptrdiff_t r = recv_some(fd, buf, sizeof buf);
    if (r <= 0) {
      ok = false;
      break;
    }
    got_line = std::memchr(buf, '\n', static_cast<std::size_t>(r)) != nullptr;
  }
  ::close(fd);
  return ok && got_line;
}

void Supervisor::monitor_loop() {
  while (!stopping_.load()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      for (auto& wp : workers_) {
        Worker& w = *wp;
        // 1. Process death (crash, OOM-kill, clean exit) via waitpid.
        if (w.pid > 0) {
          int status = 0;
          if (::waitpid(w.pid, &status, WNOHANG) == w.pid) note_death_locked(w, now);
        }
        // 2. Scheduled restarts once the backoff elapses.
        if (w.state == Worker::State::Backoff && now >= w.restart_at) {
          spawn_locked(w);
          if (wait_ready(w)) {
            w.state = Worker::State::Healthy;
            ++w.restarts;
            g_restarts().add();
          } else {
            if (w.pid > 0) {
              ::kill(w.pid, SIGKILL);
              ::waitpid(w.pid, nullptr, 0);
            }
            note_death_locked(w, std::chrono::steady_clock::now());
          }
        }
        // 3. A long stretch of good behaviour clears the crash streak.
        if (w.state == Worker::State::Healthy && w.consecutive_failures > 0 &&
            now - w.started_at > std::chrono::milliseconds(opt_.flap_reset_ms))
          w.consecutive_failures = 0;
      }
      prune_proxies_locked();
    }

    // 4. Liveness ping outside the lock (it blocks up to ping_timeout_ms).
    //    Process death is caught by waitpid above; this catches hangs.
    std::vector<std::pair<int, std::string>> to_ping;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& wp : workers_)
        if (wp->state == Worker::State::Healthy) to_ping.emplace_back(wp->index, wp->socket);
    }
    for (const auto& [idx, socket] : to_ping) {
      if (stopping_.load()) break;
      const bool ok = ping(socket);
      std::lock_guard<std::mutex> lock(mu_);
      Worker& w = *workers_[static_cast<std::size_t>(idx)];
      if (w.state != Worker::State::Healthy) continue;
      if (ok) {
        w.ping_failures = 0;
      } else if (++w.ping_failures >= opt_.ping_failures_to_kill && w.pid > 0) {
        // Alive but unresponsive: treat as crashed. SIGKILL (a hung worker
        // by definition ignores polite signals), reap, restart path.
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
        note_death_locked(w, std::chrono::steady_clock::now());
      }
    }

    for (int slept = 0; slept < opt_.health_interval_ms && !stopping_.load(); slept += 20)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int Supervisor::pick_and_connect() {
  for (int attempt = 0; attempt < opt_.workers; ++attempt) {
    std::string socket;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const int n = static_cast<int>(workers_.size());
      for (int k = 0; k < n; ++k) {
        Worker& w = *workers_[static_cast<std::size_t>((rr_cursor_ + k) % n)];
        if (w.state == Worker::State::Healthy) {
          socket = w.socket;
          rr_cursor_ = (w.index + 1) % n;
          break;
        }
      }
    }
    if (socket.empty()) return -1;
    const int fd = connect_unix(socket, "fleet");
    if (fd >= 0) return fd;
    // Healthy-by-bookkeeping but not accepting: leave the diagnosis to the
    // monitor (waitpid/ping) and try the next worker.
  }
  return -1;
}

void Supervisor::prune_proxies_locked() {
  for (std::size_t i = 0; i < proxies_.size();) {
    if (proxies_[i]->done())
      proxies_.erase(proxies_.begin() + static_cast<long>(i));  // ~Proxy joins
    else
      ++i;
  }
}

void Supervisor::accept_loop() {
  while (running_.load()) {
    const int client = accept_unix(listen_fd_);
    if (client < 0) return;  // listen socket closed by stop()
    // A stuck client must not wedge a pump thread forever.
    set_send_timeout(client, 30000);

    const int worker = pick_and_connect();
    if (worker < 0) {
      std::lock_guard<std::mutex> lock(mu_);
      ++rejected_;
      const std::string line = retryable_error_line() + "\n";
      send_all(client, line.data(), line.size());
      ::close(client);
      continue;
    }

    auto p = std::make_shared<Proxy>();
    p->client_fd = client;
    p->worker_fd = worker;
    {
      // Count before the pumps start: a client that reads its first reply
      // must never observe a stats() snapshot that has not counted it yet.
      std::lock_guard<std::mutex> lock(mu_);
      ++connections_;
    }
    p->t_c2w = std::thread([p] {
      char buf[1 << 16];
      while (true) {
        const std::ptrdiff_t r = recv_some(p->client_fd, buf, sizeof buf);
        if (r <= 0) break;
        p->requests.fetch_add(count_newlines(buf, static_cast<std::size_t>(r)));
        if (!send_all(p->worker_fd, buf, static_cast<std::size_t>(r))) break;
      }
      // Client EOF: half-close toward the worker so it drains in-flight
      // work and closes, which terminates the w2c pump naturally.
      ::shutdown(p->worker_fd, SHUT_WR);
      p->done_c2w.store(true);
    });
    p->t_w2c = std::thread([this, p] {
      char buf[1 << 16];
      std::string fwd;
      while (true) {
        const std::ptrdiff_t r = recv_some(p->worker_fd, buf, sizeof buf);
        if (r <= 0) break;
        // Frame-aware accounting: '\n' inside a binary frame is payload, not
        // a response boundary. The scanner also withholds a partially
        // received frame, so a worker crash mid-frame forwards nothing torn.
        fwd.clear();
        p->responses.fetch_add(p->scanner.feed(buf, static_cast<std::size_t>(r), fwd));
        if (!fwd.empty() && !send_all(p->client_fd, fwd.data(), fwd.size())) break;
      }
      // Worker gone. Any unanswered request becomes a structured retryable
      // error — the contract that a crash never leaves a client hanging.
      std::uint64_t asked = p->requests.load();
      std::uint64_t answered = p->responses.load();
      if (p->scanner.mid_stream() && asked > answered) {
        // The stream that died mid-flight gets its retryable error as a
        // terminal ERROR frame, so the client's frame parser ends cleanly
        // instead of choking on a JSON line inside a binary stream.
        retry_errors_.fetch_add(1, std::memory_order_relaxed);
        g_retry_errors().add();
        ++answered;
        std::string bytes;
        encode_frame(bytes, FrameType::Error, retryable_error_line());
        send_all(p->client_fd, bytes.data(), bytes.size());
      }
      if (asked > answered) {
        const std::string line = retryable_error_line() + "\n";
        for (std::uint64_t i = answered; i < asked; ++i) {
          // Count before delivering: a client that reads the line must never
          // observe a stats() snapshot that has not counted it yet.
          retry_errors_.fetch_add(1, std::memory_order_relaxed);
          g_retry_errors().add();
          if (!send_all(p->client_fd, line.data(), line.size())) break;
        }
      }
      ::shutdown(p->client_fd, SHUT_RDWR);  // unblocks the c2w pump
      p->done_w2c.store(true);
    });

    std::lock_guard<std::mutex> lock(mu_);
    prune_proxies_locked();
    proxies_.push_back(std::move(p));
  }
}

void Supervisor::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);

  // 1. Stop accepting.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();

  // 2. Graceful drain: SIGTERM lets each worker finish in-flight requests
  //    (its Server::stop waits for delivery) and exit.
  std::vector<pid_t> pids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& w : workers_)
      if (w->pid > 0) {
        ::kill(w->pid, SIGTERM);
        pids.push_back(w->pid);
      }
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opt_.drain_deadline_ms);
  for (const pid_t pid : pids) {
    bool reaped = false;
    while (!reaped && std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pid, nullptr, WNOHANG) == pid) reaped = true;
      else std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      // Drain deadline blown: the bound matters more than politeness.
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  // 3. Tear down the proxies (worker exits have ended most of them; the
  //    destructor joins the pump threads).
  std::vector<std::shared_ptr<Proxy>> proxies;
  {
    std::lock_guard<std::mutex> lock(mu_);
    proxies.swap(proxies_);
    for (auto& w : workers_) {
      w->pid = -1;
      w->state = Worker::State::Stopped;
    }
  }
  for (auto& p : proxies) p->shutdown_both();
  proxies.clear();  // joins

  ::unlink(opt_.socket_path.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& w : workers_) ::unlink(w->socket.c_str());
}

FleetStats Supervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats s;
  for (const auto& w : workers_) {
    WorkerStatus ws;
    ws.index = w->index;
    ws.pid = w->pid;
    ws.state = w->state_name();
    ws.socket = w->socket;
    ws.restarts = w->restarts;
    ws.crashes = w->crashes;
    s.workers.push_back(std::move(ws));
  }
  s.connections = connections_;
  s.rejected = rejected_;
  s.retry_errors = retry_errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ivory::serve
