// Supervised multi-process serve fleet.
//
// `ivory serve --workers N` runs one Supervisor in the parent process and N
// worker processes, each a plain `ivory serve --worker 1` on its own Unix
// socket (`<path>.w<i>`). The supervisor owns the public socket and a tiny
// byte-level mux: every accepted client connection is pinned round-robin to
// a healthy worker and proxied full-duplex, so the NDJSON protocol (and the
// per-connection response ordering contract) is exactly the single-process
// server's. Workers share nothing in memory but may share one DurableStore
// directory — that is what makes a worker restart cheap and a fleet restart
// warm.
//
// Fault containment:
//   - A crashed worker (kill -9, OOM, abort) costs only the connections
//     pinned to it. The proxy counts request/response newlines; when the
//     worker side dies with requests still unanswered, each missing
//     response is synthesized as a structured, *retryable* error line
//     ({"ok":false,"error":{"code":"worker_unavailable","retryable":true,..}})
//     so clients never hang on a dead worker.
//   - The monitor thread reaps dead workers and restarts them with
//     exponential backoff (base doubles per consecutive failure, capped).
//     A worker that keeps dying trips the flap limit and is parked as
//     Failed instead of burning CPU in a crash loop; the rest of the fleet
//     keeps serving.
//   - Liveness is checked two ways: waitpid (process death) and a periodic
//     stats ping over the worker's socket (hung-but-alive detection; two
//     consecutive ping timeouts get the worker killed and restarted).
//
// Graceful drain: stop() (the CLI calls it on SIGTERM/SIGINT) stops
// accepting, SIGTERMs the workers — each finishes its in-flight requests
// and exits via its own Server::stop() — and SIGKILLs any straggler after
// a bounded drain deadline. In-flight client connections then see either
// their final responses or synthesized retryable errors, never a hang.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ivory::serve {

struct SupervisorOptions {
  std::string socket_path;  ///< public socket; workers get <path>.w<i>
  int workers = 2;
  /// Binary to exec for workers; empty resolves /proc/self/exe (correct
  /// when the supervisor runs inside the ivory CLI).
  std::string exe;
  /// Extra flags appended to each worker's `serve` command line
  /// (--cache-dir, --threads, --cache, ...). Pairs of flag and value.
  std::vector<std::string> worker_args;

  int spawn_wait_ms = 8000;       ///< worker socket must accept within this
  int health_interval_ms = 250;   ///< monitor loop period
  int ping_timeout_ms = 10000;    ///< stats-ping send/recv timeout
  int ping_failures_to_kill = 2;  ///< consecutive timeouts before SIGKILL
  int backoff_initial_ms = 100;   ///< restart delay after the first crash
  int backoff_max_ms = 5000;      ///< backoff ceiling
  int flap_limit = 5;             ///< consecutive crashes before parking
  int flap_reset_ms = 10000;      ///< uptime that clears the crash streak
  int drain_deadline_ms = 5000;   ///< stop(): SIGTERM -> SIGKILL budget
};

struct WorkerStatus {
  int index = 0;
  pid_t pid = -1;               ///< -1 when not running
  std::string state;            ///< starting|healthy|backoff|failed|stopped
  std::string socket;
  std::uint64_t restarts = 0;   ///< successful respawns
  std::uint64_t crashes = 0;    ///< deaths observed (incl. ping kills)
};

struct FleetStats {
  std::vector<WorkerStatus> workers;
  std::uint64_t connections = 0;       ///< client connections accepted
  std::uint64_t retry_errors = 0;      ///< synthesized retryable error lines
  std::uint64_t rejected = 0;          ///< connections refused (no healthy worker)
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions opt);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns the workers (waiting for each socket to accept), binds the
  /// public socket, starts the acceptor and monitor threads. Throws
  /// InvalidParameter when the fleet cannot come up: an overlong socket
  /// path before any worker is spawned, a worker or bind failure after
  /// killing, reaping and unlinking every worker spawned so far.
  void start();

  /// Graceful drain; see the header comment. Idempotent.
  void stop();

  bool running() const { return running_.load(); }
  const std::string& socket_path() const { return opt_.socket_path; }
  FleetStats stats() const;

  /// The one-line JSON a client receives for a request lost to a worker
  /// crash (exposed for tests and the crash-recovery smoke).
  static std::string retryable_error_line();

 private:
  struct Worker;
  struct Proxy;

  void accept_loop();
  void monitor_loop();
  void spawn_locked(Worker& w);                  ///< fork+exec; sets pid/state
  bool wait_ready(Worker& w);                    ///< poll-connect until accept
  void note_death_locked(Worker& w, const std::chrono::steady_clock::time_point& now);
  int pick_and_connect();                        ///< worker fd, or -1
  void prune_proxies_locked();
  bool ping(const std::string& socket) const;    ///< stats round-trip

  SupervisorOptions opt_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Atomic: stop() shuts down and invalidates the fd while accept_loop()
  // is blocked in accept() on it.
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;
  std::thread monitor_thread_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::shared_ptr<Proxy>> proxies_;
  int rr_cursor_ = 0;
  std::uint64_t connections_ = 0;
  std::uint64_t rejected_ = 0;
  std::atomic<std::uint64_t> retry_errors_{0};
};

}  // namespace ivory::serve
