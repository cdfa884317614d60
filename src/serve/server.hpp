// NDJSON-over-Unix-domain-socket transport.
//
// `Server` binds a stream socket, accepts any number of concurrent clients,
// and runs each connection's request lines through the shared Scheduler /
// Service / ResultCache. Per connection, responses come back in request
// order (the scheduler's delivery contract), so the protocol over a socket
// is exactly `ivory batch`'s stdin/stdout protocol — the same request file
// piped through either transport yields the same per-request bytes.
//
// Lifecycle: one accept thread plus one reader and one writer thread per
// live connection. The reader hands each line to Scheduler::dispatch, which
// decodes it and either answers it at once (a cancel, a cache hit) or opens
// a DeliveryQueue slot in submission order and queues it; the writer drains
// the DeliveryQueue to the socket, so plain responses (from the dispatcher)
// and stream frames (from stream workers) interleave on the wire in exactly
// submission order. A reply answered at once goes out from the reader
// thread with one non-blocking send when nothing is ahead of it, and
// otherwise through the writer: the reader never blocks on the socket, so a
// client that sends many requests before reading any cannot stop it from
// reading. A write error marks
// the consumer gone: in-flight streams unwind via StreamEmitter::Abort and
// the rest of the queue drains to the floor. On client EOF the reader closes
// the queue, joins the writer, then closes. `stop()` shuts down accepting,
// drains, and joins everything.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/service.hpp"

namespace ivory::serve {

struct ServerOptions {
  std::string socket_path;  ///< required; unlinked on bind and on stop
  ServiceOptions service;
  std::size_t queue_capacity = 1024;
  std::size_t wave = 0;
  std::size_t stream_slots = 2;   ///< dedicated stream-worker threads
  std::size_t stream_window = 8;  ///< max in-flight frames per stream slot
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens + starts accepting. Throws InvalidParameter on socket
  /// errors (path too long, bind failure, ...).
  void start();

  /// Stops accepting, drains in-flight work, joins all threads. Idempotent.
  void stop();

  bool running() const { return running_.load(); }
  const std::string& socket_path() const { return opt_.socket_path; }
  ServiceStats stats() const { return service_.stats(); }

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);

  ServerOptions opt_;
  Service service_;
  std::unique_ptr<Scheduler> scheduler_;

  // Atomic: stop() shuts down and invalidates the fd while accept_loop()
  // is blocked in accept() on it.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;
};

/// Minimal blocking client for tests and tooling: connect, send request
/// lines, read response lines.
class BlockingClient {
 public:
  explicit BlockingClient(const std::string& socket_path);  ///< throws on failure
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  void send_line(const std::string& line);

  /// Blocks until a full '\n'-terminated line arrives; returns it without
  /// the newline. Throws on EOF/error.
  std::string recv_line();

  /// Raw byte read for streamed responses: drains any bytes recv_line() has
  /// buffered first, then reads from the socket. Returns the count copied
  /// into `out`, 0 on EOF. Throws on socket error.
  std::size_t recv_raw(char* out, std::size_t cap);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace ivory::serve
