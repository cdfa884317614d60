// Job scheduler for the evaluation service.
//
// `dispatch` is the one place a request line is decoded: it JSON-parses the
// line once, on the calling transport's reader thread, into its envelope
// and Request (Service::decode). What happens next depends on the line:
//
//   - {"cancel":<id>} is answered at once;
//   - a plain request the in-memory result cache holds (Service::
//     cached_reply; never `stats`/`metrics`, never the durable store) is
//     answered at once through DeliveryQueue::deliver, so a hit waits for
//     neither the dispatcher, another connection's wave nor the writer.
//     The reader thread's write never blocks: a blocking one would stop it
//     reading, and a client that sends many requests before reading any
//     reply would then block on its own sends — a deadlock;
//   - anything else — a miss, a bad line, `stats`, `metrics`, a stream —
//     becomes a queued job that carries the decoded line, so no later stage
//     parses it again.
//
// A single dispatcher thread drains the bounded FIFO queue in *waves*: it
// gathers up to `wave` jobs (round-robin across client queues, preserving
// each client's submission order — fairness across concurrent multi-request
// batches), evaluates the wave on the process-wide deterministic thread pool
// (`par::parallel_map`; a request's own inner sweep parallelism then runs
// inline per the pool's nesting rule), and delivers the responses serially
// in wave order. Every reply, queued or answered at once, fills a slot its
// line opened in submission order, so per-client delivery order always
// equals submission order and transports stream responses without
// reordering buffers.
//
// Back-pressure: `dispatch` blocks while `queue_capacity` jobs are pending —
// a slow consumer stalls its producer instead of growing memory without
// bound. Cancellation (`cancel`) and per-request deadlines (`deadline_ms`
// envelope field) apply to *queued* jobs: a job already evaluating runs to
// completion; a cancelled or expired job is delivered as a structured
// {"ok":false} response without touching a model. A cache hit completes on
// arrival, so a later {"cancel":<id>} naming it answers "cancelled":false
// and its deadline_ms cannot expire. The serve.scheduler.* metrics (jobs,
// queue_wait_ms, wave_size) count queued jobs only.
//
// Streamed requests ride the same per-client queues and
// wave gather for ordering/fairness, but evaluate on a small pool of
// dedicated stream-worker threads instead of inside the wave: a streamed
// transient runs for seconds and must not stall the dispatcher. Each stream
// job writes frames into its connection's DeliveryQueue slot; the slot's
// bounded window is the flow control — a slow reader blocks only its own
// stream worker. `cancel` reaches streams mid-flight via a shared flag the
// emitter polls per chunk.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace ivory::serve {

/// Per-connection ordered delivery of mixed plain and streamed responses.
///
/// Transports open one slot per request *in submission order* (a Plain slot
/// for line responses, a Stream slot for frame streams) and run one consumer
/// (`next`) that concatenates the slots' bytes in that order — so the wire
/// order always equals submission order even though plain responses come
/// from the dispatcher thread and stream frames from stream workers. A reply
/// known at submission (a cache hit, a cancel answer) skips the slot when it
/// can: `deliver`.
///
/// Flow control: a Stream slot holds at most `stream_window` undelivered
/// frames; `push` blocks past that, which backpressures exactly one stream
/// worker. Plain `set` and `deliver` never block (neither the dispatcher nor
/// a reader thread may stall on a slow reader). `shutdown` marks the
/// consumer dead: pushes return false (producers unwind via
/// StreamEmitter::Abort) while `next` keeps draining so producers already
/// blocked always finish.
///
/// All handles share ownership of the internal state, so a producer may
/// outlive the queue object itself.
class DeliveryQueue {
 public:
  /// Writes up to `n` bytes to the transport without blocking. Returns how
  /// many it wrote (0 when the transport would block), or -1 when the
  /// consumer is gone.
  using TryWrite = std::function<std::ptrdiff_t(const char* data, std::size_t n)>;

  /// `try_write` empty: every reply goes through the consumer (`next`).
  explicit DeliveryQueue(std::size_t stream_window = 8, TryWrite try_write = {});

  class Plain {
   public:
    /// Delivers the response bytes (including any trailing newline). Never
    /// blocks; called once.
    void set(std::string bytes);

   private:
    friend class DeliveryQueue;
    struct Impl;
    std::shared_ptr<void> inner_;
    std::shared_ptr<Impl> impl_;
  };

  class Stream {
   public:
    /// Queues one frame write. Blocks while the window is full; returns
    /// false when the consumer is gone (bytes dropped).
    bool push(std::string bytes);
    /// Marks the stream complete; the consumer pops the slot once drained.
    void finish();
    /// Drops undelivered frames and wakes blocked producers (cancel path:
    /// the terminal CANCEL_ACK must not wait behind a full window). Does not
    /// poison the slot — subsequent pushes still deliver.
    void discard_pending();

   private:
    friend class DeliveryQueue;
    struct Impl;
    std::shared_ptr<void> inner_;
    std::shared_ptr<Impl> impl_;
  };

  /// Opens the next slot in delivery order.
  std::shared_ptr<Plain> open_plain();
  std::shared_ptr<Stream> open_stream();

  /// Delivers a complete plain response as the next slot in order. Call it
  /// from the one thread that opens the slots. When no earlier slot is
  /// pending and the consumer holds no bytes, the calling thread writes it
  /// with one `try_write`; what that leaves unwritten (all of it without a
  /// `try_write`, or behind a pending slot) becomes a filled Plain slot for
  /// the consumer. Never blocks on the transport (see the file comment).
  void deliver(std::string bytes);

  /// No further slots will be opened; `next` returns false once drained.
  void close_submit();

  /// Consumer is gone (write error / disconnect): stream pushes start
  /// returning false. `next` remains usable for draining.
  void shutdown();

  /// Blocks for the next bytes to write in delivery order. Returns false
  /// when the queue is closed and fully drained. The consumer writes the
  /// bytes before it calls `next` again.
  bool next(std::string& bytes);

 private:
  struct Inner;
  std::shared_ptr<Inner> inner_;
};

class Scheduler {
 public:
  struct Options {
    std::size_t queue_capacity = 1024;
    std::size_t wave = 0;       ///< jobs per wave; 0 = 4x pool threads
    bool start_paused = false;  ///< tests: queue jobs, then resume()
    std::size_t stream_slots = 2;  ///< dedicated stream-worker threads
  };

  Scheduler(Service& service, Options opt);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a request source (one per connection / batch).
  int open_client();

  /// Marks the client done; its already-queued jobs still run and deliver.
  void close_client(int client);

  /// Routes one request line from a transport, decoding it once: a
  /// {"cancel":<id>} line and an in-memory cache hit are answered at once
  /// through `out.deliver`, a streamed request gets a stream slot in `out`
  /// and anything else a plain slot, in submission order so `out` delivers
  /// the responses in that order. Blocks while the queue is at capacity.
  /// Streamed requests evaluate on a stream worker, which always finishes
  /// their slot, even on cancel or error.
  void dispatch(int client, std::string_view line, DeliveryQueue& out);

  /// Cancels the oldest *queued* job of `client` whose request id equals
  /// `id`, or flags a matching *active stream* so it aborts at its next
  /// chunk (its pending frames are discarded and a CANCEL_ACK terminates
  /// the stream). Returns false when no such job exists.
  bool cancel(int client, const json::Value& id);

  /// Releases a start_paused scheduler.
  void resume();

  /// Blocks until every job submitted so far has been delivered.
  void drain();

  std::size_t pending() const;

 private:
  struct Job {
    /// Decoded by dispatch; its id and deadline_ms drive cancel/deadline
    /// bookkeeping.
    DecodedLine line;
    /// Filled from the dispatcher thread, serially, in per-client
    /// submission order.
    std::shared_ptr<DeliveryQueue::Plain> plain_out;
    std::shared_ptr<DeliveryQueue::Stream> stream_out;  ///< non-null = stream job
    std::shared_ptr<std::atomic<bool>> cancel_flag;     ///< stream jobs only
    int client = -1;
    bool cancelled = false;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct ClientQueue {
    std::deque<Job> jobs;
    bool closed = false;
  };
  struct ActiveStream {
    int client = -1;
    json::Value id;
    std::shared_ptr<std::atomic<bool>> cancel_flag;
    std::shared_ptr<DeliveryQueue::Stream> out;
  };

  void dispatcher_loop();
  void stream_worker_loop();
  void run_stream_job(Job job);

  Service& service_;
  Options opt_;

  mutable std::mutex mu_;
  std::condition_variable cv_space_;     ///< queue below capacity
  std::condition_variable cv_work_;      ///< work available / state change
  std::condition_variable cv_stream_;    ///< stream_queue_ gained work
  std::condition_variable cv_drained_;   ///< outstanding == 0
  std::map<int, ClientQueue> clients_;   ///< ordered: stable round-robin
  int next_client_ = 0;
  int rr_cursor_ = 0;                    ///< round-robin position (client id)
  std::size_t queued_ = 0;
  std::size_t outstanding_ = 0;          ///< submitted, not yet delivered
  bool paused_ = false;
  bool stop_ = false;

  std::deque<Job> stream_queue_;         ///< dispatched, awaiting a stream worker
  std::vector<ActiveStream> active_streams_;

  std::thread dispatcher_;
  std::vector<std::thread> stream_workers_;
};

}  // namespace ivory::serve
