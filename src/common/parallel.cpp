#include "common/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace ivory::par {

namespace {

thread_local bool t_in_region = false;

// One fork-join batch: workers grab chunks of [0, n) until exhausted. The
// batch lives on the submitting thread's stack, so `run` may not return
// until every worker has both finished its indices *and* released its
// pointer to the batch (`active` == 0).
struct Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  /// When the batch became visible to workers; each worker's pickup latency
  /// against this is the pool's queue-wait metric.
  std::chrono::steady_clock::time_point published{};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<unsigned> active{0};

  std::mutex err_mutex;
  std::exception_ptr error;
  std::size_t error_index = 0;

  std::mutex done_mutex;
  std::condition_variable done_cv;

  void record_error(std::size_t index, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(err_mutex);
    if (!error || index < error_index) {
      error = std::move(e);
      error_index = index;
    }
  }

  bool complete() {
    return done.load(std::memory_order_acquire) == n &&
           active.load(std::memory_order_acquire) == 0;
  }

  void notify() {
    std::lock_guard<std::mutex> lock(done_mutex);
    done_cv.notify_all();
  }

  // A worker's last touch of the batch. The decrement and the notify are one
  // critical section: the submitter's wait() can only see `active` reach 0
  // under done_mutex, so it cannot return and destroy the batch until this
  // worker has unlocked it.
  void release() {
    std::lock_guard<std::mutex> lock(done_mutex);
    if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) done_cv.notify_all();
  }

  // Processes chunks until the index space is drained.
  void work() {
    const bool was = t_in_region;
    t_in_region = true;
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          // Attribute fault-injection hit counting to the task index so
          // injected failures land on the same tasks at any thread count.
          fault::TaskScope fault_scope(i);
          (*fn)(i);
        } catch (...) {
          record_error(i, std::current_exception());
        }
      }
      if (done.fetch_add(end - begin, std::memory_order_acq_rel) + (end - begin) == n) notify();
    }
    t_in_region = was;
  }

  void wait() {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return complete(); });
  }
};

class ThreadPool {
 public:
  explicit ThreadPool(unsigned n_threads) : size_(n_threads < 1 ? 1 : n_threads) {
    // The submitting thread acts as worker 0; spawn only size_-1 extras.
    workers_.reserve(size_ - 1);
    for (unsigned t = 0; t + 1 < size_; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  unsigned size() const { return size_; }

  void run(Batch& batch) {
    batch.published = std::chrono::steady_clock::now();
    if (size_ > 1) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        current_ = &batch;
        ++generation_;
      }
      cv_.notify_all();
    }
    batch.work();  // The caller participates.
    if (size_ > 1) {
      // Retract the batch so late-waking workers cannot pick it up, then
      // wait for the ones that did to let go of it.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        current_ = nullptr;
      }
      batch.wait();
    }
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      Batch* batch = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stopping_ || (current_ && generation_ != seen); });
        if (stopping_) return;
        batch = current_;
        seen = generation_;
        batch->active.fetch_add(1, std::memory_order_acq_rel);
      }
      // Pickup latency: how long the batch sat published before this worker
      // reached it (scheduler wake + contention, the pool's "queue wait").
      static metrics::Histogram& queue_wait =
          metrics::registry().histogram("pool.queue_wait_ms");
      queue_wait.observe(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - batch->published)
                             .count());
      batch->work();
      batch->release();
    }
  }

  const unsigned size_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  Batch* current_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(configured_threads());
  return *g_pool;
}

}  // namespace

unsigned configured_threads() {
  if (const char* env = std::getenv("IVORY_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

unsigned global_threads() { return global_pool().size(); }

void set_global_threads(unsigned n) {
  require(n >= 1, "set_global_threads: thread count must be >= 1");
  require(!t_in_region, "set_global_threads: cannot resize the pool from a parallel region");
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_pool->size() == n) return;
  g_pool.reset();  // Join the old workers before spawning the replacement.
  g_pool = std::make_unique<ThreadPool>(n);
}

bool in_parallel_region() { return t_in_region; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (t_in_region || n == 1) {
    // Nested region (or trivial loop): rejected from the pool — runs inline,
    // serially, on the calling thread. See the header for why.
    static metrics::Counter& inline_batches =
        metrics::registry().counter("pool.inline_batches");
    static metrics::Counter& inline_indices =
        metrics::registry().counter("pool.inline_indices");
    inline_batches.add();
    inline_indices.add(n);
    const bool was = t_in_region;
    t_in_region = true;
    try {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    } catch (...) {
      t_in_region = was;
      throw;
    }
    t_in_region = was;
    return;
  }

  static metrics::Counter& batches = metrics::registry().counter("pool.batches");
  static metrics::Counter& indices = metrics::registry().counter("pool.indices");
  static metrics::Histogram& batch_ms = metrics::registry().histogram("pool.batch_ms");
  batches.add();
  indices.add(n);
  IVORY_TRACE("pool.parallel_for");
  const auto t0 = std::chrono::steady_clock::now();

  ThreadPool& pool = global_pool();
  metrics::registry().gauge("pool.threads").set(static_cast<std::int64_t>(pool.size()));
  Batch batch;
  batch.fn = &fn;
  batch.n = n;
  // A few chunks per worker: dynamic load balance without contention. Which
  // thread runs which chunk never affects results — slots are per-index and
  // reductions are serial.
  batch.chunk = std::max<std::size_t>(1, n / (4 * static_cast<std::size_t>(pool.size())));
  pool.run(batch);
  batch_ms.observe(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace ivory::par
