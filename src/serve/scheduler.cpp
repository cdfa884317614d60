#include "serve/scheduler.hpp"

#include <algorithm>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "serve/frame.hpp"

namespace ivory::serve {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct SchedulerMetrics {
  metrics::Counter& waves = metrics::registry().counter("serve.scheduler.waves");
  metrics::Counter& jobs = metrics::registry().counter("serve.scheduler.jobs");
  metrics::Counter& cancelled = metrics::registry().counter("serve.scheduler.cancelled");
  metrics::Counter& expired = metrics::registry().counter("serve.scheduler.expired");
  metrics::Gauge& queue_depth = metrics::registry().gauge("serve.scheduler.queue_depth");
  metrics::Gauge& wave_size = metrics::registry().gauge("serve.scheduler.wave_size");
  metrics::Histogram& queue_wait_ms =
      metrics::registry().histogram("serve.scheduler.queue_wait_ms");
  metrics::Histogram& wave_ms = metrics::registry().histogram("serve.scheduler.wave_ms");
};

SchedulerMetrics& sched_metrics() {
  static SchedulerMetrics m;
  return m;
}

/// High-water mark of undelivered stream-frame bytes buffered across all
/// DeliveryQueues — the acceptance gauge proving the server's resident
/// response footprint is bounded by the chunk budget, not waveform length.
metrics::Gauge& stream_buffer_peak() {
  static metrics::Gauge& g =
      metrics::registry().gauge("serve.stream.buffer_peak_bytes");
  return g;
}

}  // namespace

// ---------------------------------------------------------------------------
// DeliveryQueue
// ---------------------------------------------------------------------------

struct DeliveryQueue::Plain::Impl {
  std::string bytes;
  bool ready = false;
};

struct DeliveryQueue::Stream::Impl {
  std::deque<std::string> frames;
  bool finished = false;
};

struct DeliveryQueue::Inner {
  std::mutex mu;
  std::condition_variable cv_data;   ///< consumer: front slot has bytes
  std::condition_variable cv_space;  ///< producers: window opened / death
  struct Slot {
    std::shared_ptr<Plain::Impl> plain;
    std::shared_ptr<Stream::Impl> stream;
  };
  std::deque<Slot> slots;
  std::size_t window = 8;
  std::size_t stream_buffered = 0;  ///< undelivered stream-frame bytes
  bool closed = false;              ///< no further slots
  bool dead = false;                ///< consumer gone
};

DeliveryQueue::DeliveryQueue(std::size_t stream_window)
    : inner_(std::make_shared<Inner>()) {
  inner_->window = std::max<std::size_t>(1, stream_window);
}

void DeliveryQueue::Plain::set(std::string bytes) {
  auto inner = std::static_pointer_cast<Inner>(inner_);
  {
    std::lock_guard<std::mutex> lock(inner->mu);
    impl_->bytes = std::move(bytes);
    impl_->ready = true;
  }
  inner->cv_data.notify_all();
}

bool DeliveryQueue::Stream::push(std::string bytes) {
  auto inner = std::static_pointer_cast<Inner>(inner_);
  {
    std::unique_lock<std::mutex> lock(inner->mu);
    inner->cv_space.wait(
        lock, [&] { return inner->dead || impl_->frames.size() < inner->window; });
    if (inner->dead) return false;
    inner->stream_buffered += bytes.size();
    stream_buffer_peak().set_max(static_cast<std::int64_t>(inner->stream_buffered));
    impl_->frames.push_back(std::move(bytes));
  }
  inner->cv_data.notify_all();
  return true;
}

void DeliveryQueue::Stream::finish() {
  auto inner = std::static_pointer_cast<Inner>(inner_);
  {
    std::lock_guard<std::mutex> lock(inner->mu);
    impl_->finished = true;
  }
  inner->cv_data.notify_all();
}

void DeliveryQueue::Stream::discard_pending() {
  auto inner = std::static_pointer_cast<Inner>(inner_);
  {
    std::lock_guard<std::mutex> lock(inner->mu);
    for (const std::string& f : impl_->frames) inner->stream_buffered -= f.size();
    impl_->frames.clear();
  }
  inner->cv_space.notify_all();
}

std::shared_ptr<DeliveryQueue::Plain> DeliveryQueue::open_plain() {
  auto p = std::make_shared<Plain>();
  p->inner_ = inner_;
  p->impl_ = std::make_shared<Plain::Impl>();
  std::lock_guard<std::mutex> lock(inner_->mu);
  require(!inner_->closed, "serve: delivery slot opened after close_submit");
  inner_->slots.push_back({p->impl_, nullptr});
  return p;
}

std::shared_ptr<DeliveryQueue::Stream> DeliveryQueue::open_stream() {
  auto s = std::make_shared<Stream>();
  s->inner_ = inner_;
  s->impl_ = std::make_shared<Stream::Impl>();
  std::lock_guard<std::mutex> lock(inner_->mu);
  require(!inner_->closed, "serve: delivery slot opened after close_submit");
  inner_->slots.push_back({nullptr, s->impl_});
  return s;
}

void DeliveryQueue::close_submit() {
  {
    std::lock_guard<std::mutex> lock(inner_->mu);
    inner_->closed = true;
  }
  inner_->cv_data.notify_all();
}

void DeliveryQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(inner_->mu);
    inner_->dead = true;
  }
  inner_->cv_space.notify_all();
  inner_->cv_data.notify_all();
}

bool DeliveryQueue::next(std::string& bytes) {
  std::unique_lock<std::mutex> lock(inner_->mu);
  for (;;) {
    inner_->cv_data.wait(lock, [&] {
      if (!inner_->slots.empty()) {
        const Inner::Slot& s = inner_->slots.front();
        if (s.plain) return s.plain->ready;
        return !s.stream->frames.empty() || s.stream->finished;
      }
      return inner_->closed;
    });
    if (inner_->slots.empty()) return false;  // closed and fully drained
    Inner::Slot& s = inner_->slots.front();
    if (s.plain) {
      bytes = std::move(s.plain->bytes);
      inner_->slots.pop_front();
      return true;
    }
    if (!s.stream->frames.empty()) {
      bytes = std::move(s.stream->frames.front());
      s.stream->frames.pop_front();
      inner_->stream_buffered -= bytes.size();
      inner_->cv_space.notify_all();
      return true;
    }
    inner_->slots.pop_front();  // finished stream, drained: next slot
  }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Scheduler::Scheduler(Service& service, Options opt)
    : service_(service), opt_(opt), paused_(opt.start_paused) {
  if (opt_.queue_capacity == 0) opt_.queue_capacity = 1;
  if (opt_.stream_slots == 0) opt_.stream_slots = 1;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  stream_workers_.reserve(opt_.stream_slots);
  for (std::size_t i = 0; i < opt_.stream_slots; ++i)
    stream_workers_.emplace_back([this] { stream_worker_loop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  cv_stream_.notify_all();
  dispatcher_.join();
  cv_stream_.notify_all();  // dispatcher may have flushed a last wave
  for (std::thread& t : stream_workers_) t.join();
}

int Scheduler::open_client() {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_client_++;
  clients_[id];
  return id;
}

void Scheduler::close_client(int client) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = clients_.find(client);
  if (it == clients_.end()) return;
  it->second.closed = true;
  if (it->second.jobs.empty()) clients_.erase(it);
}

void Scheduler::dispatch(int client, std::string line, DeliveryQueue& out) {
  const TransportDirective d = classify_line(line);
  if (d.is_cancel) {
    // Answered inline (in submission order via its own plain slot): a
    // cancel directive must not wait behind the queue it is pruning.
    const bool hit = cancel(client, d.cancel_id);
    out.open_plain()->set("{\"id\":" + d.id.write() +
                          ",\"ok\":true,\"result\":{\"cancelled\":" +
                          (hit ? "true" : "false") + "}}\n");
    return;
  }
  Job job;
  job.line = std::move(line);
  // Cancel/deadline bookkeeping comes from the envelope, not the service; a
  // malformed line keeps id=null and is rejected by the service at dispatch.
  job.id = d.id;
  job.deadline_ms = d.deadline_ms;
  job.client = client;
  job.enqueued = std::chrono::steady_clock::now();
  if (d.is_stream) {
    job.stream_out = out.open_stream();
    job.cancel_flag = std::make_shared<std::atomic<bool>>(false);
  } else {
    job.sink = [slot = out.open_plain()](const std::string& response) {
      slot->set(response + "\n");
    };
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_space_.wait(lock, [&] { return stop_ || queued_ < opt_.queue_capacity; });
  if (stop_) throw NumericalError("serve: submit on a stopped scheduler");
  const auto it = clients_.find(client);
  if (it == clients_.end() || it->second.closed)
    throw InvalidParameter("serve: submit on an unknown or closed client");
  it->second.jobs.push_back(std::move(job));
  ++queued_;
  ++outstanding_;
  sched_metrics().jobs.add();
  sched_metrics().queue_depth.set(static_cast<std::int64_t>(queued_));
  cv_work_.notify_one();
}

bool Scheduler::cancel(int client, const json::Value& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = clients_.find(client);
  if (it != clients_.end()) {
    for (Job& j : it->second.jobs)
      if (!j.cancelled && j.id == id) {
        j.cancelled = true;
        if (j.cancel_flag) j.cancel_flag->store(true);
        sched_metrics().cancelled.add();
        return true;
      }
  }
  // Stream jobs handed to the stream queue but not yet picked up.
  for (Job& j : stream_queue_)
    if (j.client == client && !j.cancelled && j.id == id) {
      j.cancelled = true;
      j.cancel_flag->store(true);
      sched_metrics().cancelled.add();
      return true;
    }
  // Mid-flight streams: flag the emitter (it aborts at its next chunk) and
  // free the delivery window so the CANCEL_ACK is not stuck behind it.
  for (ActiveStream& s : active_streams_)
    if (s.client == client && s.id == id &&
        !s.cancel_flag->load(std::memory_order_relaxed)) {
      s.cancel_flag->store(true);
      s.out->discard_pending();
      sched_metrics().cancelled.add();
      return true;
    }
  return false;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_drained_.wait(lock, [&] { return outstanding_ == 0; });
}

std::size_t Scheduler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

void Scheduler::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_work_.wait(lock, [&] { return stop_ || (!paused_ && queued_ > 0); });
    if (queued_ == 0) {
      if (stop_) return;
      continue;
    }
    if (paused_ && !stop_) continue;

    // Gather one wave, round-robin across clients in id order so each
    // concurrent batch makes progress; per-client FIFO order is preserved.
    const std::size_t target =
        opt_.wave ? opt_.wave : static_cast<std::size_t>(4) * par::global_threads();
    std::vector<Job> wave;
    wave.reserve(std::min(target, queued_));
    auto it = clients_.lower_bound(rr_cursor_);
    while (wave.size() < target && queued_ > 0) {
      if (it == clients_.end()) it = clients_.begin();
      ClientQueue& q = it->second;
      if (!q.jobs.empty()) {
        wave.push_back(std::move(q.jobs.front()));
        q.jobs.pop_front();
        --queued_;
      }
      if (q.closed && q.jobs.empty()) {
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
    rr_cursor_ = it == clients_.end() ? 0 : it->first;
    sched_metrics().queue_depth.set(static_cast<std::int64_t>(queued_));
    cv_space_.notify_all();

    // Stream jobs leave the wave here: they keep the gather's fairness and
    // ordering but evaluate on dedicated workers — a seconds-long streamed
    // transient must not stall the dispatcher's serial delivery.
    {
      std::size_t streams = 0;
      std::vector<Job> plain;
      plain.reserve(wave.size());
      for (Job& j : wave) {
        if (j.stream_out) {
          stream_queue_.push_back(std::move(j));
          ++streams;
        } else {
          plain.push_back(std::move(j));
        }
      }
      wave = std::move(plain);
      if (streams == 1) cv_stream_.notify_one();
      else if (streams > 1) cv_stream_.notify_all();
    }
    lock.unlock();

    if (!wave.empty()) {
      IVORY_TRACE("serve.wave");
      SchedulerMetrics& m = sched_metrics();
      m.waves.add();
      m.wave_size.set(static_cast<std::int64_t>(wave.size()));

      // Evaluate the wave on the deterministic pool. Cancelled and expired
      // jobs short-circuit to structured errors without touching a model.
      const auto now = std::chrono::steady_clock::now();
      for (const Job& j : wave) m.queue_wait_ms.observe(elapsed_ms(j.enqueued, now));
      std::vector<std::string> responses(wave.size());
      par::parallel_for(wave.size(), [&](std::size_t i) {
        const Job& j = wave[i];
        if (j.cancelled) {
          responses[i] = Service::error_response(j.id, "cancelled",
                                                 "request cancelled before evaluation");
        } else if (j.deadline_ms > 0.0 && elapsed_ms(j.enqueued, now) > j.deadline_ms) {
          sched_metrics().expired.add();
          responses[i] = Service::error_response(j.id, "deadline_exceeded",
                                                 "request waited past its deadline_ms");
        } else {
          responses[i] = service_.handle_line(j.line);
        }
      });

      // Deliver serially in wave order (= per-client submission order).
      for (std::size_t i = 0; i < wave.size(); ++i) wave[i].sink(responses[i]);
      m.wave_ms.observe(elapsed_ms(now, std::chrono::steady_clock::now()));
    }

    lock.lock();
    outstanding_ -= wave.size();
    if (outstanding_ == 0) cv_drained_.notify_all();
  }
}

void Scheduler::stream_worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_stream_.wait(lock, [&] { return stop_ || !stream_queue_.empty(); });
    if (stream_queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Job job = std::move(stream_queue_.front());
    stream_queue_.pop_front();
    const std::shared_ptr<std::atomic<bool>> flag = job.cancel_flag;
    active_streams_.push_back({job.client, job.id, flag, job.stream_out});
    lock.unlock();

    run_stream_job(std::move(job));

    lock.lock();
    for (auto it = active_streams_.begin(); it != active_streams_.end(); ++it)
      if (it->cancel_flag == flag) {
        active_streams_.erase(it);
        break;
      }
    --outstanding_;
    if (outstanding_ == 0) cv_drained_.notify_all();
  }
}

void Scheduler::run_stream_job(Job job) {
  IVORY_TRACE("serve.stream");
  const std::shared_ptr<DeliveryQueue::Stream> out = job.stream_out;
  StreamEmitter em([out](std::string&& bytes) { return out->push(std::move(bytes)); },
                   job.cancel_flag, job.deadline_ms, job.enqueued);
  const std::string id_json = job.id.write();
  try {
    const auto now = std::chrono::steady_clock::now();
    if (job.cancelled || job.cancel_flag->load(std::memory_order_relaxed)) {
      em.cancel_ack(stream_status_payload(id_json, "cancelled"));
    } else if (job.deadline_ms > 0.0 && elapsed_ms(job.enqueued, now) > job.deadline_ms) {
      sched_metrics().expired.add();
      em.end(stream_status_payload(id_json, "deadline_exceeded"));
    } else {
      service_.handle_stream(job.line, em);
    }
  } catch (...) {
    // handle_stream never throws and terminal emitters swallow write
    // failures; this is a last-resort guard so a stream worker cannot die.
  }
  out->finish();
}

}  // namespace ivory::serve
