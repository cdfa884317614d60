#include "serve/batch.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <thread>

namespace ivory::serve {

BatchSummary run_batch(std::istream& in, std::ostream& out, Service& service,
                       const BatchOptions& opt) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(std::move(line));
  }

  Scheduler::Options sopt;
  sopt.wave = opt.wave;
  sopt.queue_capacity = opt.queue_capacity;
  sopt.stream_slots = opt.stream_slots;
  Scheduler scheduler(service, sopt);

  BatchSummary summary;
  const auto seconds_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
  };
  const auto t0 = std::chrono::steady_clock::now();
  const int passes = opt.repeat < 1 ? 1 : opt.repeat;
  for (int pass = 0; pass < passes; ++pass) {
    const auto t_pass = std::chrono::steady_clock::now();
    const ServiceStats before = service.stats();
    const int client = scheduler.open_client();
    // Same ordered-delivery machinery as the socket transport: one slot per
    // request in submission order, one writer draining to `out`, so plain
    // lines and streamed frame runs interleave exactly as submitted.
    DeliveryQueue dq(opt.stream_window);
    std::thread writer([&dq, &out] {
      std::string bytes;
      while (dq.next(bytes)) out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    });
    for (const std::string& line : lines) scheduler.dispatch(client, line, dq);
    scheduler.drain();
    scheduler.close_client(client);
    dq.close_submit();
    writer.join();
    const ServiceStats after = service.stats();

    BatchPassStats p;
    p.wall_s = seconds_since(t_pass);
    p.requests = lines.size();
    p.hits = after.cache.hits - before.cache.hits;
    p.misses = after.cache.misses - before.cache.misses;
    p.evictions = after.cache.evictions - before.cache.evictions;
    p.evaluations = after.n_evaluations - before.n_evaluations;
    p.errors = after.n_errors - before.n_errors;
    p.store_hits = after.store.hits - before.store.hits;
    summary.passes.push_back(p);
    summary.requests += p.requests;
  }
  summary.wall_s = seconds_since(t0);
  out.flush();
  return summary;
}

std::string summary_json(const BatchSummary& summary) {
  json::Value::Array passes;
  for (const BatchPassStats& p : summary.passes) {
    json::Value::Object o;
    o.emplace_back("requests", p.requests);
    o.emplace_back("cache_hits", p.hits);
    o.emplace_back("cache_misses", p.misses);
    o.emplace_back("cache_evictions", p.evictions);
    o.emplace_back("evaluations", p.evaluations);
    o.emplace_back("errors", p.errors);
    o.emplace_back("store_hits", p.store_hits);
    o.emplace_back("hit_rate", p.hit_rate());
    passes.emplace_back(std::move(o));
  }
  json::Value::Object o;
  o.emplace_back("requests", summary.requests);
  o.emplace_back("wall_s", summary.wall_s);
  o.emplace_back("requests_per_s",
                 summary.wall_s > 0.0
                     ? static_cast<double>(summary.requests) / summary.wall_s
                     : 0.0);
  o.emplace_back("passes", json::Value(std::move(passes)));
  return json::Value(std::move(o)).write();
}

}  // namespace ivory::serve
