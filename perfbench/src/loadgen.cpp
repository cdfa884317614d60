#include "loadgen.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <latch>
#include <mutex>
#include <thread>

#include "common/json.hpp"
#include "core/pareto.hpp"
#include "serve/service.hpp"
#include "serve/wave_codec.hpp"

namespace perfbench {

namespace serve = ivory::serve;
using ivory::json::Value;

namespace {

std::string next_socket_path(const std::string& work_dir) {
  static std::atomic<int> counter{0};
  return work_dir + "/pb-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Member lookup along a path of object keys; nullptr when any is missing.
const Value* at(const Value& v, std::initializer_list<const char*> keys) {
  const Value* cur = &v;
  for (const char* k : keys) {
    cur = cur->find(k);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

std::uint64_t count_at(const Value& v, std::initializer_list<const char*> keys) {
  const Value* n = at(v, keys);
  return n != nullptr && n->is_number() ? static_cast<std::uint64_t>(n->as_number()) : 0;
}

bool is_spice_class(const std::string& cls) {
  return cls == "spice_sc" || cls == "spice_pdn" || cls == "grid32" || cls == "grid64" ||
         cls == "wave1";
}

/// Samples a connection can complete per second, with room to spare: the
/// sample buffer is sized from it before timing starts.
double sample_rate_cap(Workload w) {
  switch (w) {
    case Workload::DseSweep: return 200.0;
    case Workload::TransientMix: return 400.0;
    case Workload::ServeMix: return 30000.0;
  }
  return 1000.0;
}

}  // namespace

BenchServer::BenchServer(const std::string& work_dir) {
  serve::ServerOptions opt;
  opt.socket_path = next_socket_path(work_dir);
  server_ = std::make_unique<serve::Server>(opt);
  server_->start();
}

BenchServer::~BenchServer() { server_->stop(); }

Reply roundtrip(serve::BlockingClient& cli, const RequestSpec& q) {
  Reply r;
  const auto t0 = Clock::now();
  cli.send_line(q.line);
  if (q.stream) {
    const serve::StreamAssembler a =
        serve::read_stream([&cli](char* p, std::size_t cap) { return cli.recv_raw(p, cap); });
    r.text = a.status() == "ok" ? a.decoded() : "stream ended " + a.status() + ": " + a.decoded();
  } else {
    r.text = cli.recv_line();
  }
  r.ms = ms_between(t0, Clock::now());
  return r;
}

bool warm_up(const std::string& socket_path, Workload w) {
  serve::BlockingClient cli(socket_path);
  for (const std::string& line : warmup_requests(w)) {
    cli.send_line(line);
    const std::string resp = cli.recv_line();
    if (!response_ok(resp)) {
      std::fprintf(stderr, "warm-up request failed: %.300s\n", resp.c_str());
      return false;
    }
  }
  return true;
}

void WorkCounters::print(const char* title) const {
  std::printf("%s\n", title);
  std::printf("  requests %llu, response_bytes %llu, evaluations %llu, cache_hits %llu\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(response_bytes),
              static_cast<unsigned long long>(evaluations),
              static_cast<unsigned long long>(cache_hits));
  std::printf("  candidates_screened %llu, feasible %llu, frontier_size %llu, "
              "sweep_points %llu\n",
              static_cast<unsigned long long>(candidates),
              static_cast<unsigned long long>(feasible),
              static_cast<unsigned long long>(frontier),
              static_cast<unsigned long long>(explored));
  std::printf("  mna_steps %llu, lu_factorizations %llu, lu_cache_hits %llu, factor_nnz %llu, "
              "behavioural_samples %llu\n",
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(lu_factorizations),
              static_cast<unsigned long long>(lu_cache_hits),
              static_cast<unsigned long long>(factor_nnz),
              static_cast<unsigned long long>(samples));
  std::printf("  front_screen_err %.17g\n", front_screen_err);
  std::printf("  reply digest %016llx\n", static_cast<unsigned long long>(digest));
}

void WorkCounters::add(const WorkCounters& o) {
  requests += o.requests;
  response_bytes += o.response_bytes;
  evaluations += o.evaluations;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  candidates += o.candidates;
  feasible += o.feasible;
  frontier += o.frontier;
  explored += o.explored;
  steps += o.steps;
  lu_factorizations += o.lu_factorizations;
  lu_cache_hits += o.lu_cache_hits;
  factor_nnz += o.factor_nnz;
  samples += o.samples;
  front_screen_err = std::max(front_screen_err, o.front_screen_err);
  const std::string d = std::to_string(o.digest);
  digest = fnv1a(d, digest);
}

bool Checker::check(const RequestSpec& q, const std::string& reply, WorkCounters* c) {
  const auto fail = [&](const std::string& why) {
    last_error = "request " + std::to_string(q.index) + " (" + q.cls + "): " + why;
    return false;
  };
  if (c != nullptr) {
    ++c->requests;
    c->response_bytes += reply.size();
    c->digest = fnv1a(reply, c->digest);
  }
  if (!response_ok(reply)) return fail("reply is not ok: " + reply.substr(0, 300));
  const std::uint64_t h = fnv1a(without_id(reply));

  if (q.repeat_of >= 0) {
    const auto it = cold_.find(static_cast<std::size_t>(q.repeat_of));
    if (it == cold_.end()) return fail("repeat of a body with no recorded first reply");
    if (it->second != h) return fail("repeated body's reply differs from its first reply");
    return true;
  }
  if (q.stream) {
    const std::string body = q.buffered.substr(q.buffered.find(',') + 1);
    auto [it, first] = streams_.try_emplace(body);
    if (!first) return it->second.hash == h || fail("stream differs from an earlier stream");
    it->second.buffered = q.buffered;
    it->second.hash = h;
  } else {
    // Repeats only reach back 64 cold bodies; 1024 entries is ample.
    cold_.emplace(q.index, h);
    cold_order_.push_back(q.index);
    if (cold_order_.size() > 1024) {
      cold_.erase(cold_order_.front());
      cold_order_.pop_front();
    }
  }

  const bool deep = q.cls == "pareto" || q.cls == "explore" || q.cls == "scenario" ||
                    q.cls.rfind("dyn_", 0) == 0 || is_spice_class(q.cls);
  if (!deep) return true;
  Value root;
  try {
    root = Value::parse(reply);
  } catch (const std::exception& e) {
    return fail(std::string("reply is not JSON: ") + e.what());
  }
  const Value* result = root.find("result");
  if (result == nullptr) return fail("reply has no result");
  WorkCounters scratch;
  WorkCounters& k = c != nullptr ? *c : scratch;
  if (q.cls == "pareto") {
    const Value* points = at(*result, {"front", "points"});
    if (points == nullptr || !points->is_array() || points->as_array().empty())
      return fail("pareto front is empty");
    for (const Value& p : points->as_array()) {
      const Value* screen = at(p, {"screen", "efficiency"});
      const Value* exact = at(p, {"design", "efficiency"});
      if (screen == nullptr || exact == nullptr || !screen->is_number() || !exact->is_number())
        return fail("frontier point lacks screen or design efficiency");
      if (exact->as_number() <= 0.0) continue;  // not viable exactly: no relative error
      k.front_screen_err = std::max(
          k.front_screen_err,
          std::fabs(screen->as_number() - exact->as_number()) / exact->as_number());
    }
    k.candidates += count_at(*result, {"front", "stats", "n_screened"});
    k.feasible += count_at(*result, {"front", "stats", "n_feasible"});
    k.frontier += count_at(*result, {"front", "stats", "frontier_size"});
  } else if (q.cls == "explore" || q.cls == "scenario") {
    if (q.cls == "explore" && (result->find("results") == nullptr ||
                               !result->find("results")->is_array()))
      return fail("explore reply has no results");
    k.explored += count_at(*result, {"report", "n_evaluated"});
  } else if (is_spice_class(q.cls)) {
    const std::uint64_t steps = count_at(*result, {"steps_taken"});
    if (steps == 0) return fail("spice transient took no steps");
    k.steps += steps;
    k.lu_factorizations += count_at(*result, {"lu_factorizations"});
    k.lu_cache_hits += count_at(*result, {"lu_cache_hits"});
    k.factor_nnz += count_at(*result, {"factor_nnz"});
  } else {
    const std::uint64_t n = count_at(*result, {"n_samples"});
    if (n == 0) return fail("behavioural transient has no samples");
    k.samples += n;
  }
  return true;
}

std::uint64_t Checker::check_streams_against_buffered() const {
  if (streams_.empty()) return 0;
  serve::Service ref;
  std::uint64_t mismatches = 0;
  for (const auto& [body, s] : streams_)
    if (fnv1a(without_id(ref.handle_line(s.buffered))) != s.hash) ++mismatches;
  return mismatches;
}

TimedRun run_timed(const std::string& socket_path, Workload w, std::uint64_t seed,
                   double seconds) {
  const WorkloadShape shape = workload_shape(w);
  const std::size_t n_conn = static_cast<std::size_t>(shape.connections);
  const std::size_t prefix = shape.block * shape.count_blocks;
  const std::size_t cap =
      static_cast<std::size_t>(seconds * sample_rate_cap(w)) + shape.block;

  struct Conn {
    std::vector<Sample> samples;
    std::size_t n = 0;
    std::vector<std::uint64_t> prefix_hash;
    std::uint64_t attempted = 0, failed = 0;
    std::string error;
    Clock::time_point end;
  };
  std::vector<Conn> conns(n_conn);
  for (Conn& c : conns) c.samples.resize(cap);  // touched now, not while timing

  TimedRun run;
  std::map<std::string, std::uint16_t> class_ids;
  std::mutex class_mu;
  const auto class_id = [&](const std::string& cls) {
    std::lock_guard<std::mutex> lock(class_mu);
    const auto [it, fresh] =
        class_ids.try_emplace(cls, static_cast<std::uint16_t>(class_ids.size()));
    if (fresh) run.classes.push_back(cls);
    return it->second;
  };

  std::latch connected(static_cast<std::ptrdiff_t>(n_conn));
  std::latch go(1);
  Clock::time_point t0, deadline;
  std::vector<std::thread> clients;
  for (std::size_t ci = 0; ci < n_conn; ++ci)
    clients.emplace_back([&, ci] {
      Conn& c = conns[ci];
      Generator gen(w, seed, static_cast<int>(ci));
      Checker chk;
      std::unique_ptr<serve::BlockingClient> cli;
      try {
        cli = std::make_unique<serve::BlockingClient>(socket_path);
      } catch (const std::exception& e) {
        ++c.failed;
        c.error = e.what();
      }
      connected.count_down();
      go.wait();
      if (cli == nullptr) return;
      try {
        do {
          for (std::size_t k = 0; k < shape.block; ++k) {
            const RequestSpec q = gen.next();
            ++c.attempted;
            const Reply r = roundtrip(*cli, q);
            if (!chk.check(q, r.text, nullptr)) {
              ++c.failed;
              if (c.error.empty()) c.error = chk.last_error;
            }
            const Sample s{static_cast<float>(r.ms),
                           static_cast<float>(ms_between(t0, Clock::now()) / 1e3),
                           class_id(q.cls)};
            if (c.n < c.samples.size())
              c.samples[c.n] = s;
            else
              c.samples.push_back(s);
            ++c.n;
            if (q.index < prefix) c.prefix_hash.push_back(fnv1a(r.text));
          }
        } while (Clock::now() < deadline);
      } catch (const std::exception& e) {
        ++c.failed;
        c.error = std::string("transport: ") + e.what();
      }
      c.end = Clock::now();
      const std::uint64_t bad = chk.check_streams_against_buffered();
      if (bad > 0) {
        c.failed += bad;
        if (c.error.empty()) c.error = "a decoded wave1 stream differs from the buffered reply";
      }
    });
  connected.wait();
  t0 = Clock::now();
  deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  go.count_down();
  for (std::thread& t : clients) t.join();

  // Before the samples are merged (which allocates in proportion to the
  // request count), and without the sample buffers themselves.
  run.peak_rss_mb = peak_rss_mb();
  for (const Conn& c : conns)
    run.peak_rss_mb -= static_cast<double>(c.samples.capacity() * sizeof(Sample)) / (1 << 20);

  Clock::time_point end = t0;
  for (Conn& c : conns) {
    run.attempted += c.attempted;
    run.failed += c.failed;
    if (run.error.empty()) run.error = c.error;
    end = std::max(end, c.end);
    run.samples.insert(run.samples.end(), c.samples.begin(),
                       c.samples.begin() + static_cast<std::ptrdiff_t>(c.n));
    run.prefix_hash.push_back(std::move(c.prefix_hash));
  }
  run.wall_s = ms_between(t0, end) / 1e3;
  return run;
}

FixedPass run_fixed(const BenchServer& srv, Workload w, std::uint64_t seed,
                    const TimedRun* timed, std::vector<SpanLog>* logs) {
  const WorkloadShape shape = workload_shape(w);
  const std::size_t prefix = shape.block * shape.count_blocks;
  struct Conn {
    WorkCounters counters;
    std::vector<FixedRecord> records;
    std::uint64_t failed = 0;
    std::string error;
  };
  std::vector<Conn> conns(static_cast<std::size_t>(shape.connections));
  const ivory::serve::ServiceStats before = srv.stats();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t ci = 0; ci < conns.size(); ++ci)
    clients.emplace_back([&, ci] {
      Conn& c = conns[ci];
      const auto note = [&c](const std::string& why) {
        ++c.failed;
        if (c.error.empty()) c.error = why;
      };
      Checker chk;
      try {
        serve::BlockingClient cli(srv.path());
        for (const RequestSpec& q : generate(w, seed, static_cast<int>(ci), prefix)) {
          Reply r;
          if (logs != nullptr)
            timed_span((*logs)[ci], q.stream ? "client.stream" : "client.roundtrip", 0,
                       ci * 1'000'000ull + q.index + 1, [&] { r = roundtrip(cli, q); });
          else
            r = roundtrip(cli, q);
          c.records.push_back({q.stream, r.ms});
          if (!chk.check(q, r.text, &c.counters)) note(chk.last_error);
          if (timed != nullptr) {
            const std::vector<std::uint64_t>& th = timed->prefix_hash[ci];
            if (q.index < th.size() && th[q.index] != fnv1a(r.text))
              note("reply to request " + std::to_string(q.index) +
                   " differs from the timed run's");
          }
        }
      } catch (const std::exception& e) {
        note(std::string("transport: ") + e.what());
      }
      if (chk.check_streams_against_buffered() > 0)
        note("a decoded wave1 stream differs from the buffered reply");
    });
  for (std::thread& t : clients) t.join();

  FixedPass pass;
  pass.wall_s = ms_between(t0, Clock::now()) / 1e3;
  for (Conn& c : conns) {
    pass.counters.add(c.counters);
    pass.records.insert(pass.records.end(), c.records.begin(), c.records.end());
    pass.failed += c.failed;
    if (pass.error.empty()) pass.error = c.error;
  }
  // Repeats only refer back within their own connection and every reply
  // completes before the next request, so these counts are exact.
  const ivory::serve::ServiceStats after = srv.stats();
  pass.counters.evaluations = after.n_evaluations - before.n_evaluations;
  pass.counters.cache_hits = after.cache.hits - before.cache.hits;
  pass.counters.cache_misses = after.cache.misses - before.cache.misses;
  return pass;
}

}  // namespace perfbench
