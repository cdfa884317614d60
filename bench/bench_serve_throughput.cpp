// Throughput benchmark of the batch-evaluation service.
//
// Replays a mixed NDJSON request stream (static analyses, optimizer runs and
// a short transient, with deliberate duplicates) through `serve::run_batch`
// at several thread counts and with repeat=2, so both the cold path (all
// misses, every model evaluated) and the warm path (all hits, zero
// evaluations) are measured. Verifies the byte-identity contract along the
// way — every pass and every thread count must produce the same response
// bytes — and writes requests/sec plus hit rates to BENCH_serve.json so the
// service's perf trajectory is tracked across PRs.
//
// Two durability phases ride on the same stream:
//   - warm restart: a service with a durable store evaluates the stream
//     cold, is destroyed, and a fresh service over the same directory
//     replays it — the restart hit rate (expected ~100%) and cold/warm
//     byte-identity go into the JSON;
//   - fleet: a supervised multi-worker `ivory serve` fleet (real processes,
//     IVORY_CLI_BIN) serves the stream over its Unix socket at 1 and 2
//     workers, measuring mux + transport overhead end to end.
//
// Usage: bench_serve_throughput [--smoke] [output.json]
//   --smoke  tiny sizes (used by the perf-smoke ctest label)
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "serve/batch.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "serve/wave_codec.hpp"

using namespace ivory;

namespace {

/// Request mix: ~2/3 cheap static analyses (many duplicated so even the cold
/// pass exercises the cache), plus a few expensive optimizer sweeps.
std::string build_request_stream(int n_groups) {
  std::ostringstream out;
  int id = 0;
  for (int g = 0; g < n_groups; ++g) {
    // Distinct static points...
    out << R"({"op":"sc_static","id":)" << id++ << R"(,"n":3,"m":1,"cfly":4e-6,"gtot":)"
        << (10e3 + 1e3 * g) << R"(,"fsw":80e6,"iload":20})" << "\n";
    out << R"({"op":"buck_static","id":)" << id++ << R"(,"l":5e-9,"fsw":1e8,"phases":4,"iload":)"
        << (8 + g % 4) << "}\n";
    out << R"({"op":"ldo_static","id":)" << id++ << R"(,"vin":1.2,"vout":1.0,"iload":)"
        << (2 + g % 3) << "}\n";
    // ...and a duplicated one: same body every group, different id.
    out << R"({"op":"sc_static","id":)" << id++
        << R"(,"n":2,"m":1,"cfly":2e-6,"gtot":8e3,"fsw":60e6,"iload":10})" << "\n";
    if (g % 4 == 0)
      out << R"({"op":"optimize","id":)" << id++
          << R"(,"topology":"sc","dist":4,"power":20,"area":20})" << "\n";
  }
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);)
    if (!l.empty()) lines.push_back(l);
  return lines;
}

struct Measurement {
  unsigned threads = 1;
  serve::BatchSummary summary;
};

/// Cold-evaluate the stream into a durable store, tear the service down,
/// and replay against a fresh service over the same directory. Returns the
/// warm pass's hit rate (in-memory + durable tiers combined).
double warm_restart_phase(const std::string& input, bool* byte_identical) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "ivory-bench-store-XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) return -1.0;

  serve::BatchOptions opt;
  std::string cold_bytes;
  {
    serve::ServiceOptions so;
    so.cache_dir = dir;
    serve::Service cold(so);
    std::istringstream in(input);
    std::ostringstream out;
    serve::run_batch(in, out, cold, opt);
    cold_bytes = out.str();
  }  // service destroyed: only the durable tier carries over

  serve::ServiceOptions so;
  so.cache_dir = dir;
  serve::Service warm(so);
  std::istringstream in(input);
  std::ostringstream out;
  const serve::BatchSummary warm_run = serve::run_batch(in, out, warm, opt);
  *byte_identical = out.str() == cold_bytes;
  std::filesystem::remove_all(dir);
  return warm_run.passes.empty() ? -1.0 : warm_run.passes[0].hit_rate();
}

/// Requests/sec through a supervised fleet of real worker processes, driven
/// by `n_clients` concurrent connections in lock-step request/response.
double fleet_phase(const std::vector<std::string>& requests, int workers,
                   int n_clients) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "ivory-bench-fleet-XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) return -1.0;

  serve::SupervisorOptions o;
  o.socket_path = dir + "/sock";
  o.workers = workers;
  o.exe = IVORY_CLI_BIN;
  serve::Supervisor fleet(std::move(o));
  fleet.start();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < n_clients; ++c)
    clients.emplace_back([&] {
      serve::BlockingClient cli(fleet.socket_path());
      for (const std::string& r : requests) {
        cli.send_line(r);
        (void)cli.recv_line();
      }
    });
  for (std::thread& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  fleet.stop();
  std::filesystem::remove_all(dir);
  return wall_s > 0 ? static_cast<double>(requests.size()) * n_clients / wall_s : -1.0;
}

/// Linear interpolation of quantile `q` from histogram buckets (the +inf
/// bucket reports the last finite bound — good enough for a trend line).
double histogram_quantile(const metrics::Histogram::Snapshot& s, double q) {
  if (s.count == 0) return 0.0;
  const double target = q * static_cast<double>(s.count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < s.counts.size(); ++b) {
    const std::uint64_t next = cum + s.counts[b];
    if (static_cast<double>(next) >= target && s.counts[b] > 0) {
      if (b >= s.bounds.size()) return s.bounds.empty() ? 0.0 : s.bounds.back();
      const double lo = b == 0 ? 0.0 : s.bounds[b - 1];
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(s.counts[b]);
      return lo + frac * (s.bounds[b] - lo);
    }
    cum = next;
  }
  return s.bounds.empty() ? 0.0 : s.bounds.back();
}

struct StreamBenchResult {
  double rps = -1.0;
  double p50_ms = 0.0, p99_ms = 0.0;
  std::uint64_t streams = 0;
  bool byte_identical = false;
};

/// Streamed wave1 transients over the in-process socket server: `n_clients`
/// concurrent connections each run `per_client` streams of a ~2k-row SPICE
/// transient, every decoded stream checked byte-identical to the buffered
/// response. Per-stream wall time goes into a latency histogram; p50/p99
/// are interpolated from its buckets.
StreamBenchResult streaming_phase(int n_clients, int per_client) {
  const std::string request =
      R"({"id":1,"op":"transient","topology":"spice",)"
      R"("netlist":"* rc\nV1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n.end",)"
      R"("tstop":2e-6,"dt":1e-9,"return_waveform":true})";
  json::Value root = json::Value::parse(request);
  root.set("stream", json::Value(true));
  root.set("encoding", json::Value(std::string("wave1")));
  root.set("chunk_bytes", json::Value(std::uint64_t{4096}));
  const std::string streamed = root.write();

  serve::ServerOptions opt;
  opt.socket_path = (std::filesystem::temp_directory_path() /
                     ("ivory-bench-stream-" + std::to_string(::getpid()) + ".sock"))
                        .string();
  serve::Server server(opt);
  server.start();

  std::string reference;
  {
    serve::BlockingClient cli(server.socket_path());
    cli.send_line(request);
    reference = cli.recv_line();
  }

  metrics::Histogram latency(metrics::Histogram::default_latency_bounds_ms());
  std::atomic<bool> identical{true};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < n_clients; ++c)
    clients.emplace_back([&] {
      serve::BlockingClient cli(server.socket_path());
      for (int i = 0; i < per_client; ++i) {
        const auto s0 = std::chrono::steady_clock::now();
        cli.send_line(streamed);
        const serve::StreamAssembler out =
            serve::read_stream([&cli](char* p, std::size_t cap) {
              return cli.recv_raw(p, cap);
            });
        latency.observe(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      s0)
                .count());
        if (out.status() != "ok" || out.decoded() != reference)
          identical.store(false);
      }
    });
  for (std::thread& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.stop();
  std::filesystem::remove(opt.socket_path);

  StreamBenchResult r;
  const metrics::Histogram::Snapshot snap = latency.snapshot();
  r.streams = snap.count;
  r.p50_ms = histogram_quantile(snap, 0.50);
  r.p99_ms = histogram_quantile(snap, 0.99);
  r.byte_identical = identical.load();
  r.rps = wall_s > 0 ? static_cast<double>(snap.count) / wall_s : -1.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[i];
  }
  const std::string input = build_request_stream(smoke ? 6 : 24);
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1u, 2u} : std::vector<unsigned>{1u, 2u, 4u};

  std::vector<Measurement> runs;
  std::string reference;  // response bytes of the first run
  for (const unsigned threads : thread_counts) {
    par::set_global_threads(threads);
    serve::Service service;
    std::istringstream in(input);
    std::ostringstream out;
    serve::BatchOptions opt;
    opt.repeat = 2;
    Measurement m;
    m.threads = threads;
    m.summary = serve::run_batch(in, out, service, opt);
    runs.push_back(m);

    const std::string bytes = out.str();
    if (reference.empty()) reference = bytes;
    if (bytes != reference) {
      std::fprintf(stderr, "FATAL: %u-thread response bytes differ from 1-thread run\n",
                   threads);
      return 1;
    }
  }
  par::set_global_threads(1);

  // Durable warm restart: the hit rate a restarted service gets purely from
  // its store directory. Anything below 100% means results failed to publish
  // or failed verification on the way back in.
  bool restart_identical = false;
  const double restart_hit_rate = warm_restart_phase(input, &restart_identical);
  if (restart_hit_rate < 0.999 || !restart_identical) {
    std::fprintf(stderr,
                 "FATAL: warm restart hit rate %.4f (want ~1.0), byte_identical=%d\n",
                 restart_hit_rate, restart_identical);
    return 1;
  }

  // Supervised fleet, real worker processes over the Unix socket.
  const std::vector<std::string> fleet_requests = split_lines(input);
  struct FleetRun {
    int workers;
    double rps;
  };
  std::vector<FleetRun> fleet_runs;
  for (const int workers : {1, 2}) {
    const double rps = fleet_phase(fleet_requests, workers, 2);
    if (rps < 0) {
      std::fprintf(stderr, "FATAL: fleet phase failed at %d workers\n", workers);
      return 1;
    }
    fleet_runs.push_back({workers, rps});
  }

  // Streamed wave1 transients over the socket server: latency distribution
  // (p50/p99 from histogram buckets) plus the byte-identity check against
  // the buffered response.
  const StreamBenchResult streaming =
      streaming_phase(smoke ? 2 : 4, smoke ? 10 : 50);
  if (!streaming.byte_identical || streaming.rps < 0) {
    std::fprintf(stderr, "FATAL: streaming phase failed (byte_identical=%d)\n",
                 streaming.byte_identical);
    return 1;
  }

  TextTable t({"threads", "pass", "requests", "req/s", "hit rate", "evals"});
  std::string json = "{\"benchmark\":\"serve_throughput\",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Measurement& m = runs[i];
    for (std::size_t p = 0; p < m.summary.passes.size(); ++p) {
      const serve::BatchPassStats& s = m.summary.passes[p];
      const double rps = s.wall_s > 0 ? static_cast<double>(s.requests) / s.wall_s : 0.0;
      char hit_rate[16];
      std::snprintf(hit_rate, sizeof hit_rate, "%.1f%%", s.hit_rate() * 100);
      t.add_row({std::to_string(m.threads), p == 0 ? "cold" : "warm",
                 std::to_string(s.requests), TextTable::num(rps, 6), hit_rate,
                 std::to_string(s.evaluations)});
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"threads\":%u,\"wall_s\":%.6f,\"requests\":%llu,"
                  "\"requests_per_s\":%.1f,\"cold_hit_rate\":%.4f,\"warm_hit_rate\":%.4f}",
                  i == 0 ? "" : ",", m.threads, m.summary.wall_s,
                  static_cast<unsigned long long>(m.summary.requests),
                  static_cast<double>(m.summary.requests) / m.summary.wall_s,
                  m.summary.passes[0].hit_rate(), m.summary.passes[1].hit_rate());
    json += buf;
  }
  json += "],\"byte_identical\":true";
  {
    char buf[128];
    std::snprintf(buf, sizeof buf, ",\"warm_restart_hit_rate\":%.4f", restart_hit_rate);
    json += buf;
  }
  json += ",\"fleet\":[";
  for (std::size_t i = 0; i < fleet_runs.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s{\"workers\":%d,\"requests_per_s\":%.1f}",
                  i == 0 ? "" : ",", fleet_runs[i].workers, fleet_runs[i].rps);
    json += buf;
  }
  json += "]";
  {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\"streaming\":{\"streams\":%llu,\"requests_per_s\":%.1f,"
                  "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"byte_identical\":%s}",
                  static_cast<unsigned long long>(streaming.streams), streaming.rps,
                  streaming.p50_ms, streaming.p99_ms,
                  streaming.byte_identical ? "true" : "false");
    json += buf;
  }
  json += "}";

  std::printf("serve throughput (repeat=2: cold pass then warm pass)%s\n\n%s\n",
              smoke ? " (smoke)" : "", t.render().c_str());
  std::printf("warm restart hit rate: %.1f%% (byte-identical: yes)\n",
              restart_hit_rate * 100);
  for (const FleetRun& f : fleet_runs)
    std::printf("fleet %d worker%s: %.0f req/s\n", f.workers,
                f.workers == 1 ? "" : "s", f.rps);
  std::printf("streaming (wave1): %llu streams, %.0f req/s, p50 %.2f ms, p99 %.2f ms"
              " (byte-identical: yes)\n",
              static_cast<unsigned long long>(streaming.streams), streaming.rps,
              streaming.p50_ms, streaming.p99_ms);
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
