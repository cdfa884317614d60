// Tests for the batch-evaluation service (src/serve): request validation,
// cache correctness (cold/warm byte-identity at several thread counts,
// eviction, fault-poisoning resistance), scheduler cancellation/deadlines,
// and the Unix-domain-socket transport against the in-process baseline.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/sc_model.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace ivory::serve {
namespace {

json::Value parsed(const std::string& line) { return json::Value::parse(line); }

bool response_ok(const std::string& line) {
  return parsed(line).find("ok")->as_bool();
}

std::string error_code(const std::string& line) {
  return parsed(line).find("error")->find("code")->as_string();
}

/// A small, fast, deterministic request mix covering several ops, with
/// sc_static id=1 and id=7 sharing a body (same cache entry despite ids).
std::vector<std::string> request_mix() {
  return {
      R"({"op":"sc_static","id":1,"n":3,"m":1,"cfly":4e-6,"gtot":15e3,"fsw":80e6,"iload":20})",
      R"({"op":"sc_static","id":2,"n":2,"m":1,"cfly":2e-6,"gtot":8e3,"fsw":60e6,"iload":10,"regulate":1.0})",
      R"({"op":"buck_static","id":3,"l":5e-9,"fsw":100e6,"phases":4,"iload":10})",
      R"({"op":"ldo_static","id":4,"vin":1.2,"vout":1.0,"iload":5})",
      R"({"op":"optimize","id":5,"topology":"sc","dist":4,"power":20,"area":20})",
      R"({"op":"sc_static","id":7,"m":1,"n":3,"gtot":"15k","cfly":"4u","fsw":"80meg","iload":20})",
  };
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string all;
  for (const std::string& l : lines) {
    all += l;
    all += '\n';
  }
  return all;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(Serve, MalformedLineBecomesStructuredError) {
  Service svc;
  const std::string r = svc.handle_line("this is not json");
  EXPECT_FALSE(response_ok(r));
  EXPECT_EQ(error_code(r), "bad_request");
  EXPECT_TRUE(parsed(r).find("id")->is_null());
  EXPECT_EQ(svc.stats().n_errors, 1u);
}

TEST(Serve, UnknownOpAndMissingOpAreRejected) {
  Service svc;
  EXPECT_EQ(error_code(svc.handle_line(R"({"id":1,"op":"frobnicate"})")), "bad_request");
  EXPECT_EQ(error_code(svc.handle_line(R"({"id":2})")), "bad_request");
  // The id is still echoed on envelope errors.
  EXPECT_DOUBLE_EQ(
      parsed(svc.handle_line(R"({"id":2})")).find("id")->as_number(), 2.0);
}

TEST(Serve, UnknownAndMistypedFieldsAreNamed) {
  Service svc;
  const std::string unknown =
      svc.handle_line(R"({"op":"sc_static","id":1,"cflyy":4e-6})");
  EXPECT_FALSE(response_ok(unknown));
  EXPECT_NE(parsed(unknown).find("error")->find("detail")->as_string().find("cflyy"),
            std::string::npos);

  const std::string mistyped =
      svc.handle_line(R"({"op":"sc_static","id":1,"n":2.5})");
  EXPECT_FALSE(response_ok(mistyped));
  EXPECT_NE(parsed(mistyped).find("error")->find("detail")->as_string().find("'n'"),
            std::string::npos);

  const std::string badspice =
      svc.handle_line(R"({"op":"sc_static","id":1,"cfly":"4lightyears"})");
  EXPECT_FALSE(response_ok(badspice));
  // Validation failures are not cached as successes.
  EXPECT_EQ(svc.stats().cache.entries, 0u);
}

TEST(Serve, DldoStaticSchemaIsStrict) {
  Service svc;
  // Unknown member: named in the diagnostic, not silently defaulted.
  const std::string unknown =
      svc.handle_line(R"({"op":"dldo_static","id":1,"fclkk":5e8})");
  EXPECT_FALSE(response_ok(unknown));
  EXPECT_NE(parsed(unknown).find("error")->find("detail")->as_string().find("fclkk"),
            std::string::npos);

  // Mistyped member: a fractional comparator count names the field.
  const std::string mistyped =
      svc.handle_line(R"({"op":"dldo_static","id":2,"ncomp":2.5})");
  EXPECT_FALSE(response_ok(mistyped));
  EXPECT_NE(parsed(mistyped).find("error")->find("detail")->as_string().find("'ncomp'"),
            std::string::npos);
  EXPECT_EQ(svc.stats().cache.entries, 0u);

  // The happy path evaluates and reports the TI-comparator ripple division.
  const std::string ok1 =
      svc.handle_line(R"({"op":"dldo_static","id":3,"ncomp":1,"iload":2})");
  const std::string ok4 =
      svc.handle_line(R"({"op":"dldo_static","id":4,"ncomp":4,"iload":2})");
  ASSERT_TRUE(response_ok(ok1));
  ASSERT_TRUE(response_ok(ok4));
  const double r1 =
      parsed(ok1).find("result")->find("analysis")->find("ripple_pp_v")->as_number();
  const double r4 =
      parsed(ok4).find("result")->find("analysis")->find("ripple_pp_v")->as_number();
  EXPECT_NEAR(r4, r1 / 4.0, 1e-15);
}

TEST(Serve, ScenarioEvalSchemaIsStrict) {
  Service svc;
  // preset and states are mutually exclusive and one is required.
  const std::string neither = svc.handle_line(R"({"op":"scenario_eval","id":1})");
  EXPECT_FALSE(response_ok(neither));
  EXPECT_NE(parsed(neither).find("error")->find("detail")->as_string().find("exactly one"),
            std::string::npos);
  const std::string both = svc.handle_line(
      R"({"op":"scenario_eval","id":2,"preset":"active-idle","states":[{"name":"a","v":1.0,"f":1e9,"residency":1.0}]})");
  EXPECT_FALSE(response_ok(both));

  // Unknown member inside a state object: named with its array index.
  const std::string badstate = svc.handle_line(
      R"({"op":"scenario_eval","id":3,"states":[{"name":"a","v":1.0,"f":1e9,"residencyy":1.0}]})");
  EXPECT_FALSE(response_ok(badstate));
  const std::string detail =
      parsed(badstate).find("error")->find("detail")->as_string();
  EXPECT_NE(detail.find("states[0]"), std::string::npos) << detail;
  EXPECT_NE(detail.find("residencyy"), std::string::npos) << detail;

  // Unknown preset: rejected with the known names.
  const std::string badpreset =
      svc.handle_line(R"({"op":"scenario_eval","id":4,"preset":"no-such"})");
  EXPECT_FALSE(response_ok(badpreset));
  EXPECT_NE(parsed(badpreset).find("error")->find("detail")->as_string().find("preset"),
            std::string::npos);

  // Unknown top-level member next to a valid preset.
  const std::string unknown = svc.handle_line(
      R"({"op":"scenario_eval","id":5,"preset":"active-idle","topologyy":"sc"})");
  EXPECT_FALSE(response_ok(unknown));
  EXPECT_NE(parsed(unknown).find("error")->find("detail")->as_string().find("topologyy"),
            std::string::npos);
  EXPECT_EQ(svc.stats().cache.entries, 0u);
}

TEST(Serve, ScenarioEvalEvaluatesAndCaches) {
  Service svc;
  const std::string req =
      R"({"op":"scenario_eval","id":9,"preset":"gpu-dvfs-step","dist":2,"power":10,"duration":"2u","dt":"4n"})";
  const std::string cold = svc.handle_line(req);
  ASSERT_TRUE(response_ok(cold)) << cold;
  const json::Value root = parsed(cold);
  const json::Value* scen = root.find("result")->find("scenario");
  ASSERT_NE(scen, nullptr);
  EXPECT_TRUE(scen->find("complete")->as_bool());
  EXPECT_GT(scen->find("weighted_efficiency")->as_number(), 0.0);
  EXPECT_EQ(scen->find("cells")->as_array().size(), 2u);
  // Warm hit: byte-identical, no second evaluation.
  const std::string warm = svc.handle_line(req);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(svc.stats().cache.hits, 1u);
}

TEST(Serve, ParetoEvaluatesAndCaches) {
  Service svc;
  const std::string req =
      R"({"op":"pareto","id":1,"power":20,"area":20,"density":0.2,"simulate":false})";
  const std::string cold = svc.handle_line(req);
  ASSERT_TRUE(response_ok(cold)) << cold;
  const json::Value root = parsed(cold);
  const json::Value* front = root.find("result")->find("front");
  ASSERT_NE(front, nullptr);
  EXPECT_GT(front->find("points")->as_array().size(), 0u);
  EXPECT_GT(front->find("stats")->find("n_screened")->as_number(), 0.0);
  // Warm hit: byte-identical, no second funnel run.
  const std::string warm = svc.handle_line(req);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(svc.stats().cache.hits, 1u);
}

TEST(Serve, ParetoTopKTruncatesTheResponse) {
  Service svc;
  const std::string all = svc.handle_line(
      R"({"op":"pareto","id":1,"density":0.2,"simulate":false})");
  ASSERT_TRUE(response_ok(all)) << all;
  const std::size_t n_all =
      parsed(all).find("result")->find("front")->find("points")->as_array().size();
  ASSERT_GT(n_all, 3u);

  const std::string top3 = svc.handle_line(
      R"({"op":"pareto","id":2,"density":0.2,"simulate":false,"top_k":3})");
  ASSERT_TRUE(response_ok(top3)) << top3;
  const json::Value doc = parsed(top3);
  EXPECT_EQ(doc.find("result")->find("front")->find("points")->as_array().size(), 3u);
  // top_k bounds the response, not the sweep: the stats still cover the
  // whole frontier.
  EXPECT_EQ(doc.find("result")->find("front")->find("stats")->find("frontier_size")
                ->as_number(),
            static_cast<double>(n_all));
}

TEST(Serve, ParetoSchemaIsStrict) {
  Service svc;
  // Unknown field is named.
  const std::string unknown =
      svc.handle_line(R"({"op":"pareto","id":1,"densityy":0.2})");
  EXPECT_FALSE(response_ok(unknown));
  EXPECT_NE(parsed(unknown).find("error")->find("detail")->as_string().find("densityy"),
            std::string::npos);
  // top_k must be a positive integer; the diagnostic names the field.
  const std::string zero =
      svc.handle_line(R"({"op":"pareto","id":2,"top_k":0})");
  EXPECT_FALSE(response_ok(zero));
  EXPECT_NE(parsed(zero).find("error")->find("detail")->as_string().find("top_k"),
            std::string::npos);
  const std::string frac =
      svc.handle_line(R"({"op":"pareto","id":3,"top_k":2.5})");
  EXPECT_FALSE(response_ok(frac));
  EXPECT_NE(parsed(frac).find("error")->find("detail")->as_string().find("top_k"),
            std::string::npos);
  // Out-of-range density is rejected before any screening happens.
  const std::string bad_density =
      svc.handle_line(R"({"op":"pareto","id":4,"density":0})");
  EXPECT_FALSE(response_ok(bad_density));
  EXPECT_NE(parsed(bad_density).find("error")->find("detail")->as_string().find("density"),
            std::string::npos);
  EXPECT_EQ(svc.stats().cache.entries, 0u);
}

TEST(Serve, ExploreTopKTruncatesTheResponse) {
  Service svc;
  const std::string all = svc.handle_line(R"({"op":"explore","id":1,"power":10})");
  ASSERT_TRUE(response_ok(all)) << all;
  const std::size_t n_all =
      parsed(all).find("result")->find("results")->as_array().size();
  ASSERT_GT(n_all, 2u);

  const std::string top2 =
      svc.handle_line(R"({"op":"explore","id":2,"power":10,"top_k":2})");
  ASSERT_TRUE(response_ok(top2)) << top2;
  const json::Value doc = parsed(top2);
  EXPECT_EQ(doc.find("result")->find("results")->as_array().size(), 2u);
  // The report still covers the full sweep.
  EXPECT_EQ(doc.find("result")->find("report")->find("n_evaluated")->as_number(),
            parsed(all).find("result")->find("report")->find("n_evaluated")->as_number());

  const std::string bad =
      svc.handle_line(R"({"op":"explore","id":3,"power":10,"top_k":-1})");
  EXPECT_FALSE(response_ok(bad));
  EXPECT_NE(parsed(bad).find("error")->find("detail")->as_string().find("top_k"),
            std::string::npos);
}

TEST(Serve, ScStaticMatchesDirectModelCall) {
  Service svc;
  const std::string r = svc.handle_line(request_mix()[0]);
  ASSERT_TRUE(response_ok(r));
  const json::Value doc = parsed(r);
  const json::Value* analysis = doc.find("result")->find("analysis");
  ASSERT_NE(analysis, nullptr);

  core::ScDesign d;
  d.cap_kind = tech::CapKind::DeepTrench;
  d.n = 3;
  d.m = 1;
  d.c_fly_f = 4e-6;
  d.c_out_f = 0.2e-6;
  d.g_tot_s = 15e3;
  d.f_sw_hz = 80e6;
  d.n_interleave = 8;
  const core::ScAnalysis a = core::analyze_sc(d, 3.3, 20.0);
  EXPECT_DOUBLE_EQ(analysis->find("efficiency")->as_number(), a.efficiency);
  EXPECT_DOUBLE_EQ(analysis->find("vout_v")->as_number(), a.vout_v);
  EXPECT_DOUBLE_EQ(analysis->find("area_m2")->as_number(), a.area_m2);
}

TEST(Serve, StatsOpReportsCountersAndIsNeverCached) {
  Service svc;
  (void)svc.handle_line(request_mix()[0]);
  const std::string r = svc.handle_line(R"({"op":"stats","id":0})");
  ASSERT_TRUE(response_ok(r));
  const json::Value doc = parsed(r);
  const json::Value* res = doc.find("result");
  EXPECT_DOUBLE_EQ(res->find("n_requests")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(res->find("n_evaluations")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(res->find("cache")->find("entries")->as_number(), 1.0);
  EXPECT_GT(res->find("cache")->find("bytes")->as_number(), 0.0);
  // A second stats call sees different counters — proof it was not cached.
  const std::string r2 = svc.handle_line(R"({"op":"stats","id":0})");
  EXPECT_DOUBLE_EQ(parsed(r2).find("result")->find("n_requests")->as_number(), 3.0);
}

// ---------------------------------------------------------------------------
// Cache correctness
// ---------------------------------------------------------------------------

TEST(Serve, EnvelopeFieldsAndSpellingDoNotSplitCacheEntries) {
  Service svc;
  const std::string cold = svc.handle_line(request_mix()[0]);
  // id=7 spells the same body with reordered keys and SPICE-suffixed
  // strings... but strings hash differently (structural normalization);
  // only the *number spelling* and member order normalize.
  const std::string reordered = svc.handle_line(
      R"({"id":99,"iload":20,"fsw":8e7,"gtot":15000,"cfly":0.000004,"n":3,"m":1,"op":"sc_static"})");
  EXPECT_EQ(svc.stats().cache.hits, 1u);
  // Identical result payload, different echoed id.
  EXPECT_EQ(*parsed(cold).find("result"), *parsed(reordered).find("result"));
}

TEST(Serve, ColdAndWarmBytesIdenticalAcrossThreadCounts) {
  const std::string input = join_lines(request_mix());
  std::string reference;
  for (const unsigned threads : {1u, 2u, 4u}) {
    par::set_global_threads(threads);
    Service svc;
    std::istringstream in(input);
    std::ostringstream out;
    BatchOptions opt;
    opt.repeat = 2;
    const BatchSummary summary = run_batch(in, out, svc, opt);

    // Pass 2 replays the identical stream: all hits, zero evaluations, and
    // (the acceptance criterion) strictly fewer model evaluations.
    ASSERT_EQ(summary.passes.size(), 2u);
    EXPECT_GT(summary.passes[1].hits, 0u);
    EXPECT_GT(summary.passes[1].hit_rate(), 0.0);
    EXPECT_LT(summary.passes[1].evaluations, summary.passes[0].evaluations);
    EXPECT_EQ(summary.passes[1].evaluations, 0u);
    EXPECT_EQ(summary.passes[1].errors, 0u);

    // Warm pass bytes == cold pass bytes, and all thread counts agree.
    const std::string all = out.str();
    const std::size_t half = all.size() / 2;
    ASSERT_EQ(all.size() % 2, 0u);
    EXPECT_EQ(all.substr(0, half), all.substr(half));
    if (reference.empty())
      reference = all;
    else
      EXPECT_EQ(all, reference) << "thread count " << threads << " changed bytes";
  }
  par::set_global_threads(1);
}

TEST(Serve, LruEvictionUnderTinyCapacity) {
  ResultCache cache(2, 1);  // one shard of two entries
  const auto h = [](const std::string& k) { return fnv1a64(k); };
  cache.insert(h("a"), "a", "pa");
  cache.insert(h("b"), "b", "pb");
  ASSERT_TRUE(cache.lookup(h("a"), "a").has_value());  // promotes "a"
  cache.insert(h("c"), "c", "pc");                     // evicts LRU = "b"
  EXPECT_EQ(cache.lookup(h("a"), "a").value(), "pa");
  EXPECT_EQ(cache.lookup(h("c"), "c").value(), "pc");
  EXPECT_FALSE(cache.lookup(h("b"), "b").has_value());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

// 4096 shards of the shipped budget hold 100 entries and 2 KiB each; one
// forged hash puts every key in the same shard, so only bytes evict.
TEST(Serve, LruEvictionUnderTheByteBudget) {
  ResultCache cache(409600, 4096);
  const std::size_t share = kResultCacheBytes / 4096;
  const std::size_t unit = share / 3;  // three units fit, a fourth does not
  const auto body = [](std::size_t key_and_payload, const std::string& key) {
    return std::string(key_and_payload - key.size(), 'p');
  };
  const std::uint64_t h = 0;
  cache.insert(h, "a", body(unit, "a"));
  cache.insert(h, "b", body(unit, "b"));
  cache.insert(h, "c", body(unit, "c"));
  EXPECT_EQ(cache.stats().bytes, 3 * unit);
  ASSERT_TRUE(cache.lookup(h, "a").has_value());  // promotes "a": a, c, b
  cache.insert(h, "d", body(unit, "d"));          // over by one unit: evicts "b"
  EXPECT_FALSE(cache.lookup(h, "b").has_value());
  EXPECT_TRUE(cache.lookup(h, "c").has_value());  // c, d, a
  cache.insert(h, "e", body(2 * unit, "e"));      // two units: evicts "a", "d"
  EXPECT_FALSE(cache.lookup(h, "a").has_value());
  EXPECT_FALSE(cache.lookup(h, "d").has_value());
  EXPECT_EQ(cache.lookup(h, "c").value(), body(unit, "c"));
  EXPECT_EQ(cache.lookup(h, "e").value(), body(2 * unit, "e"));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 3u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 3 * unit);
  EXPECT_EQ(s.capacity, 409600u);

  // One byte more than the shard's whole share: never held, and nothing
  // evicted to make room for it.
  cache.insert(h, "big", body(share + 1, "big"));
  EXPECT_FALSE(cache.lookup(h, "big").has_value());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

// An 8 MiB budget over 4096 shards leaves 2 KiB per shard: a pareto reply
// is too large to hold, so it is served fresh every time (byte-identical),
// while a small static analysis still caches and hits.
TEST(Serve, OversizeReplyIsServedButNotCached) {
  ServiceOptions opt;
  opt.cache_shards = 4096;
  Service svc(opt);
  const std::string pareto =
      R"({"op":"pareto","id":1,"power":20,"area":20,"density":0.2,"simulate":false})";
  const std::string cold = svc.handle_line(pareto);
  ASSERT_TRUE(response_ok(cold)) << cold;
  ASSERT_GT(cold.size(), kResultCacheBytes / 4096);
  EXPECT_EQ(svc.stats().cache.entries, 0u);
  EXPECT_EQ(svc.handle_line(pareto), cold);
  EXPECT_EQ(svc.stats().n_evaluations, 2u);
  EXPECT_EQ(svc.stats().cache.hits, 0u);

  const std::string small = request_mix()[0];
  const std::string first = svc.handle_line(small);
  ASSERT_TRUE(response_ok(first));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(svc.handle_line(small), first);
  const CacheStats s = svc.stats().cache;
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_LE(s.bytes, kResultCacheBytes / 4096);
}

TEST(Serve, HashCollisionDegradesToMissNotWrongAnswer) {
  ResultCache cache(4, 1);
  // Same forged hash, different canonical keys: the second lookup must not
  // return the first entry's payload.
  cache.insert(42, "key-one", "payload-one");
  EXPECT_FALSE(cache.lookup(42, "key-two").has_value());
  EXPECT_EQ(cache.lookup(42, "key-one").value(), "payload-one");
}

TEST(Serve, ServiceEvictionStillServesCorrectBytes) {
  ServiceOptions opt;
  opt.cache_capacity = 2;
  opt.cache_shards = 1;
  Service svc(opt);
  // 5 distinct requests through a 2-entry cache, then replay: every response
  // must match its cold bytes even though most were evicted.
  std::vector<std::string> reqs;
  for (int n = 2; n <= 6; ++n)
    reqs.push_back(R"({"op":"sc_static","id":)" + std::to_string(n) +
                   R"(,"n":)" + std::to_string(n) + R"(,"m":1,"iload":10})");
  std::vector<std::string> cold;
  for (const std::string& r : reqs) cold.push_back(svc.handle_line(r));
  EXPECT_GT(svc.stats().cache.evictions, 0u);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    EXPECT_EQ(svc.handle_line(reqs[i]), cold[i]) << reqs[i];
  EXPECT_LE(svc.stats().cache.entries, 2u);
}

TEST(Serve, FaultedEvaluationIsNotCached) {
  fault::disarm_all();
  Service svc;
  const std::string line = request_mix()[0];

  fault::arm_on_hit("sc_static_analysis", fault::Action::Throw, 1);
  const std::string failed = svc.handle_line(line);
  fault::disarm_all();

  EXPECT_FALSE(response_ok(failed));
  EXPECT_EQ(error_code(failed), "numerical");
  EXPECT_EQ(parsed(failed).find("error")->find("site")->as_string(), "serve.sc_static");
  EXPECT_EQ(svc.stats().cache.entries, 0u);  // the failure was not cached

  // With the fault disarmed the same request succeeds and caches normally.
  const std::string ok = svc.handle_line(line);
  EXPECT_TRUE(response_ok(ok));
  EXPECT_EQ(svc.stats().cache.entries, 1u);
  EXPECT_EQ(svc.handle_line(line), ok);  // served from cache, same bytes
  EXPECT_EQ(svc.stats().cache.hits, 1u);
}

// ---------------------------------------------------------------------------
// Scheduler: ordering, fairness bookkeeping, cancellation, deadlines.
// ---------------------------------------------------------------------------

/// The response lines a drained scheduler delivered into `dq`, in order.
std::vector<std::string> delivered(DeliveryQueue& dq) {
  dq.close_submit();
  std::vector<std::string> lines;
  for (std::string bytes; dq.next(bytes);) {
    bytes.pop_back();  // the trailing newline
    lines.push_back(std::move(bytes));
  }
  return lines;
}

TEST(Serve, SchedulerPreservesPerClientOrder) {
  Service svc;
  Scheduler::Options opt;
  opt.wave = 2;
  Scheduler sched(svc, opt);
  const int client = sched.open_client();
  DeliveryQueue dq;
  for (int i = 0; i < 8; ++i)
    sched.dispatch(client, R"({"op":"stats","id":)" + std::to_string(i) + "}", dq);
  sched.drain();
  const std::vector<std::string> got = delivered(dq);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(parsed(got[i]).find("id")->as_number(), i) << "position " << i;
  sched.close_client(client);
}

TEST(Serve, SchedulerCancelsQueuedJob) {
  Service svc;
  Scheduler::Options opt;
  opt.start_paused = true;
  Scheduler sched(svc, opt);
  const int client = sched.open_client();
  DeliveryQueue dq;
  sched.dispatch(client, R"({"op":"stats","id":1})", dq);
  sched.dispatch(client, R"({"op":"stats","id":2})", dq);
  EXPECT_TRUE(sched.cancel(client, json::Value(2.0)));
  EXPECT_FALSE(sched.cancel(client, json::Value(99.0)));  // no such job
  sched.resume();
  sched.drain();
  const std::vector<std::string> got = delivered(dq);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(response_ok(got[0]));
  EXPECT_FALSE(response_ok(got[1]));
  EXPECT_EQ(error_code(got[1]), "cancelled");
  sched.close_client(client);
}

TEST(Serve, SchedulerExpiresDeadlinedJob) {
  Service svc;
  Scheduler::Options opt;
  opt.start_paused = true;
  Scheduler sched(svc, opt);
  const int client = sched.open_client();
  DeliveryQueue dq;
  // 1 ms deadline, held paused for 50 ms: expired before dispatch. The
  // deadline-free sibling must still evaluate.
  sched.dispatch(client, R"({"op":"stats","id":1,"deadline_ms":1})", dq);
  sched.dispatch(client, R"({"op":"stats","id":2})", dq);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sched.resume();
  sched.drain();
  const std::vector<std::string> got = delivered(dq);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(response_ok(got[0]));
  EXPECT_EQ(error_code(got[0]), "deadline_exceeded");
  EXPECT_TRUE(response_ok(got[1]));
  sched.close_client(client);
}

TEST(Serve, CacheHitIsNotHeldByOtherWork) {
  // A hit is answered where its line is decoded. Client B's repeat of a
  // cached body must arrive while the scheduler is still paused; client A's
  // own hit, sent after A's queued miss, must still follow that miss.
  Service svc;
  const std::string body =
      R"("op":"sc_static","n":3,"m":1,"cfly":4e-6,"gtot":15e3,"fsw":80e6,"iload":20})";
  ASSERT_TRUE(response_ok(svc.handle_line(R"({"id":"warm",)" + body)));
  Scheduler::Options opt;
  opt.start_paused = true;
  Scheduler sched(svc, opt);
  const int a = sched.open_client();
  const int b = sched.open_client();
  DeliveryQueue dq_a;
  DeliveryQueue dq_b;
  sched.dispatch(a, R"({"op":"ldo_static","id":"a-miss","vin":1.2,"vout":1.0,"iload":5})",
                 dq_a);
  trace::clear();
  sched.dispatch(a, R"({"id":"a-hit",)" + body, dq_a);
  sched.dispatch(b, R"({"id":"b-hit",)" + body, dq_b);
  EXPECT_EQ(sched.pending(), 1u) << "only A's miss belongs in the queue";
  if (trace::enabled()) {
    std::size_t spans = 0;
    for (const trace::Event& e : trace::snapshot())
      spans += std::string(e.name) == "serve.request";
    EXPECT_EQ(spans, 2u) << "each hit answered at dispatch records a serve.request span";
  }

  std::future<std::string> b_reply = std::async(std::launch::async, [&dq_b] {
    std::string bytes;
    dq_b.next(bytes);
    return bytes;
  });
  const bool prompt = b_reply.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  sched.resume();  // frees a hit that waits for the dispatcher, so the test ends
  EXPECT_TRUE(prompt) << "B's cache hit waited for the paused scheduler";
  std::string b_line = b_reply.get();
  b_line.pop_back();
  EXPECT_TRUE(response_ok(b_line)) << b_line;
  EXPECT_EQ(parsed(b_line).find("id")->as_string(), "b-hit");

  sched.drain();
  const std::vector<std::string> got = delivered(dq_a);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(parsed(got[0]).find("id")->as_string(), "a-miss");
  EXPECT_EQ(parsed(got[1]).find("id")->as_string(), "a-hit");
  EXPECT_TRUE(response_ok(got[0])) << got[0];
  EXPECT_TRUE(response_ok(got[1])) << got[1];
  sched.close_client(a);
  sched.close_client(b);
}

// ---------------------------------------------------------------------------
// Unix-domain-socket transport vs in-process baseline.
// ---------------------------------------------------------------------------

TEST(Serve, ReaderThreadNeverBlocksOnAWrite) {
  // One client sends 20,000 cache hits before it reads a reply: ~14 MB of
  // replies, far past the socket buffer. Hits are answered on the reader
  // thread; were it to write them with a blocking send, it would stop
  // reading, the client's sends would block too, and neither side would
  // move again.
  ServerOptions opt;
  opt.socket_path = "/tmp/ivory_test_flood_" + std::to_string(::getpid()) + ".sock";
  Server server(std::move(opt));
  server.start();
  const std::string body =
      R"("op":"sc_static","n":3,"m":1,"cfly":4e-6,"gtot":15e3,"fsw":80e6,"iload":20})";
  const auto line = [&body](int id) { return "{\"id\":" + std::to_string(id) + "," + body; };
  std::string first;
  {
    BlockingClient warm(server.socket_path());
    warm.send_line(line(0));
    first = warm.recv_line();
  }
  ASSERT_TRUE(response_ok(first)) << first;
  const std::string after_id = first.substr(first.find(','));

  constexpr int kHits = 20000;
  std::future<std::string> flood = std::async(std::launch::async, [&] {
    BlockingClient cli(server.socket_path());
    std::string lines = line(1);
    for (int i = 2; i <= kHits; ++i) lines += "\n" + line(i);
    cli.send_line(lines);
    std::size_t bytes = 0;
    for (int i = 1; i <= kHits; ++i) {
      const std::string got = cli.recv_line();
      bytes += got.size() + 1;
      if (got != "{\"id\":" + std::to_string(i) + after_id)
        return "reply " + std::to_string(i) + " differs: " + got.substr(0, 120);
    }
    return bytes > (8u << 20) ? std::string() : "only " + std::to_string(bytes) + " bytes";
  });
  if (flood.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // The stuck reader and client threads cannot be joined: end the process.
    std::fprintf(stderr, "Serve.ReaderThreadNeverBlocksOnAWrite: no progress in 10 s\n");
    std::_Exit(1);
  }
  EXPECT_EQ(flood.get(), "");
  server.stop();
}

TEST(Serve, SocketClientsGetBatchIdenticalBytes) {
  // Baseline: single-threaded in-process service.
  par::set_global_threads(1);
  const std::vector<std::string> reqs = request_mix();
  std::vector<std::string> expected;
  {
    Service svc;
    for (const std::string& r : reqs) expected.push_back(svc.handle_line(r));
  }

  par::set_global_threads(4);
  ServerOptions opt;
  opt.socket_path = "/tmp/ivory_test_serve_" + std::to_string(::getpid()) + ".sock";
  Server server(std::move(opt));
  server.start();

  // Two concurrent clients interleave the same request stream; each must get
  // its responses in its own submission order with baseline-identical bytes.
  std::vector<std::vector<std::string>> got(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient cli(server.socket_path());
      for (const std::string& r : reqs) cli.send_line(r);
      for (std::size_t i = 0; i < reqs.size(); ++i)
        got[c].push_back(cli.recv_line());
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  par::set_global_threads(1);

  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(got[c].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(got[c][i], expected[i]) << "client " << c << " line " << i;
  }
}

// ---------------------------------------------------------------------------
// Switch-level transient op (topology "spice"): inline netlist through the
// MNA engine, with the keyed LU cache behind it.
// ---------------------------------------------------------------------------

/// Inline two-phase SC netlist request at a given LU-cache capacity. 40
/// switching cycles at 400 steps/cycle: long enough for the cache to cycle
/// through every phase configuration, small enough for tier 1.
std::string spice_transient_request(int lu_cache, int id) {
  std::ostringstream req;
  req << R"({"op":"transient","id":)" << id << R"(,"topology":"spice",)"
      << R"("netlist":"vin in 0 DC 3.3\ns1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\n)"
      << R"(s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\ncfly fly 0 100n IC=1.65\n)"
      << R"(cout out 0 100n IC=1.65\nrl out 0 3.3\n.end\n",)"
      << R"("tstop":2e-6,"dt":1.25e-10,"method":"be","uic":true,"record":["out"],)"
      << R"("return_waveform":true,"lu_cache":)" << lu_cache << "}";
  return req.str();
}

/// Everything from the per-node stats onward: node summaries, waveform
/// arrays, and the time grid. The cache counters that precede it
/// legitimately differ with capacity; these bytes must not.
std::string waveform_payload(const std::string& line) {
  const std::size_t at = line.find("\"nodes\"");
  return at == std::string::npos ? line : line.substr(at);
}

TEST(Serve, SpiceTransientBytesIdenticalAcrossCacheCapacities) {
  Service svc;
  const std::string ref_line = svc.handle_line(spice_transient_request(1, 1));
  ASSERT_TRUE(response_ok(ref_line)) << ref_line;
  ASSERT_NE(ref_line.find("\"lu_factorizations\""), std::string::npos);
  const std::string reference = waveform_payload(ref_line);
  ASSERT_NE(reference.find("\"time_s\""), std::string::npos);
  int id = 2;
  for (const int capacity : {0, 8, 64}) {
    const std::string line = svc.handle_line(spice_transient_request(capacity, id++));
    ASSERT_TRUE(response_ok(line)) << line;
    EXPECT_EQ(waveform_payload(line), reference)
        << "lu_cache=" << capacity << " changed the waveform bytes";
  }
}

TEST(Serve, SpiceTransientBytesIdenticalAcrossThreadCounts) {
  // The serve path must give the same bytes whether the pool runs 1, 2, or 4
  // threads: the transient op itself is sequential, so this guards against
  // any thread-count-dependent state leaking into the response.
  const std::string input = spice_transient_request(8, 0) + "\n";
  std::string reference;
  for (const unsigned threads : {1u, 2u, 4u}) {
    par::set_global_threads(threads);
    Service svc;
    std::istringstream in(input);
    std::ostringstream out;
    const BatchSummary summary = run_batch(in, out, svc, BatchOptions{});
    EXPECT_EQ(summary.passes.back().errors, 0u);
    if (reference.empty())
      reference = out.str();
    else
      EXPECT_EQ(out.str(), reference) << "thread count " << threads << " changed bytes";
  }
  par::set_global_threads(1);
}

TEST(Serve, SpiceTransientSchemaIsStrict) {
  Service svc;
  // Missing netlist.
  const std::string no_netlist = svc.handle_line(
      R"({"op":"transient","id":1,"topology":"spice","tstop":1e-6,"dt":1e-9})");
  EXPECT_FALSE(response_ok(no_netlist));
  EXPECT_NE(parsed(no_netlist).find("error")->find("detail")->as_string().find("netlist"),
            std::string::npos);
  // Negative cache capacity.
  const std::string bad_cap = svc.handle_line(spice_transient_request(-1, 2));
  EXPECT_FALSE(response_ok(bad_cap));
  EXPECT_NE(parsed(bad_cap).find("error")->find("detail")->as_string().find("lu_cache"),
            std::string::npos);
  // A capacity above the bound: one run could otherwise keep any number of
  // factorizations (~5.8 MB each for a 64x64 grid).
  const std::string big_cap =
      svc.handle_line(spice_transient_request(spice::kMaxLuCacheCapacity + 1, 3));
  EXPECT_FALSE(response_ok(big_cap));
  EXPECT_NE(parsed(big_cap).find("error")->find("detail")->as_string().find("lu_cache"),
            std::string::npos);
  // Step budget: tstop/dt beyond max_samples must be rejected, not simulated.
  ServiceOptions tiny;
  tiny.max_samples = 100;
  Service small(tiny);
  const std::string over = svc.handle_line(spice_transient_request(8, 3));
  EXPECT_TRUE(response_ok(over));
  const std::string rejected = small.handle_line(spice_transient_request(8, 4));
  EXPECT_FALSE(response_ok(rejected));
}

TEST(Serve, ClockEdgesCountAgainstTheStepBudget) {
  // tstop/dt is 1e6, inside the default 4,194,304-step budget, but the
  // 1 THz two-phase clock lands 2e9 times by 1 ms: the request is refused
  // before the first step, naming the switch, its clock and the budget.
  const std::string fast_clock =
      R"({"op":"transient","id":1,"topology":"spice",)"
      R"("netlist":"v1 in 0 DC 1\ns1 in out 1 1e9 CLOCK(1e12 2 0.5 0)\nrl out 0 1k\n",)"
      R"("tstop":1e-3,"dt":1e-9})";
  const metrics::Counter& steps = metrics::registry().counter("spice.tran.steps");
  const std::uint64_t steps_before = steps.value();
  Service svc;
  const std::string refused = svc.handle_line(fast_clock);
  ASSERT_FALSE(response_ok(refused)) << refused;
  EXPECT_EQ(error_code(refused), "invalid-parameter");
  const std::string detail = parsed(refused).find("error")->find("detail")->as_string();
  EXPECT_NE(detail.find("switch 's1'"), std::string::npos) << detail;
  EXPECT_NE(detail.find("1e+12 Hz"), std::string::npos) << detail;
  EXPECT_NE(detail.find("4194304"), std::string::npos) << detail;
  // The batch runner behind `ivory batch` refuses it the same way.
  std::istringstream in(fast_clock + "\n");
  std::ostringstream out;
  EXPECT_EQ(run_batch(in, out, svc, BatchOptions{}).passes.back().errors, 1u);
  EXPECT_NE(out.str().find(detail), std::string::npos) << out.str();
  EXPECT_EQ(steps.value(), steps_before) << "a refused request took steps";

  // The slow fixtures of the fleet, stream and crash-recovery tests (3.2M
  // steps plus 32k landings) stay inside the budget.
  const json::Value slow = json::Value::parse(
      R"({"op":"transient","topology":"spice",)"
      R"("netlist":"vs src 0 DC 3.3\nrs src a 0.01\nls a in 1n\ncin in 0 1u\n)"
      R"(s1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\n)"
      R"(s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\ncfly fly 0 100n IC=1.65\n)"
      R"(cout out 0 100n IC=1.65\nrl out 0 3.3\n.end\n",)"
      R"("tstop":4e-4,"dt":1.25e-10,"method":"be","uic":true,"record":["out"]})");
  EXPECT_NO_THROW(prepare_spice(transient_params(slow), ServiceOptions{}.max_samples));
}

TEST(Serve, ForcedDenseKernelAboveTheLimitIsRefused) {
  // A 4200-stage resistor chain forced onto the dense kernel would need a
  // 141 MB matrix: the request fails up front, and the error detail names
  // the field, the unknown count and the bytes.
  std::string net = "v1 n0 0 DC 1\\n";
  for (int i = 0; i < 4200; ++i)
    net += "r" + std::to_string(i) + " n" + std::to_string(i) + " n" + std::to_string(i + 1) +
           " 0.1\\nc" + std::to_string(i) + " n" + std::to_string(i + 1) + " 0 1p\\n";
  Service svc;
  const std::string body = R"({"op":"transient","id":1,"topology":"spice","netlist":")" + net +
                           R"(","tstop":1e-8,"dt":1e-9,"kernel":)";
  const std::string refused = svc.handle_line(body + R"("dense"})");
  ASSERT_FALSE(response_ok(refused));
  EXPECT_EQ(error_code(refused), "invalid-parameter");
  const std::string detail = parsed(refused).find("error")->find("detail")->as_string();
  EXPECT_NE(detail.find("kernel"), std::string::npos) << detail;
  EXPECT_NE(detail.find("n=4202"), std::string::npos) << detail;
  EXPECT_NE(detail.find("141254432 bytes"), std::string::npos) << detail;
  // The same netlist runs on the automatic kernel.
  EXPECT_TRUE(response_ok(svc.handle_line(body + R"("auto"})")));
}

// ---------------------------------------------------------------------------
// Robustness: dead clients and enriched numerical failures.
// ---------------------------------------------------------------------------

TEST(Serve, ClientDroppingMidResponseDoesNotKillTheServer) {
  // Regression for the SIGPIPE hole: a client that sends a request and
  // disconnects before reading the response used to be able to kill the
  // whole process (write to a closed socket -> SIGPIPE -> default terminate).
  // The failure mode must cost exactly that one connection.
  ServerOptions opt;
  opt.socket_path = "/tmp/ivory_test_sigpipe_" + std::to_string(::getpid()) + ".sock";
  Server server(std::move(opt));
  server.start();

  for (int round = 0; round < 3; ++round) {
    // An expensive-enough request that the response is still being computed
    // when the client's socket is already closed.
    BlockingClient dropper(server.socket_path());
    dropper.send_line(spice_transient_request(8, 100 + round));
    // ~BlockingClient closes the fd immediately; the server's response write
    // hits a dead peer.
  }
  // Give the in-flight evaluations time to finish and write into the void.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The server is still alive and serves a well-behaved client.
  BlockingClient client(server.socket_path());
  client.send_line(request_mix()[0]);
  EXPECT_TRUE(response_ok(client.recv_line()));
  server.stop();
}

TEST(Serve, LongRequestLineOverSocketMatchesHandleLine) {
  // A ~0.55 MB request line (a 6500-stage RC ladder) arrives in many 4 KiB
  // reads, and its reply is about as long: both newline scans must resume
  // where they stopped, and the bytes must equal the in-process reply.
  std::string netlist = "* rc ladder\nV1 node_00000 0 DC 1\n";
  char buf[96];
  for (int i = 1; i <= 6500; ++i) {
    std::snprintf(buf, sizeof buf, "Rladder_segment_%05d node_%05d node_%05d 1\n", i, i - 1, i);
    netlist += buf;
    std::snprintf(buf, sizeof buf, "Cladder_segment_%05d node_%05d 0 1n\n", i, i);
    netlist += buf;
  }
  netlist += ".end\n";
  json::Value::Object o;
  o.emplace_back("op", "transient");
  o.emplace_back("id", 1);
  o.emplace_back("topology", "spice");
  o.emplace_back("netlist", netlist);
  o.emplace_back("tstop", 1e-8);
  o.emplace_back("dt", 1e-9);
  const std::string line = json::Value(std::move(o)).write();
  ASSERT_GE(line.size(), 512u * 1024u);

  const std::string reference = Service().handle_line(line);
  ASSERT_TRUE(response_ok(reference)) << reference.substr(0, 300);

  ServerOptions opt;
  opt.socket_path = "/tmp/ivory_test_longline_" + std::to_string(::getpid()) + ".sock";
  Server server(std::move(opt));
  server.start();
  {
    BlockingClient client(server.socket_path());
    client.send_line(line);
    EXPECT_EQ(client.recv_line(), reference);
  }
  server.stop();
}

TEST(Serve, SingularMatrixErrorNamesTheOffendingUnknown) {
  // Two ideal voltage sources forcing the same node: structurally singular
  // MNA system. The serve error envelope must surface the enriched
  // diagnostic (which unknown's pivot collapsed), not a bare "singular".
  Service svc;
  const std::string resp = svc.handle_line(
      R"({"op":"transient","id":1,"topology":"spice",)"
      R"("netlist":"v1 rail 0 DC 1.0\nv2 rail 0 DC 2.0\nr1 rail 0 1.0\n.end\n",)"
      R"("tstop":1e-8,"dt":1e-9})");
  EXPECT_FALSE(response_ok(resp));
  const json::Value err = *parsed(resp).find("error");
  EXPECT_EQ(err.find("code")->as_string(), "numerical");
  EXPECT_EQ(err.find("site")->as_string(), "serve.transient");
  const std::string detail = err.find("detail")->as_string();
  EXPECT_NE(detail.find("singular"), std::string::npos) << detail;
  EXPECT_NE(detail.find("offending unknown"), std::string::npos) << detail;
  // The colliding unknown is one of the source branch currents.
  EXPECT_NE(detail.find("branch current"), std::string::npos) << detail;
}

TEST(Serve, FailedEvaluationsNeverReachTheDurableStore) {
  std::string dir = "/tmp/ivory_test_failstore_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  ServiceOptions opt;
  opt.cache_dir = dir;
  Service svc(opt);
  const std::string resp = svc.handle_line(
      R"({"op":"transient","id":1,"topology":"spice",)"
      R"("netlist":"v1 rail 0 DC 1.0\nv2 rail 0 DC 2.0\nr1 rail 0 1.0\n.end\n",)"
      R"("tstop":1e-8,"dt":1e-9})");
  EXPECT_FALSE(response_ok(resp));
  // Neither tier may remember the failure: the next identical request (with
  // the singularity fixed upstream, or transiently absent) must re-evaluate.
  EXPECT_EQ(svc.stats().cache.entries, 0u);
  EXPECT_EQ(svc.stats().store.puts, 0u);
  EXPECT_EQ(svc.stats().store.entries, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ivory::serve
