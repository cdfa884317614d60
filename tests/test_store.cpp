// Durable content-addressed store tests: crash-safe publish, verified
// reads (corruption -> quarantine + miss, collision -> miss, never a wrong
// answer), deterministic filesystem fault injection at every publish site,
// the GC size cap, and warm-restart byte-identity through for_each().
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/hash.hpp"
#include "serve/batch.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"

namespace ivory::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under TMPDIR, removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "ivory-store-XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    fault::disarm_all();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  DurableStore open(std::uint64_t max_bytes = 256ull << 20) {
    StoreOptions o;
    o.dir = dir_;
    o.max_bytes = max_bytes;
    return DurableStore(o);
  }

  /// Files in the store directory matching a prefix (e.g. "e", "quar-", "tmp-").
  std::vector<std::string> files_with_prefix(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind(prefix, 0) == 0) out.push_back(name);
    }
    return out;
  }

  std::string dir_;
};

std::uint64_t key_hash(std::string_view key) { return fnv1a64(key); }

TEST_F(StoreTest, RoundTripAndStats) {
  DurableStore store = open();
  const std::string key = R"({"op":"sc_static","n":3})";
  const std::string payload = R"({"analysis":{"eff":0.91}})";

  EXPECT_FALSE(store.get(key_hash(key), key).has_value());
  EXPECT_TRUE(store.put(key_hash(key), key, payload));
  const std::optional<std::string> got = store.get(key_hash(key), key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  const StoreStats s = store.stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, payload.size());
  EXPECT_EQ(s.quarantined, 0u);
}

TEST_F(StoreTest, SurvivesProcessRestartByteIdentical) {
  const std::string key = R"({"op":"optimize","power":20})";
  const std::string payload = std::string(4096, 'x') + "tail";
  {
    DurableStore store = open();
    ASSERT_TRUE(store.put(key_hash(key), key, payload));
  }
  DurableStore reopened = open();
  const std::optional<std::string> got = reopened.get(key_hash(key), key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // byte-identical across the "restart"
  EXPECT_EQ(reopened.stats().entries, 1u);
}

TEST_F(StoreTest, HashCollisionIsAMissNeverAWrongAnswer) {
  DurableStore store = open();
  const std::string key_a = "request-a";
  const std::string key_b = "request-b";  // pretend it hashes identically
  ASSERT_TRUE(store.put(key_hash(key_a), key_a, "payload-a"));

  // Probe the same slot with a different canonical key: full-key compare
  // must report a miss and leave the intact entry alone.
  EXPECT_FALSE(store.get(key_hash(key_a), key_b).has_value());
  EXPECT_EQ(store.stats().quarantined, 0u);
  EXPECT_EQ(store.stats().entries, 1u);
  const std::optional<std::string> got = store.get(key_hash(key_a), key_a);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload-a");
}

TEST_F(StoreTest, BitFlippedEntryIsQuarantinedNotServed) {
  const std::string key = "flip-me";
  const std::string payload(512, 'p');
  DurableStore store = open();
  ASSERT_TRUE(store.put(key_hash(key), key, payload));

  // Flip one payload byte on disk, behind the store's back.
  const std::vector<std::string> entries = files_with_prefix("e");
  ASSERT_EQ(entries.size(), 1u);
  const std::string path = dir_ + "/" + entries[0];
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-7, std::ios::end);
    f.put('Q');
  }

  EXPECT_FALSE(store.get(key_hash(key), key).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_EQ(store.stats().entries, 0u);
  // The entry is no longer addressable, only quarantined for post-mortem.
  EXPECT_TRUE(files_with_prefix("e").empty());
  EXPECT_EQ(files_with_prefix("quar-").size(), 1u);
}

TEST_F(StoreTest, TruncatedEntryIsQuarantinedOnReadAndOnScan) {
  const std::string key = "truncate-me";
  DurableStore store = open();
  ASSERT_TRUE(store.put(key_hash(key), key, std::string(2048, 't')));
  const std::vector<std::string> entries = files_with_prefix("e");
  ASSERT_EQ(entries.size(), 1u);
  fs::resize_file(dir_ + "/" + entries[0], 100);  // torn write after a crash

  EXPECT_FALSE(store.get(key_hash(key), key).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);

  // A restart over a directory holding only quarantine leftovers indexes
  // nothing and warm-loads nothing.
  DurableStore reopened = open();
  std::size_t delivered = reopened.for_each(
      [](std::uint64_t, const std::string&, const std::string&) {});
  EXPECT_EQ(delivered, 0u);
}

TEST_F(StoreTest, EnospcFaultFailsPutButStoreStaysReadable) {
  DurableStore store = open();
  ASSERT_TRUE(store.put(key_hash("keep"), "keep", "kept-payload"));

  fault::arm_on_hit("cas.enospc", fault::Action::Throw, 1);
  EXPECT_FALSE(store.put(key_hash("new"), "new", "lost-payload"));
  fault::disarm_all();

  EXPECT_EQ(store.stats().put_failures, 1u);
  EXPECT_FALSE(store.get(key_hash("new"), "new").has_value());
  const std::optional<std::string> kept = store.get(key_hash("keep"), "keep");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(*kept, "kept-payload");
  // The failed publish left no addressable debris.
  EXPECT_EQ(files_with_prefix("e").size(), 1u);
}

TEST_F(StoreTest, ShortWriteFaultLeavesNoAddressableEntry) {
  DurableStore store = open();
  fault::arm_on_hit("cas.short_write", fault::Action::Throw, 1);
  EXPECT_FALSE(store.put(key_hash("short"), "short", std::string(1024, 's')));
  fault::disarm_all();

  EXPECT_FALSE(store.get(key_hash("short"), "short").has_value());
  EXPECT_TRUE(files_with_prefix("e").empty());  // tmp debris is not addressable
  EXPECT_EQ(store.stats().put_failures, 1u);
}

TEST_F(StoreTest, TornRenameFaultIsCaughtByTheReadSideChecksum) {
  DurableStore store = open();
  fault::arm_on_hit("cas.torn_rename", fault::Action::Throw, 1);
  // Worst case: a truncated file lands under the final addressable name.
  EXPECT_FALSE(store.put(key_hash("torn"), "torn", std::string(1024, 'r')));
  fault::disarm_all();
  ASSERT_EQ(files_with_prefix("e").size(), 1u);

  // The verified read refuses to serve it and quarantines instead.
  EXPECT_FALSE(store.get(key_hash("torn"), "torn").has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_TRUE(files_with_prefix("e").empty());
}

TEST_F(StoreTest, BitflipFaultIsCaughtByTheReadSideChecksum) {
  DurableStore store = open();
  fault::arm_on_hit("cas.bitflip", fault::Action::Throw, 1);
  // The publish itself "succeeds" — silent corruption in flight.
  EXPECT_TRUE(store.put(key_hash("silent"), "silent", std::string(256, 'b')));
  fault::disarm_all();

  EXPECT_FALSE(store.get(key_hash("silent"), "silent").has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST_F(StoreTest, GcEvictsLeastRecentlyUsedFirst) {
  // Each entry is ~1KB; cap the store at ~3 of them.
  const std::string payload(1024, 'g');
  DurableStore store = open(3 * 1100);
  ASSERT_TRUE(store.put(key_hash("a"), "a", payload));
  ASSERT_TRUE(store.put(key_hash("b"), "b", payload));
  ASSERT_TRUE(store.put(key_hash("c"), "c", payload));
  // Touch "a" so "b" becomes the LRU victim when "d" arrives.
  ASSERT_TRUE(store.get(key_hash("a"), "a").has_value());
  ASSERT_TRUE(store.put(key_hash("d"), "d", payload));

  EXPECT_GE(store.stats().gc_evictions, 1u);
  EXPECT_LE(store.stats().bytes, 3u * 1100u);
  EXPECT_FALSE(store.get(key_hash("b"), "b").has_value());  // evicted
  EXPECT_TRUE(store.get(key_hash("a"), "a").has_value());   // recently used
  EXPECT_TRUE(store.get(key_hash("d"), "d").has_value());   // just published
}

TEST_F(StoreTest, ForEachDeliversOldestFirstForWarmLoad) {
  {
    DurableStore store = open();
    // File mtimes seed the restart LRU order, and Linux stamps them at
    // jiffy granularity — space the publishes out so the order is real.
    ASSERT_TRUE(store.put(key_hash("first"), "first", "1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ASSERT_TRUE(store.put(key_hash("second"), "second", "2"));
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ASSERT_TRUE(store.put(key_hash("third"), "third", "3"));
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    // Refresh "first" so it is the most recently used entry.
    ASSERT_TRUE(store.get(key_hash("first"), "first").has_value());
  }
  DurableStore reopened = open();
  std::vector<std::string> order;
  const std::size_t delivered = reopened.for_each(
      [&](std::uint64_t, const std::string& key, const std::string&) {
        order.push_back(key);
      });
  EXPECT_EQ(delivered, 3u);
  ASSERT_EQ(order.size(), 3u);
  // Oldest-first: feeding an LRU in this order leaves the most recently
  // used entry warmest. (mtime granularity can tie the two cold entries;
  // the load-bearing property is that a tie never puts "first" first.)
  EXPECT_EQ(order.back(), "first");
}

TEST_F(StoreTest, ServiceWarmLoadsAndShortCircuitsEvaluation) {
  // A mixed stream through run_batch: every static analysis, an optimizer
  // sweep, and one body sent twice under different ids. Five distinct
  // results, whichever way the cold pass's duplicate races its twin.
  std::string stream;
  for (const char* line : {
           R"({"op":"sc_static","id":1,"n":3,"m":1,"cfly":4e-6,"gtot":15e3,"fsw":80e6,"iload":20})",
           R"({"op":"buck_static","id":2,"l":5e-9,"fsw":1e8,"phases":4,"iload":9})",
           R"({"op":"ldo_static","id":3,"vin":1.2,"vout":1.0,"iload":3})",
           R"({"op":"sc_static","id":4,"n":2,"m":1,"cfly":2e-6,"gtot":8e3,"fsw":60e6,"iload":10})",
           R"({"op":"optimize","id":5,"topology":"sc","dist":4,"power":20,"area":20})",
           R"({"op":"sc_static","id":6,"n":2,"m":1,"cfly":2e-6,"gtot":8e3,"fsw":60e6,"iload":10})"})
    stream += std::string(line) + "\n";
  const auto replay = [&stream](Service& svc, std::string& bytes) {
    std::istringstream in(stream);
    std::ostringstream out;
    const BatchSummary summary = run_batch(in, out, svc);
    bytes = out.str();
    return summary.passes.at(0);
  };
  ServiceOptions o;
  o.cache_dir = dir_;
  std::string cold;
  {
    Service svc(o);
    const BatchPassStats pass = replay(svc, cold);
    ASSERT_EQ(pass.errors, 0u) << cold;
    ASSERT_GE(pass.evaluations, 5u);
  }  // destroyed: only the durable tier carries over
  Service warm(o);
  EXPECT_EQ(warm.stats().warm_loaded, 5u);
  std::string hit;
  const BatchPassStats pass = replay(warm, hit);
  EXPECT_EQ(hit, cold);  // byte-identical across the restart
  EXPECT_EQ(pass.evaluations, 0u);
  EXPECT_EQ(pass.hits, 6u);  // served from the warmed LRU
  EXPECT_EQ(pass.hit_rate(), 1.0);
}

TEST_F(StoreTest, ServiceFallsBackToDiskWhenMemoryCacheMisses) {
  const std::string req =
      R"({"op":"ldo_static","id":9,"vin":1.2,"vout":1.0,"iload":5})";
  std::string cold;
  {
    ServiceOptions o;
    o.cache_dir = dir_;
    Service svc(o);
    cold = svc.handle_line(req);
  }
  ServiceOptions o;
  o.cache_dir = dir_;
  o.warm_load = false;  // cold LRU, populated store: forces the durable tier
  Service svc(o);
  const std::string hit = svc.handle_line(req);
  EXPECT_EQ(hit, cold);
  EXPECT_EQ(svc.stats().n_evaluations, 0u);
  EXPECT_EQ(svc.stats().store.hits, 1u);
}

TEST_F(StoreTest, ServicePutFailureDegradesDurabilityNotCorrectness) {
  ServiceOptions o;
  o.cache_dir = dir_;
  Service svc(o);
  fault::arm_on_hit("cas.enospc", fault::Action::Throw, 1);
  const std::string r = svc.handle_line(
      R"({"op":"ldo_static","id":1,"vin":1.2,"vout":1.0,"iload":5})");
  fault::disarm_all();
  // The response is still served from the in-memory value...
  EXPECT_TRUE(r.find("\"ok\":true") != std::string::npos);
  EXPECT_EQ(svc.stats().store.put_failures, 1u);
  // ...and the durable tier simply has nothing for the next restart.
  EXPECT_EQ(svc.stats().store.entries, 0u);
}

}  // namespace
}  // namespace ivory::serve
