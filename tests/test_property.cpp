// Property-based tests over deterministic random inputs (Pcg32 seeds, so a
// failure is replayable: the seed is in the assertion message).
//
//  1. JSON canonicalization is a fixpoint: for any generated document,
//     parse(write_canonical(v)) re-serializes to the identical bytes, and
//     the content hash (fnv1a64 over the canonical form) is stable. This is
//     the property the serve result cache's content addressing rests on.
//  2. The transient LU-factorization cache is invisible in outputs: for
//     random circuit and TranSpec perturbations, waveforms are byte-identical
//     at every cache capacity, including disabled.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "spice/spice.hpp"

namespace ivory {
namespace {

// ---------------------------------------------------------------------------
// Random JSON documents.
// ---------------------------------------------------------------------------

std::string random_string(Pcg32& rng) {
  static const char* kAlphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-./\\\"\n\t";
  const std::size_t len = rng.next_u32() % 12;
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    s.push_back(kAlphabet[rng.next_u32() % std::strlen(kAlphabet)]);
  return s;
}

double random_number(Pcg32& rng) {
  switch (rng.next_u32() % 4) {
    case 0:  // small integers (exercise the integral fast path)
      return static_cast<double>(static_cast<std::int32_t>(rng.next_u32())) / 8.0;
    case 1:  // SPICE-sized magnitudes
      return rng.uniform(-1.0, 1.0) * 1e-9;
    case 2:  // large magnitudes
      return rng.uniform(-1.0, 1.0) * 1e12;
    default:  // values with awkward shortest round-trips
      return rng.uniform(-1.0, 1.0);
  }
}

json::Value random_value(Pcg32& rng, int depth) {
  const std::uint32_t kind = rng.next_u32() % (depth > 0 ? 6 : 4);
  switch (kind) {
    case 0: return json::Value();
    case 1: return json::Value(rng.bernoulli(0.5));
    case 2: return json::Value(random_number(rng));
    case 3: return json::Value(random_string(rng));
    case 4: {
      json::Value::Array a;
      const std::size_t n = rng.next_u32() % 5;
      for (std::size_t i = 0; i < n; ++i) a.push_back(random_value(rng, depth - 1));
      return json::Value(std::move(a));
    }
    default: {
      json::Value::Object o;
      const std::size_t n = rng.next_u32() % 5;
      for (std::size_t i = 0; i < n; ++i) {
        // Unique keys: canonical ordering of duplicate keys is unspecified.
        std::string key = std::to_string(i) + ":" + random_string(rng);
        o.emplace_back(std::move(key), random_value(rng, depth - 1));
      }
      return json::Value(std::move(o));
    }
  }
}

TEST(PropertyJson, CanonicalFormIsAParseWriteFixpoint) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Pcg32 rng(seed);
    const json::Value v = random_value(rng, 4);
    const std::string c1 = v.write_canonical();
    json::Value reparsed;
    ASSERT_NO_THROW(reparsed = json::Value::parse(c1)) << "seed=" << seed << " doc=" << c1;
    const std::string c2 = reparsed.write_canonical();
    ASSERT_EQ(c1, c2) << "canonical form not a fixpoint at seed=" << seed;
    // Content hashing is a pure function of those bytes.
    ASSERT_EQ(fnv1a64(c1), fnv1a64(c2)) << "seed=" << seed;
    // Semantic equality survives the round trip.
    ASSERT_TRUE(v == reparsed) << "seed=" << seed << " doc=" << c1;
  }
}

TEST(PropertyJson, MemberOrderNeverChangesTheCanonicalForm) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    json::Value v = random_value(rng, 3);
    if (!v.is_object() || v.as_object().size() < 2) continue;
    json::Value shuffled = v;
    json::Value::Object& o = shuffled.as_object();
    // Deterministic Fisher-Yates on the member order.
    for (std::size_t i = o.size(); i > 1; --i)
      std::swap(o[i - 1], o[rng.next_u32() % i]);
    ASSERT_EQ(v.write_canonical(), shuffled.write_canonical()) << "seed=" << seed;
    ASSERT_EQ(fnv1a64(v.write_canonical()), fnv1a64(shuffled.write_canonical()))
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Random switched circuits: the LU cache must never change a waveform.
// ---------------------------------------------------------------------------

/// A randomized 2:1 switched-capacitor cell with an RC ladder load: random
/// element values, clock rate/duty and load depth, but always structurally
/// valid and numerically tame.
spice::Circuit random_switched_circuit(Pcg32& rng) {
  spice::Circuit c;
  const spice::NodeId in = c.node("in");
  const spice::NodeId fly = c.node("fly");
  const spice::NodeId out = c.node("out");
  c.add_vsource("vin", in, spice::kGround, spice::Waveform::dc(rng.uniform(2.0, 5.0)));
  const spice::PhaseClock clk(rng.uniform(5e6, 40e6), 2, rng.uniform(0.35, 0.48));
  const double ron = rng.uniform(0.005, 0.05);
  c.add_switch("s1", in, fly, ron, 1e8, clk.phase(0));
  c.add_switch("s2", fly, out, ron, 1e8, clk.phase(1));
  c.add_capacitor_ic("cfly", fly, spice::kGround, rng.uniform(20e-9, 200e-9), 1.5);
  c.add_capacitor_ic("cout", out, spice::kGround, rng.uniform(20e-9, 200e-9), 1.5);
  // RC ladder load of random depth.
  const int depth = 1 + static_cast<int>(rng.next_u32() % 3);
  spice::NodeId prev = out;
  for (int i = 0; i < depth; ++i) {
    const spice::NodeId n = c.node("l" + std::to_string(i));
    c.add_resistor("rl" + std::to_string(i), prev, n, rng.uniform(0.5, 5.0));
    c.add_capacitor("cl" + std::to_string(i), n, spice::kGround, rng.uniform(1e-9, 20e-9));
    prev = n;
  }
  c.add_resistor("rload", prev, spice::kGround, rng.uniform(1.0, 10.0));
  return c;
}

spice::TranSpec random_spec(Pcg32& rng) {
  spice::TranSpec spec;
  spec.dt = rng.uniform(1e-10, 5e-9);
  spec.tstop = spec.dt * (200.0 + static_cast<double>(rng.next_u32() % 800));
  spec.method =
      rng.bernoulli(0.5) ? spice::Integrator::Trapezoidal : spice::Integrator::BackwardEuler;
  spec.use_ic = rng.bernoulli(0.7);
  spec.adaptive = rng.bernoulli(0.3);
  spec.dv_max_v = rng.uniform(5e-4, 5e-3);
  return spec;
}

bool byte_identical(const spice::TranResult& a, const spice::TranResult& b) {
  if (a.time.size() != b.time.size() || a.voltages.size() != b.voltages.size()) return false;
  if (std::memcmp(a.time.data(), b.time.data(), a.time.size() * sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.voltages.size(); ++i) {
    if (a.voltages[i].size() != b.voltages[i].size() ||
        std::memcmp(a.voltages[i].data(), b.voltages[i].data(),
                    a.voltages[i].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

TEST(PropertyTransient, LuCacheCapacityNeverChangesWaveformBytes) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Pcg32 rng(seed);
    const spice::Circuit c = random_switched_circuit(rng);
    spice::TranSpec spec = random_spec(rng);

    spec.lu_cache_capacity = 0;  // cache disabled: factor every step
    const spice::TranResult uncached = spice::transient(c, spec);
    for (const int capacity : {1, 8, 64}) {
      spec.lu_cache_capacity = capacity;
      const spice::TranResult cached = spice::transient(c, spec);
      ASSERT_TRUE(byte_identical(uncached, cached))
          << "waveform changed with lu_cache_capacity=" << capacity << " at seed=" << seed;
      ASSERT_EQ(uncached.steps_taken, cached.steps_taken) << "seed=" << seed;
    }
  }
}

TEST(PropertyTransient, RepeatedRunsAreByteIdentical) {
  // Same circuit, same spec, two fresh runs: the engine is deterministic
  // (no time-of-day, no address-dependent iteration anywhere in the path).
  for (std::uint64_t seed = 100; seed <= 110; ++seed) {
    Pcg32 rng(seed);
    const spice::Circuit c = random_switched_circuit(rng);
    const spice::TranSpec spec = random_spec(rng);
    const spice::TranResult a = spice::transient(c, spec);
    const spice::TranResult b = spice::transient(c, spec);
    ASSERT_TRUE(byte_identical(a, b)) << "seed=" << seed;
    ASSERT_EQ(a.lu_factorizations, b.lu_factorizations) << "seed=" << seed;
    ASSERT_EQ(a.lu_cache_hits, b.lu_cache_hits) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace ivory
