#include "common/fault.hpp"

#include <limits>
#include <map>
#include <mutex>

#include "common/error.hpp"

namespace ivory::fault {

namespace detail {
std::atomic<int> g_armed_sites{0};
}  // namespace detail

namespace {

struct SiteState {
  Action action = Action::Throw;
  bool probabilistic = false;
  std::uint64_t on_hit = 0;     // k-th-hit mode
  double probability = 0.0;     // probability mode
  std::uint64_t seed = 0;
  std::uint64_t serial_hits = 0;  // hits outside any pool task
  std::uint64_t trips = 0;
};

std::mutex g_mutex;

std::map<std::string, SiteState>& registry() {
  static std::map<std::string, SiteState> r;
  return r;
}

// Hit stream of the pool task currently running on this thread. Task-scoped
// counters start empty at each TaskScope, so the hit index a probe sees
// depends only on the task's own (serial, deterministic) execution.
struct TaskCtx {
  bool active = false;
  std::uint64_t id = 0;
  std::map<std::string, std::uint64_t> hits;
};
thread_local TaskCtx t_task;

constexpr std::uint64_t kSerialTask = ~std::uint64_t{0};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (; *s; ++s) h = (h ^ static_cast<unsigned char>(*s)) * 1099511628211ULL;
  return h;
}

void arm(const std::string& site, SiteState s) {
  require(!site.empty(), "fault::arm: site name must be non-empty");
  std::lock_guard<std::mutex> lock(g_mutex);
  registry()[site] = s;  // re-arming resets hit and trip counters
  detail::g_armed_sites.store(static_cast<int>(registry().size()), std::memory_order_relaxed);
}

}  // namespace

void arm_on_hit(const std::string& site, Action action, std::uint64_t k) {
  require(k >= 1, "fault::arm_on_hit: hit index is 1-based");
  SiteState s;
  s.action = action;
  s.on_hit = k;
  arm(site, s);
}

void arm_probability(const std::string& site, Action action, double p, std::uint64_t seed) {
  require(p >= 0.0 && p <= 1.0, "fault::arm_probability: p must be in [0, 1]");
  SiteState s;
  s.action = action;
  s.probabilistic = true;
  s.probability = p;
  s.seed = seed;
  arm(site, s);
}

void disarm_all() {
  std::lock_guard<std::mutex> lock(g_mutex);
  registry().clear();
  detail::g_armed_sites.store(0, std::memory_order_relaxed);
}

void reset_hits() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& [site, s] : registry()) s.serial_hits = 0;
}

bool any_armed() {
  return detail::g_armed_sites.load(std::memory_order_relaxed) != 0;
}

std::uint64_t trip_count(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = registry().find(site);
  return it == registry().end() ? 0 : it->second.trips;
}

namespace detail {

double inject_slow(const char* site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = registry().find(site);
  if (it == registry().end()) return 0.0;
  SiteState& s = it->second;

  const std::uint64_t task = t_task.active ? t_task.id : kSerialTask;
  std::uint64_t& counter = t_task.active ? t_task.hits[site] : s.serial_hits;
  const std::uint64_t hit = ++counter;

  bool fire;
  if (s.probabilistic) {
    // Pure function of (seed, site, task, hit): identical decisions at any
    // thread count, and unaffected by which other sites are armed.
    const std::uint64_t h = splitmix64(s.seed ^ fnv1a(site) ^ splitmix64(task) ^
                                       splitmix64(hit * 0x632be59bd9b4e019ULL));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    fire = u < s.probability;
  } else {
    fire = hit == s.on_hit;
  }
  if (!fire) return 0.0;

  ++s.trips;
  if (s.action == Action::EmitNan) return std::numeric_limits<double>::quiet_NaN();
  throw NumericalError(std::string("fault-injection: site '") + site +
                       "' armed to throw (task " +
                       (task == kSerialTask ? std::string("serial") : std::to_string(task)) +
                       ", hit " + std::to_string(hit) + ")");
}

}  // namespace detail

TaskScope::TaskScope(std::uint64_t task_index) {
  if (detail::g_armed_sites.load(std::memory_order_relaxed) == 0) return;
  // Tasks don't nest: nested parallel regions run inline and inherit the
  // enclosing task's stream, so an active context here would be a pool bug.
  if (t_task.active) return;
  t_task.active = true;
  t_task.id = task_index;
  t_task.hits.clear();
  engaged_ = true;
}

TaskScope::~TaskScope() {
  if (!engaged_) return;
  t_task.active = false;
  t_task.hits.clear();
}

}  // namespace ivory::fault
