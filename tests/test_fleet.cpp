// Supervised serve-fleet tests: multi-worker serving through the mux, a
// SIGKILLed worker mid-request answered with a structured retryable error
// (never a hang), restart-with-backoff recovery, the flap limit parking a
// crash-looper, and graceful drain finishing in-flight work. Workers are
// real `ivory serve --worker 1` processes (IVORY_CLI_BIN), so this is the
// same process tree `ivory serve --workers N` runs in production.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/wave_codec.hpp"

namespace ivory::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

const std::string kFastRequest =
    R"({"op":"ldo_static","id":1,"vin":1.2,"vout":1.0,"iload":5})";

/// A transient long enough (~3.2M BE steps of a 7-unknown switched stage
/// behind an RL input filter, 0.75-0.8 s of solve in a RelWithDebInfo build
/// on a shared 4-vCPU x86 host) to reliably straddle a SIGKILL or a drain
/// issued a few hundred milliseconds after submission. The step count sits
/// near the per-request sample budget, so the circuit, not tstop, sets the
/// solve time.
const std::string kSlowRequest =
    R"({"op":"transient","id":2,"topology":"spice",)"
    R"("netlist":"vs src 0 DC 3.3\nrs src a 0.01\nls a in 1n\ncin in 0 1u\n)"
    R"(s1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\n)"
    R"(s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\ncfly fly 0 100n IC=1.65\n)"
    R"(cout out 0 100n IC=1.65\nrl out 0 3.3\n.end\n",)"
    R"("tstop":4e-4,"dt":1.25e-10,"method":"be","uic":true,"record":["out"]})";

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "ivory-fleet-XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  SupervisorOptions base_options(int workers) const {
    SupervisorOptions o;
    o.socket_path = dir_ + "/sock";
    o.workers = workers;
    o.exe = IVORY_CLI_BIN;
    o.backoff_initial_ms = 50;
    o.health_interval_ms = 50;
    return o;
  }

  /// Healthy worker pids right now.
  static std::vector<pid_t> healthy_pids(const Supervisor& fleet) {
    std::vector<pid_t> pids;
    for (const WorkerStatus& w : fleet.stats().workers)
      if (w.state == "healthy" && w.pid > 0) pids.push_back(w.pid);
    return pids;
  }

  /// Polls until `pred()` holds or `deadline` elapses.
  template <typename Pred>
  static bool eventually(std::chrono::milliseconds deadline, Pred pred) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      if (pred()) return true;
      std::this_thread::sleep_for(20ms);
    }
    return pred();
  }

  /// One request/response round-trip on a fresh connection; empty string
  /// when the fleet refuses or drops the connection.
  static std::string round_trip(const std::string& socket, const std::string& req) {
    try {
      BlockingClient client(socket);
      client.send_line(req);
      return client.recv_line();
    } catch (const std::exception&) {
      return {};
    }
  }

  std::string dir_;
};

TEST_F(FleetTest, ServesAcrossWorkersWithOrderedResponses) {
  Supervisor fleet(base_options(2));
  fleet.start();
  // Several connections so round-robin pins work to both workers.
  for (int c = 0; c < 4; ++c) {
    BlockingClient client(fleet.socket_path());
    for (int i = 0; i < 3; ++i) {
      client.send_line(kFastRequest);
      const std::string resp = client.recv_line();
      EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
    }
  }
  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.workers.size(), 2u);
  EXPECT_EQ(s.connections, 4u);
  EXPECT_EQ(s.retry_errors, 0u);
  EXPECT_EQ(healthy_pids(fleet).size(), 2u);
  fleet.stop();
}

TEST_F(FleetTest, RetryableErrorLineIsStructuredAndMarkedRetryable) {
  const std::string line = Supervisor::retryable_error_line();
  const json::Value v = json::Value::parse(line);
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("error")->find("code")->as_string(), "worker_unavailable");
  EXPECT_TRUE(v.find("error")->find("retryable")->as_bool());
}

TEST_F(FleetTest, KilledWorkerMidRequestYieldsRetryableErrorThenRecovers) {
  Supervisor fleet(base_options(2));
  fleet.start();

  BlockingClient client(fleet.socket_path());
  client.send_line(kSlowRequest);
  std::this_thread::sleep_for(250ms);  // let the worker get deep into the solve

  // SIGKILL every healthy worker: whichever one held the request dies with
  // it in flight. This is the crash the mux must convert into a structured
  // retryable error rather than a hang or a dropped connection.
  std::vector<pid_t> pids = healthy_pids(fleet);
  ASSERT_FALSE(pids.empty());
  for (const pid_t pid : pids) ::kill(pid, SIGKILL);

  const std::string resp = client.recv_line();
  const json::Value v = json::Value::parse(resp);
  ASSERT_FALSE(v.find("ok")->as_bool()) << resp;
  EXPECT_EQ(v.find("error")->find("code")->as_string(), "worker_unavailable");
  EXPECT_TRUE(v.find("error")->find("retryable")->as_bool());
  EXPECT_GE(fleet.stats().retry_errors, 1u);

  // The monitor restarts the dead workers; the same client contract then
  // succeeds on a fresh connection (exactly what "retryable" promises).
  ASSERT_TRUE(eventually(15000ms, [&] {
    return round_trip(fleet.socket_path(), kFastRequest).find("\"ok\":true") !=
           std::string::npos;
  }));
  std::uint64_t restarts = 0;
  for (const WorkerStatus& w : fleet.stats().workers) restarts += w.restarts;
  EXPECT_GE(restarts, 1u);
  fleet.stop();
}

TEST_F(FleetTest, KilledWorkerMidStreamYieldsRetryableErrorFrame) {
  Supervisor fleet(base_options(1));
  fleet.start();

  // The slow solve as a wave1 stream with small chunks: frames start flowing
  // within milliseconds, so a SIGKILL after the first CHUNK provably lands
  // mid-stream — the case the mux must terminate with an ERROR frame (a bare
  // JSON line here would corrupt the client's frame parser).
  json::Value req = json::Value::parse(kSlowRequest);
  req.set("return_waveform", json::Value(true));
  req.set("stream", json::Value(true));
  req.set("encoding", json::Value(std::string("wave1")));
  req.set("chunk_bytes", json::Value(std::uint64_t{1024}));

  BlockingClient client(fleet.socket_path());
  client.send_line(req.write());

  FrameDecoder dec;
  StreamAssembler out;
  bool killed = false;
  char buf[4096];
  while (!out.done()) {
    const std::size_t n = client.recv_raw(buf, sizeof buf);
    ASSERT_GT(n, 0u) << "connection closed without a terminal frame";
    dec.feed(std::string_view(buf, n));
    while (!out.done()) {
      const std::optional<Frame> f = dec.next();
      if (!f) break;
      out.on_frame(*f);
      if (!killed && f->type == FrameType::Chunk) {
        const std::vector<pid_t> pids = healthy_pids(fleet);
        ASSERT_FALSE(pids.empty());
        for (const pid_t pid : pids) ::kill(pid, SIGKILL);
        killed = true;
      }
    }
  }
  ASSERT_TRUE(killed);
  EXPECT_EQ(out.status(), "error");
  EXPECT_EQ(out.decoded(), Supervisor::retryable_error_line());
  EXPECT_GE(fleet.stats().retry_errors, 1u);

  // The monitor restarts the worker and the same contract succeeds again.
  ASSERT_TRUE(eventually(15000ms, [&] {
    return round_trip(fleet.socket_path(), kFastRequest).find("\"ok\":true") !=
           std::string::npos;
  }));
  fleet.stop();
}

TEST_F(FleetTest, FlapLimitParksACrashLoopingWorker) {
  SupervisorOptions o = base_options(2);
  o.flap_limit = 3;
  o.flap_reset_ms = 60000;  // nothing clears the streak within this test
  Supervisor fleet(o);
  fleet.start();

  // Keep killing worker 0's replacement as soon as it comes back. After
  // flap_limit consecutive deaths the supervisor parks it as failed instead
  // of burning CPU in a crash loop.
  pid_t target = fleet.stats().workers[0].pid;
  ASSERT_GT(target, 0);
  for (int round = 0; round < 3; ++round) {
    ::kill(target, SIGKILL);
    const pid_t dead = target;
    ASSERT_TRUE(eventually(15000ms, [&] {
      const WorkerStatus w = fleet.stats().workers[0];
      if (w.state == "failed") return true;
      if (w.state == "healthy" && w.pid != dead) {
        target = w.pid;
        return true;
      }
      return false;
    }));
    if (fleet.stats().workers[0].state == "failed") break;
  }
  ASSERT_TRUE(eventually(15000ms,
                         [&] { return fleet.stats().workers[0].state == "failed"; }));

  // The surviving worker keeps the fleet serving.
  const std::string resp = round_trip(fleet.socket_path(), kFastRequest);
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  fleet.stop();
}

TEST_F(FleetTest, GracefulDrainFinishesInFlightRequests) {
  Supervisor fleet(base_options(2));
  fleet.start();

  BlockingClient client(fleet.socket_path());
  client.send_line(kSlowRequest);
  std::this_thread::sleep_for(200ms);  // request is mid-solve when drain begins

  std::thread drainer([&] { fleet.stop(); });
  // The worker finishes the in-flight solve during the drain window, so the
  // client sees its real response, not a retryable error and not a hang.
  const std::string resp = client.recv_line();
  drainer.join();
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  EXPECT_FALSE(fleet.running());
}

TEST_F(FleetTest, StartFailsCleanlyWhenWorkersCannotComeUp) {
  SupervisorOptions o = base_options(1);
  o.exe = "/bin/false";  // exits immediately; the socket never accepts
  o.spawn_wait_ms = 500;
  Supervisor fleet(o);
  EXPECT_THROW(fleet.start(), std::exception);
  EXPECT_FALSE(fleet.running());
}

}  // namespace
}  // namespace ivory::serve
