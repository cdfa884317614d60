// Supervised serve-fleet tests: multi-worker serving through the mux, a
// SIGKILLed worker mid-request answered with a structured retryable error
// (never a hang), restart-with-backoff recovery, the flap limit parking a
// crash-looper, and graceful drain finishing in-flight work. Workers are
// real `ivory serve --worker 1` processes (IVORY_CLI_BIN), so this is the
// same process tree `ivory serve --workers N` runs in production.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
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
  // A mixed stream, distinct ids, with one body repeated under a new id.
  const std::vector<std::string> stream = {
      R"({"op":"sc_static","id":1,"n":3,"m":1,"cfly":4e-6,"gtot":15e3,"fsw":80e6,"iload":20})",
      R"({"op":"buck_static","id":2,"l":5e-9,"fsw":1e8,"phases":4,"iload":9})",
      R"({"op":"ldo_static","id":3,"vin":1.2,"vout":1.0,"iload":3})",
      R"({"op":"sc_static","id":4,"n":2,"m":1,"cfly":2e-6,"gtot":8e3,"fsw":60e6,"iload":10})",
      R"({"op":"sc_static","id":5,"n":2,"m":1,"cfly":2e-6,"gtot":8e3,"fsw":60e6,"iload":10})"};
  std::string reference;
  for (const int workers : {1, 2}) {
    Supervisor fleet(base_options(workers));
    fleet.start();
    // Several connections in turn, so round-robin pins work to every worker...
    for (int c = 0; c < 4; ++c) {
      BlockingClient client(fleet.socket_path());
      for (int i = 0; i < 3; ++i) {
        client.send_line(kFastRequest);
        const std::string resp = client.recv_line();
        EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
      }
    }
    // ...then two at once, each sending the stream in lock-step.
    std::string replies[2];
    std::vector<std::thread> clients;
    for (std::string& out : replies)
      clients.emplace_back([&fleet, &stream, &out] {
        try {
          BlockingClient client(fleet.socket_path());
          for (const std::string& req : stream) {
            client.send_line(req);
            out += client.recv_line() + "\n";
          }
        } catch (const std::exception& e) {
          out += std::string("client failed: ") + e.what();
        }
      });
    for (std::thread& t : clients) t.join();
    // Every reply ok and in order, the same bytes on both connections and at
    // either worker count.
    std::size_t pos = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::size_t eol = replies[0].find('\n', pos);
      ASSERT_NE(eol, std::string::npos) << replies[0];
      const json::Value v = json::Value::parse(replies[0].substr(pos, eol - pos));
      EXPECT_TRUE(v.find("ok")->as_bool()) << replies[0];
      EXPECT_EQ(v.find("id")->write(), std::to_string(i + 1));
      pos = eol + 1;
    }
    EXPECT_EQ(replies[1], replies[0]) << workers << " workers";
    if (reference.empty()) reference = replies[0];
    EXPECT_EQ(replies[0], reference) << workers << " workers";

    const FleetStats s = fleet.stats();
    EXPECT_EQ(s.workers.size(), static_cast<std::size_t>(workers));
    EXPECT_EQ(s.connections, 6u);
    EXPECT_EQ(s.retry_errors, 0u);
    EXPECT_EQ(healthy_pids(fleet).size(), static_cast<std::size_t>(workers));
    fleet.stop();
  }
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

TEST_F(FleetTest, StartFailureLeavesNoWorkerRunning) {
  // The workers come up, then the public bind fails: a directory holds the
  // path. start() must not return with a worker alive, unreaped or
  // holding its socket file.
  SupervisorOptions o = base_options(2);
  fs::create_directory(o.socket_path);
  Supervisor fleet(o);
  EXPECT_THROW(fleet.start(), InvalidParameter);
  EXPECT_FALSE(fleet.running());
  for (const WorkerStatus& w : fleet.stats().workers) {
    EXPECT_FALSE(fs::exists(w.socket)) << w.socket;
    if (w.pid <= 0) continue;
    ADD_FAILURE() << "worker " << w.index << " left " << w.state << " as pid " << w.pid;
    ::kill(w.pid, SIGKILL);  // so a failing run leaks nothing
    ::waitpid(w.pid, nullptr, 0);
  }
}

TEST_F(FleetTest, OverlongSocketPathIsRefusedNamingIt) {
  // sockaddr_un holds 108 bytes; the server, the client and the fleet each
  // refuse a longer path with InvalidParameter naming it, and the fleet
  // does so before it spawns a worker.
  const std::string path = dir_ + "/" + std::string(200, 's');
  const auto refused = [&path](const std::function<void()>& f) {
    try {
      f();
    } catch (const InvalidParameter& e) {
      return std::string(e.what()).find(path) != std::string::npos;
    }
    return false;
  };
  ServerOptions so;
  so.socket_path = path;
  Server server(so);
  EXPECT_TRUE(refused([&] { server.start(); }));
  EXPECT_FALSE(server.running());
  EXPECT_TRUE(refused([&] { BlockingClient client(path); }));
  SupervisorOptions fo = base_options(1);
  fo.socket_path = path;
  Supervisor fleet(fo);
  EXPECT_TRUE(refused([&] { fleet.start(); }));
  for (const WorkerStatus& w : fleet.stats().workers) EXPECT_EQ(w.pid, -1) << w.socket;
}

}  // namespace
}  // namespace ivory::serve
