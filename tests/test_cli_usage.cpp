// Shells the actual `ivory` binary (path injected via IVORY_CLI_BIN) and
// checks the CLI contract: unknown subcommands, missing required flags and
// flags the request schema rejects print usage to *stderr* and exit 2;
// failed evaluations exit 1; stdout stays clean so pipelines never see error
// text.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifndef IVORY_CLI_BIN
#error "IVORY_CLI_BIN must point at the ivory binary"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_command(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// Runs `ivory <args>` with the given stream captured ("2>&1 1>/dev/null"
/// keeps stderr only; "2>/dev/null" keeps stdout only).
RunResult run_cli(const std::string& args, const std::string& redirect) {
  return run_command(std::string(IVORY_CLI_BIN) + " " + args + " " + redirect);
}

TEST(CliUsage, UnknownSubcommandPrintsUsageToStderrAndExits2) {
  const RunResult r = run_cli("frobnicate", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown subcommand 'frobnicate'"), std::string::npos);
  EXPECT_NE(r.output.find("ivory explore"), std::string::npos);  // usage text
  // Nothing leaked to stdout.
  EXPECT_TRUE(run_cli("frobnicate", "2>/dev/null").output.empty());
}

TEST(CliUsage, NoArgumentsPrintsUsageAndExits2) {
  const RunResult r = run_cli("", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("ivory serve"), std::string::npos);
}

TEST(CliUsage, MissingRequiredFlagExits2WithUsage) {
  const RunResult r = run_cli("serve", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("missing required flag --socket"), std::string::npos);
  EXPECT_NE(r.output.find("ivory serve"), std::string::npos);
  EXPECT_TRUE(run_cli("serve", "2>/dev/null").output.empty());
}

TEST(CliUsage, DanglingFlagValueExits2) {
  const RunResult r = run_cli("sc --n", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("every flag needs a value"), std::string::npos);
}

TEST(CliUsage, RuntimeFailureExits1WithoutUsageSpam) {
  // A well-formed invocation that fails evaluation: exit 1 and no usage dump.
  const RunResult r = run_cli("sc --n 0 --m 1", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output.find("ivory explore"), std::string::npos);
}

// Flags go through the serve request schema, so an input the schema does not
// understand is a usage error naming the field, never a silent default.
struct StrictCase {
  const char* args;
  const char* field;  ///< must appear on stderr
};

TEST(CliUsage, SchemaViolationsExit2NamingTheField) {
  for (const StrictCase& c : {StrictCase{"sc --n 3 --m 1 --cflyy 4u", "'cflyy'"},
                              StrictCase{"sc --family bogus", "'family'"},
                              StrictCase{"sc --n 2.7", "'n'"},
                              StrictCase{"buck --inductor bogus", "'inductor'"},
                              StrictCase{"dynamic --benchmark NOPE", "'benchmark'"},
                              StrictCase{"pareto --density 5", "'density'"}}) {
    const RunResult r = run_cli(c.args, "2>&1 1>/dev/null");
    EXPECT_EQ(r.exit_code, 2) << c.args;
    EXPECT_NE(r.output.find(c.field), std::string::npos) << c.args << ": " << r.output;
    EXPECT_NE(r.output.find("ivory explore"), std::string::npos) << c.args;  // usage text
    EXPECT_TRUE(run_cli(c.args, "2>/dev/null").output.empty()) << c.args;
  }
}

TEST(CliUsage, TransientLuCacheAboveBoundExits2NamingTheField) {
  // --lu-cache goes through the request schema's bound: 64 runs, 65 is a
  // usage error naming the field.
  const auto transient = [](int lu_cache) {
    return run_command("printf 'v1 in 0 DC 1\\nr1 in out 1k\\nc1 out 0 1n\\n' | " +
                       std::string(IVORY_CLI_BIN) +
                       " transient --netlist /dev/stdin --tstop 1u --dt 10n --lu-cache " +
                       std::to_string(lu_cache) + " 2>&1 1>/dev/null");
  };
  EXPECT_EQ(transient(64).exit_code, 0);
  const RunResult r = transient(65);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'lu_cache'"), std::string::npos) << r.output;
}

TEST(CliUsage, DicksonFamilyIsEvaluatedNotReplacedByAuto) {
  // --family dickson reaches the model, whose cap-rating check rejects the
  // 3:1 design: an evaluation error (exit 1), not the auto family's table.
  const RunResult r = run_cli("sc --n 3 --m 1 --family dickson", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("rating"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("ivory explore"), std::string::npos);
  EXPECT_TRUE(run_cli("sc --n 3 --m 1 --family dickson", "2>/dev/null").output.empty());
}

TEST(CliUsage, DynamicLoadsEveryDomainAtAnyDistribution) {
  // More domains than the 4 default SMs: each domain still gets its share
  // of the load, so the simulated rail moves.
  const RunResult r = run_cli("dynamic --max-dist 8 --dist 8 --duration 5u", "2>/dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::size_t at = r.output.find("p-p ");
  ASSERT_NE(at, std::string::npos) << r.output;
  EXPECT_GT(std::strtod(r.output.c_str() + at + 4, nullptr), 0.0) << r.output;
}

TEST(CliUsage, BatchPropagatesResponsesToStdout) {
  const RunResult r = run_command(std::string("echo '{\"op\":\"stats\",\"id\":1}' | ") +
                                  IVORY_CLI_BIN + " batch 2>/dev/null");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"ok\":true"), std::string::npos);
}

}  // namespace
