// icesim_cli exit codes. Input validation: every unknown name and malformed
// number must exit 2 with a message naming the bad value, in every mode,
// before any simulation starts (so each case runs instantly). A report that
// cannot be written exits 1.
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;
};

CliRun RunCli(const std::string& args) {
  const std::string command = std::string(ICESIM_CLI_PATH) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    run.output += buf;
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

void ExpectRejected(const std::string& args, const std::string& bad_value) {
  // Short windows first (a later flag wins), so a CLI that wrongly accepts
  // the input still returns fast.
  CliRun run = RunCli("--duration=1 --warmup=0 --devices=1 --out=cli_test_rejected " + args);
  EXPECT_EQ(run.exit_code, 2) << args << "\n" << run.output;
  EXPECT_NE(run.output.find("'" + bad_value + "'"), std::string::npos)
      << args << "\n" << run.output;
}

TEST(Cli, UnknownPolicyNamesExit2InEveryMode) {
  for (const std::string mode : {"", "--sweep", "--fleet"}) {
    ExpectRejected(mode + " --scheme=bogus", "bogus");
    ExpectRejected(mode + " --aging=bogus", "bogus");
    ExpectRejected(mode + " --swap=bogus", "bogus");
  }
  ExpectRejected("--sweep --aging=two_list,bogus", "bogus");
  ExpectRejected("--sweep --swap=baseline,bogus", "bogus");
}

TEST(Cli, UnknownScenarioDeviceAndTierExit2) {
  ExpectRejected("--scenario=s-z", "s-z");
  ExpectRejected("--device=pixel9", "pixel9");
  ExpectRejected("--fleet --tiers=mid-4g,giant-1t", "giant-1t");
}

TEST(Cli, MalformedNumbersExit2) {
  ExpectRejected("--fleet --devices=abc", "abc");
  ExpectRejected("--bg=abc", "abc");
  ExpectRejected("--fleet --sessions=0", "0");
  ExpectRejected("--sweep --seed=7,x", "x");
  ExpectRejected("--jobs=4cores", "4cores");
  ExpectRejected("--bg=-2", "-2");
}

// A report that cannot be written fails the run: --out names a file under
// results/, and a missing subdirectory there makes the open fail. One tiny
// cell or device each, so both runs finish at once.
TEST(Cli, UnwritableReportExits1) {
  for (const std::string mode : {"--sweep", "--fleet"}) {
    CliRun run = RunCli(mode + " --bg=0 --duration=1 --warmup=0 --devices=1" +
                        " --out=/nonexistent/x");
    EXPECT_EQ(run.exit_code, 1) << mode << "\n" << run.output;
    EXPECT_NE(run.output.find("cannot open"), std::string::npos) << mode << "\n"
                                                                 << run.output;
  }
}

TEST(Cli, HelpExitsZero) { EXPECT_EQ(RunCli("--help").exit_code, 0); }

}  // namespace
