#include "src/harness/fleet.h"

#include <memory>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/android/device_profile.h"
#include "src/base/rng.h"
#include "src/harness/experiment.h"
#include "src/harness/fleet_report.h"
#include "src/harness/policy_axes.h"
#include "src/policy/registry.h"

namespace ice {
namespace {

// Small but real: every cell constructs a full device and runs one session.
FleetConfig SmokeConfig() {
  FleetConfig c;
  c.devices = 12;
  c.seed = 17;
  c.schemes = {"lru_cfs", "ice"};
  c.tiers = {"mid-4g", "high-6g"};
  c.sessions = 1;
  c.session_mean = Sec(2);
  c.chunk = 3;
  return c;
}

TEST(FleetRunnerTest, StratifiedGroupAssignment) {
  FleetConfig c = SmokeConfig();
  c.jobs = 1;
  FleetRunner runner(c);
  ASSERT_EQ(runner.num_groups(), 4u);
  // Tier-major, scheme-minor: group 0 = (mid-4g, lru_cfs), 1 = (mid-4g, ice)...
  EXPECT_EQ(runner.GroupOf(0), 0u);
  EXPECT_EQ(runner.GroupOf(1), 1u);
  EXPECT_EQ(runner.GroupOf(4), 0u);
  EXPECT_EQ(runner.GroupOf(7), 3u);
}

TEST(FleetRunnerTest, DeviceSeedsAreDecorrelated) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(FleetRunner::DeviceSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // Different fleet seeds give different device streams.
  EXPECT_NE(FleetRunner::DeviceSeed(1, 0), FleetRunner::DeviceSeed(2, 0));
}

TEST(FleetRunnerTest, DefaultTiersAndAutoChunkResolve) {
  FleetConfig c;
  c.devices = 100000;
  FleetRunner runner(c);
  EXPECT_EQ(runner.config().tiers, FleetTierNames());
  // Auto chunk is a function of the device count only and is clamped.
  EXPECT_EQ(runner.chunk_size(), 256u);
  EXPECT_EQ(runner.num_chunks(), (100000u + 255u) / 256u);
  FleetConfig tiny;
  tiny.devices = 10;
  EXPECT_EQ(FleetRunner(tiny).chunk_size(), 1u);
}

TEST(FleetRunnerTest, EmptyFleetProducesEmptyGroups) {
  FleetConfig c = SmokeConfig();
  c.devices = 0;
  c.jobs = 4;
  FleetResult r = FleetRunner(c).Run();
  ASSERT_EQ(r.groups.size(), 4u);
  for (const FleetGroupStats& g : r.groups) {
    EXPECT_EQ(g.devices, 0u);
    EXPECT_EQ(g.failures, 0u);
  }
  // The report still serializes (schema smoke).
  EXPECT_NE(FleetReportJson("empty", r).find("\"groups\""), std::string::npos);
}

// The determinism contract: fleet output is byte-identical for any jobs=N.
// This is the in-process twin of the CI leg that diffs --jobs=1 against
// --jobs=3 and --jobs=8; jobs=3 splits the 4 chunks unevenly. Runs through
// the default warm-boot template path, so it also pins the per-worker
// donor/template machinery to the shard-independence contract.
TEST(FleetRunnerTest, ReportIsByteIdenticalAcrossJobCounts) {
  FleetConfig serial_config = SmokeConfig();
  serial_config.jobs = 1;
  FleetResult serial = FleetRunner(serial_config).Run();
  EXPECT_EQ(serial.devices_failed, 0u);

  for (int jobs : {2, 3, 8}) {
    FleetConfig parallel_config = SmokeConfig();
    parallel_config.jobs = jobs;
    FleetResult parallel = FleetRunner(parallel_config).Run();
    EXPECT_EQ(FleetReportJson("x", serial), FleetReportJson("x", parallel))
        << "jobs=" << jobs;
  }

  // Every device landed in its group; stratification splits 12 devices
  // evenly across 4 groups.
  uint64_t total = 0;
  for (const FleetGroupStats& g : serial.groups) {
    EXPECT_EQ(g.devices, 3u) << g.tier << "/" << g.scheme;
    total += g.devices;
    EXPECT_GT(g.total_frames, 0u) << g.tier << "/" << g.scheme;
    EXPECT_EQ(g.fps.count(), g.devices);
    EXPECT_EQ(g.ria.count(), g.devices);
    // Arena accounting flowed through from the per-device MemoryManager.
    EXPECT_GT(g.peak_arena_bytes, 0u);
  }
  EXPECT_EQ(total, serial_config.devices);
  EXPECT_GE(serial.peak_arena_bytes, serial.groups[0].peak_arena_bytes);
}

// A donor whose construction throws leaves its group without a template.
// The group's later devices must retry the build, not restore through a
// null donor: every device reports the failure and the run completes.
TEST(FleetRunnerTest, ThrowingDonorBuildFailsEachDeviceCleanly) {
  SchemeRegistry::Instance().Register("throws_on_create", []() -> std::unique_ptr<Scheme> {
    throw std::runtime_error("scheme factory failed");
  });
  FleetConfig c = SmokeConfig();
  c.schemes = {"throws_on_create"};
  c.tiers = {"mid-4g"};
  c.devices = 3;
  c.jobs = 1;
  FleetResult r = FleetRunner(c).Run();
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.devices_failed, 3u);
  EXPECT_EQ(r.groups[0].first_error_device, 0u);
  EXPECT_EQ(r.groups[0].first_error, "scheme factory failed");
}

// Every group config a fleet can form (tier x built-in scheme x aging x
// swap, built as FleetRunner::GroupConfig builds it) boots to quiescence
// without drawing from the device seed. The fleet treats a boot that does
// not settle as an error rather than running the group cold, and shares one
// template across a group's seeds; this pins both premises.
TEST(FleetRunnerTest, EveryGroupConfigBootsToQuiescenceWithoutSeedDraws) {
  const uint64_t seed = 2024;
  for (const std::string& tier : FleetTierNames()) {
    for (const char* scheme : {"lru_cfs", "ucsg", "acclaim", "power", "ice"}) {
      for (const std::string& aging : PolicyAxes()[kAgingAxis].names) {
        for (const std::string& swap : PolicyAxes()[kSwapAxis].names) {
          SCOPED_TRACE(tier + "/" + scheme + "/" + aging + "/" + swap);
          ExperimentConfig config;
          config.device = FleetTierProfile(tier);
          config.scheme = scheme;
          config.aging = aging;
          config.swap = swap;
          config.seed = seed;
          Experiment exp(config);
          EXPECT_TRUE(exp.SettleToQuiescence());
          Rng fresh(seed);
          EXPECT_EQ(exp.engine().rng().Next64(), fresh.Next64());
        }
      }
    }
  }
}

// The warm-boot acceptance contract: templated output is byte-identical to
// cold per-device construction, across every tier of the ladder, both aging
// policies, both swap policies, and for jobs=1 vs jobs=8. One device per
// (tier, scheme) group keeps every combination inside the smoke budget.
TEST(FleetRunnerTest, TemplatedMatchesColdAcrossTiersAgingsSwaps) {
  for (const char* aging : {"two_list", "gen_clock"}) {
    for (const char* swap : {"baseline", "hotness"}) {
      SCOPED_TRACE(std::string(aging) + "/" + swap);
      FleetConfig base;
      base.devices = 10;  // 5 tiers x 2 schemes, 1 device per group.
      base.seed = 99;
      base.schemes = {"lru_cfs", "ice"};
      base.aging = aging;
      base.swap = swap;
      base.sessions = 1;
      base.session_mean = Sec(2);

      FleetConfig cold = base;
      cold.use_templates = false;
      cold.jobs = 1;
      FleetResult cold_result = FleetRunner(cold).Run();
      ASSERT_EQ(cold_result.devices_failed, 0u);

      FleetConfig warm1 = base;
      warm1.use_templates = true;
      warm1.jobs = 1;
      FleetConfig warm8 = base;
      warm8.use_templates = true;
      warm8.jobs = 8;

      const std::string want = FleetReportJson("x", cold_result);
      EXPECT_EQ(want, FleetReportJson("x", FleetRunner(warm1).Run()));
      EXPECT_EQ(want, FleetReportJson("x", FleetRunner(warm8).Run()));
    }
  }
}

}  // namespace
}  // namespace ice
