// Prefix-sharing determinism gate: a sweep that forks cells from a shared
// warmed snapshot must be byte-identical to one that runs every cell cold —
// per-cell metrics, the JSON report artifact, and trace summaries — for
// both page-aging policies and at any worker count. Sharing defaults on in
// SweepRunner::Run, so this suite is what licenses that default.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/harness/sweep.h"
#include "src/harness/sweep_report.h"

namespace ice {
namespace {

// Cells that actually exercise the donor path: per (scheme, aging) the two
// bg counts share a caching prefix, so the grid forms four donor groups of
// two members each.
std::vector<SweepCell> PrefixCells(bool trace = false) {
  SweepAxes axes;
  axes.base.trace = trace;
  axes.devices = {Pixel3Profile()};
  axes.schemes = {"lru_cfs", "ice"};
  axes.agings = {"two_list", "gen_clock"};
  axes.scenarios = {ScenarioKind::kShortVideo};
  axes.bg_counts = {2, 4};
  axes.seeds = {7};
  axes.duration = Sec(3);
  axes.warmup = Sec(2);
  return axes.Cells();
}

void ExpectIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.avg_fps, b.avg_fps);
  EXPECT_EQ(a.ria, b.ria);
  EXPECT_EQ(a.fps_series, b.fps_series);
  EXPECT_EQ(a.reclaims, b.reclaims);
  EXPECT_EQ(a.refaults, b.refaults);
  EXPECT_EQ(a.refaults_bg, b.refaults_bg);
  EXPECT_EQ(a.refaults_fg, b.refaults_fg);
  EXPECT_EQ(a.io_requests, b.io_requests);
  EXPECT_EQ(a.io_bytes, b.io_bytes);
  EXPECT_EQ(a.cpu_util, b.cpu_util);
  EXPECT_EQ(a.freezes, b.freezes);
  EXPECT_EQ(a.thaws, b.thaws);
  EXPECT_EQ(a.lmk_kills, b.lmk_kills);
  EXPECT_EQ(a.arena_bytes_peak, b.arena_bytes_peak);
}

void ExpectTraceIdentical(const TraceSummary& a, const TraceSummary& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retained, b.retained);
  for (size_t t = 0; t < kTraceEventTypeCount; ++t) {
    EXPECT_EQ(a.counts[t], b.counts[t]) << "event type " << t;
  }
}

TEST(PrefixSweep, SharedMatchesColdByteForByte) {
  // The gate itself, across both aging policies: forked cells produce the
  // same metrics and the same report JSON as cold cells.
  std::vector<SweepCell> cells = PrefixCells();
  SweepRunner runner(1);
  std::vector<CellOutcome> cold = runner.Run(cells, /*share_prefix=*/false);
  std::vector<CellOutcome> shared = runner.Run(cells, /*share_prefix=*/true);
  ASSERT_EQ(cold.size(), cells.size());
  ASSERT_EQ(shared.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(cold[i].ok) << cold[i].error;
    ASSERT_TRUE(shared[i].ok) << shared[i].error;
    ExpectIdentical(cold[i].value, shared[i].value);
  }
  EXPECT_EQ(SweepReportJson("t", 1, cells, cold),
            SweepReportJson("t", 1, cells, shared));
}

TEST(PrefixSweep, SharedIsDeterministicAcrossJobs) {
  // Donor snapshotting and forking run on the worker pool; scheduling must
  // not leak into results any more than it does for cold cells.
  std::vector<SweepCell> cells = PrefixCells();
  std::vector<CellOutcome> serial = SweepRunner(1).Run(cells, /*share_prefix=*/true);
  std::vector<CellOutcome> parallel = SweepRunner(8).Run(cells, /*share_prefix=*/true);
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    ExpectIdentical(serial[i].value, parallel[i].value);
  }
  EXPECT_EQ(SweepReportJson("t", 1, cells, serial),
            SweepReportJson("t", 1, cells, parallel));
}

TEST(PrefixSweep, TraceExportsIdenticalUnderSharing) {
  // Trace-enabled cells: the event stream summary (emitted / dropped /
  // retained / per-type counts) from a forked cell matches the cold run's.
  SweepAxes axes;
  axes.base.trace = true;
  axes.devices = {Pixel3Profile()};
  axes.schemes = {"ice"};
  axes.scenarios = {ScenarioKind::kShortVideo};
  axes.bg_counts = {2, 4};
  axes.seeds = {7};
  axes.duration = Sec(3);
  axes.warmup = Sec(2);
  std::vector<SweepCell> cells = axes.Cells();
  SweepRunner runner(2);
  std::vector<CellOutcome> cold = runner.Run(cells, /*share_prefix=*/false);
  std::vector<CellOutcome> shared = runner.Run(cells, /*share_prefix=*/true);
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(cold[i].ok) << cold[i].error;
    ASSERT_TRUE(shared[i].ok) << shared[i].error;
    ExpectIdentical(cold[i].value, shared[i].value);
    ExpectTraceIdentical(cold[i].value.trace, shared[i].value.trace);
  }
}

// Settle outcome of each background app a cold run of `config` caches on
// its way to full pressure ('1' = reached quiescence).
std::string SettlePattern(const ExperimentConfig& config, ScenarioKind scenario) {
  Experiment exp(config);
  std::vector<Uid> pool = exp.PlanBackgroundPool({exp.UidOf(ScenarioPackage(scenario))});
  std::string pattern;
  for (int i = 0; i < config.device.full_pressure_bg_apps; ++i) {
    pattern += exp.CacheOneBackgroundApp(pool[static_cast<size_t>(i)]) ? '1' : '0';
  }
  return pattern;
}

TEST(PrefixSweep, SettleFailureMidPrefixKeepsDonorGoing) {
  // Full-pressure P20 groups whose 7th app misses quiescence: the donor
  // skips the bg=7 snapshot but keeps caching, saves bg=8 where the next
  // settle succeeds (seed 4) and runs the full-pressure member inline even
  // after a failed final settle (seed 22). Every cell must match its cold
  // run byte for byte.
  SweepAxes axes;
  axes.devices = {P20Profile()};
  axes.schemes = {"lru_cfs"};
  axes.scenarios = {ScenarioKind::kShortVideo};
  axes.bg_counts = {2, 7, 8, -1};
  axes.seeds = {4, 22};
  axes.duration = Sec(3);
  axes.warmup = Sec(2);
  std::vector<SweepCell> cells = axes.Cells();
  for (uint64_t seed : axes.seeds) {
    ExperimentConfig config = cells.front().config;
    config.seed = seed;
    const std::string pattern = SettlePattern(config, ScenarioKind::kShortVideo);
    ASSERT_EQ(pattern.size(), 8u);
    // The coverage this test exists for; re-pick seeds if the model moves.
    ASSERT_EQ(pattern[6], '0') << "seed " << seed << ": " << pattern;
    if (seed == 4) {
      ASSERT_EQ(pattern[7], '1') << pattern;
    }
  }
  SweepRunner runner(2);
  std::vector<CellOutcome> cold = runner.Run(cells, /*share_prefix=*/false);
  std::vector<CellOutcome> shared = runner.Run(cells, /*share_prefix=*/true);
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(cold[i].ok) << cold[i].error;
    ASSERT_TRUE(shared[i].ok) << shared[i].error;
    ExpectIdentical(cold[i].value, shared[i].value);
  }
  EXPECT_EQ(SweepReportJson("t", 2, cells, cold), SweepReportJson("t", 2, cells, shared));
}

TEST(PrefixSweep, UnsharableCellsFallBackCold) {
  // bg = 0 cells never join a group, and a lone bg count per config is a
  // singleton: both must still run (cold) and match the share-off sweep.
  SweepAxes axes;
  axes.devices = {Pixel3Profile()};
  axes.schemes = {"lru_cfs"};
  axes.scenarios = {ScenarioKind::kShortVideo};
  axes.bg_counts = {0, 2};
  axes.seeds = {7};
  axes.duration = Sec(3);
  axes.warmup = Sec(2);
  std::vector<SweepCell> cells = axes.Cells();
  SweepRunner runner(2);
  std::vector<CellOutcome> cold = runner.Run(cells, /*share_prefix=*/false);
  std::vector<CellOutcome> shared = runner.Run(cells, /*share_prefix=*/true);
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(cold[i].ok) << cold[i].error;
    ASSERT_TRUE(shared[i].ok) << shared[i].error;
    ExpectIdentical(cold[i].value, shared[i].value);
  }
}

}  // namespace
}  // namespace ice
