// SweepRunner determinism and isolation:
//  (a) parallel results are identical to serial results, cell by cell, at
//      fixed seeds (the determinism guarantee CI asserts against);
//  (b) result ordering is grid order, independent of the worker count;
//  (c) a cell that throws is reported without poisoning sibling cells.
#include "src/harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "src/harness/sweep_report.h"

namespace ice {
namespace {

// Small but non-trivial cells: pressure from 2 BG apps, a real warmup, and
// both an LRU and an Ice cell so the policy paths run under the pool.
std::vector<SweepCell> TestCells() {
  SweepAxes axes;
  axes.devices = {Pixel3Profile()};
  axes.schemes = {"lru_cfs", "ice"};
  axes.scenarios = {ScenarioKind::kShortVideo};
  axes.bg_counts = {2};
  axes.seeds = {7, 1000};
  axes.duration = Sec(3);
  axes.warmup = Sec(2);
  return axes.Cells();
}

void ExpectIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  // Bit-for-bit: the metrics of a cell must not depend on scheduling.
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
}

TEST(SweepRunner, ParallelMatchesSerialCellByCell) {
  std::vector<SweepCell> cells = TestCells();
  std::vector<CellOutcome> serial = SweepRunner(1).Run(cells);
  std::vector<CellOutcome> parallel = SweepRunner(4).Run(cells);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    ExpectIdentical(serial[i].value, parallel[i].value);
  }
  // And the JSON reports (the artifact CI diffs) are byte-identical too;
  // the worker count is metadata, so pin it for the comparison.
  EXPECT_EQ(SweepReportJson("t", 1, cells, serial),
            SweepReportJson("t", 1, cells, parallel));
}

TEST(SweepRunner, GenClockAxisIsDeterministicAcrossJobs) {
  // The generation-clock aging policy must give the same guarantee as the
  // default: a grid spanning both policies is bit-identical at any worker
  // count, and the gen-clock cells label themselves in the report.
  SweepAxes axes;
  axes.devices = {Pixel3Profile()};
  axes.schemes = {"lru_cfs", "ice"};
  axes.agings = {"two_list", "gen_clock"};
  axes.scenarios = {ScenarioKind::kShortVideo};
  axes.bg_counts = {2};
  axes.seeds = {7};
  axes.duration = Sec(3);
  axes.warmup = Sec(2);
  std::vector<SweepCell> cells = axes.Cells();
  ASSERT_EQ(cells.size(), 4u);
  std::vector<CellOutcome> serial = SweepRunner(1).Run(cells);
  std::vector<CellOutcome> parallel = SweepRunner(4).Run(cells);
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    ExpectIdentical(serial[i].value, parallel[i].value);
  }
  std::string json = SweepReportJson("t", 1, cells, serial);
  EXPECT_EQ(json, SweepReportJson("t", 1, cells, parallel));
  EXPECT_NE(json.find("\"aging\": \"gen_clock\""), std::string::npos);
}

TEST(SweepAxes, EmptyAgingAxisKeepsCellCountAndOmitsLabel) {
  // Pre-gen-clock grids must enumerate exactly as before: no agings axis
  // means one block of cells with the base (default) policy, and the report
  // never mentions aging (byte-compat with archived sweep artifacts).
  std::vector<SweepCell> cells = TestCells();
  EXPECT_EQ(cells.size(), 4u);
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.config.aging, "two_list");
  }
  std::vector<CellOutcome> outcomes(cells.size());
  for (auto& o : outcomes) {
    o.ok = true;
  }
  EXPECT_EQ(SweepReportJson("t", 1, cells, outcomes).find("\"aging\""),
            std::string::npos);
}

TEST(SweepRunner, OrderingIndependentOfJobs) {
  // Later indices finish first (decreasing sleep), so any runner that
  // returned results in completion order would invert the ordering.
  auto fn = [](size_t i) -> size_t {
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * (8 - i)));
    return i * 100;
  };
  for (int jobs : {1, 3, 8}) {
    auto out = SweepRunner(jobs).Map<size_t>(8, fn);
    ASSERT_EQ(out.size(), 8u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(out[i].ok);
      EXPECT_EQ(out[i].value, i * 100) << "jobs=" << jobs;
    }
  }
}

// The one harness executor: every index runs exactly once, on a worker
// index below min(jobs, n), including the empty and single-index cases.
TEST(ParallelFor, VisitsEveryIndexOnceOnABoundedWorker) {
  for (size_t n : {0, 1, 5}) {
    for (int jobs : {1, 3, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " jobs=" + std::to_string(jobs));
      std::vector<std::atomic<int>> visits(n);
      std::vector<size_t> worker_of(n);
      ParallelFor(n, jobs, [&](size_t i, size_t worker) {
        visits[i].fetch_add(1);
        worker_of[i] = worker;
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
        EXPECT_LT(worker_of[i], std::min(static_cast<size_t>(jobs), n)) << "index " << i;
      }
    }
  }
}

TEST(SweepRunner, ThrowingCellDoesNotPoisonSiblings) {
  auto fn = [](size_t i) -> int {
    if (i == 2) {
      throw std::runtime_error("cell 2 exploded");
    }
    return static_cast<int>(i) + 1;
  };
  auto out = SweepRunner(4).Map<int>(5, fn);
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 0; i < out.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(out[i].ok);
      EXPECT_EQ(out[i].error, "cell 2 exploded");
    } else {
      ASSERT_TRUE(out[i].ok);
      EXPECT_EQ(out[i].value, static_cast<int>(i) + 1);
    }
  }
}

TEST(SweepAxes, CellsMatchIndex) {
  SweepAxes axes;
  axes.devices = {Pixel3Profile(), P20Profile()};
  axes.schemes = {"lru_cfs", "ice"};
  axes.scenarios = {ScenarioKind::kVideoCall, ScenarioKind::kGame};
  axes.bg_counts = {0, 4};
  axes.seeds = {1, 2, 3};
  std::vector<SweepCell> cells = axes.Cells();
  ASSERT_EQ(cells.size(), axes.size());
  for (size_t d = 0; d < axes.devices.size(); ++d) {
    for (size_t s = 0; s < axes.schemes.size(); ++s) {
      for (size_t c = 0; c < axes.scenarios.size(); ++c) {
        for (size_t b = 0; b < axes.bg_counts.size(); ++b) {
          for (size_t r = 0; r < axes.seeds.size(); ++r) {
            const SweepCell& cell = cells[axes.Index(d, s, c, b, r)];
            EXPECT_EQ(cell.config.device.name, axes.devices[d].name);
            EXPECT_EQ(cell.config.scheme, axes.schemes[s]);
            EXPECT_EQ(cell.scenario, axes.scenarios[c]);
            EXPECT_EQ(cell.bg_apps, axes.bg_counts[b]);
            EXPECT_EQ(cell.config.seed, axes.seeds[r]);
          }
        }
      }
    }
  }
}

TEST(SweepReport, JsonCarriesGridAndMetrics) {
  SweepAxes axes;
  axes.devices = {Pixel3Profile()};
  axes.schemes = {"ice"};
  axes.scenarios = {ScenarioKind::kGame};
  axes.bg_counts = {3};
  axes.seeds = {9};
  std::vector<SweepCell> cells = axes.Cells();
  std::vector<CellOutcome> outcomes(2);
  outcomes[0].ok = true;
  outcomes[0].value.avg_fps = 42.5;
  outcomes[0].value.refaults = 17;
  outcomes[0].value.fps_series = {41.0, 44.0};
  // A failed sibling cell appears with its error, not fabricated metrics.
  cells.push_back(cells[0]);
  outcomes[1].error = "boom \"quoted\"";
  std::string json = SweepReportJson("unit", 4, cells, outcomes);
  EXPECT_NE(json.find("\"sweep\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"device\": \"Pixel3\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\": \"ice\""), std::string::npos);
  EXPECT_NE(json.find("\"bg_apps\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"avg_fps\": 42.5"), std::string::npos);
  EXPECT_NE(json.find("\"refaults\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"fps_series\": [41, 44]"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"error\": \"boom \\\"quoted\\\"\""), std::string::npos);
}

}  // namespace
}  // namespace ice
