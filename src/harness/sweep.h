// Parallel sweep runner for the experiment harness.
//
// Every figure and ablation in the paper is a grid of independent runs —
// scheme × scenario × background-app count × seed. Each cell owns its own
// Engine, Rng and StatsRegistry, so the grid is embarrassingly parallel.
// SweepRunner fans cells out to a worker pool and returns results in
// deterministic grid order regardless of scheduling: the metrics of a cell
// depend only on its own config (and seed), never on which thread ran it or
// in what order, so a parallel sweep is bit-for-bit identical to a serial
// one. CI asserts this invariant (tests/harness/sweep_test.cc).
#ifndef SRC_HARNESS_SWEEP_H_
#define SRC_HARNESS_SWEEP_H_

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "src/harness/experiment.h"

namespace ice {

// One fully-specified cell: an experiment configuration plus the scenario
// window to measure. `config.seed` carries the per-cell seed.
struct SweepCell {
  ExperimentConfig config;
  ScenarioKind scenario = ScenarioKind::kShortVideo;
  int bg_apps = 0;  // -1 = the device's full-pressure count.
  SimDuration duration = Sec(30);
  SimDuration warmup = Sec(240);
};

// Declarative grid specification. The cross product enumerates cells in
// row-major order with the policy axes slowest and `seeds` fastest, which
// fixes the result ordering for reports and comparisons.
struct SweepAxes {
  std::vector<DeviceProfile> devices;
  std::vector<std::string> schemes;
  std::vector<ScenarioKind> scenarios;
  std::vector<int> bg_counts;  // -1 = device full-pressure count.
  std::vector<uint64_t> seeds;
  // Policy-axis lists (policy_axes.h), the outermost loops with swaps
  // outside agings; empty = the base config's value only.
  std::vector<std::string> agings;
  std::vector<std::string> swaps;
  SimDuration duration = Sec(30);
  SimDuration warmup = Sec(240);
  // Applied to every cell before the per-axis fields; lets callers sweep
  // IceConfig knobs (ablations) while keeping the grid declarative.
  ExperimentConfig base;

  std::vector<SweepCell> Cells() const;
  // Flat index of (device, scheme, scenario, bg, seed) into Cells(), within
  // the first (or only) policy-axis block.
  size_t Index(size_t device, size_t scheme, size_t scenario, size_t bg,
               size_t seed) const;
  size_t size() const;
};

// Result slot for one unit of sweep work. A cell whose body throws is
// reported here (ok = false, error = what()) without poisoning siblings.
template <typename T>
struct SweepOutcome {
  T value{};
  bool ok = false;
  std::string error;
};

using CellOutcome = SweepOutcome<ScenarioResult>;

// Worker count: ICE_JOBS env override, else hardware concurrency (min 1).
int DefaultSweepJobs();

// The harness's one executor: runs task(index, worker) for every index in
// [0, n) on min(jobs, n) threads, inline when that is 1 (jobs < 1 counts as
// 1). Threads claim indices from a shared counter, so indices start in
// ascending order; `worker` < min(jobs, n) indexes per-worker state that
// only that thread touches. task must not throw.
void ParallelFor(size_t n, int jobs,
                 const std::function<void(size_t index, size_t worker)>& task);

class SweepRunner {
 public:
  // jobs <= 0 selects DefaultSweepJobs().
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  // Deterministic parallel map: runs fn(i) for i in [0, n) on the pool and
  // returns outcomes indexed by i, independent of scheduling. fn must not
  // touch shared mutable state (each sweep cell builds its own Experiment).
  template <typename T>
  std::vector<SweepOutcome<T>> Map(size_t n, const std::function<T(size_t)>& fn) const {
    std::vector<SweepOutcome<T>> out(n);
    ParallelFor(n, jobs_, [&](size_t i, size_t) {
      try {
        out[i].value = fn(i);
        out[i].ok = true;
      } catch (const std::exception& e) {
        out[i].error = e.what();
      } catch (...) {
        out[i].error = "unknown exception";
      }
    });
    return out;
  }

  // Runs every cell on the pool. With `share_prefix` on (the default),
  // cells that agree on everything except their background-app count share
  // one warmed caching prefix: the common prefix runs once in a donor
  // experiment, is snapshotted at each member's boundary, and every member
  // forks from its snapshot instead of re-running the caching from scratch.
  // Forked cells are byte-identical to cold runs — the full-pool shuffle in
  // PlanBackgroundPool and the per-app settle-to-quiescence run in both
  // paths — so sharing changes wall-clock only, never results
  // (tests/harness/prefix_sweep_test.cc asserts this). Cells that cannot
  // share (bg = 0, singleton groups, or a member whose boundary the donor
  // reaches without quiescence) silently fall back to a cold run.
  std::vector<CellOutcome> Run(const std::vector<SweepCell>& cells,
                               bool share_prefix = true) const;

  // The canonical cold cell body shared by benches, the CLI and tests:
  // build an isolated Experiment, cache the background apps, run the
  // scenario.
  static ScenarioResult RunCell(const SweepCell& cell);

  // The cell's effective background-app count (-1 resolves to the device's
  // full-pressure count).
  static int NormalizedBg(const SweepCell& cell);

 private:
  int jobs_;
};

}  // namespace ice

#endif  // SRC_HARNESS_SWEEP_H_
