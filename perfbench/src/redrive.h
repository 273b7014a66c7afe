// The traced run: re-drives a workload's items through the same public
// calls FleetRunner::Run and SweepRunner::Run make — Experiment construction,
// SettleToQuiescence, SaveSnapshotInto, RestoreTemplate / RestoreSnapshot,
// PlanBackgroundPool / background caching / FinishCaching, RunScenario,
// UsageTraceRunner::Run — with a span around each call and the simulator's
// public counters read at item boundaries. Its report must equal the
// untraced run's byte for byte (after digest normalization): the re-drive
// measures the same simulated work, it does not approximate it.
#ifndef PERFBENCH_SRC_REDRIVE_H_
#define PERFBENCH_SRC_REDRIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

// Simulator counters summed over every item's simulated interval.
// Deterministic: integer sums over a fixed set of item intervals.
inline constexpr const char* kWorkCounters[] = {
    "mem.page_faults",     "mem.refaults",         "mem.refaults_bg",
    "mem.pages_reclaimed", "mem.kswapd_wakeups",   "mem.direct_reclaims",
    "mem.zram_stores",     "mem.zram_loads",       "swap.rejects_hot",
    "swap.writeback_pages", "swap.stores_fast",    "swap.stores_dense",
    "io.reads",            "io.writes",            "io.read_bytes",
    "proc.lmk_kills",      "ice.freezes",          "ice.thaws",
    "android.cold_launches", "android.hot_launches",
};
inline constexpr size_t kNumWorkCounters = sizeof(kWorkCounters) / sizeof(kWorkCounters[0]);

struct SimWork {
  uint64_t counters[kNumWorkCounters] = {};
  uint64_t sim_us = 0;  // Simulated time advanced.
  uint64_t ticks = 0;   // Engine ticks, skipped ones included.
  uint64_t ticks_skipped = 0;
  uint64_t frames = 0;  // Frames the item's report counts.
  // Host-side bookkeeping of the phases.
  uint64_t settle_ticks = 0;
  uint64_t restores = 0;
  uint64_t snapshot_bytes = 0;

  void MergeFrom(const SimWork& other);
  uint64_t counter(const char* name) const;
};

struct TracedRun {
  JobResult job;  // Same report as the untraced run when all is well.
  std::vector<Span> spans;
  SimWork work;
  int workers = 0;
  int64_t wall_ns = 0;
  uint64_t arena_bytes_peak = 0;
};

TracedRun Redrive(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REDRIVE_H_
