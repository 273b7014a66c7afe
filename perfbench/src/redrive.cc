#include "perfbench/src/redrive.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/harness/experiment.h"
#include "src/workload/usage_trace.h"

namespace perfbench {

void SimWork::MergeFrom(const SimWork& other) {
  for (size_t i = 0; i < kNumWorkCounters; ++i) {
    counters[i] += other.counters[i];
  }
  sim_us += other.sim_us;
  ticks += other.ticks;
  ticks_skipped += other.ticks_skipped;
  frames += other.frames;
  settle_ticks += other.settle_ticks;
  restores += other.restores;
  snapshot_bytes += other.snapshot_bytes;
}

uint64_t SimWork::counter(const char* name) const {
  for (size_t i = 0; i < kNumWorkCounters; ++i) {
    if (std::string_view(kWorkCounters[i]) == name) {
      return counters[i];
    }
  }
  ICE_CHECK(false) << "unknown work counter " << name;
  return 0;
}

namespace {

// Counter and clock readings at the start of an item's simulated interval.
// A freshly constructed Experiment starts from zero (its boot is part of
// the item); a restored one from whatever the snapshot carried.
struct Mark {
  uint64_t counters[kNumWorkCounters] = {};
  uint64_t now_us = 0;
  uint64_t ticks = 0;
  uint64_t ticks_skipped = 0;
};

Mark MarkOf(ice::Experiment& exp) {
  Mark m;
  const ice::StatsRegistry& st = exp.engine().stats();
  for (size_t i = 0; i < kNumWorkCounters; ++i) {
    m.counters[i] = st.Get(kWorkCounters[i]);
  }
  m.now_us = static_cast<uint64_t>(exp.engine().now());
  m.ticks = exp.engine().ticks_elapsed();
  m.ticks_skipped = exp.engine().ticks_skipped();
  return m;
}

void AddSince(SimWork& work, const Mark& from, ice::Experiment& exp) {
  const Mark to = MarkOf(exp);
  for (size_t i = 0; i < kNumWorkCounters; ++i) {
    work.counters[i] += to.counters[i] - from.counters[i];
  }
  work.sim_us += to.now_us - from.now_us;
  work.ticks += to.ticks - from.ticks;
  work.ticks_skipped += to.ticks_skipped - from.ticks_skipped;
  work.frames += exp.choreographer().stats().frames_completed();
}

// Everything one worker thread owns during the traced run.
struct WorkerState {
  explicit WorkerState(uint32_t id) : recorder(id) {}
  SpanRecorder recorder;
  SimWork work;
  ice::BinaryWriter writer;  // Reused across saves, as the harness does.
};

bool SettleTraced(ice::Experiment& exp, WorkerState& ws, uint64_t item) {
  ScopedSpan span(ws.recorder, "harness.settle", item);
  const uint64_t before = exp.engine().ticks_elapsed();
  const bool ok = exp.SettleToQuiescence();
  ws.work.settle_ticks += exp.engine().ticks_elapsed() - before;
  return ok;
}

void SaveTraced(ice::Experiment& exp, WorkerState& ws, uint64_t item,
                std::vector<uint8_t>& out) {
  ScopedSpan span(ws.recorder, "snapshot.save", item);
  ws.writer.Clear();
  exp.SaveSnapshotInto(ws.writer);
  out = ws.writer.FinishInPlace();
  ws.work.snapshot_bytes += out.size();
}

// Experiment::CacheOneBackgroundApp, split at its SettleToQuiescence call so
// the settle search is its own span. Same calls, same order, same defaults
// (20 s interactive timeout, 2.5 s foreground settle); the traced run's
// report check fails if the two ever diverge.
bool CacheOneTraced(ice::Experiment& exp, ice::Uid uid, WorkerState& ws, uint64_t item) {
  {
    ScopedSpan span(ws.recorder, "harness.cache_bg", item);
    exp.am().Launch(uid);
    exp.AwaitInteractive(uid, ice::Sec(20));
    exp.engine().RunFor(ice::Ms(2500));
  }
  return SettleTraced(exp, ws, item);
}

void FinishCachingTraced(ice::Experiment& exp, WorkerState& ws, uint64_t item) {
  ScopedSpan span(ws.recorder, "harness.cache_bg", item);
  exp.FinishCaching();
}

ice::ScenarioResult ScenarioTraced(ice::Experiment& exp, const ice::SweepCell& cell,
                                   WorkerState& ws, uint64_t item) {
  ScopedSpan span(ws.recorder, "harness.scenario", item);
  return exp.RunScenario(cell.scenario, cell.duration, cell.warmup);
}

// Destroys an item's device inside its own span: freeing its page arenas
// and the rest of the simulator state is host time the item pays.
void TeardownTraced(std::unique_ptr<ice::Experiment>& exp, WorkerState& ws, uint64_t item) {
  ScopedSpan span(ws.recorder, "harness.teardown", item);
  exp.reset();
}

// Runs task(i) for i in [0, n) on `workers` threads, claiming indices from
// a shared counter (SweepRunner's dispatch); task(i, worker) must not throw.
void Dispatch(size_t n, int workers, const std::function<void(size_t, size_t)>& task) {
  const size_t threads_wanted = std::min(static_cast<size_t>(workers), n);
  if (threads_wanted <= 1) {
    for (size_t i = 0; i < n; ++i) {
      task(i, 0);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(threads_wanted);
  for (size_t w = 0; w < threads_wanted; ++w) {
    threads.emplace_back([&next, &task, n, w] {
      for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        task(i, w);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

std::vector<WorkerState> MakeWorkers(int n) {
  std::vector<WorkerState> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers.emplace_back(static_cast<uint32_t>(i));
  }
  return workers;
}

void CollectWorkers(const std::vector<WorkerState>& workers, TracedRun& run) {
  for (const WorkerState& ws : workers) {
    MergeSpans(run.spans, ws.recorder.spans());
    run.work.MergeFrom(ws.work);
  }
}

// ---- Fleet ---------------------------------------------------------------

struct FleetGroupDonor {
  bool initialized = false;
  bool cold_fallback = false;
  std::vector<uint8_t> template_bytes;
  std::unique_ptr<ice::Experiment> donor;
  std::vector<ice::UsageTraceRunner::InstalledApp> apps;
};

class FleetRedrive {
 public:
  explicit FleetRedrive(const Workload& w) : w_(w), runner_(w.fleet), cfg_(runner_.config()) {}

  TracedRun Run() {
    TracedRun run;
    const uint64_t chunks = runner_.num_chunks();
    const int workers = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(cfg_.jobs), chunks == 0 ? 1 : chunks));
    run.workers = workers;
    std::vector<WorkerState> states = MakeWorkers(workers);
    std::vector<std::vector<ice::FleetGroupStats>> partials(chunks);

    // Chunks are claimed from a shared counter rather than FleetRunner's
    // steal queues. Each worker keeps its own template per group, and a
    // template gives the same bytes whichever worker built it, so the
    // assignment changes timing only; the fold below fixes the order.
    std::vector<std::vector<FleetGroupDonor>> donors(static_cast<size_t>(workers));
    for (std::vector<FleetGroupDonor>& d : donors) {
      d.resize(runner_.num_groups());
    }
    const int64_t t0 = NowNs();
    Dispatch(chunks, workers, [&](size_t chunk, size_t worker) {
      partials[chunk] = Accumulators();
      RunChunk(chunk, partials[chunk], donors[worker], states[worker]);
    });
    run.wall_ns = NowNs() - t0;

    // The ordered fold, all at once: chunk-index order is what fixes the
    // double sums, not when each partial arrived.
    run.job.fleet.config = cfg_;
    run.job.fleet.groups = Accumulators();
    for (const std::vector<ice::FleetGroupStats>& partial : partials) {
      for (size_t g = 0; g < partial.size(); ++g) {
        run.job.fleet.groups[g].MergeFrom(partial[g]);
      }
    }
    for (const ice::FleetGroupStats& g : run.job.fleet.groups) {
      run.job.fleet.devices_failed += g.failures;
      run.job.fleet.peak_arena_bytes = std::max(run.job.fleet.peak_arena_bytes, g.peak_arena_bytes);
    }
    FinishFleetResult(w_, run.job);
    run.arena_bytes_peak = run.job.fleet.peak_arena_bytes;
    CollectWorkers(states, run);
    return run;
  }

 private:
  std::vector<ice::FleetGroupStats> Accumulators() const {
    std::vector<ice::FleetGroupStats> groups(runner_.num_groups());
    for (size_t g = 0; g < groups.size(); ++g) {
      groups[g].tier = cfg_.tiers[g / cfg_.schemes.size()];
      groups[g].scheme = cfg_.schemes[g % cfg_.schemes.size()];
    }
    return groups;
  }

  ice::ExperimentConfig GroupConfig(size_t group, uint64_t seed) const {
    ice::ExperimentConfig ec;
    ec.aging = cfg_.aging;
    ec.swap = cfg_.swap;
    ec.device = ice::FleetTierProfile(cfg_.tiers[group / cfg_.schemes.size()]);
    ec.scheme = cfg_.schemes[group % cfg_.schemes.size()];
    ec.seed = seed;
    return ec;
  }

  void RunChunk(uint64_t chunk, std::vector<ice::FleetGroupStats>& partial,
                std::vector<FleetGroupDonor>& donors, WorkerState& ws) const {
    const uint64_t begin = chunk * runner_.chunk_size();
    const uint64_t end = std::min(begin + runner_.chunk_size(), cfg_.devices);
    for (uint64_t i = begin; i < end; ++i) {
      ice::FleetGroupStats& g = partial[runner_.GroupOf(i)];
      std::string error;
      try {
        RunDevice(i, g, donors[runner_.GroupOf(i)], ws);
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
      if (!error.empty()) {
        ++g.failures;
        if (i < g.first_error_device) {
          g.first_error_device = i;
          g.first_error = error;
        }
      }
    }
  }

  void BuildTemplate(uint64_t i, FleetGroupDonor& gd, WorkerState& ws) const {
    ScopedSpan root(ws.recorder, "harness.template", i);
    gd.initialized = true;
    std::unique_ptr<ice::Experiment> donor;
    {
      ScopedSpan span(ws.recorder, "harness.boot", i);
      donor = std::make_unique<ice::Experiment>(GroupConfig(runner_.GroupOf(i), cfg_.seed));
    }
    if (!SettleTraced(*donor, ws, i)) {
      gd.cold_fallback = true;
      return;
    }
    SaveTraced(*donor, ws, i, gd.template_bytes);
    gd.apps.clear();
    std::vector<ice::Uid> uids = donor->CatalogUids();
    for (size_t a = 0; a < donor->catalog().size(); ++a) {
      gd.apps.push_back({uids[a], donor->catalog()[a].category});
    }
    gd.donor = std::move(donor);
  }

  void RunDevice(uint64_t i, ice::FleetGroupStats& group, FleetGroupDonor& gd,
                 WorkerState& ws) const {
    if (!gd.initialized) {
      BuildTemplate(i, gd, ws);
    }
    ScopedSpan root(ws.recorder, "harness.device", i);
    if (gd.cold_fallback) {
      ScopedSpan span(ws.recorder, "harness.cold_device", i);
      runner_.RunDevice(i, group);
      return;
    }
    try {
      {
        ScopedSpan span(ws.recorder, "snapshot.restore", i);
        gd.donor->RestoreTemplate(gd.template_bytes,
                                  ice::FleetRunner::DeviceSeed(cfg_.seed, i));
        ++ws.work.restores;
      }
      ice::Experiment& exp = *gd.donor;
      const Mark mark = MarkOf(exp);
      {
        ScopedSpan span(ws.recorder, "workload.trace", i);
        ice::UsageTraceRunner::Config tc;
        tc.days = 1;
        tc.sessions_per_day = cfg_.sessions;
        tc.session_mean = cfg_.session_mean;
        tc.session_sigma = cfg_.session_sigma;
        tc.sample_interval = ice::Sec(24 * 3600);
        ice::UsageTraceRunner trace(exp.am(), exp.choreographer(), gd.apps,
                                    exp.engine().rng().Fork(), tc);
        trace.Run();
      }
      AddSince(ws.work, mark, exp);
      ScopedSpan span(ws.recorder, "harness.fold", i);
      Fold(exp, group);
    } catch (...) {
      gd.donor.reset();
      gd.template_bytes.clear();
      gd.initialized = false;
      throw;
    }
  }

  // FleetRunner::RunTrace's fold of one finished device into its group.
  static void Fold(ice::Experiment& exp, ice::FleetGroupStats& group) {
    const ice::FrameStats& frames = exp.choreographer().stats();
    for (double latency : frames.latency_us().values()) {
      group.frame_latency_us.Add(latency);
    }
    const ice::SimTime end = exp.engine().now();
    group.fps.Add(frames.AverageFps(0, end));
    group.ria.Add(frames.Ria());
    const ice::StatsRegistry& st = exp.engine().stats();
    const uint64_t refaults = st.Get(ice::stat::kRefaults);
    const uint64_t kills = st.Get(ice::stat::kLmkKills);
    group.refaults.Add(static_cast<double>(refaults));
    group.lmk_kills.Add(static_cast<double>(kills));
    group.zram_compressed_bytes.Merge(exp.mm().swap_governor().compressed_bytes());
    group.total_frames += frames.frames_completed();
    group.total_refaults += refaults;
    group.total_lmk_kills += kills;
    group.peak_arena_bytes = std::max(group.peak_arena_bytes, exp.mm().arena_bytes_peak());
    ++group.devices;
  }

  const Workload& w_;
  ice::FleetRunner runner_;
  const ice::FleetConfig& cfg_;
};

// ---- Sweep ---------------------------------------------------------------

// SweepRunner::Run's prefix-group key: everything but the bg count.
std::string PrefixGroupKey(const ice::SweepCell& cell) {
  std::ostringstream out;
  out << ice::ConfigFingerprint(cell.config) << " scenario=" << static_cast<int>(cell.scenario)
      << " duration=" << cell.duration << " warmup=" << cell.warmup;
  return out.str();
}

class SweepRedrive {
 public:
  explicit SweepRedrive(const Workload& w)
      : w_(w), snapshots_(w.cells.size()), donor_results_(w.cells.size()) {}

  TracedRun Run() {
    TracedRun run;
    const std::vector<ice::SweepCell>& cells = w_.cells;
    run.workers = std::max(1, std::min(kJobs, static_cast<int>(cells.size())));
    std::vector<WorkerState> states = MakeWorkers(run.workers);

    std::map<std::string, std::vector<size_t>> groups;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (ice::SweepRunner::NormalizedBg(cells[i]) > 0) {
        groups[PrefixGroupKey(cells[i])].push_back(i);
      }
    }
    std::vector<std::vector<size_t>> donors;
    for (auto& [key, members] : groups) {
      if (members.size() < 2) {
        continue;
      }
      std::stable_sort(members.begin(), members.end(), [&cells](size_t a, size_t b) {
        return ice::SweepRunner::NormalizedBg(cells[a]) < ice::SweepRunner::NormalizedBg(cells[b]);
      });
      donors.push_back(std::move(members));
    }

    const int64_t t0 = NowNs();
    Dispatch(donors.size(), run.workers,
             [&](size_t g, size_t worker) { RunDonor(donors[g], states[worker]); });
    run.job.outcomes.resize(cells.size());
    Dispatch(cells.size(), run.workers, [&](size_t i, size_t worker) {
      ice::CellOutcome& out = run.job.outcomes[i];
      try {
        out.value = RunCell(i, states[worker]);
        out.ok = true;
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
    });
    run.wall_ns = NowNs() - t0;

    FinishSweepResult(w_, run.job);
    for (const ice::CellOutcome& o : run.job.outcomes) {
      run.arena_bytes_peak = std::max(run.arena_bytes_peak, o.value.arena_bytes_peak);
    }
    CollectWorkers(states, run);
    return run;
  }

 private:
  // SweepRunner's RunPrefixDonor: cache monotonically by bg, snapshot at
  // each member's boundary, run the largest member inline.
  void RunDonor(const std::vector<size_t>& members, WorkerState& ws) {
    const ice::SweepCell& proto = w_.cells[members.front()];
    // The donor's own scenario run is the last member's cell.
    const uint64_t item = members.back();
    ScopedSpan root(ws.recorder, "harness.donor", item);
    std::unique_ptr<ice::Experiment> donor;
    try {
      {
        ScopedSpan span(ws.recorder, "harness.boot", item);
        donor = std::make_unique<ice::Experiment>(proto.config);
      }
      const ice::Uid fg = donor->UidOf(ice::ScenarioPackage(proto.scenario));
      std::vector<ice::Uid> pool;
      {
        ScopedSpan span(ws.recorder, "harness.cache_bg", item);
        pool = donor->PlanBackgroundPool({fg});
      }
      int cached = 0;
      for (size_t m = 0; m < members.size(); ++m) {
        const size_t idx = members[m];
        const int bg = ice::SweepRunner::NormalizedBg(w_.cells[idx]);
        if (static_cast<size_t>(bg) > pool.size()) {
          break;
        }
        bool settled = true;
        while (settled && cached < bg) {
          settled = CacheOneTraced(*donor, pool[static_cast<size_t>(cached)], ws, idx);
          cached += settled ? 1 : 0;
        }
        if (!settled) {
          break;
        }
        if (m + 1 < members.size()) {
          std::vector<uint8_t> bytes;
          SaveTraced(*donor, ws, idx, bytes);
          snapshots_[idx] = std::move(bytes);
        } else {
          FinishCachingTraced(*donor, ws, idx);
          donor_results_[idx] = ScenarioTraced(*donor, w_.cells[idx], ws, idx);
        }
      }
    } catch (...) {
      // As in the harness: the members left without a slot run cold.
    }
    if (donor != nullptr) {
      AddSince(ws.work, Mark{}, *donor);
      TeardownTraced(donor, ws, item);
    }
  }

  ice::ScenarioResult RunCell(size_t i, WorkerState& ws) {
    const ice::SweepCell& cell = w_.cells[i];
    ScopedSpan root(ws.recorder, "harness.cell", i);
    if (donor_results_[i].has_value()) {
      return *donor_results_[i];
    }
    if (snapshots_[i].has_value()) {
      std::vector<uint8_t> bytes = std::move(*snapshots_[i]);
      snapshots_[i].reset();
      std::unique_ptr<ice::Experiment> exp;
      {
        ScopedSpan span(ws.recorder, "snapshot.restore", i);
        exp = ice::Experiment::RestoreSnapshot(cell.config, bytes, /*verify_checksum=*/false);
        ++ws.work.restores;
      }
      const Mark mark = MarkOf(*exp);
      FinishCachingTraced(*exp, ws, i);
      ice::ScenarioResult result = ScenarioTraced(*exp, cell, ws, i);
      AddSince(ws.work, mark, *exp);
      TeardownTraced(exp, ws, i);
      return result;
    }
    // SweepRunner::RunCell, with CacheBackgroundApps spelled out.
    std::unique_ptr<ice::Experiment> exp;
    {
      ScopedSpan span(ws.recorder, "harness.boot", i);
      exp = std::make_unique<ice::Experiment>(cell.config);
    }
    const ice::Uid fg = exp->UidOf(ice::ScenarioPackage(cell.scenario));
    const int bg = ice::SweepRunner::NormalizedBg(cell);
    if (bg > 0) {
      std::vector<ice::Uid> pool;
      {
        ScopedSpan span(ws.recorder, "harness.cache_bg", i);
        pool = exp->PlanBackgroundPool({fg});
      }
      ICE_CHECK_LE(static_cast<size_t>(bg), pool.size());
      pool.resize(static_cast<size_t>(bg));
      for (ice::Uid uid : pool) {
        CacheOneTraced(*exp, uid, ws, i);
      }
      FinishCachingTraced(*exp, ws, i);
    }
    ice::ScenarioResult result = ScenarioTraced(*exp, cell, ws, i);
    AddSince(ws.work, Mark{}, *exp);
    TeardownTraced(exp, ws, i);
    return result;
  }

  const Workload& w_;
  std::vector<std::optional<std::vector<uint8_t>>> snapshots_;
  std::vector<std::optional<ice::ScenarioResult>> donor_results_;
};

}  // namespace

TracedRun Redrive(const Workload& w) {
  if (w.kind == JobKind::kFleet) {
    return FleetRedrive(w).Run();
  }
  return SweepRedrive(w).Run();
}

}  // namespace perfbench
