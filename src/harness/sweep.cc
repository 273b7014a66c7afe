#include "src/harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "src/base/binary_stream.h"

namespace ice {

std::vector<SweepCell> SweepAxes::Cells() const {
  // Cell i is a mixed-radix number, fastest digit first: seed, bg, scenario,
  // scheme, device, then each non-empty policy-axis list in table order.
  std::vector<SweepCell> cells(size());
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t rest = i;
    auto next = [&rest](const auto& values) -> const auto& {
      const size_t digit = rest % values.size();
      rest /= values.size();
      return values[digit];
    };
    SweepCell& cell = cells[i];
    cell.config = base;
    cell.config.seed = next(seeds);
    cell.bg_apps = next(bg_counts);
    cell.scenario = next(scenarios);
    cell.config.scheme = next(schemes);
    cell.config.device = next(devices);
    for (const PolicyAxis& axis : PolicyAxes()) {
      if (!(this->*axis.sweep).empty()) {
        cell.config.*axis.experiment = next(this->*axis.sweep);
      }
    }
    cell.duration = duration;
    cell.warmup = warmup;
  }
  return cells;
}

size_t SweepAxes::size() const {
  size_t n = devices.size() * schemes.size() * scenarios.size() * bg_counts.size() *
             seeds.size();
  for (const PolicyAxis& axis : PolicyAxes()) {
    n *= std::max<size_t>((this->*axis.sweep).size(), 1);
  }
  return n;
}

size_t SweepAxes::Index(size_t device, size_t scheme, size_t scenario, size_t bg,
                        size_t seed) const {
  return (((device * schemes.size() + scheme) * scenarios.size() + scenario) *
              bg_counts.size() +
          bg) *
             seeds.size() +
         seed;
}

int DefaultSweepJobs() {
  const char* env = std::getenv("ICE_JOBS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(size_t n, int jobs,
                 const std::function<void(size_t index, size_t worker)>& task) {
  const size_t workers = std::min(static_cast<size_t>(std::max(jobs, 1)), n);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      task(i, 0);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
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

SweepRunner::SweepRunner(int jobs) : jobs_(jobs > 0 ? jobs : DefaultSweepJobs()) {}

namespace {

// Cells share a caching prefix iff they agree on everything but the
// background-app count: full config, scenario (which fixes the excluded
// foreground app) and measurement window.
std::string PrefixGroupKey(const SweepCell& cell) {
  std::ostringstream out;
  out << ConfigFingerprint(cell.config) << " scenario=" << static_cast<int>(cell.scenario)
      << " duration=" << cell.duration << " warmup=" << cell.warmup;
  return out.str();
}

// Phase 1 body: run one donor through the group's shared caching prefix,
// snapshotting at each member's boundary — except the last (largest-bg)
// member, whose cell the donor runs inline: at that point the donor *is*
// that cell's cold state. Members are in ascending-bg order. A failed
// settle is ignored here as in the cold path; only a saved boundary needs
// quiescence, and a member without it (or past an exception) runs cold.
void RunPrefixDonor(const std::vector<SweepCell>& cells,
                    const std::vector<size_t>& members,
                    std::vector<std::optional<std::vector<uint8_t>>>& snapshots,
                    std::vector<std::optional<ScenarioResult>>& donor_results) {
  try {
    const SweepCell& proto = cells[members.front()];
    Experiment donor(proto.config);
    Uid fg = donor.UidOf(ScenarioPackage(proto.scenario));
    std::vector<Uid> pool = donor.PlanBackgroundPool({fg});
    int cached = 0;
    // One writer for every boundary this donor saves: Clear() keeps the
    // buffer, so only the first (smallest) snapshot pays for growth.
    BinaryWriter writer;
    for (size_t m = 0; m < members.size(); ++m) {
      size_t idx = members[m];
      int bg = SweepRunner::NormalizedBg(cells[idx]);
      if (static_cast<size_t>(bg) > pool.size()) {
        return;  // The cold path reports the error for this cell.
      }
      for (; cached < bg; ++cached) {
        donor.CacheOneBackgroundApp(pool[static_cast<size_t>(cached)]);
      }
      if (m + 1 == members.size()) {
        donor.FinishCaching();
        donor_results[idx] =
            donor.RunScenario(cells[idx].scenario, cells[idx].duration, cells[idx].warmup);
      } else if (donor.QuiescentNow()) {
        writer.Clear();
        donor.SaveSnapshotInto(writer);
        snapshots[idx] = writer.FinishInPlace();
      }
    }
  } catch (...) {
    // Donor construction/caching failed; cold runs will surface the error.
  }
}

}  // namespace

std::vector<CellOutcome> SweepRunner::Run(const std::vector<SweepCell>& cells,
                                          bool share_prefix) const {
  // Group prefix-sharable cells. std::map keys the groups deterministically;
  // members keep cell order and are stably sorted by bg so the donor caches
  // monotonically. A group is worth a donor only when at least two members
  // actually cache background apps.
  std::vector<std::optional<std::vector<uint8_t>>> snapshots(cells.size());
  std::vector<std::optional<ScenarioResult>> donor_results(cells.size());
  if (share_prefix) {
    std::map<std::string, std::vector<size_t>> groups;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (NormalizedBg(cells[i]) > 0) {
        groups[PrefixGroupKey(cells[i])].push_back(i);
      }
    }
    std::vector<std::vector<size_t>> donors;
    for (auto& [key, members] : groups) {
      if (members.size() < 2) {
        continue;
      }
      std::stable_sort(members.begin(), members.end(), [&cells](size_t a, size_t b) {
        return NormalizedBg(cells[a]) < NormalizedBg(cells[b]);
      });
      donors.push_back(std::move(members));
    }
    // Phase 1: donors in parallel. Each writes only its own members' slots.
    ParallelFor(donors.size(), jobs_, [&](size_t g, size_t) {
      RunPrefixDonor(cells, donors[g], snapshots, donor_results);
    });
  }

  // Phase 2: every cell in parallel — already computed inline by its donor,
  // forked from its snapshot when phase 1 produced one, cold otherwise.
  return Map<ScenarioResult>(cells.size(), [&cells, &snapshots,
                                            &donor_results](size_t i) {
    if (donor_results[i].has_value()) {
      return *donor_results[i];
    }
    if (snapshots[i].has_value()) {
      std::vector<uint8_t> bytes = std::move(*snapshots[i]);
      snapshots[i].reset();
      // No checksum scan: the bytes never left this process.
      auto exp = Experiment::RestoreSnapshot(cells[i].config, bytes,
                                             /*verify_checksum=*/false);
      exp->FinishCaching();
      return exp->RunScenario(cells[i].scenario, cells[i].duration, cells[i].warmup);
    }
    return RunCell(cells[i]);
  });
}

int SweepRunner::NormalizedBg(const SweepCell& cell) {
  return cell.bg_apps >= 0 ? cell.bg_apps : cell.config.device.full_pressure_bg_apps;
}

ScenarioResult SweepRunner::RunCell(const SweepCell& cell) {
  Experiment exp(cell.config);
  Uid fg = exp.UidOf(ScenarioPackage(cell.scenario));
  int bg = NormalizedBg(cell);
  if (bg > 0) {
    exp.CacheBackgroundApps(bg, {fg});
  }
  return exp.RunScenario(cell.scenario, cell.duration, cell.warmup);
}

}  // namespace ice
