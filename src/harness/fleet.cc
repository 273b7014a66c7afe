#include "src/harness/fleet.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/workload/usage_trace.h"

namespace ice {

namespace {
// The per-group install list for the trace runner: identical for every
// device of a group (catalog and uid assignment are pure functions of the
// group config), so it is built once per (worker, group) and shared.
std::vector<UsageTraceRunner::InstalledApp> InstalledAppsOf(Experiment& exp) {
  std::vector<UsageTraceRunner::InstalledApp> apps;
  apps.reserve(exp.catalog().size());
  std::vector<Uid> uids = exp.CatalogUids();
  for (size_t i = 0; i < exp.catalog().size(); ++i) {
    apps.push_back({uids[i], exp.catalog()[i].category});
  }
  return apps;
}

// Settles a freshly booted device to the post-boot quiescent boundary every
// device's trace starts at. Settling is a pure function of the group config
// (boot draws nothing from the device seed), and every group config the
// fleet can form settles (fleet_test pins all of them), so a miss is a bug,
// not a device outcome. Cold and templated runs throw alike.
void SettleBootOrThrow(Experiment& exp) {
  if (!exp.SettleToQuiescence()) {
    throw std::runtime_error("fleet: booted device did not reach quiescence");
  }
}
}  // namespace

// Per-worker warm-boot state, indexed by ParallelFor's worker: only that
// worker's thread touches it.
struct FleetRunner::WorkerContext {
  struct GroupContext {
    // Built on the group's first device, and again after the build threw and
    // left it null. Each device rebuilds it from the template.
    std::unique_ptr<Experiment> donor;
    std::vector<uint8_t> template_bytes;
    std::vector<UsageTraceRunner::InstalledApp> apps;
  };
  std::vector<GroupContext> groups;
  // Reused across every template save this worker performs: Clear() keeps
  // the buffer, so only the first save grows it.
  BinaryWriter writer;
};

void FleetGroupStats::MergeFrom(const FleetGroupStats& other) {
  devices += other.devices;
  failures += other.failures;
  if (other.first_error_device < first_error_device) {
    first_error_device = other.first_error_device;
    first_error = other.first_error;
  }
  frame_latency_us.Merge(other.frame_latency_us);
  fps.Merge(other.fps);
  ria.Merge(other.ria);
  refaults.Merge(other.refaults);
  lmk_kills.Merge(other.lmk_kills);
  zram_compressed_bytes.Merge(other.zram_compressed_bytes);
  total_frames += other.total_frames;
  total_refaults += other.total_refaults;
  total_lmk_kills += other.total_lmk_kills;
  peak_arena_bytes = std::max(peak_arena_bytes, other.peak_arena_bytes);
}

FleetRunner::FleetRunner(const FleetConfig& config) : config_(config) {
  if (config_.tiers.empty()) {
    config_.tiers = FleetTierNames();
  }
  for (const std::string& tier : config_.tiers) {
    ICE_CHECK(IsFleetTier(tier)) << "unknown fleet tier: " << tier;
  }
  ICE_CHECK(!config_.schemes.empty());
  for (const PolicyAxis& axis : PolicyAxes()) {
    axis.IndexOf(config_.*axis.fleet);  // Aborts on an unknown name.
  }
  ICE_CHECK_GE(config_.sessions, 1);
  if (config_.jobs <= 0) {
    config_.jobs = DefaultSweepJobs();
  }
  if (config_.chunk == 0) {
    // Auto chunking: coarse enough that the ordered fold and chunk claims
    // are cheap, fine enough that a straggler chunk (an entry-tier device
    // thrashing through LMK) leaves the other workers plenty to claim. A
    // pure function of the device count — never of jobs — so the per-chunk
    // double-sum grouping (and hence the output bytes) is shard-independent.
    config_.chunk = static_cast<uint32_t>(
        std::clamp<uint64_t>(config_.devices / 64, 1, 256));
  }
  chunk_ = config_.chunk;
}

uint64_t FleetRunner::num_chunks() const {
  return (config_.devices + chunk_ - 1) / chunk_;
}

uint64_t FleetRunner::DeviceSeed(uint64_t fleet_seed, uint64_t device_index) {
  // SplitMix64 with the index folded in; decorrelates neighbouring devices.
  uint64_t z = fleet_seed + 0x9e3779b97f4a7c15ULL * (device_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<FleetGroupStats> FleetRunner::MakeAccumulators() const {
  std::vector<FleetGroupStats> groups(num_groups());
  for (size_t t = 0; t < config_.tiers.size(); ++t) {
    for (size_t s = 0; s < config_.schemes.size(); ++s) {
      FleetGroupStats& g = groups[t * config_.schemes.size() + s];
      g.tier = config_.tiers[t];
      g.scheme = config_.schemes[s];
    }
  }
  return groups;
}

ExperimentConfig FleetRunner::GroupConfig(size_t group, uint64_t seed) const {
  ExperimentConfig ec;
  for (const PolicyAxis& axis : PolicyAxes()) {
    ec.*axis.experiment = config_.*axis.fleet;
  }
  ec.device = FleetTierProfile(config_.tiers[group / config_.schemes.size()]);
  ec.scheme = config_.schemes[group % config_.schemes.size()];
  ec.seed = seed;
  return ec;
}

void FleetRunner::RunDevice(uint64_t device_index, FleetGroupStats& group) const {
  Experiment exp(GroupConfig(GroupOf(device_index),
                             DeviceSeed(config_.seed, device_index)));
  // The same boundary the warm-boot template is taken at, so templated and
  // cold devices start the trace at identical clocks.
  SettleBootOrThrow(exp);
  std::vector<UsageTraceRunner::InstalledApp> apps = InstalledAppsOf(exp);
  RunTrace(exp, apps, group);
}

void FleetRunner::RunDeviceWith(WorkerContext& wc, uint64_t device_index,
                                FleetGroupStats& group) const {
  if (!config_.use_templates) {
    RunDevice(device_index, group);
    return;
  }
  WorkerContext::GroupContext& gc = wc.groups[GroupOf(device_index)];
  if (gc.donor == nullptr) {
    // The donor seed is arbitrary — boot draws nothing from the device-seed
    // stream and the template fingerprint is compared seed-agnostically —
    // but the fleet seed keeps it deterministic and clearly not any
    // device's.
    auto donor = std::make_unique<Experiment>(
        GroupConfig(GroupOf(device_index), config_.seed));
    SettleBootOrThrow(*donor);
    wc.writer.Clear();
    donor->SaveSnapshotInto(wc.writer);
    gc.template_bytes = wc.writer.FinishInPlace();
    gc.apps = InstalledAppsOf(*donor);
    gc.donor = std::move(donor);
  }
  // Rebuilds the device from the template, so nothing a previous device left
  // behind (even one that threw mid-trace) carries over.
  gc.donor->RestoreTemplate(gc.template_bytes, DeviceSeed(config_.seed, device_index));
  RunTrace(*gc.donor, gc.apps, group);
}

void FleetRunner::RunTrace(Experiment& exp,
                           const std::vector<UsageTraceRunner::InstalledApp>& apps,
                           FleetGroupStats& group) const {
  UsageTraceRunner::Config tc;
  tc.days = 1;
  tc.sessions_per_day = config_.sessions;
  tc.session_mean = config_.session_mean;
  tc.session_sigma = config_.session_sigma;
  // The fleet aggregates endpoint metrics only; disable the per-interval
  // cumulative samples the Fig 3 study wants.
  tc.sample_interval = Sec(24 * 3600);
  UsageTraceRunner runner(exp.am(), exp.choreographer(), apps,
                          exp.engine().rng().Fork(), tc);
  runner.Run();

  const FrameStats& frames = exp.choreographer().stats();
  for (double latency : frames.latency_us().values()) {
    group.frame_latency_us.Add(latency);
  }
  const SimTime end = exp.engine().now();
  group.fps.Add(frames.AverageFps(0, end));
  group.ria.Add(frames.Ria());
  const StatsRegistry& st = exp.engine().stats();
  const uint64_t refaults = st.Get(stat::kRefaults);
  const uint64_t kills = st.Get(stat::kLmkKills);
  group.refaults.Add(static_cast<double>(refaults));
  group.lmk_kills.Add(static_cast<double>(kills));
  group.zram_compressed_bytes.Merge(exp.mm().swap_governor().compressed_bytes());
  group.total_frames += frames.frames_completed();
  group.total_refaults += refaults;
  group.total_lmk_kills += kills;
  group.peak_arena_bytes = std::max(group.peak_arena_bytes, exp.mm().arena_bytes_peak());
  ++group.devices;
}

void FleetRunner::RunChunk(uint64_t chunk_index,
                           std::vector<FleetGroupStats>& partial,
                           WorkerContext& wc) const {
  const uint64_t begin = chunk_index * chunk_;
  const uint64_t end = std::min(begin + chunk_, config_.devices);
  for (uint64_t i = begin; i < end; ++i) {
    FleetGroupStats& g = partial[GroupOf(i)];
    std::string error;
    try {
      RunDeviceWith(wc, i, g);
      continue;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    ++g.failures;
    if (i < g.first_error_device) {
      g.first_error_device = i;
      g.first_error = std::move(error);
    }
  }
}

FleetResult FleetRunner::Run() const {
  const auto t0 = std::chrono::steady_clock::now();
  FleetResult result;
  result.config = config_;
  result.groups = MakeAccumulators();

  // Per-worker warm-boot donors live across chunks: with stratified groups
  // every chunk touches every group, so each worker boots each group at most
  // once for the whole run.
  const uint64_t chunks = num_chunks();
  std::vector<WorkerContext> contexts(
      std::min<uint64_t>(static_cast<uint64_t>(config_.jobs), chunks));
  for (WorkerContext& wc : contexts) {
    wc.groups.resize(num_groups());
  }

  // Ordered streaming fold: a finished chunk's partial waits until every
  // lower-indexed chunk has folded, so the reduce order — and therefore
  // every double sum — is independent of which worker ran what. Workers
  // claim chunks in ascending order, so the partials waiting at any moment
  // are only those the other workers finished while the lowest unfinished
  // chunk ran: bounded by the scheduling skew, never by N.
  std::mutex fold_mu;
  std::map<uint64_t, std::vector<FleetGroupStats>> pending;
  uint64_t next_fold = 0;
  ParallelFor(chunks, config_.jobs, [&](size_t chunk, size_t worker) {
    std::vector<FleetGroupStats> partial = MakeAccumulators();
    RunChunk(chunk, partial, contexts[worker]);
    std::lock_guard<std::mutex> lock(fold_mu);
    pending.emplace(chunk, std::move(partial));
    while (!pending.empty() && pending.begin()->first == next_fold) {
      std::vector<FleetGroupStats>& ready = pending.begin()->second;
      for (size_t g = 0; g < result.groups.size(); ++g) {
        result.groups[g].MergeFrom(ready[g]);
      }
      pending.erase(pending.begin());
      ++next_fold;
    }
  });
  ICE_CHECK_EQ(next_fold, chunks);

  for (const FleetGroupStats& g : result.groups) {
    result.devices_failed += g.failures;
    result.peak_arena_bytes = std::max(result.peak_arena_bytes, g.peak_arena_bytes);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace ice
