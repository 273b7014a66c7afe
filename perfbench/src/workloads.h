// The benchmark's workloads: fixed item sets run through the public harness
// entry points (FleetRunner::Run, SweepRunner::Run), their deterministic
// reports, and the output checks that prove each run simulated what the
// workload claims to exercise.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/android/device_profile.h"
#include "src/harness/fleet.h"
#include "src/harness/sweep.h"

namespace perfbench {

enum class JobKind { kFleet, kSweep };

// Worker threads for every workload: the benchmark shares a 4-core host.
inline constexpr int kJobs = 2;

struct Workload {
  std::string name;
  JobKind kind = JobKind::kFleet;
  ice::FleetConfig fleet;             // kFleet only.
  std::vector<ice::SweepCell> cells;  // kSweep only; grid order.
  // Output checks beyond accounting: each device's full-pressure `ice`
  // cells must freeze and refault; the hotness gate must reject at least
  // one hot page.
  bool expect_ice_freezes = false;
  bool expect_hot_rejects = false;
  // Devices whose catalog layouts the arena probe cycles.
  std::vector<ice::DeviceProfile> probe_devices;

  size_t items() const { return kind == JobKind::kFleet ? fleet.devices : cells.size(); }
};

std::vector<std::string> WorkloadNames();

// SplitMix64 of (benchmark seed, stream): the only seeds the simulator sees.
uint64_t DeriveSeed(uint64_t bench_seed, uint64_t stream);

// Builds the named workload from `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// The outputs of one execution of a workload's whole item set.
struct JobResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string report;  // Deterministic sweep / FLEET JSON.
  ice::FleetResult fleet;                  // kFleet only.
  std::vector<ice::CellOutcome> outcomes;  // kSweep only.
};

// Runs the item set once, untraced, through FleetRunner::Run or
// SweepRunner::Run (prefix sharing on).
JobResult RunJob(const Workload& w);

// Fills attempted/failed/report from `fleet` or `outcomes`; shared by
// RunJob and the traced re-drive so both serialize identically.
void FinishFleetResult(const Workload& w, JobResult& r);
void FinishSweepResult(const Workload& w, JobResult& r);

// Output checks; returns one message per failed check (empty = pass).
std::vector<std::string> CheckJob(const Workload& w, const JobResult& r);

// Re-runs the first items of the job (fleet: the whole job; sweeps: the
// first two cells, which on sweep-fig9 form one prefix-sharing group) and
// compares their report digest with the measured job's outputs for the
// same items. The repeat for runs that measured a single job.
std::vector<std::string> ReplayCheck(const Workload& w, const JobResult& measured);

using NamedValues = std::vector<std::pair<std::string, double>>;

// Simulated outputs defined on every workload (emitted as metrics):
// p50 FPS and refaults per scheme and the mean ICE/LRU FPS ratio.
NamedValues ModelMetrics(const Workload& w, const JobResult& r);

// Workload-specific simulated outputs (printed and written to the sidecar):
// per-(tier, scheme) p50s on the fleet, per-device Fig 9 gains and their
// error against the paper on the sweeps.
NamedValues ModelDetail(const Workload& w, const JobResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
