// Set-up probe: times a fresh process from main() to the moment the harness
// starts the first item of a job.
//
// FleetRunner::Run and SweepRunner::Run both begin an item by constructing
// an Experiment (a fleet group's template donor or a cold device; a sweep's
// prefix donor or a cold cell), and nothing before the first item constructs
// one. The perfbench link wraps that constructor (CMakeLists.txt), so its
// first call marks the end of set-up: building the workload's inputs, the
// runner, the harness's own preparation and its worker threads.
#ifndef PERFBENCH_SRC_SETUP_PROBE_H_
#define PERFBENCH_SRC_SETUP_PROBE_H_

#include <cstdint>

namespace perfbench {

// Arms the probe. The next Experiment construction in the process prints
// "setup <seconds since since_ns>" (NowNs clock) and ends the process with
// exit code 0 before the item does any work.
void ArmSetupProbe(int64_t since_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SETUP_PROBE_H_
