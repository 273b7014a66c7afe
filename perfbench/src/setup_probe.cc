#include "perfbench/src/setup_probe.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "perfbench/src/spans.h"
#include "src/harness/experiment.h"

namespace perfbench {
namespace {
std::atomic<int64_t> armed_since{-1};
}  // namespace

void ArmSetupProbe(int64_t since_ns) { armed_since.store(since_ns); }

}  // namespace perfbench

// Experiment::Experiment(const ExperimentConfig&), complete-object variant.
// The linker routes every call to the wrapper; __real_ reaches the original.
extern "C" void __real__ZN3ice10ExperimentC1ERKNS_16ExperimentConfigE(
    ice::Experiment* self, const ice::ExperimentConfig& config);

extern "C" void __wrap__ZN3ice10ExperimentC1ERKNS_16ExperimentConfigE(
    ice::Experiment* self, const ice::ExperimentConfig& config) {
  const int64_t now = perfbench::NowNs();
  const int64_t since = perfbench::armed_since.exchange(-1);
  if (since >= 0) {
    std::printf("setup %.9f\n", static_cast<double>(now - since) / 1e9);
    std::fflush(stdout);
    _exit(0);
  }
  __real__ZN3ice10ExperimentC1ERKNS_16ExperimentConfigE(self, config);
}
