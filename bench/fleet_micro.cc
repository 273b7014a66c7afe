// Fleet warm-boot microbenchmarks: the two ways a fleet worker can get a
// device to the post-boot quiescent boundary, measured in isolation.
//
//   ColdConstruct    — fresh Experiment (subsystem construction, catalog
//                      install, 2 s simulated boot) + SettleToQuiescence:
//                      what every device paid before warm-boot templates.
//   TemplateRestore  — a fresh Experiment built around a donor snapshot
//                      (RestoreSnapshot: full construction, then overlay).
//                      The fleet's RestoreTemplate takes the same build
//                      path on its live donor, after destroying the
//                      previous device.
//
// Their gap is the per-device boot cost the templates remove. A second pair
// measures the whole-device effect (boot + one-session trace) the FLEET
// smoke sees end to end.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/fleet.h"
#include "src/workload/usage_trace.h"

namespace ice {
namespace {

ExperimentConfig Mid4gConfig(uint64_t seed) {
  ExperimentConfig config;
  config.device = FleetTierProfile("mid-4g");
  config.seed = seed;
  return config;
}

std::vector<uint8_t> MakeTemplate() {
  Experiment donor(Mid4gConfig(1));
  donor.SettleToQuiescence();
  return donor.SaveSnapshot();
}

void BM_FleetColdConstruct(benchmark::State& state) {
  uint64_t seed = 100;
  for (auto _ : state) {
    Experiment exp(Mid4gConfig(seed++));
    exp.SettleToQuiescence();
    benchmark::DoNotOptimize(exp.engine().now());
  }
}

void BM_FleetTemplateRestore(benchmark::State& state) {
  std::vector<uint8_t> tmpl = MakeTemplate();
  for (auto _ : state) {
    auto exp = Experiment::RestoreSnapshot(Mid4gConfig(1), tmpl,
                                           /*verify_checksum=*/false);
    benchmark::DoNotOptimize(exp->engine().now());
  }
}

// Whole-device comparison: boot-to-quiescence plus one short usage-trace
// session, cold versus templated — the shape of one FLEET smoke device.
void RunTraceOn(Experiment& exp) {
  std::vector<UsageTraceRunner::InstalledApp> apps;
  apps.reserve(exp.catalog().size());
  std::vector<Uid> uids = exp.CatalogUids();
  for (size_t i = 0; i < exp.catalog().size(); ++i) {
    apps.push_back({uids[i], exp.catalog()[i].category});
  }
  UsageTraceRunner::Config tc;
  tc.days = 1;
  tc.sessions_per_day = 1;
  tc.session_mean = Sec(2);
  tc.sample_interval = Sec(24 * 3600);
  UsageTraceRunner runner(exp.am(), exp.choreographer(), std::move(apps),
                          exp.engine().rng().Fork(), tc);
  runner.Run();
}

void BM_FleetDeviceCold(benchmark::State& state) {
  uint64_t seed = 100;
  for (auto _ : state) {
    Experiment exp(Mid4gConfig(seed++));
    exp.SettleToQuiescence();
    RunTraceOn(exp);
    benchmark::DoNotOptimize(exp.engine().now());
  }
}

void BM_FleetDeviceTemplated(benchmark::State& state) {
  std::vector<uint8_t> tmpl = MakeTemplate();
  Experiment donor(Mid4gConfig(1));
  donor.SettleToQuiescence();
  uint64_t seed = 100;
  for (auto _ : state) {
    donor.RestoreTemplate(tmpl, seed++);
    RunTraceOn(donor);
    benchmark::DoNotOptimize(donor.engine().now());
  }
}

BENCHMARK(BM_FleetColdConstruct)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FleetTemplateRestore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FleetDeviceCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FleetDeviceTemplated)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ice

BENCHMARK_MAIN();
