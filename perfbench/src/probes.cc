#include "perfbench/src/probes.h"

#include <memory>
#include <string>

#include "perfbench/src/bench_stats.h"
#include "perfbench/src/spans.h"
#include "src/base/rng.h"
#include "src/harness/experiment.h"
#include "src/mem/address_space.h"

namespace perfbench {

namespace {
constexpr int kPasses = 5;
constexpr uint64_t kZipfDrawsPerPass = 200000;
constexpr uint64_t kZipfN = 4096;
constexpr double kZipfS = 0.55;
}  // namespace

double ZipfNsPerDraw(uint64_t seed) {
  ice::Rng rng(seed);
  std::vector<double> per_draw;
  uint64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < kZipfDrawsPerPass; ++i) {
      sink += rng.Zipf(kZipfN, kZipfS);
    }
    per_draw.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(kZipfDrawsPerPass));
  }
  // Keeps the draws observable so the loop cannot be dropped.
  volatile uint64_t keep = sink;
  (void)keep;
  return Median(per_draw);
}

double ArenaCycleUs(const std::vector<ice::DeviceProfile>& devices) {
  // One booted device per profile supplies the catalog (as installed on that
  // device) and a live MemoryManager to register against.
  std::vector<std::unique_ptr<ice::Experiment>> hosts;
  for (const ice::DeviceProfile& device : devices) {
    ice::ExperimentConfig config;
    config.device = device;
    hosts.push_back(std::make_unique<ice::Experiment>(config));
  }
  std::vector<double> per_cycle;
  ice::Pid pid = 1 << 20;  // Far above any pid the activity manager hands out.
  for (int pass = 0; pass < kPasses; ++pass) {
    uint64_t cycles = 0;
    const int64_t t0 = NowNs();
    for (const auto& host : hosts) {
      ice::MemoryManager& mm = host->mm();
      for (const ice::CatalogApp& app : host->catalog()) {
        const ice::AppDescriptor& d = app.descriptor;
        ice::AddressSpaceLayout main_layout;
        main_layout.java_pages = d.java_pages;
        main_layout.native_pages = d.native_pages;
        main_layout.file_pages = d.file_pages;
        ice::AddressSpaceLayout service_layout;
        service_layout.native_pages = d.service_pages;
        service_layout.file_pages = d.service_pages / 2;
        for (const ice::AddressSpaceLayout& layout : {main_layout, service_layout}) {
          ice::AddressSpace space(pid++, -1, d.package, layout);
          mm.Register(space);
          mm.Release(space);
          ++cycles;
        }
      }
    }
    per_cycle.push_back(static_cast<double>(NowNs() - t0) / 1e3 /
                        static_cast<double>(cycles));
  }
  return Median(per_cycle);
}

}  // namespace perfbench
