// Timed probes of two hot helpers the traced run cannot span without
// touching simulator code: Rng::Zipf draws and the per-app arena lifecycle.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>
#include <vector>

#include "src/android/device_profile.h"

namespace perfbench {

// Nanoseconds per Rng::Zipf(n, 0.55) draw, the hot-page pick every
// scenario and usage-trace session makes on each touch: the median of several
// timed blocks. A draw's cost does not depend on n.
double ZipfNsPerDraw(uint64_t seed);

// Microseconds per AddressSpace construction + MemoryManager::Register +
// Release, over the main- and service-process layouts of every catalog app
// on each device: the median of several passes.
double ArenaCycleUs(const std::vector<ice::DeviceProfile>& devices);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
