#include "src/harness/policy_axes.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/harness/experiment.h"
#include "src/harness/fleet.h"
#include "src/harness/sweep.h"

namespace ice {

const std::vector<PolicyAxis>& PolicyAxes() {
  static const std::vector<PolicyAxis> axes = {
      {"aging", "page aging policy, classic LRU or MGLRU-style clock",
       {"two_list", "gen_clock"}, &ExperimentConfig::aging, &FleetConfig::aging,
       &SweepAxes::agings,
       [](size_t index, MemConfig& mem) { mem.aging = static_cast<AgingPolicy>(index); }},
      {"swap", "swap-out policy, admit-all or hotness-gated zram",
       {"baseline", "hotness"}, &ExperimentConfig::swap, &FleetConfig::swap,
       &SweepAxes::swaps,
       [](size_t index, MemConfig& mem) {
         mem.swap.policy = static_cast<SwapPolicy>(index);
       }},
  };
  return axes;
}

size_t PolicyAxis::IndexOf(const std::string& name) const {
  auto it = std::find(names.begin(), names.end(), name);
  ICE_CHECK(it != names.end()) << "unknown " << key << " policy: " << name;
  return static_cast<size_t>(it - names.begin());
}

}  // namespace ice
