// The closed policy axes, page aging and swap, as one table. A row's `key`
// is its CLI flag (--aging), report key and fingerprint token; `names` are
// its enum's spellings in enum order, the default first; the member
// pointers are the config fields it fills. Every consumer loops over the
// rows, so adding an axis is an enum plus one appended row: a later row is
// a slower sweep loop, and reports list only off-default axes, so runs that
// leave a new axis at its default keep their bytes. Scheme is not a row:
// that axis is open (benches and tests register schemes) and lives in
// SchemeRegistry.
#ifndef SRC_HARNESS_POLICY_AXES_H_
#define SRC_HARNESS_POLICY_AXES_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ice {

struct ExperimentConfig;
struct FleetConfig;
struct MemConfig;
struct SweepAxes;

struct PolicyAxis {
  const char* key;
  const char* help;  // One line of icesim_cli --help.
  std::vector<std::string> names;
  std::string ExperimentConfig::*experiment;
  std::string FleetConfig::*fleet;
  std::vector<std::string> SweepAxes::*sweep;  // Empty = the base value only.
  // Stores the enum whose value is `index` (its position in `names`).
  void (*apply)(size_t index, MemConfig& mem);

  const std::string& default_name() const { return names.front(); }
  // Position of `name` in `names`; aborts on an unknown name.
  size_t IndexOf(const std::string& name) const;
};

enum PolicyAxisId : size_t { kAgingAxis, kSwapAxis };

// The table, indexed by PolicyAxisId.
const std::vector<PolicyAxis>& PolicyAxes();

}  // namespace ice

#endif  // SRC_HARNESS_POLICY_AXES_H_
