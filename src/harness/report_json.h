// JSON helpers shared by the sweep and fleet report writers (internal to
// src/harness). Both reports must stay byte-identical across runs, so every
// number and histogram is printed through the one formatter here.
#ifndef SRC_HARNESS_REPORT_JSON_H_
#define SRC_HARNESS_REPORT_JSON_H_

#include <ostream>
#include <string>

#include "src/base/merge_histogram.h"

namespace ice {

std::string JsonEscape(const std::string& s);

// %.17g round-trips an IEEE double exactly, so reports are byte-identical
// across runs whenever the values are.
std::string JsonNum(double v);

// `"key": {...}` — the histogram's summary statistics plus the sparse list of
// non-empty buckets: enough to re-plot the distribution without ever
// materializing the samples.
void AppendHistogram(std::ostream& out, const char* key, const MergeHistogram& h);

// Writes `json` to `<dir>/<file>`, creating `dir` if needed. Returns the
// written path (empty on I/O failure).
std::string WriteReportFile(const std::string& dir, const std::string& file,
                            const std::string& json);

}  // namespace ice

#endif  // SRC_HARNESS_REPORT_JSON_H_
