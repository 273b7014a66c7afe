// Host-side bookkeeping for the benchmark: sample summaries, report
// digests and failure accounting. Pure functions, unit-tested in
// perfbench/tests/bench_logic_test.cc.
#ifndef PERFBENCH_SRC_BENCH_STATS_H_
#define PERFBENCH_SRC_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A timing sample reduced to its median plus the highest standard
// percentile that still has at least kMinTail samples ranked above it.
struct Summary {
  size_t count = 0;
  double median = 0.0;
  // 0 when no percentile qualifies (fewer than 2 * kMinTail samples).
  double tail_quantile = 0.0;
  double tail = 0.0;
};

inline constexpr size_t kMinTail = 10;

// Median with the usual midpoint rule for even counts; 0 for an empty sample.
double Median(std::vector<double> values);

// Nearest-rank quantile of a sorted sample: the value at rank ceil(q * n),
// so exactly n - ceil(q * n) samples lie beyond it.
double NearestRank(const std::vector<double>& sorted, double q);

// Median plus the highest of p99.9/p99/p95/p90/p75/p50 with >= kMinTail
// samples beyond its nearest rank.
Summary Summarize(std::vector<double> values);

// Drops the fields of a sweep or FLEET report that name the run rather
// than describe its results: the "sweep"/"fleet" name line and the "jobs"
// worker count. Every other byte is kept, so two runs of the same inputs
// normalize to identical text.
std::string NormalizeReport(const std::string& report);

// 64-bit FNV-1a of `text`, as 16 lowercase hex digits.
std::string Fnv1aHex(const std::string& text);

// Fnv1aHex(NormalizeReport(report)).
std::string ReportDigest(const std::string& report);

// Attempted/failed item counts across a run's batches.
struct Accounting {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(uint64_t batch_attempted, uint64_t batch_failed) {
    attempted += batch_attempted;
    failed += batch_failed;
  }
  // failed / attempted; 0 when nothing was attempted.
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_STATS_H_
