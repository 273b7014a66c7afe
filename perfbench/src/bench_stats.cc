#include "perfbench/src/bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  s.median = Median(values);
  std::sort(values.begin(), values.end());
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  const double n = static_cast<double>(values.size());
  for (double q : kLadder) {
    const size_t at_or_below = static_cast<size_t>(std::ceil(q * n));
    if (values.size() >= at_or_below + kMinTail) {
      s.tail_quantile = q;
      s.tail = NearestRank(values, q);
      break;
    }
  }
  return s;
}

std::string NormalizeReport(const std::string& report) {
  std::istringstream in(report);
  std::string out;
  out.reserve(report.size());
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos) {
      const std::string_view body(line.data() + first, line.size() - first);
      if (body.starts_with("\"sweep\":") || body.starts_with("\"fleet\":") ||
          body.starts_with("\"jobs\":")) {
        continue;
      }
    }
    out += line;
    out += '\n';
  }
  return out;
}

std::string Fnv1aHex(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string ReportDigest(const std::string& report) {
  return Fnv1aHex(NormalizeReport(report));
}

}  // namespace perfbench
