#include "perfbench/src/spans.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <utility>

#include "src/base/log.h"

namespace perfbench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int32_t SpanRecorder::Begin(const char* name, uint64_t item) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.worker = worker_;
  s.item = item;
  const int32_t id = static_cast<int32_t>(spans_.size());
  open_.push_back(id);
  s.begin_ns = NowNs();
  spans_.push_back(s);
  return id;
}

void SpanRecorder::End(int32_t id) {
  const int64_t now = NowNs();
  ICE_CHECK(!open_.empty() && open_.back() == id) << "span " << id << " closed out of order";
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void MergeSpans(std::vector<Span>& all, const std::vector<Span>& part) {
  const int32_t base = static_cast<int32_t>(all.size());
  for (Span s : part) {
    if (s.parent != kNoParent) {
      s.parent += base;
    }
    all.push_back(s);
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.begin_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].begin_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // Everything before `cursor` is already counted.
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, hi);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    ++t.count;
    t.self_ns += self[i];
  }
  return totals;
}

int64_t RootBusyNs(const std::vector<Span>& spans) {
  int64_t busy = 0;
  for (const Span& s : spans) {
    if (s.parent == kNoParent) {
      busy += s.duration_ns();
    }
  }
  return busy;
}

std::string SpansChromeJson(const std::vector<Span>& spans) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const size_t dot = name.find('.');
    out << "  {\"name\": \"" << name << "\", \"cat\": \"" << name.substr(0, dot)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.worker
        << ", \"ts\": " << static_cast<double>(s.begin_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.duration_ns()) / 1e3
        << ", \"args\": {\"item\": " << s.item << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

}  // namespace perfbench
