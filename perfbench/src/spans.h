// In-memory span recording for the traced benchmark run.
//
// Each worker thread owns a SpanRecorder; a span is opened around one call
// into a layer (name = "<layer>.<phase>") and closed when the call returns.
// The innermost open span is the parent of the next one, so spans of one
// item form a tree rooted at the item's span. Nothing is written while the
// run is timed: the recorders are merged and serialized afterwards.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int32_t kNoParent = -1;

struct Span {
  const char* name = "";  // Static string; layer-qualified.
  int64_t begin_ns = 0;   // Steady clock, relative to the recorder's epoch.
  int64_t end_ns = 0;
  int32_t parent = kNoParent;  // Index into the same span vector.
  uint32_t worker = 0;
  uint64_t item = 0;  // The device or cell index the span belongs to.

  int64_t duration_ns() const { return end_ns - begin_ns; }
};

// Monotonic nanoseconds since a process-wide epoch.
int64_t NowNs();

class SpanRecorder {
 public:
  explicit SpanRecorder(uint32_t worker) : worker_(worker) { spans_.reserve(4096); }

  // Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name, uint64_t item);
  // Closes the innermost open span, which must be `id`.
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t worker_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII wrapper: Begin on construction, End on scope exit (exceptions too).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t item)
      : recorder_(recorder), id_(recorder.Begin(name, item)) {}
  ~ScopedSpan() { recorder_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t id_;
};

// Appends `part` to `all`, rebasing parent indices.
void MergeSpans(std::vector<Span>& all, const std::vector<Span>& part);

// Self time of every span: its duration minus the part of its interval
// covered by the union of its direct children's intervals (clipped to the
// span). Children on one thread never overlap, but the union keeps the
// result right if they do.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

struct NameTotals {
  uint64_t count = 0;
  int64_t self_ns = 0;
};

// Per-name span count and self time.
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

// Sum of the durations of root spans (parent == kNoParent): the time
// workers spent on items, the "busy" side of executor idle.
int64_t RootBusyNs(const std::vector<Span>& spans);

// Chrome trace_event JSON ("X" complete events, one track per worker), so
// the spans open in Perfetto next to the simulator's own traces.
std::string SpansChromeJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
