// Unit tests for the benchmark's own bookkeeping: sample summaries, span
// self time, report digests and failure accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/src/bench_stats.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

TEST(Summarize, MedianUsesMidpointForEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Summarize, NoTailBelowTwentySamples) {
  const Summary s = Summarize(Iota(19));
  EXPECT_EQ(s.count, 19u);
  EXPECT_DOUBLE_EQ(s.median, 10.0);
  EXPECT_EQ(s.tail_quantile, 0.0);
}

TEST(Summarize, PicksHighestPercentileWithTenBeyond) {
  // n = 20: only p50 leaves ten samples above its rank.
  Summary s = Summarize(Iota(20));
  EXPECT_DOUBLE_EQ(s.tail_quantile, 0.5);
  EXPECT_DOUBLE_EQ(s.tail, 10.0);
  // n = 100: p90 is rank 90, ten beyond; p95 would leave five.
  s = Summarize(Iota(100));
  EXPECT_DOUBLE_EQ(s.tail_quantile, 0.9);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
  // n = 99: p90 is rank ceil(89.1) = 90, nine beyond, so p75 (rank 75).
  s = Summarize(Iota(99));
  EXPECT_DOUBLE_EQ(s.tail_quantile, 0.75);
  EXPECT_DOUBLE_EQ(s.tail, 75.0);
  // n = 1000: p99 is rank 990, ten beyond.
  s = Summarize(Iota(1000));
  EXPECT_DOUBLE_EQ(s.tail_quantile, 0.99);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_EQ(s.count, 1000u);
}

TEST(Summarize, IgnoresInputOrder) {
  std::vector<double> v = Iota(100);
  std::reverse(v.begin(), v.end());
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
}

Span MakeSpan(int64_t begin, int64_t end, int32_t parent) {
  Span s;
  s.name = "x";
  s.begin_ns = begin;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsCoveredChildren) {
  // root [0,100) with children [10,30) and [50,60); grandchild [12,20).
  std::vector<Span> spans = {MakeSpan(0, 100, kNoParent), MakeSpan(10, 30, 0),
                             MakeSpan(50, 60, 0), MakeSpan(12, 20, 1)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 70);  // Grandchildren are the child's business.
  EXPECT_EQ(self[1], 12);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 8);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  std::vector<Span> spans = {MakeSpan(0, 100, kNoParent), MakeSpan(10, 40, 0),
                             MakeSpan(30, 50, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 60);  // Union [10,50) covers 40.
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  std::vector<Span> spans = {MakeSpan(10, 20, kNoParent), MakeSpan(5, 15, 0),
                             MakeSpan(18, 30, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 3);  // Covered: [10,15) and [18,20).
}

TEST(SelfTime, TotalsByNameAndRootBusy) {
  std::vector<Span> spans = {MakeSpan(0, 100, kNoParent), MakeSpan(10, 30, 0),
                             MakeSpan(200, 250, kNoParent)};
  spans[1].name = "child";
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("x").count, 2u);
  EXPECT_EQ(totals.at("x").self_ns, 130);
  EXPECT_EQ(totals.at("child").self_ns, 20);
  EXPECT_EQ(RootBusyNs(spans), 150);
}

TEST(SelfTime, RecorderNestsAndMergeRebasesParents) {
  SpanRecorder a(0);
  {
    ScopedSpan outer(a, "outer", 7);
    ScopedSpan inner(a, "inner", 7);
  }
  ASSERT_EQ(a.spans().size(), 2u);
  EXPECT_EQ(a.spans()[0].parent, kNoParent);
  EXPECT_EQ(a.spans()[1].parent, 0);
  EXPECT_LE(a.spans()[0].begin_ns, a.spans()[1].begin_ns);
  EXPECT_GE(a.spans()[0].end_ns, a.spans()[1].end_ns);
  std::vector<Span> all = a.spans();
  MergeSpans(all, a.spans());
  EXPECT_EQ(all[3].parent, 2);
  EXPECT_EQ(all[2].parent, kNoParent);
}

TEST(Digest, IgnoresNameAndJobs) {
  const std::string a =
      "{\n  \"sweep\": \"first\",\n  \"jobs\": 1,\n  \"cells\": [\n    {\"fps\": 1.5}\n  ]\n}\n";
  const std::string b =
      "{\n  \"sweep\": \"second\",\n  \"jobs\": 8,\n  \"cells\": [\n    {\"fps\": 1.5}\n  ]\n}\n";
  EXPECT_EQ(NormalizeReport(a), "{\n  \"cells\": [\n    {\"fps\": 1.5}\n  ]\n}\n");
  EXPECT_EQ(ReportDigest(a), ReportDigest(b));
  const std::string fleet_a = "{\n  \"fleet\": \"x\",\n  \"devices\": 4\n}\n";
  const std::string fleet_b = "{\n  \"fleet\": \"y\",\n  \"devices\": 4\n}\n";
  EXPECT_EQ(ReportDigest(fleet_a), ReportDigest(fleet_b));
}

TEST(Digest, KeepsResultsAndFieldsThatOnlyMentionJobs) {
  const std::string a = "{\n  \"jobs\": 1,\n  \"cells\": [{\"fps\": 1.5}]\n}\n";
  const std::string b = "{\n  \"jobs\": 1,\n  \"cells\": [{\"fps\": 1.25}]\n}\n";
  EXPECT_NE(ReportDigest(a), ReportDigest(b));
  // Only a line whose first key is "jobs" is dropped, not any mention of it.
  const std::string c = "{\"x\": 1, \"jobs\": 2}\n";
  EXPECT_EQ(NormalizeReport(c), c);
}

TEST(Digest, Fnv1aKnownValues) {
  EXPECT_EQ(Fnv1aHex(""), "cbf29ce484222325");
  EXPECT_EQ(Fnv1aHex("a"), "af63dc4c8601ec8c");
}

TEST(Accounting, FailedFraction) {
  Accounting acct;
  EXPECT_EQ(acct.failed_frac(), 0.0);
  acct.Add(100, 0);
  acct.Add(100, 5);
  EXPECT_EQ(acct.attempted, 200u);
  EXPECT_EQ(acct.failed, 5u);
  EXPECT_DOUBLE_EQ(acct.failed_frac(), 0.025);
}

TEST(Accounting, FleetDevicesPlusFailuresMustCoverEveryItem) {
  Workload w;
  ASSERT_TRUE(MakeWorkload("fleet-ladder", 1, &w));
  JobResult r;
  r.fleet.config = w.fleet;
  const std::vector<std::string> tiers = ice::FleetTierNames();
  const std::vector<std::string> schemes = {"lru_cfs", "ice"};
  r.fleet.groups.resize(tiers.size() * schemes.size());
  for (size_t k = 0; k < r.fleet.groups.size(); ++k) {
    r.fleet.groups[k].tier = tiers[k / schemes.size()];
    r.fleet.groups[k].scheme = schemes[k % schemes.size()];
    r.fleet.groups[k].devices = w.items() / r.fleet.groups.size();
  }
  FinishFleetResult(w, r);
  EXPECT_EQ(r.attempted, w.items());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(CheckJob(w, r).empty());

  // A failed device still counts as attempted, and fails the check.
  r.fleet.groups[3].devices -= 1;
  r.fleet.groups[3].failures = 1;
  r.fleet.devices_failed = 1;
  FinishFleetResult(w, r);
  EXPECT_EQ(r.attempted, w.items());
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(CheckJob(w, r).size(), 1u);

  // A group that ran nothing breaks both the total and the non-empty rule.
  r.fleet.groups[4].devices = 0;
  FinishFleetResult(w, r);
  EXPECT_EQ(r.attempted, w.items() - w.items() / 10);
  EXPECT_EQ(CheckJob(w, r).size(), 3u);
}

TEST(Accounting, SweepFailedCellsAreCounted) {
  Workload w;
  ASSERT_TRUE(MakeWorkload("sweep-mglru-hotness", 1, &w));
  JobResult r;
  r.outcomes.resize(w.cells.size());
  for (ice::CellOutcome& o : r.outcomes) {
    o.ok = true;
    o.value.swap_rejects_hot = 1;
  }
  r.outcomes[2].ok = false;
  r.outcomes[2].error = "boom";
  FinishSweepResult(w, r);
  EXPECT_EQ(r.attempted, w.cells.size());
  EXPECT_EQ(r.failed, 1u);
  const std::vector<std::string> errors = CheckJob(w, r);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("boom"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
