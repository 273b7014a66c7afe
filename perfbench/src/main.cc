// perfbench: the repository benchmark's measuring program (run.py builds it
// and supplies the set-up samples).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-samples A,B,...] [--out-dir DIR]
//   perfbench --workload NAME --seed N --setup-probe
//
// --trace 0 repeats the workload's whole job until S seconds have elapsed
// (a run of one job then replays the job's first items to check
// determinism) and reports the end-to-end metrics. --trace 1 runs
// the job untraced, re-drives the same items traced, runs the job untraced
// again, and reports the per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when an output check failed. --setup-probe prints one set-up sample
// (setup_probe.h) and exits when the job's first item starts.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/bench_stats.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/redrive.h"
#include "perfbench/src/setup_probe.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_probe = false;
  std::vector<double> setup_samples;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, const Accounting& acct, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << acct.attempted
      << ", \"failed\": " << acct.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

void PrintSummary(const char* label, const Summary& s, const char* unit) {
  if (s.tail_quantile > 0.0) {
    std::printf("  %-22s median %12.4f %-8s p%-5g %12.4f  (n=%zu)\n", label, s.median, unit,
                s.tail_quantile * 100.0, s.tail, s.count);
  } else {
    std::printf("  %-22s median %12.4f %-8s tail n/a (n=%zu < %zu)\n", label, s.median, unit,
                s.count, 2 * kMinTail);
  }
}

void PrintModel(const Workload& w, const JobResult& r) {
  for (const auto& [name, value] : ModelMetrics(w, r)) {
    std::printf("  %-40s %.6g\n", name.c_str(), value);
  }
  for (const auto& [name, value] : ModelDetail(w, r)) {
    std::printf("  %-40s %.6g\n", name.c_str(), value);
  }
}

void ReportErrors(const std::vector<std::string>& errors, const char* where) {
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: check failed (%s): %s\n", where, e.c_str());
  }
}

// One set-up sample: main() (at `main_ns`) to the start of the job's first
// item inside the real harness call; the probe ends the process there.
int SetupProbe(const Workload& w, int64_t main_ns) {
  ArmSetupProbe(main_ns);
  RunJob(w);
  std::fprintf(stderr, "perfbench: the job finished without constructing an Experiment\n");
  return 1;
}

int RunEndToEnd(const Options& opt, const Workload& w) {
  std::printf("perfbench %s: seed %llu, %zu items per job, %d workers, tracing off\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed), w.items(), kJobs);
  Accounting acct;
  std::vector<double> rates;
  std::vector<double> cpu_per_item;
  std::string first_digest;
  JobResult first;
  bool correct = true;
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(opt.seconds * 1e9);
  for (int job = 0; job < 1 || NowNs() - start < budget; ++job) {
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    JobResult r = RunJob(w);
    const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    const double cpu_ms = static_cast<double>(ProcessCpuNs() - cpu0) / 1e6;
    acct.Add(r.attempted, r.failed);
    const std::vector<std::string> errors = CheckJob(w, r);
    ReportErrors(errors, "job output");
    correct = correct && errors.empty();
    const std::string digest = ReportDigest(r.report);
    std::printf("  job %2d: %7.3f s wall, %9.1f ms cpu, peak rss %.1f MiB, digest %s\n", job,
                wall_s, cpu_ms, PeakRssMib(), digest.c_str());
    if (job == 0) {
      first_digest = digest;
      first = std::move(r);
    } else if (digest != first_digest) {
      ReportErrors({"job " + std::to_string(job) + " digest " + digest + " != " + first_digest},
                   "determinism");
      correct = false;
    }
    const double items = static_cast<double>(w.items());
    rates.push_back(items / wall_s);
    cpu_per_item.push_back(cpu_ms / items);
    // Hand freed heap back to the kernel, so every job starts from a heap
    // like the first job's rather than from the previous job's leftovers.
    malloc_trim(0);
  }
  if (rates.size() == 1) {
    // Nothing repeated inside the measured window: repeat the start of the
    // job, unmeasured, so determinism is still checked.
    const std::vector<std::string> errors = ReplayCheck(w, first);
    ReportErrors(errors, "determinism");
    correct = correct && errors.empty();
    std::printf("  replay of the job's first items: %s\n",
                errors.empty() ? "same digest" : "DIFFERS");
  }
  const Summary rate = Summarize(rates);
  const Summary cpu = Summarize(cpu_per_item);
  const Summary setup = Summarize(opt.setup_samples);
  PrintSummary("items_per_s", rate, "1/s");
  PrintSummary("cpu_ms_per_item", cpu, "ms");
  PrintSummary("setup_s", setup, "s");
  std::printf("  %-22s %.1f MiB\n", "peak_rss_mib", PeakRssMib());
  std::printf("  %-22s %.6g (%llu of %llu)\n", "failed_frac", acct.failed_frac(),
              static_cast<unsigned long long>(acct.failed),
              static_cast<unsigned long long>(acct.attempted));
  std::printf("  digest %s over %zu job(s); output checks %s\n", first_digest.c_str(),
              rates.size(), correct ? "passed" : "FAILED");
  PrintModel(w, first);
  PrintResult(correct, acct,
              {{"items_per_s", rate.median, "1/s"},
               {"cpu_ms_per_item", cpu.median, "ms"},
               {"setup_s", setup.median, "s"}});
  return correct ? 0 : 1;
}

void WriteFile(const std::string& dir, const std::string& name, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream file(dir + "/" + name, std::ios::trunc);
  file << text;
  if (!file) {
    std::fprintf(stderr, "perfbench: cannot write %s/%s\n", dir.c_str(), name.c_str());
  }
}

int RunTraced(const Options& opt, const Workload& w) {
  std::printf("perfbench %s: seed %llu, %zu items, %d workers, traced re-drive\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed), w.items(), kJobs);
  Accounting acct;
  bool correct = true;
  // Untraced jobs bracket the traced one. The overhead and the executor's
  // idle share are taken from the second: the first job of a process also
  // pays the heap's first touch.
  int64_t untraced_cpu_ns = 0;
  auto untraced_job = [&](JobResult* out) {
    malloc_trim(0);
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    *out = RunJob(w);
    const int64_t ns = NowNs() - t0;
    untraced_cpu_ns = ProcessCpuNs() - cpu0;
    acct.Add(out->attempted, out->failed);
    const std::vector<std::string> errors = CheckJob(w, *out);
    ReportErrors(errors, "untraced output");
    correct = correct && errors.empty();
    return ns;
  };
  JobResult untraced;
  JobResult untraced_again;
  const int64_t before_ns = untraced_job(&untraced);
  malloc_trim(0);
  TracedRun traced = Redrive(w);
  acct.Add(traced.job.attempted, traced.job.failed);
  const std::vector<std::string> errors = CheckJob(w, traced.job);
  ReportErrors(errors, "traced output");
  correct = correct && errors.empty();
  const int64_t after_ns = untraced_job(&untraced_again);

  const std::string digest_u = ReportDigest(untraced.report);
  const std::string digest_t = ReportDigest(traced.job.report);
  const std::string digest_again = ReportDigest(untraced_again.report);
  if (digest_t != digest_u || digest_again != digest_u) {
    ReportErrors({"digests differ: untraced " + digest_u + ", traced " + digest_t +
                  ", untraced again " + digest_again},
                 "re-drive");
    correct = false;
  }
  std::printf("  untraced %.3f s, traced %.3f s, untraced %.3f s; digest %s: %s\n",
              static_cast<double>(before_ns) / 1e9, static_cast<double>(traced.wall_ns) / 1e9,
              static_cast<double>(after_ns) / 1e9, digest_u.c_str(),
              correct ? "all match" : "MISMATCH");

  const double items = static_cast<double>(w.items());
  const std::map<std::string, NameTotals> totals = TotalsByName(traced.spans);
  auto self_ms = [&](std::initializer_list<const char*> names) {
    int64_t ns = 0;
    for (const char* n : names) {
      auto it = totals.find(n);
      ns += it == totals.end() ? 0 : it->second.self_ns;
    }
    return static_cast<double>(ns) / 1e6 / items;
  };
  const int64_t busy_ns = RootBusyNs(traced.spans);
  const double busy_ms = static_cast<double>(busy_ns) / 1e6 / items;
  // The harness executor's idle share in the untraced job: process CPU time
  // (the calling thread only waits) against what the workers could use.
  const double idle_frac =
      1.0 - static_cast<double>(untraced_cpu_ns) /
                (static_cast<double>(traced.workers) * static_cast<double>(after_ns));

  // Per-item host time: every root span charged to the item (its device or
  // cell, plus the template or prefix donor it triggered or was computed by).
  std::map<uint64_t, double> per_item_ms;
  for (const Span& s : traced.spans) {
    if (s.parent == kNoParent) {
      per_item_ms[s.item] += static_cast<double>(s.duration_ns()) / 1e6;
    }
  }
  std::vector<double> item_ms;
  for (const auto& [item, ms] : per_item_ms) {
    item_ms.push_back(ms);
  }
  PrintSummary("item host time", Summarize(item_ms), "ms");
  std::printf("  per-item host time by phase (self time, ms/item; busy %.3f ms/item):\n",
              busy_ms);
  for (const auto& [name, t] : totals) {
    std::printf("    %-22s %10.4f  %5.1f%%  (%llu spans)\n", name.c_str(),
                static_cast<double>(t.self_ns) / 1e6 / items,
                busy_ns > 0 ? 100.0 * static_cast<double>(t.self_ns) / static_cast<double>(busy_ns)
                            : 0.0,
                static_cast<unsigned long long>(t.count));
  }
  const double remainder_ms = self_ms({"harness.device", "harness.cell", "harness.donor",
                                       "harness.template", "harness.fold",
                                       "harness.cold_device"});
  std::printf("  remainder (item glue outside named phases): %.4f ms/item; executor idle %.4f\n",
              remainder_ms, idle_frac);

  const SimWork& work = traced.work;
  const double sim_s = static_cast<double>(work.sim_us) / 1e6;
  const double reclaimed = static_cast<double>(work.counter("mem.pages_reclaimed"));
  const double overhead =
      static_cast<double>(traced.wall_ns) / static_cast<double>(after_ns) - 1.0;
  std::vector<Metric> metrics = {
      {"harness.boot_ms", self_ms({"harness.boot"}), "ms/item"},
      {"harness.settle_ms", self_ms({"harness.settle"}), "ms/item"},
      {"harness.settle_ticks", static_cast<double>(work.settle_ticks), "count"},
      {"harness.cache_bg_ms", self_ms({"harness.cache_bg"}), "ms/item"},
      {"harness.scenario_ms", self_ms({"harness.scenario"}), "ms/item"},
      {"harness.teardown_ms", self_ms({"harness.teardown"}), "ms/item"},
      {"harness.remainder_ms", remainder_ms, "ms/item"},
      {"harness.item_busy_ms", busy_ms, "ms/item"},
      {"harness.executor_idle_frac", idle_frac, "frac"},
      {"harness.peak_rss_mib", PeakRssMib(), "MiB"},
      {"snapshot.save_ms", self_ms({"snapshot.save"}), "ms/item"},
      {"snapshot.restore_ms", self_ms({"snapshot.restore"}), "ms/item"},
      {"snapshot.restores", static_cast<double>(work.restores), "count"},
      {"snapshot.bytes", static_cast<double>(work.snapshot_bytes), "bytes"},
      {"workload.trace_ms", self_ms({"workload.trace"}), "ms/item"},
      {"android.frames", static_cast<double>(work.frames), "count"},
      {"base.zipf_ns", ZipfNsPerDraw(opt.seed), "ns"},
      {"mem.refault_per_reclaim",
       reclaimed > 0 ? static_cast<double>(work.counter("mem.refaults")) / reclaimed : 0.0,
       "ratio"},
      {"mem.arena_cycle_us", ArenaCycleUs(w.probe_devices), "us"},
      {"mem.arena_bytes_peak", static_cast<double>(traced.arena_bytes_peak), "bytes"},
      {"sim.sim_s", sim_s, "s"},
      {"sim.ticks", static_cast<double>(work.ticks), "count"},
      {"sim.ticks_skipped", static_cast<double>(work.ticks_skipped), "count"},
      {"sim.skip_frac",
       work.ticks > 0 ? static_cast<double>(work.ticks_skipped) / static_cast<double>(work.ticks)
                      : 0.0,
       "frac"},
      {"sim.host_us_per_sim_s", sim_s > 0 ? static_cast<double>(busy_ns) / 1e3 / sim_s : 0.0,
       "us/s"},
      {"trace_overhead_frac", overhead, "frac"},
  };
  for (const char* name : kWorkCounters) {
    const bool bytes = std::strcmp(name, "io.read_bytes") == 0;
    metrics.push_back({name, static_cast<double>(work.counter(name)), bytes ? "bytes" : "count"});
  }
  for (const auto& [name, value] : ModelMetrics(w, untraced)) {
    metrics.push_back({name, value, name.find("gain") != std::string::npos ? "ratio"
                                    : name.find("fps") != std::string::npos ? "fps"
                                                                            : "count"});
  }
  PrintModel(w, untraced);
  std::printf("  trace_overhead_frac %.4f (traced wall / second untraced wall - 1)\n", overhead);

  // Sidecars, written after everything is timed: the spans as a Chrome
  // trace and the per-layer metrics with the workload-specific model values.
  const std::string stem = w.name + "-seed" + std::to_string(opt.seed);
  WriteFile(opt.out_dir, "spans-" + stem + ".json", SpansChromeJson(traced.spans));
  std::ostringstream layers;
  layers << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    layers << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": " << Num(metrics[i].value);
  }
  for (const auto& [name, value] : ModelDetail(w, untraced)) {
    layers << ", \"" << name << "\": " << Num(value);
  }
  layers << "}}\n";
  WriteFile(opt.out_dir, "layers-" + stem + ".json", layers.str());

  PrintResult(correct, acct, metrics);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--setup-probe") {
      opt->setup_probe = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      opt->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (arg == "--out-dir") {
      opt->out_dir = v;
    } else if (arg == "--setup-samples") {
      std::stringstream list(v);
      for (std::string item; std::getline(list, item, ',');) {
        opt->setup_samples.push_back(std::strtod(item.c_str(), nullptr));
      }
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", arg.c_str(), v);
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t main_ns = NowNs();
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  Workload w;
  if (!MakeWorkload(opt.workload, opt.seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (opt.setup_probe) {
    return SetupProbe(w, main_ns);
  }
  if (opt.trace != 0 && opt.trace != 1) {
    std::fprintf(stderr, "perfbench: --trace takes 0 or 1\n");
    return 2;
  }
  if (opt.trace == 0 && opt.setup_samples.empty()) {
    std::fprintf(stderr, "perfbench: --trace 0 needs --setup-samples (run.py supplies them)\n");
    return 2;
  }
  return opt.trace == 1 ? RunTraced(opt, w) : RunEndToEnd(opt, w);
}
