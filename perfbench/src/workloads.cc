#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "perfbench/src/bench_stats.h"
#include "src/harness/fleet_report.h"
#include "src/harness/sweep_report.h"

namespace perfbench {

namespace {

// Devices per fleet-ladder job: twenty per (tier x scheme) group.
constexpr uint64_t kFleetDevices = 200;

const std::vector<ice::ScenarioKind>& AllScenarios() {
  static const std::vector<ice::ScenarioKind> kinds = {
      ice::ScenarioKind::kVideoCall, ice::ScenarioKind::kShortVideo,
      ice::ScenarioKind::kScrolling, ice::ScenarioKind::kGame};
  return kinds;
}

// The sweep workloads' shared grid: {Pixel3, P20} x {lru_cfs, ice} x
// S-A..S-D at the default 240 s warmup + 30 s window.
ice::SweepAxes Fig9Axes() {
  ice::SweepAxes axes;
  axes.devices = {ice::Pixel3Profile(), ice::P20Profile()};
  axes.schemes = {"lru_cfs", "ice"};
  axes.scenarios = AllScenarios();
  axes.seeds = {0};  // Replaced per cell by SeedCells.
  return axes;
}

// One seed per (device, scenario): shared by both schemes (paired
// comparison) and every bg count (so prefix sharing still groups them),
// independent across devices and scenarios, so the background-app mix is
// not one common draw for the whole grid.
std::vector<ice::SweepCell> SeedCells(std::vector<ice::SweepCell> cells, uint64_t grid_seed) {
  for (ice::SweepCell& cell : cells) {
    const uint64_t device = cell.config.device.name == "Pixel3" ? 0 : 1;
    cell.config.seed = DeriveSeed(grid_seed, device * 4 + static_cast<uint64_t>(cell.scenario));
  }
  return cells;
}

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// The paper's Fig 9 ICE/LRU+CFS FPS gain at full pressure.
double PaperFig9Gain(const std::string& device) {
  return device == "Pixel3" ? 1.57 : 1.44;
}

bool FullPressure(const ice::SweepCell& cell) { return cell.bg_apps < 0; }

// Fleet: merged per-scheme histogram p50 of the chosen per-device metric.
double FleetSchemeP50(const JobResult& r, const std::string& scheme,
                      ice::MergeHistogram ice::FleetGroupStats::*field) {
  ice::MergeHistogram merged((r.fleet.groups.front().*field).options());
  for (const ice::FleetGroupStats& g : r.fleet.groups) {
    if (g.scheme == scheme) {
      merged.Merge(g.*field);
    }
  }
  return merged.count() == 0 ? 0.0 : merged.Percentile(0.5);
}

// Sweep: ICE/LRU FPS ratio of every full-pressure (device, scenario) pair,
// keyed by device name.
std::map<std::string, std::vector<double>> FullPressureGains(const Workload& w,
                                                             const JobResult& r) {
  std::map<std::string, double> lru;  // device|scenario -> fps
  std::map<std::string, std::vector<double>> gains;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < w.cells.size(); ++i) {
      const ice::SweepCell& c = w.cells[i];
      if (!FullPressure(c) || !r.outcomes[i].ok) {
        continue;
      }
      const std::string key =
          c.config.device.name + "|" + ice::ScenarioLabel(c.scenario);
      const double fps = r.outcomes[i].value.avg_fps;
      if (pass == 0 && c.config.scheme == "lru_cfs") {
        lru[key] = fps;
      } else if (pass == 1 && c.config.scheme == "ice" && lru.count(key) > 0 &&
                 lru[key] > 0.0) {
        gains[c.config.device.name].push_back(fps / lru[key]);
      }
    }
  }
  return gains;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"fleet-ladder", "sweep-fig9", "sweep-mglru-hotness"};
}

uint64_t DeriveSeed(uint64_t bench_seed, uint64_t stream) {
  return ice::FleetRunner::DeviceSeed(bench_seed, stream);
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "fleet-ladder") {
    w.kind = JobKind::kFleet;
    w.fleet.devices = kFleetDevices;
    w.fleet.jobs = kJobs;
    w.fleet.seed = DeriveSeed(seed, 1);
    w.fleet.schemes = {"lru_cfs", "ice"};
    w.fleet.sessions = 3;
    w.fleet.use_templates = true;
    for (const std::string& tier : ice::FleetTierNames()) {
      w.probe_devices.push_back(ice::FleetTierProfile(tier));
    }
  } else if (name == "sweep-fig9") {
    w.kind = JobKind::kSweep;
    ice::SweepAxes axes = Fig9Axes();
    axes.bg_counts = {2, -1};
    w.cells = SeedCells(axes.Cells(), DeriveSeed(seed, 2));
    w.expect_ice_freezes = true;
  } else if (name == "sweep-mglru-hotness") {
    w.kind = JobKind::kSweep;
    ice::SweepAxes axes = Fig9Axes();
    axes.bg_counts = {-1};
    axes.agings = {"gen_clock"};
    axes.swaps = {"hotness"};
    w.cells = SeedCells(axes.Cells(), DeriveSeed(seed, 3));
    w.expect_hot_rejects = true;
  } else {
    return false;
  }
  if (w.kind == JobKind::kSweep) {
    w.probe_devices = {ice::Pixel3Profile(), ice::P20Profile()};
  }
  *out = std::move(w);
  return true;
}

void FinishFleetResult(const Workload& w, JobResult& r) {
  r.attempted = 0;
  for (const ice::FleetGroupStats& g : r.fleet.groups) {
    r.attempted += g.devices + g.failures;
  }
  r.failed = r.fleet.devices_failed;
  r.report = ice::FleetReportJson("perfbench-" + w.name, r.fleet);
}

void FinishSweepResult(const Workload& w, JobResult& r) {
  r.attempted = r.outcomes.size();
  r.failed = static_cast<uint64_t>(std::count_if(
      r.outcomes.begin(), r.outcomes.end(),
      [](const ice::CellOutcome& o) { return !o.ok; }));
  r.report = ice::SweepReportJson("perfbench-" + w.name, kJobs, w.cells, r.outcomes);
}

JobResult RunJob(const Workload& w) {
  JobResult r;
  if (w.kind == JobKind::kFleet) {
    r.fleet = ice::FleetRunner(w.fleet).Run();
    FinishFleetResult(w, r);
  } else {
    r.outcomes = ice::SweepRunner(kJobs).Run(w.cells, /*share_prefix=*/true);
    FinishSweepResult(w, r);
  }
  return r;
}

std::vector<std::string> CheckJob(const Workload& w, const JobResult& r) {
  std::vector<std::string> errors;
  if (r.attempted != w.items()) {
    errors.push_back("accounted " + std::to_string(r.attempted) + " items, expected " +
                     std::to_string(w.items()));
  }
  if (w.kind == JobKind::kFleet) {
    for (const ice::FleetGroupStats& g : r.fleet.groups) {
      if (g.devices == 0) {
        errors.push_back("fleet group " + g.tier + "/" + g.scheme + " is empty");
      }
      if (g.failures > 0) {
        errors.push_back("fleet group " + g.tier + "/" + g.scheme + ": " + g.first_error);
      }
    }
    return errors;
  }
  if (r.outcomes.size() != w.cells.size()) {
    errors.push_back("sweep returned " + std::to_string(r.outcomes.size()) + " outcomes for " +
                     std::to_string(w.cells.size()) + " cells");
    return errors;
  }
  std::map<std::string, uint64_t> ok_per_group;
  std::map<std::string, std::pair<uint64_t, uint64_t>> ice_full_pressure;  // freezes, refaults
  uint64_t rejects_hot = 0;
  for (size_t i = 0; i < w.cells.size(); ++i) {
    const ice::SweepCell& c = w.cells[i];
    const ice::CellOutcome& o = r.outcomes[i];
    const std::string group = c.config.device.name + "/" + c.config.scheme;
    ok_per_group[group] += o.ok ? 1 : 0;
    if (!o.ok) {
      errors.push_back("cell " + std::to_string(i) + " failed: " + o.error);
      continue;
    }
    rejects_hot += o.value.swap_rejects_hot;
    if (FullPressure(c) && c.config.scheme == "ice") {
      auto& [freezes, refaults] = ice_full_pressure[c.config.device.name];
      freezes += o.value.freezes;
      refaults += o.value.refaults;
    }
  }
  // Per device, not per cell: a full-pressure cell whose background-app mix
  // happens to fit in memory sees no reclaim (and so no freezing) in its
  // window; ModelDetail counts those cells.
  for (const auto& [device, counts] : ice_full_pressure) {
    if (w.expect_ice_freezes && (counts.first == 0 || counts.second == 0)) {
      errors.push_back("full-pressure ice cells on " + device + " did not freeze and refault");
    }
  }
  for (const auto& [group, ok] : ok_per_group) {
    if (ok == 0) {
      errors.push_back("sweep group " + group + " has no completed cell");
    }
  }
  if (w.expect_hot_rejects && rejects_hot == 0) {
    errors.push_back("hotness swap never rejected a hot page");
  }
  return errors;
}

std::vector<std::string> ReplayCheck(const Workload& w, const JobResult& measured) {
  std::string expected;
  std::string replayed;
  if (w.kind == JobKind::kFleet) {
    expected = ReportDigest(measured.report);
    replayed = ReportDigest(RunJob(w).report);
  } else {
    Workload head = w;
    head.cells.resize(std::min<size_t>(2, w.cells.size()));
    JobResult from_measured;
    from_measured.outcomes.assign(measured.outcomes.begin(),
                                  measured.outcomes.begin() + head.cells.size());
    FinishSweepResult(head, from_measured);
    expected = ReportDigest(from_measured.report);
    replayed = ReportDigest(RunJob(head).report);
  }
  if (replayed == expected) {
    return {};
  }
  return {"replay digest " + replayed + " != measured " + expected};
}

NamedValues ModelMetrics(const Workload& w, const JobResult& r) {
  NamedValues out;
  if (w.kind == JobKind::kFleet) {
    for (const char* scheme : {"lru_cfs", "ice"}) {
      out.emplace_back(std::string("model.fps_p50.") + scheme,
                       FleetSchemeP50(r, scheme, &ice::FleetGroupStats::fps));
    }
    for (const char* scheme : {"lru_cfs", "ice"}) {
      out.emplace_back(std::string("model.refaults_p50.") + scheme,
                       FleetSchemeP50(r, scheme, &ice::FleetGroupStats::refaults));
    }
    std::map<std::string, double> lru;
    std::vector<double> gains;
    for (const ice::FleetGroupStats& g : r.fleet.groups) {
      const double p50 = g.fps.count() == 0 ? 0.0 : g.fps.Percentile(0.5);
      if (g.scheme == "lru_cfs") {
        lru[g.tier] = p50;
      } else if (g.scheme == "ice" && lru[g.tier] > 0.0) {
        gains.push_back(p50 / lru[g.tier]);
      }
    }
    out.emplace_back("model.ice_fps_gain", Mean(gains));
    return out;
  }
  std::map<std::string, std::vector<double>> fps;
  std::map<std::string, std::vector<double>> refaults;
  for (size_t i = 0; i < w.cells.size(); ++i) {
    if (r.outcomes[i].ok) {
      fps[w.cells[i].config.scheme].push_back(r.outcomes[i].value.avg_fps);
      refaults[w.cells[i].config.scheme].push_back(
          static_cast<double>(r.outcomes[i].value.refaults));
    }
  }
  for (const char* scheme : {"lru_cfs", "ice"}) {
    out.emplace_back(std::string("model.fps_p50.") + scheme, Median(fps[scheme]));
  }
  for (const char* scheme : {"lru_cfs", "ice"}) {
    out.emplace_back(std::string("model.refaults_p50.") + scheme, Median(refaults[scheme]));
  }
  std::vector<double> all;
  for (const auto& [device, gains] : FullPressureGains(w, r)) {
    all.insert(all.end(), gains.begin(), gains.end());
  }
  out.emplace_back("model.ice_fps_gain", Mean(all));
  return out;
}

NamedValues ModelDetail(const Workload& w, const JobResult& r) {
  NamedValues out;
  if (w.kind == JobKind::kFleet) {
    for (const ice::FleetGroupStats& g : r.fleet.groups) {
      const std::string suffix = g.tier + "." + g.scheme;
      out.emplace_back("model.fps_p50." + suffix,
                       g.fps.count() == 0 ? 0.0 : g.fps.Percentile(0.5));
      out.emplace_back("model.refaults_p50." + suffix,
                       g.refaults.count() == 0 ? 0.0 : g.refaults.Percentile(0.5));
    }
    return out;
  }
  for (const auto& [device, gains] : FullPressureGains(w, r)) {
    const double gain = Mean(gains);
    out.emplace_back("model.fig9_gain." + Lower(device), gain);
    out.emplace_back("model.fig9_gain_err." + Lower(device),
                     gain / PaperFig9Gain(device) - 1.0);
  }
  std::map<std::string, double> unpressured;
  for (size_t i = 0; i < w.cells.size(); ++i) {
    const ice::SweepCell& c = w.cells[i];
    if (FullPressure(c) && c.config.scheme == "ice" && r.outcomes[i].ok) {
      unpressured[Lower(c.config.device.name)] += r.outcomes[i].value.reclaims == 0 ? 1 : 0;
    }
  }
  for (const auto& [device, cells] : unpressured) {
    out.emplace_back("model.full_pressure_ice_cells_without_reclaim." + device, cells);
  }
  return out;
}

}  // namespace perfbench
