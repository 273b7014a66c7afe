#include "src/workload/bg_activity.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/harness/experiment.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

TEST(BgActivity, AttachesTasksPerCatalogParams) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");  // main_thread_active, gc, service.
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  App* app = exp.am().FindApp(uid);
  size_t tasks = 0;
  for (Process* p : app->processes()) {
    tasks += p->tasks().size();
  }
  // ui + render + gc + main-bg + svc-worker.
  EXPECT_EQ(tasks, 5u);
}

TEST(BgActivity, InactiveMainThreadAppsHaveFewerTasks) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Netflix");  // main_thread_active = false.
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  App* app = exp.am().FindApp(uid);
  size_t tasks = 0;
  for (Process* p : app->processes()) {
    tasks += p->tasks().size();
  }
  // ui + render + gc + svc-worker (no main-bg).
  EXPECT_EQ(tasks, 4u);
}

TEST(BgActivity, DisableGcRemovesGcTask) {
  ExperimentConfig config;
  config.seed = 3;
  config.disable_gc = true;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  App* app = exp.am().FindApp(uid);
  bool has_gc = false;
  for (Process* p : app->processes()) {
    for (Task* t : p->tasks()) {
      if (t->name().find("HeapTaskDaemon") != std::string::npos) {
        has_gc = true;
      }
    }
  }
  EXPECT_FALSE(has_gc);
}

TEST(BgActivity, BackgroundAppKeepsTouchingMemory) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  exp.am().MoveForegroundToBackground();
  uint64_t faults_before = exp.engine().stats().Get(stat::kPageFaults);
  exp.engine().RunFor(Sec(30));
  // GC sweeps + sync touches cause activity (first-touch growth at minimum).
  EXPECT_GT(exp.engine().stats().Get(stat::kPageFaults), faults_before);
  App* app = exp.am().FindApp(uid);
  EXPECT_GT(app->cpu_time_us, 0u);
}

TEST(BgActivity, FrozenAppStopsTouching) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  exp.am().MoveForegroundToBackground();
  exp.engine().RunFor(Sec(5));
  App* app = exp.am().FindApp(uid);
  exp.freezer().FreezeApp(*app);
  uint64_t cpu_before = app->cpu_time_us;
  exp.engine().RunFor(Sec(30));
  EXPECT_EQ(app->cpu_time_us, cpu_before);
}

TEST(PeriodicTouchBehavior, TouchesSampleBothRegions) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  AddressSpace* space = exp.am().main_space(uid);
  exp.am().MoveForegroundToBackground();
  exp.engine().RunFor(Sec(40));
  // The sync task touches native + file; both regions must show residency
  // beyond the cold-launch prefix is not required, but java (GC) and
  // native+file (sync) must all have been accessed.
  EXPECT_GT(space->resident(), 0u);
}

// Drives a PeriodicTouchBehavior one touch at a time and records which
// (space, vpn) each touch hit. Each Run gets a 1 us budget, so every touch
// (hit or fault, both >= 1 us) ends the call. A first touch leaves its page
// present but unreferenced and a re-touch sets the reference bit, so with the
// bit cleared after each call the touched page is the one that is newly
// present or newly referenced.
class TouchRecorder {
 public:
  TouchRecorder()
      : storage_(engine_, Ufs21Profile()),
        mm_(engine_, Config(), &storage_),
        sched_(engine_, mm_, 1),
        space_a_(100, 10000, "a", Layout(300, 500)),
        space_b_(101, 10001, "b", Layout(0, 700)) {
    mm_.Register(space_a_);
    mm_.Register(space_b_);
    seen_[0].assign(space_a_.total_pages(), false);
    seen_[1].assign(space_b_.total_pages(), false);
    task_ = sched_.CreateTask("touch-probe", nullptr, 0,
                              std::make_unique<WorkQueueBehavior>());
  }

  AddressSpace& a() { return space_a_; }
  AddressSpace& b() { return space_b_; }

  // FNV-1a 64 over the first `samples` touches, each as (space tag, vpn).
  uint64_t Digest(PeriodicTouchBehavior& behavior, int samples) {
    uint64_t h = 0xcbf29ce484222325ULL;
    int recorded = 0;
    while (recorded < samples) {
      TaskContext ctx(*task_, sched_, /*budget=*/1);
      behavior.Run(ctx);
      if (task_->state() != TaskState::kRunnable) {
        task_->Wake();
      }
      int found = 0;
      for (int tag = 0; tag < 2; ++tag) {
        AddressSpace& space = tag == 0 ? space_a_ : space_b_;
        std::vector<bool>& seen = seen_[tag];
        for (PageInfo& p : space.pages()) {
          if (p.state() != PageState::kPresent || (seen[p.vpn] && !p.referenced())) {
            continue;
          }
          Mix(h, static_cast<uint32_t>(tag));
          Mix(h, p.vpn);
          seen[p.vpn] = true;
          p.set_referenced(false);
          ++found;
        }
      }
      EXPECT_LE(found, 1) << "a Run made more than one touch";
      recorded += found;
    }
    return h;
  }

 private:
  static MemConfig Config() {
    MemConfig config;
    config.total_pages = 4000;
    config.os_reserved_pages = 200;
    config.wm = Watermarks::FromHigh(120);
    config.reclaim_contention_mean = 0;
    return config;
  }
  static AddressSpaceLayout Layout(PageCount java, PageCount file) {
    AddressSpaceLayout layout;
    layout.java_pages = java;
    layout.native_pages = 200;
    layout.file_pages = file;
    return layout;
  }
  static void Mix(uint64_t& h, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
  Scheduler sched_;
  AddressSpace space_a_;
  AddressSpace space_b_;
  std::vector<bool> seen_[2];
  Task* task_ = nullptr;
};

// Golden pin of the two-region sampler (region pick + per-region Zipf).
TEST(PeriodicTouchBehavior, TwoRegionSampleStreamIsPinned) {
  TouchRecorder rec;
  PeriodicTouchBehavior::Params params;
  params.regions[0] = {&rec.a(), 40, 640, 0.55};
  params.regions[1] = {&rec.b(), 200, 900, 0.45};
  params.region_count = 2;
  params.zipf_s = 0.05;
  params.touches_per_burst = 150;
  params.cpu_per_burst = 1;
  PeriodicTouchBehavior behavior(params);
  EXPECT_EQ(rec.Digest(behavior, 600), 0xe72aa19713211912ULL);
}

// Golden pin of the one-region sampler (no region draw) at a skewed s.
TEST(PeriodicTouchBehavior, OneRegionSampleStreamIsPinned) {
  TouchRecorder rec;
  PeriodicTouchBehavior::Params params;
  params.regions[0] = {&rec.b(), 0, 900, 1.0};
  params.region_count = 1;
  params.zipf_s = 0.7;
  params.touches_per_burst = 100;
  params.cpu_per_burst = 1;
  PeriodicTouchBehavior behavior(params);
  EXPECT_EQ(rec.Digest(behavior, 600), 0xebf17c819837073eULL);
}

}  // namespace
}  // namespace ice
