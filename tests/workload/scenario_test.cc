#include "src/workload/scenario.h"

#include <gtest/gtest.h>

#include <iterator>

#include "src/harness/experiment.h"

namespace ice {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  ScenarioTest() {
    ExperimentConfig config;
    config.seed = 3;
    exp_ = std::make_unique<Experiment>(config);
  }

  std::unique_ptr<Experiment> exp_;
};

TEST_F(ScenarioTest, NamesAndLabels) {
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kVideoCall), "S-A");
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kShortVideo), "S-B");
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kScrolling), "S-C");
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kGame), "S-D");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kVideoCall), "WhatsApp");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kShortVideo), "TikTok");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kScrolling), "Facebook");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kGame), "PUBGMobile");
}

TEST_F(ScenarioTest, ProducesFramesWithWork) {
  Uid uid = exp_->UidOf("TikTok");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kShortVideo, Rng(7));
  auto frame = scenario.NextFrame(exp_->engine().now());
  ASSERT_TRUE(frame.has_value());
  EXPECT_GT(frame->compute_us, Ms(1));
  EXPECT_GT(frame->vpns.size(), 100u);
  EXPECT_EQ(frame->space, exp_->am().main_space(uid));
}

constexpr ScenarioKind kAllKinds[] = {ScenarioKind::kVideoCall, ScenarioKind::kShortVideo,
                                      ScenarioKind::kScrolling, ScenarioKind::kGame};

// A fresh experiment with the kind's paper app launched and interactive.
struct LaunchedApp {
  std::unique_ptr<Experiment> exp;
  Uid uid;
};

LaunchedApp LaunchFor(ScenarioKind kind) {
  ExperimentConfig config;
  config.seed = 3;
  LaunchedApp app{std::make_unique<Experiment>(config), kInvalidUid};
  app.uid = app.exp->UidOf(ScenarioPackage(kind));
  app.exp->am().Launch(app.uid);
  app.exp->AwaitInteractive(app.uid);
  return app;
}

// Every frame touch of every scenario kind is a vpn of the app's own space;
// the render queue touches (and prefetches ahead in) exactly this list.
TEST_F(ScenarioTest, TouchesStayInBounds) {
  for (ScenarioKind kind : kAllKinds) {
    LaunchedApp app = LaunchFor(kind);
    Scenario scenario(app.exp->am(), app.uid, kind, Rng(7));
    AddressSpace* space = app.exp->am().main_space(app.uid);
    for (int i = 0; i < 300; ++i) {
      auto frame = scenario.NextFrame(app.exp->engine().now() + i * kVsyncPeriod);
      ASSERT_TRUE(frame.has_value());
      for (uint32_t vpn : frame->vpns) {
        ASSERT_LT(vpn, space->total_pages()) << ScenarioLabel(kind);
      }
    }
  }
}

// FNV-1a 64 over the little-endian bytes of `v`.
template <typename T>
void Fnv1a(uint64_t& h, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    h ^= static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i));
    h *= 0x100000001b3ULL;
  }
}

// Golden pins of each scenario's frame stream (compute cost plus every
// sampled vpn, in order) over its first 300 frames. Any change to how the
// samplers draw or map draws to pages moves these digests.
TEST(ScenarioGolden, FrameStreamDigestsArePinned) {
  const uint64_t kWant[] = {0x847ec36c34426920ULL, 0x2611eb8304710e8eULL,
                            0xe72ad0b47ed7d2eeULL, 0x268c9558db5a4b5eULL};
  for (size_t k = 0; k < std::size(kAllKinds); ++k) {
    ScenarioKind kind = kAllKinds[k];
    LaunchedApp app = LaunchFor(kind);
    Scenario scenario(app.exp->am(), app.uid, kind, Rng(7));
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 300; ++i) {
      auto frame = scenario.NextFrame(app.exp->engine().now() + i * kVsyncPeriod);
      ASSERT_TRUE(frame.has_value());
      Fnv1a(h, frame->compute_us);
      Fnv1a(h, static_cast<uint64_t>(frame->vpns.size()));
      for (uint32_t vpn : frame->vpns) {
        Fnv1a(h, vpn);
      }
    }
    EXPECT_EQ(h, kWant[k]) << ScenarioLabel(kind) << " digest 0x" << std::hex << h;
  }
}

TEST_F(ScenarioTest, GameRoundsAllocateInWaves) {
  Uid uid = exp_->UidOf("PUBGMobile");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kGame, Rng(7));
  ScenarioParams params = ParamsFor(ScenarioKind::kGame);
  ASSERT_GT(params.round_period, 0u);
  // Count vpns per frame across a simulated round boundary.
  SimTime t0 = exp_->engine().now();
  size_t baseline = scenario.NextFrame(t0)->vpns.size();
  size_t at_round = scenario.NextFrame(t0 + params.round_period + kVsyncPeriod)->vpns.size();
  EXPECT_GT(at_round, baseline + 300);
}

TEST_F(ScenarioTest, ShortVideoBurstsAddColdPages) {
  Uid uid = exp_->UidOf("TikTok");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kShortVideo, Rng(7));
  ScenarioParams params = ParamsFor(ScenarioKind::kShortVideo);
  SimTime t0 = exp_->engine().now();
  size_t normal = scenario.NextFrame(t0)->vpns.size();
  size_t burst = scenario.NextFrame(t0 + params.burst_period + kVsyncPeriod)->vpns.size();
  EXPECT_GT(burst, normal);
}

TEST_F(ScenarioTest, DeadAppYieldsNoFrames) {
  Uid uid = exp_->UidOf("TikTok");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kShortVideo, Rng(7));
  App* app = exp_->am().FindApp(uid);
  exp_->am().KillApp(*app);
  EXPECT_FALSE(scenario.NextFrame(exp_->engine().now()).has_value());
}

TEST_F(ScenarioTest, AllScenariosHaveDistinctParams) {
  ScenarioParams a = ParamsFor(ScenarioKind::kVideoCall);
  ScenarioParams d = ParamsFor(ScenarioKind::kGame);
  EXPECT_NE(a.frame_touches, d.frame_touches);
  EXPECT_EQ(d.round_alloc_pages, BytesToPages(110 * kMiB));  // §6.2.1: 100 MB+.
  EXPECT_EQ(a.round_period, 0u);
}

}  // namespace
}  // namespace ice
