#include "src/sim/engine.h"

#include <algorithm>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

namespace {
// Seed of the noise stream. A fixed constant, deliberately not derived from
// the experiment seed: every boot draws the same environment noise, so the
// seeded stream stays untouched until the workload starts consuming it.
constexpr uint64_t kNoiseStreamSeed = 0x1cebeefc0ffee123ULL;
}  // namespace

Engine::Engine(uint64_t seed) : rng_(seed), noise_rng_(kNoiseStreamSeed) {}

EventId Engine::ScheduleAt(SimTime when, EventFn fn) {
  ICE_CHECK_GE(when, now_) << "scheduling into the past";
  return events_.Schedule(when, std::move(fn));
}

EventId Engine::ScheduleAfter(SimDuration delay, EventFn fn) {
  return events_.Schedule(now_ + delay, std::move(fn));
}

bool Engine::Cancel(EventId id) { return events_.Cancel(id); }

EventId Engine::ScheduleAtWithSeq(SimTime when, uint64_t seq, EventFn fn) {
  ICE_CHECK_GE(when, now_) << "scheduling into the past";
  return events_.ScheduleWithSeq(when, seq, std::move(fn));
}

void Engine::SaveTo(BinaryWriter& w) const {
  w.U64(now_);
  w.U64(ticks_);
  w.U64(ticks_skipped_);
  w.U64(events_.next_seq());
  rng_.SaveTo(w);
  noise_rng_.SaveTo(w);
  stats_.SaveTo(w);
}

void Engine::RestoreFrom(BinaryReader& r) {
  ICE_CHECK(events_.empty()) << "engine restore with timers still scheduled";
  now_ = r.U64();
  ticks_ = r.U64();
  ticks_skipped_ = r.U64();
  events_.set_next_seq(r.U64());
  events_.RestoreClock(now_);
  rng_.RestoreFrom(r);
  noise_rng_.RestoreFrom(r);
  stats_.RestoreFrom(r);
}

void Engine::AddTicker(Ticker* ticker) {
  ICE_CHECK(ticker != nullptr);
  if (in_tick_) {
    pending_tickers_.push_back(ticker);
  } else {
    tickers_.push_back(ticker);
  }
}

void Engine::RemoveTicker(Ticker* ticker) {
  auto it = std::find(tickers_.begin(), tickers_.end(), ticker);
  if (it != tickers_.end()) {
    if (in_tick_) {
      *it = nullptr;  // Compacted after the iteration completes.
      tickers_dirty_ = true;
    } else {
      tickers_.erase(it);
    }
    return;
  }
  auto pit = std::find(pending_tickers_.begin(), pending_tickers_.end(), ticker);
  if (pit != pending_tickers_.end()) {
    pending_tickers_.erase(pit);
  }
}

void Engine::RunOneTick() {
  events_.RunDue(now_);

  in_tick_ = true;
  for (Ticker* t : tickers_) {
    if (t != nullptr) {
      t->Tick(now_);
    }
  }
  in_tick_ = false;

  if (tickers_dirty_) {
    tickers_.erase(std::remove(tickers_.begin(), tickers_.end(), nullptr), tickers_.end());
    tickers_dirty_ = false;
  }
  if (!pending_tickers_.empty()) {
    tickers_.insert(tickers_.end(), pending_tickers_.begin(), pending_tickers_.end());
    pending_tickers_.clear();
  }

  now_ += kTick;
  ++ticks_;
}

void Engine::MaybeSkipIdleTicks(SimTime until) {
  // Rounds `t` up to the next tick boundary (ticks land at now_ + k * kTick).
  // Callers guard t != kTickerIdle so the arithmetic cannot overflow.
  auto ceil_to_tick = [this](SimTime t) -> SimTime {
    if (t <= now_) {
      return now_;
    }
    return now_ + ((t - now_ + kTick - 1) / kTick) * kTick;
  };

  SimTime target = ceil_to_tick(until);
  for (Ticker* t : tickers_) {
    SimTime w = t->NextWorkAt(now_);
    if (w == kTickerIdle) {
      continue;
    }
    SimTime tick_of_w = ceil_to_tick(w);
    if (tick_of_w < target) {
      target = tick_of_w;
    }
    if (target == now_) {
      return;  // Some ticker has work right now; nothing to skip.
    }
  }
  if (!events_.empty()) {
    SimTime tick_of_ev = ceil_to_tick(events_.NextTime());
    if (tick_of_ev < target) {
      target = tick_of_ev;
    }
  }
  if (target <= now_) {
    return;
  }

  const uint64_t skipped = (target - now_) / kTick;
  for (Ticker* t : tickers_) {
    t->OnTicksSkipped(now_, skipped);
  }
  now_ = target;
  ticks_ += skipped;
  ticks_skipped_ += skipped;
}

void Engine::RunUntil(SimTime until) {
  while (now_ < until) {
    RunOneTick();
    if (now_ < until) {
      MaybeSkipIdleTicks(until);
    }
  }
  // Deliver events that land exactly on the boundary.
  events_.RunDue(now_);
}

}  // namespace ice
