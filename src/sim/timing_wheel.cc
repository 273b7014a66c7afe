#include "src/sim/timing_wheel.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/base/log.h"

namespace ice {

TimingWheel::TimingWheel() {
  pool_.reserve(256);
  due_.reserve(64);
  due_extra_.reserve(8);
}

uint32_t TimingWheel::AllocNode() {
  if (free_head_ != kNil) {
    uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    return idx;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void TimingWheel::FreeNode(uint32_t idx) {
  Node& n = pool_[idx];
  n.fn.reset();
  n.live = false;
  n.where = Where::kFree;
  ++n.gen;  // Invalidates every outstanding EventId for this node.
  n.next = free_head_;
  free_head_ = idx;
}

void TimingWheel::HeapPush(std::vector<uint32_t>& heap, uint32_t idx) {
  heap.push_back(idx);
  std::push_heap(heap.begin(), heap.end(),
                 [this](uint32_t a, uint32_t b) { return Later(a, b); });
}

uint32_t TimingWheel::HeapPop(std::vector<uint32_t>& heap) {
  std::pop_heap(heap.begin(), heap.end(),
                [this](uint32_t a, uint32_t b) { return Later(a, b); });
  uint32_t idx = heap.back();
  heap.pop_back();
  return idx;
}

void TimingWheel::AppendToSlot(uint32_t level, uint32_t slot, uint32_t idx) {
  Slot& s = slots_[level][slot];
  pool_[idx].next = kNil;
  if (s.tail == kNil) {
    s.head = idx;
  } else {
    pool_[s.tail].next = idx;
  }
  s.tail = idx;
  occupied_[level] |= 1ull << slot;
}

uint32_t TimingWheel::DetachSlot(uint32_t level, uint32_t slot) {
  Slot& s = slots_[level][slot];
  uint32_t head = s.head;
  s.head = kNil;
  s.tail = kNil;
  occupied_[level] &= ~(1ull << slot);
  return head;
}

void TimingWheel::PlaceNode(uint32_t idx) {
  Node& n = pool_[idx];
  uint64_t ev_slot = n.when >> kLevel0Shift;
  uint64_t delta = ev_slot > cur_slot_ ? ev_slot - cur_slot_ : 0;
  n.where = Where::kWheel;
  if (delta < kSlots) {
    // Past-dated nodes clamp to the cursor's slot, which every RunDue rescans.
    uint64_t s = ev_slot > cur_slot_ ? ev_slot : cur_slot_;
    AppendToSlot(0, static_cast<uint32_t>(s & kSlotMask), idx);
  } else if (delta < (1ull << (2 * kSlotBits))) {
    AppendToSlot(1, static_cast<uint32_t>((n.when >> (kLevel0Shift + kSlotBits)) & kSlotMask),
                 idx);
  } else if (delta < (1ull << (3 * kSlotBits))) {
    AppendToSlot(2, static_cast<uint32_t>((n.when >> (kLevel0Shift + 2 * kSlotBits)) & kSlotMask),
                 idx);
  } else if (delta < (1ull << (4 * kSlotBits))) {
    AppendToSlot(3, static_cast<uint32_t>((n.when >> (kLevel0Shift + 3 * kSlotBits)) & kSlotMask),
                 idx);
  } else {
    n.where = Where::kOverflow;
    HeapPush(overflow_, idx);
  }
}

EventId TimingWheel::Schedule(SimTime when, EventFn fn) {
  return ScheduleImpl(when, next_seq_++, std::move(fn));
}

EventId TimingWheel::ScheduleWithSeq(SimTime when, uint64_t seq, EventFn fn) {
  return ScheduleImpl(when, seq, std::move(fn));
}

EventId TimingWheel::ScheduleImpl(SimTime when, uint64_t seq, EventFn fn) {
  ICE_CHECK(static_cast<bool>(fn));
  uint32_t idx = AllocNode();
  Node& n = pool_[idx];
  n.when = when;
  n.seq = seq;
  n.live = true;
  n.fn = std::move(fn);
  n.next = kNil;
  ++live_count_;
  EventId id = MakeId(idx, n.gen);
  if (in_run_due_ && when <= dispatch_now_) {
    // Scheduled by a firing callback: joins the current dispatch batch,
    // ordered by (when, seq). The sorted run is immutable mid-walk, so these
    // go to the side heap that DispatchDue merges against it.
    n.where = Where::kDue;
    due_extra_.push_back(DueEntry{n.when, n.seq, idx});
    std::push_heap(due_extra_.begin(), due_extra_.end(), EntryLater);
  } else {
    PlaceNode(idx);
  }
  return id;
}

std::optional<std::pair<SimTime, uint64_t>> TimingWheel::Pending(EventId id) const {
  uint32_t low = static_cast<uint32_t>(id & 0xffffffffu);
  if (low == 0 || low > pool_.size()) {
    return std::nullopt;
  }
  const Node& n = pool_[low - 1];
  if (n.gen != static_cast<uint32_t>(id >> 32) || !n.live) {
    return std::nullopt;
  }
  return std::make_pair(n.when, n.seq);
}

void TimingWheel::RestoreClock(SimTime now) {
  ICE_CHECK_EQ(live_count_, 0u) << "RestoreClock on a non-empty wheel";
  ICE_CHECK(!in_run_due_);
  // Husks of cancelled events may still sit in slots/overflow; sweep them so
  // the cursor jump cannot strand one in an already-passed slot.
  for (uint32_t level = 0; level < kLevels; ++level) {
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      uint32_t idx = DetachSlot(level, slot);
      while (idx != kNil) {
        uint32_t next = pool_[idx].next;
        ICE_CHECK(!pool_[idx].live);
        FreeNode(idx);
        idx = next;
      }
    }
  }
  while (!overflow_.empty()) {
    FreeNode(HeapPop(overflow_));
  }
  cur_slot_ = now >> kLevel0Shift;
}

bool TimingWheel::Cancel(EventId id) {
  uint32_t low = static_cast<uint32_t>(id & 0xffffffffu);
  if (low == 0 || low > pool_.size()) {
    return false;
  }
  uint32_t idx = low - 1;
  Node& n = pool_[idx];
  if (n.gen != static_cast<uint32_t>(id >> 32) || !n.live) {
    return false;  // Already fired, already cancelled, or a stale handle.
  }
  n.live = false;
  n.fn.reset();  // Release captures now; the node husk is reclaimed lazily.
  --live_count_;
  return true;
}

void TimingWheel::DrainSlotToDue(uint32_t slot) {
  uint32_t idx = DetachSlot(0, slot);
  while (idx != kNil) {
    uint32_t next = pool_[idx].next;
    if (pool_[idx].live) {
      PushDue(idx);
    } else {
      FreeNode(idx);
    }
    idx = next;
  }
}

void TimingWheel::Cascade(uint32_t level, uint32_t slot) {
  if ((occupied_[level] >> slot & 1) == 0) {
    return;
  }
  uint32_t idx = DetachSlot(level, slot);
  while (idx != kNil) {
    uint32_t next = pool_[idx].next;
    if (pool_[idx].live) {
      PlaceNode(idx);
    } else {
      FreeNode(idx);
    }
    idx = next;
  }
}

void TimingWheel::CascadeAt(uint64_t abs_slot) {
  // Highest wrapped level first, so far events trickle down through every
  // level they now belong to.
  uint64_t c1 = abs_slot >> kSlotBits;
  if ((c1 & kSlotMask) == 0) {
    uint64_t c2 = c1 >> kSlotBits;
    if ((c2 & kSlotMask) == 0) {
      uint64_t c3 = c2 >> kSlotBits;
      Cascade(3, static_cast<uint32_t>(c3 & kSlotMask));
    }
    Cascade(2, static_cast<uint32_t>(c2 & kSlotMask));
  }
  Cascade(1, static_cast<uint32_t>(c1 & kSlotMask));
}

void TimingWheel::AdvanceTo(uint64_t target) {
  while (cur_slot_ < target) {
    if (!WheelOccupied()) {
      // Nothing anywhere in the wheel: jump straight to the target. Any
      // cascade the cursor would have performed is vacuous.
      cur_slot_ = target;
      return;
    }
    uint32_t idx0 = static_cast<uint32_t>(cur_slot_ & kSlotMask);
    uint64_t window_base = cur_slot_ - idx0;
    uint64_t bits = occupied_[0] >> idx0;
    uint64_t next_occ = bits != 0 ? cur_slot_ + std::countr_zero(bits) : UINT64_MAX;
    uint64_t boundary = window_base + kSlots;
    uint64_t stop = boundary < target ? boundary : target;
    if (next_occ < stop) {
      cur_slot_ = next_occ;
      DrainSlotToDue(static_cast<uint32_t>(cur_slot_ & kSlotMask));
      ++cur_slot_;
    } else {
      cur_slot_ = stop;
    }
    if ((cur_slot_ & kSlotMask) == 0) {
      CascadeAt(cur_slot_);
    }
  }
}

void TimingWheel::ScanCurrentSlot(SimTime now) {
  uint32_t slot = static_cast<uint32_t>(cur_slot_ & kSlotMask);
  if ((occupied_[0] >> slot & 1) == 0) {
    return;
  }
  Slot& s = slots_[0][slot];
  uint32_t idx = s.head;
  uint32_t prev = kNil;
  while (idx != kNil) {
    uint32_t next = pool_[idx].next;
    bool remove;
    if (!pool_[idx].live) {
      remove = true;
    } else if (pool_[idx].when <= now) {
      remove = true;
    } else {
      remove = false;
    }
    if (remove) {
      if (prev == kNil) {
        s.head = next;
      } else {
        pool_[prev].next = next;
      }
      if (s.tail == idx) {
        s.tail = prev;
      }
      if (pool_[idx].live) {
        PushDue(idx);
      } else {
        FreeNode(idx);
      }
    } else {
      prev = idx;
    }
    idx = next;
  }
  if (s.head == kNil) {
    occupied_[0] &= ~(1ull << slot);
  }
}

void TimingWheel::DrainOverflow(SimTime now) {
  while (!overflow_.empty()) {
    uint32_t top = overflow_.front();
    if (!pool_[top].live) {
      HeapPop(overflow_);
      FreeNode(top);
      continue;
    }
    if (pool_[top].when > now) {
      return;
    }
    HeapPop(overflow_);
    PushDue(top);
  }
}

void TimingWheel::DispatchDue() {
  // One sort over contiguous (when, seq, idx) entries replaces a heap
  // push + pop per event; the batch is complete before any callback runs, so
  // the run never mutates mid-walk. Only callback-scheduled same-batch events
  // arrive later, via the due_extra_ side heap. Entry indices are unique
  // (each node sits in exactly one container position), so a node freed and
  // reused by a callback can never alias a not-yet-walked entry.
  std::sort(due_.begin(), due_.end(), EntryBefore);
  size_t pos = 0;
  for (;;) {
    uint32_t idx;
    if (!due_extra_.empty() &&
        (pos == due_.size() || EntryBefore(due_extra_.front(), due_[pos]))) {
      std::pop_heap(due_extra_.begin(), due_extra_.end(), EntryLater);
      idx = due_extra_.back().idx;
      due_extra_.pop_back();
    } else if (pos < due_.size()) {
      idx = due_[pos++].idx;
    } else {
      break;
    }
    if (!pool_[idx].live) {
      FreeNode(idx);
      continue;
    }
    EventFn fn = std::move(pool_[idx].fn);
    pool_[idx].live = false;
    --live_count_;
    FreeNode(idx);
    // The callback may Schedule (possibly into this batch) or Cancel; no
    // node reference is held across it.
    fn();
  }
  due_.clear();
}

void TimingWheel::RunDue(SimTime now) {
  ICE_CHECK(!in_run_due_) << "reentrant RunDue";
  in_run_due_ = true;
  dispatch_now_ = now;
  DrainOverflow(now);
  AdvanceTo(now >> kLevel0Shift);
  ScanCurrentSlot(now);
  DispatchDue();
  in_run_due_ = false;
}

SimTime TimingWheel::NextTime() {
  ICE_CHECK(live_count_ > 0) << "NextTime on empty queue";
  SimTime best = UINT64_MAX;
  for (uint32_t level = 0; level < kLevels; ++level) {
    if (occupied_[level] == 0) {
      continue;
    }
    uint32_t start = static_cast<uint32_t>((cur_slot_ >> (level * kSlotBits)) & kSlotMask);
    // Cyclic scan in time order. Level 0 starts at the cursor's own slot;
    // higher levels' cursor slot was already cascaded, so any residue there
    // is next-cycle (latest) and scans last.
    for (uint32_t k = 0; k < kSlots; ++k) {
      uint32_t s = (start + k + (level == 0 ? 0 : 1)) & kSlotMask;
      if ((occupied_[level] >> s & 1) == 0) {
        continue;
      }
      // Prune dead nodes while scanning for the slot's earliest live event.
      Slot& sl = slots_[level][s];
      SimTime slot_min = UINT64_MAX;
      uint32_t idx = sl.head;
      uint32_t prev = kNil;
      while (idx != kNil) {
        uint32_t next = pool_[idx].next;
        if (!pool_[idx].live) {
          if (prev == kNil) {
            sl.head = next;
          } else {
            pool_[prev].next = next;
          }
          if (sl.tail == idx) {
            sl.tail = prev;
          }
          FreeNode(idx);
        } else {
          slot_min = std::min(slot_min, pool_[idx].when);
          prev = idx;
        }
        idx = next;
      }
      if (sl.head == kNil) {
        occupied_[level] &= ~(1ull << s);
        continue;  // Slot was all-dead; keep scanning this level.
      }
      best = std::min(best, slot_min);
      break;  // First occupied slot in time order bounds this level.
    }
  }
  while (!overflow_.empty() && !pool_[overflow_.front()].live) {
    FreeNode(HeapPop(overflow_));
  }
  if (!overflow_.empty()) {
    best = std::min(best, pool_[overflow_.front()].when);
  }
  ICE_CHECK(best != UINT64_MAX);
  return best;
}

}  // namespace ice
