// Hierarchical timing wheel: the discrete-event core behind EventQueue.
//
// Linux-timer style: four levels of 64 slots each. Level 0 slots are 1024 µs
// wide (one engine tick fits in one slot), and each higher level is 64×
// coarser, so the wheel spans ~4.8 simulated hours; rarer far-future events
// overflow into a small min-heap. Schedule is O(1) (compute the level from
// the delta, append to the slot's chain), Cancel is a true O(1) generation-
// tag check — no tombstone set, no heap sift.
//
// Determinism contract: events fire in exactly (when, seq) order — identical
// to a binary heap with FIFO tie-break — including events scheduled during
// dispatch at times <= now, which join the current dispatch batch. Dispatch
// collects the batch into a flat run of (when, seq, node) entries, sorts it
// once, and walks it in order — merging a small side min-heap for events the
// batch's own callbacks schedule at times <= now — so wheel internals (slot
// chains, cascades) never leak into observable firing order.
//
// Event nodes live in a pooled free-list; the callback is an EventFn with
// inline storage, so the schedule/fire hot path performs no allocation in
// steady state.
#ifndef SRC_SIM_TIMING_WHEEL_H_
#define SRC_SIM_TIMING_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/sim/event_fn.h"

namespace ice {

// Handle for a scheduled event. Encodes (generation << 32 | node index + 1),
// so a handle is invalidated the moment its event fires or is cancelled —
// cancel-after-fire and double-cancel are detected exactly, not by bookkeeping
// side tables.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class TimingWheel {
 public:
  TimingWheel();

  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  // Schedules `fn` at absolute time `when`. Ties are broken FIFO by insertion
  // order so simulation order is deterministic.
  EventId Schedule(SimTime when, EventFn fn);

  // O(1) cancel. Returns false — with no other effect — if the event already
  // fired, was already cancelled, or the id is unknown/invalid.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Earliest pending (non-cancelled) event time; only valid when !empty().
  SimTime NextTime();

  // Pops and runs every event with time <= now, in (when, seq) order. Events
  // scheduled during dispatch at times <= now also run in this call.
  void RunDue(SimTime now);

  // ---- Snapshot/restore support ---------------------------------------------
  // Schedules `fn` with an explicit (when, seq) pair instead of drawing the
  // next sequence number. Restore paths use this to re-arm timers whose
  // (when, seq) was captured by a snapshot, reproducing the pre-snapshot
  // firing order exactly. next_seq_ is not advanced; the restorer sets it
  // once via set_next_seq() after every timer is re-armed.
  EventId ScheduleWithSeq(SimTime when, uint64_t seq, EventFn fn);

  // The (when, seq) of a still-pending event, or nullopt if the id is
  // invalid, already fired, or cancelled. Lets components serialize their
  // outstanding timers without the wheel serializing callables.
  std::optional<std::pair<SimTime, uint64_t>> Pending(EventId id) const;

  uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(uint64_t seq) { next_seq_ = seq; }

  // Moves the cursor to the slot containing `now` on an EMPTY wheel. The
  // emptiness requirement is structural: jumping the cursor past occupied
  // slots would skip their cascades, so restore re-arms timers only after
  // the clock is set.
  void RestoreClock(SimTime now);

  // ---- Introspection (tests, benches) ---------------------------------------
  // Total pool capacity ever allocated (live + dead + free nodes).
  size_t allocated_nodes() const { return pool_.size(); }

 private:
  static constexpr uint32_t kSlotBits = 6;         // 64 slots per level.
  static constexpr uint32_t kSlots = 1u << kSlotBits;
  static constexpr uint32_t kSlotMask = kSlots - 1;
  static constexpr uint32_t kLevel0Shift = 10;     // 1024 µs per level-0 slot.
  static constexpr uint32_t kLevels = 4;
  static constexpr uint32_t kNil = 0xffffffffu;

  enum class Where : uint8_t { kFree, kWheel, kOverflow, kDue };

  struct Node {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t gen = 0;
    uint32_t next = kNil;  // Intra-slot chain link.
    Where where = Where::kFree;
    bool live = false;
    EventFn fn;
  };

  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  // Value entry for the dispatch batch: carrying (when, seq) by value keeps
  // the sort/merge comparisons on contiguous memory instead of chasing node
  // indices back into the pool.
  struct DueEntry {
    SimTime when;
    uint64_t seq;
    uint32_t idx;
  };

  static bool EntryBefore(const DueEntry& a, const DueEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  // Adapter for std::push_heap/pop_heap (which build max-heaps): ordering the
  // heap by "later" makes its top the earliest entry.
  static bool EntryLater(const DueEntry& a, const DueEntry& b) { return EntryBefore(b, a); }

  static EventId MakeId(uint32_t index, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(index) + 1);
  }

  uint32_t AllocNode();
  void FreeNode(uint32_t idx);

  EventId ScheduleImpl(SimTime when, uint64_t seq, EventFn fn);

  // Places a (non-due) node into the wheel or the overflow heap based on its
  // distance from the cursor. Past-dated nodes are clamped into the cursor's
  // slot so every RunDue rescans them.
  void PlaceNode(uint32_t idx);
  void AppendToSlot(uint32_t level, uint32_t slot, uint32_t idx);

  // Detaches a whole slot chain (clearing its occupancy bit) and returns the
  // head, preserving insertion order.
  uint32_t DetachSlot(uint32_t level, uint32_t slot);

  // Appends a live node to the dispatch batch (sorted later, in one pass).
  void PushDue(uint32_t idx) {
    Node& n = pool_[idx];
    n.where = Where::kDue;
    due_.push_back(DueEntry{n.when, n.seq, idx});
  }

  // Moves every live node of a level-0 slot to the dispatch batch; frees dead
  // ones.
  void DrainSlotToDue(uint32_t slot);
  // Redistributes a higher-level slot one level down (or into level 0).
  void Cascade(uint32_t level, uint32_t slot);
  // Runs the cascades owed when the cursor enters the window starting at
  // `slot_time` (a multiple of kSlots).
  void CascadeAt(uint64_t abs_slot);

  // Advances the cursor to `target` (absolute level-0 slot number), fully
  // draining every slot it passes. Uses the occupancy bitmaps to jump over
  // empty stretches in O(1) per 64-slot window.
  void AdvanceTo(uint64_t target);
  // Extracts nodes with when <= now from the cursor's own (partial) slot.
  void ScanCurrentSlot(SimTime now);
  // Moves due overflow events (when <= now) to the dispatch batch.
  void DrainOverflow(SimTime now);
  // Sorts the collected batch and fires it in (when, seq) order, merging any
  // same-batch events scheduled by the callbacks themselves.
  void DispatchDue();

  bool WheelOccupied() const {
    return (occupied_[0] | occupied_[1] | occupied_[2] | occupied_[3]) != 0;
  }

  // (when, seq) min-heap helpers over node indices (the overflow heap).
  bool Later(uint32_t a, uint32_t b) const {
    const Node& na = pool_[a];
    const Node& nb = pool_[b];
    if (na.when != nb.when) {
      return na.when > nb.when;
    }
    return na.seq > nb.seq;
  }
  void HeapPush(std::vector<uint32_t>& heap, uint32_t idx);
  uint32_t HeapPop(std::vector<uint32_t>& heap);

  std::vector<Node> pool_;
  uint32_t free_head_ = kNil;

  Slot slots_[kLevels][kSlots];
  uint64_t occupied_[kLevels] = {0, 0, 0, 0};
  // All level-0 slots strictly below cur_slot_ are fully drained; the slot at
  // cur_slot_ may have been partially drained up to the last RunDue's `now`.
  uint64_t cur_slot_ = 0;

  std::vector<uint32_t> overflow_;  // (when, seq) min-heap of far-future nodes.
  std::vector<DueEntry> due_;       // Dispatch batch; sorted once per RunDue.
  // (when, seq) min-heap of events scheduled *during* dispatch at <= now;
  // merged against the sorted run so they fire in order within the batch.
  std::vector<DueEntry> due_extra_;

  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  bool in_run_due_ = false;
  SimTime dispatch_now_ = 0;
};

}  // namespace ice

#endif  // SRC_SIM_TIMING_WHEEL_H_
