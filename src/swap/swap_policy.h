// The swap-out policy axis: how anonymous reclaim victims are admitted into
// (and aged out of) the compressed zram pool. Two implementations share one
// governor (src/swap/governor.h):
//
//  * kBaseline — today's admit-everything behavior, bit-for-bit: every anon
//    victim compresses with the device's single codec profile and nothing is
//    ever written back; the pool hard-stops when full.
//  * kHotness — an Ariadne-style hotness-aware, size-adaptive policy:
//    every anon page carries a 3-bit decayed re-reference counter (in the
//    PageInfo flag word, same packing discipline as the gen-clock generation
//    field), refaults boost it and admission decays it. Warm pages
//    (hotness >= hot_reject_threshold) are rejected back to the LRU instead
//    of burning a compression they will immediately undo; admitted pages
//    pick a compression tier by hotness — likely-refaulters take the cheap
//    fast codec, cold bulk takes the dense one — and a FIFO of stored pages
//    is written back to flash when the pool runs hot, so reclaim self-cleans
//    instead of hard-stopping mid-batch.
//
// The policy is chosen per MemoryManager (MemConfig::swap). Like
// AgingPolicy, its names, default and config fields are a row of the
// policy-axis table (src/harness/policy_axes.h).
#ifndef SRC_SWAP_SWAP_POLICY_H_
#define SRC_SWAP_SWAP_POLICY_H_

#include <cstdint>

#include "src/base/units.h"

namespace ice {

enum class SwapPolicy : uint8_t { kBaseline, kHotness };

// One compression codec profile: per-page CPU costs plus the log-normal
// compressed-size model, charged through the same Zram::Store cost path the
// single baseline codec uses.
struct ZramTierProfile {
  SimDuration compress_us = Us(35);
  SimDuration decompress_us = Us(15);
  double mean_ratio = 2.8;
  double ratio_sigma = 0.35;
};

struct SwapConfig {
  SwapPolicy policy = SwapPolicy::kBaseline;

  // Admission gate: anon victims with hotness >= this stay resident (put
  // back on the inactive list) instead of entering zram. 3-bit counter, so
  // 8 disables the gate entirely. The default is tuned against the decay
  // schedule: a page that refaults after every store follows
  // h -> floor(h/2) + boost, whose fixed point with boost=3 is 5 — so the
  // gate fires exactly for persistent thrashers and for nothing colder.
  uint8_t hot_reject_threshold = 5;
  // Tier split for admitted pages: hotness >= this takes the fast tier
  // (latency-critical, likely to refault soon), colder pages the dense one.
  // Must stay below hot_reject_threshold or the fast tier is unreachable.
  uint8_t fast_tier_min_hotness = 3;
  // Added to a page's hotness (saturating at 7) on every anon refault.
  uint8_t refault_hotness_boost = 3;

  // LZ4-fast class: cheap both ways, worse ratio.
  ZramTierProfile fast{Us(18), Us(8), 2.2, 0.30};
  // zstd class: dense and slow, for cold bulk.
  ZramTierProfile dense{Us(55), Us(22), 3.6, 0.35};

  // Writeback of aged compressed pages: reclaim batches drain up to
  // writeback_batch FIFO-oldest stored pages to flash whenever pool
  // utilization reaches writeback_util (or a store just failed).
  double writeback_util = 0.90;
  uint32_t writeback_batch = 32;

  // A capacity reject within this window pins SwapPressure() at 1.0 — the
  // SWAM-style incompressibility signal the LMK folds into kill urgency.
  SimDuration reject_pressure_window = Ms(200);
};

// Log-bucket shape shared by every compressed-size histogram (governor,
// sweep cells, fleet groups) so partials merge without reshaping. Range
// covers kPageSize/ratio for any ratio in [1.05, 256).
inline constexpr double kZramSizeHistLo = 16.0;
inline constexpr double kZramSizeHistHi = 4096.0;
inline constexpr uint32_t kZramSizeHistBuckets = 48;

}  // namespace ice

#endif  // SRC_SWAP_SWAP_POLICY_H_
