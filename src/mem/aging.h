// The page-aging policy axis: how LruLists decides which resident pages are
// cold. Two implementations share one facade (see src/mem/lru.h):
//
//  * kTwoList — the classic Linux active/inactive two-list LRU the rest of
//    the reproduction was built on: list order *is* recency, reclaim walks
//    the inactive tail by prev-links.
//  * kGenClock — an MGLRU-style generation clock: every linked page carries
//    a 3-bit generation number (in the PageInfo flag word), a touch
//    refreshes it to the pool's current clock value, and the reclaim scan
//    sweeps the contiguous page arena sequentially selecting pages whose
//    generation lags the clock. No list links are maintained, so the scan
//    has no pointer-chase dependency chain.
//
// The policy is chosen per MemoryManager (MemConfig::aging) and applied to
// every address space at Register time. Its names, default and config
// fields are a row of the policy-axis table (src/harness/policy_axes.h).
#ifndef SRC_MEM_AGING_H_
#define SRC_MEM_AGING_H_

#include <cstdint>

namespace ice {

enum class AgingPolicy : uint8_t { kTwoList, kGenClock };

}  // namespace ice

#endif  // SRC_MEM_AGING_H_
