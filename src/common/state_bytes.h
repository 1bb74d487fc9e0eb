// Logical state sizes charged to the central MemoryAccountant (DESIGN.md
// §13.1), shared by the executor that charges them and the
// scrubql-window-state-budget lint rule that predicts them.
//
// Every constant is a literal — never sizeof(container) or capacity — so the
// charged byte sequence is representation-independent, identical on every
// build, and a budget is crossed at exactly the same event wherever the
// query runs. Changing a value here moves central.state.peak_bytes and every
// spill and shed crossing point.

#ifndef SRC_COMMON_STATE_BYTES_H_
#define SRC_COMMON_STATE_BYTES_H_

#include <cstddef>

namespace scrub {

inline constexpr size_t kGroupStateBytes = 96;    // group map node + shell
inline constexpr size_t kAccumulatorBytes = 120;  // one aggregate's state
inline constexpr size_t kJoinBucketBytes = 64;    // one buffered request id
inline constexpr size_t kJoinSourceBytes = 24;    // its per-source chain
inline constexpr size_t kJoinEventBytes = 48;     // one buffered event (+ wire)
inline constexpr size_t kHllStructBytes = 64;     // HLL shell (+ registers)
inline constexpr size_t kTopKCounterBytes = 48;   // one SpaceSaving counter

// Default HyperLogLog precision (2^14 one-byte registers per COUNT_DISTINCT
// sketch): CentralConfig::hll_precision's default and the lint's model.
inline constexpr int kDefaultHllPrecision = 14;

}  // namespace scrub

#endif  // SRC_COMMON_STATE_BYTES_H_
