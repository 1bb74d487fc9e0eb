// Group keys shared by every layer that buckets rows by GROUP BY values:
// the central fold, the sharded coordinator's partial merge and the
// regional combiner tier. One definition of the key and its hash is what
// lets those pipelines bucket (and order) groups identically.

#ifndef SRC_PLAN_GROUP_KEY_H_
#define SRC_PLAN_GROUP_KEY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/event/value.h"

namespace scrub {

using GroupKey = std::vector<Value>;

// Takes the key's values as a span so a probe can hash values it borrows
// (the fold's per-row scratch key) as cheaply as a stored GroupKey.
struct GroupKeyHash {
  size_t operator()(std::span<const Value> key) const {
    size_t seed = 0x517cc1b7;
    for (const Value& v : key) {
      seed ^= v.Hash() + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }
};

// A stored group key bundled with its hash, computed once when the row
// first probes: the group table, the coordinator's merge and the canonical
// sort all reuse it instead of rehashing a vector<Value>. The hash is
// exactly GroupKeyHash's, so every pipeline (single instance, sharded,
// hierarchical) buckets groups identically — part of the byte-identical-
// transcript argument.
struct HashedGroupKey {
  GroupKey key;
  size_t hash = 0;
};

// Canonical emission order for grouped rows: hash first, key values as the
// tie-break so the order stays total across hash collisions. Group tables
// are insertion-ordered by arrival, and arrival order is the one thing a
// topology change legitimately perturbs — every sink that emits one row per
// group sorts by this instead, which is what makes result transcripts
// byte-identical across the flat, sharded, and hierarchical pipelines.
inline bool CanonicalGroupOrder(const HashedGroupKey& a,
                                const HashedGroupKey& b) {
  if (a.hash != b.hash) {
    return a.hash < b.hash;
  }
  const size_t n = a.key.size() < b.key.size() ? a.key.size() : b.key.size();
  for (size_t i = 0; i < n; ++i) {
    const int c = a.key[i].Compare(b.key[i]);
    if (c != 0) {
      return c < 0;
    }
  }
  return a.key.size() < b.key.size();
}

}  // namespace scrub

#endif  // SRC_PLAN_GROUP_KEY_H_
