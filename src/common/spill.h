// Memory accounting and disk spill for bounded operator state.
//
// Two cooperating pieces, shared by ScrubCentral's executor and (for the
// accountant) the per-host agent's staging buffer:
//
//  * MemoryAccountant — logical byte tracking per key (query id) plus a
//    facility-wide total, with optional per-key and total budgets and
//    high-water marks. Charges use *logical* sizes (Event::WireSize-style),
//    never container capacities, so a budget is crossed at exactly the same
//    event however events were batched — part of the byte-identical-
//    transcript argument for spill (DESIGN.md §13).
//
//  * SpillManager / SpillRun — append-only disk runs for the executor's
//    defer-and-replay spill. Once a window exceeds its budget, every further
//    event for it is appended to the window's run in arrival order and
//    replayed through the ordinary fold at window close, so the per-group
//    operation sequence (and hence every float association and map insertion
//    order) is identical to the unbounded run. Runs are written and read by
//    exactly one thread (the owning shard's), so no locking; distinct
//    ScrubCentral instances get distinct instance labels so a sharded
//    deployment's runs never collide in a shared directory.
//
// Fault injection: SpillFaultSpec gives seeded per-record write/read failure
// probabilities (FaultPlan carries one for the system harness). A failed
// append loses exactly that record (the file stays a prefix of whole
// records); a failed read aborts the remainder of the replay. Both degrade
// to counted shed — never a crash, never silent corruption. Inactive specs
// consume no randomness, matching the transport fault layer's discipline.

#ifndef SRC_COMMON_SPILL_H_
#define SRC_COMMON_SPILL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/rng.h"

namespace scrub {

// Seeded per-record spill I/O failures. Probabilities in [0, 1]; a default
// constructed spec is inert and consumes no randomness.
struct SpillFaultSpec {
  double write_fail = 0.0;  // an Append loses its record (counted shed)
  double read_fail = 0.0;   // a replay read aborts the run's remainder

  bool Active() const { return write_fail > 0.0 || read_fail > 0.0; }
};

// Logical byte accounting with optional budgets. Keys are query ids (or any
// other uint64 namespace). All methods are cheap; `active()` gates the hot
// path so a deployment with no budgets and no tracking pays nothing.
class MemoryAccountant {
 public:
  // 0 = unlimited for either budget.
  void set_budgets(size_t per_key_bytes, size_t total_bytes) {
    per_key_budget_ = per_key_bytes;
    total_budget_ = total_bytes;
  }
  // Track usage even without budgets (memory-pressure introspection).
  void set_tracking(bool on) { tracking_ = on; }

  bool active() const {
    return tracking_ || per_key_budget_ > 0 || total_budget_ > 0;
  }
  size_t per_key_budget() const { return per_key_budget_; }
  size_t total_budget() const { return total_budget_; }

  void Charge(uint64_t key, size_t bytes) {
    Usage& u = usage_[key];
    u.bytes += bytes;
    u.peak = std::max(u.peak, u.bytes);
    total_ += bytes;
    peak_total_ = std::max(peak_total_, total_);
  }

  // Charges only if neither budget would be exceeded. Used by the agent's
  // staging path, where the degradation is drop-and-count, not spill.
  bool TryCharge(uint64_t key, size_t bytes) {
    const size_t key_usage = usage(key);
    if (per_key_budget_ > 0 && key_usage + bytes > per_key_budget_) {
      return false;
    }
    if (total_budget_ > 0 && total_ + bytes > total_budget_) {
      return false;
    }
    Charge(key, bytes);
    return true;
  }

  void Release(uint64_t key, size_t bytes) {
    const auto it = usage_.find(key);
    if (it == usage_.end()) {
      return;
    }
    const size_t give = std::min(it->second.bytes, bytes);
    it->second.bytes -= give;
    total_ -= give;
  }

  void ReleaseAll(uint64_t key) {
    const auto it = usage_.find(key);
    if (it == usage_.end()) {
      return;
    }
    total_ -= it->second.bytes;
    usage_.erase(it);
  }

  bool OverBudget(uint64_t key) const {
    if (per_key_budget_ > 0 && usage(key) > per_key_budget_) {
      return true;
    }
    return total_budget_ > 0 && total_ > total_budget_;
  }

  size_t usage(uint64_t key) const {
    const auto it = usage_.find(key);
    return it == usage_.end() ? 0 : it->second.bytes;
  }
  size_t peak(uint64_t key) const {
    const auto it = usage_.find(key);
    return it == usage_.end() ? 0 : it->second.peak;
  }
  size_t total_usage() const { return total_; }
  size_t peak_total() const { return peak_total_; }

 private:
  struct Usage {
    size_t bytes = 0;
    size_t peak = 0;
  };
  size_t per_key_budget_ = 0;
  size_t total_budget_ = 0;
  bool tracking_ = false;
  size_t total_ = 0;
  size_t peak_total_ = 0;
  std::unordered_map<uint64_t, Usage> usage_;
};

// What the spill layer did, across every run of one SpillManager.
struct SpillStats {
  uint64_t runs_opened = 0;
  uint64_t open_failures = 0;
  uint64_t records_written = 0;
  uint64_t bytes_written = 0;
  uint64_t write_failures = 0;  // injected or real; record counted shed
  uint64_t records_replayed = 0;
  uint64_t read_failures = 0;  // injected or real; remainder counted shed
  uint64_t runs_discarded = 0;
};

// One window's append-only spill run: length-prefixed records written in
// arrival order, replayed in the same order at window close, then unlinked.
// Record layout: u32 payload_len | u32 host | payload bytes (the caller's
// encoding — the executor stores one EncodeEvent record per deferred event
// and replays them as columnar blocks). Created via
// SpillManager::Open; never copied.
class SpillRun {
 public:
  ~SpillRun();
  SpillRun(const SpillRun&) = delete;
  SpillRun& operator=(const SpillRun&) = delete;

  // Appends one record. Returns the bytes written, or 0 when the record was
  // lost (injected fault or real I/O error) — the file then still ends on a
  // whole-record boundary, so earlier records stay replayable.
  size_t Append(uint32_t host, const std::string& payload);

  // Flushes and rewinds for reading. False on I/O failure (no records will
  // replay).
  bool BeginReplay();

  // Reads the next record. False at end-of-run or on a (possibly injected)
  // read failure, which abandons the remainder; records() - replayed tells
  // the caller how many were lost. A truncated record, or a length prefix
  // reaching past the bytes the run wrote, is a read failure.
  bool Next(uint32_t* host, std::string* payload);

  uint64_t records() const { return records_; }
  uint64_t bytes() const { return bytes_; }

  // Closes and unlinks the backing file (also done by the destructor).
  void Discard();

 private:
  friend class SpillManager;
  SpillRun(std::FILE* file, std::string path, SpillStats* stats, Rng* rng,
           const SpillFaultSpec* faults)
      : file_(file), path_(std::move(path)), stats_(stats), rng_(rng),
        faults_(faults) {}

  std::FILE* file_ = nullptr;
  std::string path_;
  SpillStats* stats_ = nullptr;
  Rng* rng_ = nullptr;                   // manager-owned fault stream
  const SpillFaultSpec* faults_ = nullptr;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
  uint64_t read_bytes_ = 0;  // replay position
  bool reading_ = false;
  bool read_failed_ = false;
};

// Factory and bookkeeping for one facility's spill runs. Disabled (Open
// returns nullptr) until Configure is given a non-empty directory; the
// executor's degradation ladder turns a disabled or failing spill into
// counted shed. One manager per ScrubCentral instance: the instance label
// namespaces file names, and the seeded fault stream is consumed in fold
// order, so a sharded deployment is deterministic per shard.
class SpillManager {
 public:
  SpillManager() = default;

  void Configure(std::string dir, std::string instance, uint64_t seed,
                 SpillFaultSpec faults);
  // Replaces the fault spec and reseeds the fault stream (chaos controls).
  void SetFaults(SpillFaultSpec faults, uint64_t seed);

  bool enabled() const { return !dir_.empty(); }
  const SpillStats& stats() const { return stats_; }

  // Opens a run for (query, window). nullptr on failure (directory or file
  // creation failed), counted in stats().open_failures.
  std::unique_ptr<SpillRun> Open(uint64_t query_id, TimeMicros window_start);

 private:
  std::string dir_;
  std::string instance_ = "central";
  SpillFaultSpec faults_;
  std::unique_ptr<Rng> fault_rng_;
  SpillStats stats_;
  uint64_t opened_ = 0;
};

}  // namespace scrub

#endif  // SRC_COMMON_SPILL_H_
