#include "src/central/sharded_central.h"

#include <cassert>
#include <utility>

#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/sketch/hyperloglog.h"

namespace scrub {

ShardedCentral::ShardedCentral(const SchemaRegistry* registry, size_t shards,
                               CentralConfig config, size_t workers)
    : registry_(registry),
      config_(config),
      coordinator_(config),
      pending_partials_(shards),
      pending_rows_(shards),
      pool_(workers) {
  assert(shards > 0);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    // Each shard gets its own spill namespace and fault seed: file names in
    // a shared spill directory never collide, and each shard's fault stream
    // is consumed in that shard's own fold order, so runs stay deterministic
    // for any worker count.
    CentralConfig shard_config = config;
    shard_config.spill_instance =
        config.spill_instance + "_s" + std::to_string(i);
    shard_config.spill_seed =
        config.spill_seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    shards_.push_back(
        std::make_unique<ScrubCentral>(registry, std::move(shard_config)));
  }
}

Status ShardedCentral::InstallQuery(const CentralPlan& plan,
                                    ResultSink sink) {
  if (sink == nullptr) {
    return InvalidArgument("result sink must be set");
  }
  if (coordinator_.HasQuery(plan.query_id)) {
    return AlreadyExists(StrFormat(
        "query %llu already installed",
        static_cast<unsigned long long>(plan.query_id)));
  }
  // Install on every shard first; roll back on failure so a rejected plan
  // leaves no residue. Shards see only an event slice, so their per-window
  // completeness would be meaningless noise — zeroing hosts_sampled in the
  // shard copy marks the expected set unknown there; the coordinator
  // computes completeness from the full batches it routes. For the same
  // reason shards never run the estimator: their pipeline (shard role)
  // stops at WindowClose, and the coordinator holds the global counters.
  CentralPlan shard_plan = plan;
  shard_plan.hosts_sampled = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s;
    if (plan.aggregate_mode) {
      // Sinks buffer into the shard's own slot; the coordinator drains the
      // slots in shard-index order (DrainPartials), which is what keeps the
      // merge deterministic for any worker count.
      s = shards_[i]->InstallQueryPartial(
          shard_plan, [this, i](WindowPartial&& partial) {
            pending_partials_[i].push_back(std::move(partial));
          });
    } else {
      // Raw mode shards trivially: each joined tuple lives wholly on one
      // shard, so shards emit finished rows and no merge is needed.
      s = shards_[i]->InstallQuery(
          shard_plan, [this, i](const ResultRow& row) {
            pending_rows_[i].push_back(row);
          });
    }
    if (!s.ok()) {
      for (size_t j = 0; j < i; ++j) {
        shards_[j]->RemoveQuery(plan.query_id);
      }
      return s;
    }
  }
  return coordinator_.InstallQuery(plan, std::move(sink));
}

void ShardedCentral::RemoveQuery(QueryId query_id) {
  // Shards flush their open windows (partials and raw rows land in the
  // per-shard buffers), then the coordinator drains in shard order and
  // finalizes whatever it holds.
  for (auto& shard : shards_) {
    shard->RemoveQuery(query_id);
  }
  DrainShardRows();
  DrainPartials();
  coordinator_.RemoveQuery(query_id);
}

Status ShardedCentral::IngestBatch(const EventBatch& batch, TimeMicros now) {
  return IngestBatches({batch}, now);
}

Status ShardedCentral::IngestBatches(const std::vector<EventBatch>& batches,
                                     TimeMicros now) {
  (void)now;
  // Serial admission pass, in batch order: routing, dedup, completeness
  // accounting. All coordinator state; cheap relative to decode + fold.
  struct Admitted {
    const EventBatch* batch;
  };
  std::vector<Admitted> admitted;
  admitted.reserve(batches.size());
  for (const EventBatch& batch : batches) {
    // Dedup here, before re-bucketing: sub-batches are unsequenced. A false
    // return is either a duplicate (counted at the coordinator) or a query
    // that raced teardown — both skip, mirroring ScrubCentral's behaviour.
    if (!coordinator_.AdmitSequenced(batch.query_id, batch.host, batch.epoch,
                                     batch.seq)) {
      continue;
    }
    // Record host presence per slide-grid slot for completeness accounting,
    // and — for sampled plans — keep the global per-host M_i / m_i the
    // coordinator's Finalize estimator needs. This happens pre-re-bucket,
    // so slicing by request id never fragments the population view.
    coordinator_.AbsorbCounters(batch.query_id, batch.host, batch.counters);
    if (batch.event_count == 0) {
      continue;
    }
    admitted.push_back(Admitted{&batch});
  }

  // Parallel decode: each batch is independent and the decoders read only
  // the (immutable) schema registry. Columnar payloads decode into a shared
  // ColumnBatch the shard tasks later index read-only through per-shard
  // selection vectors; the ParallelFor join orders the decode before every
  // shard read.
  struct Decoded {
    std::shared_ptr<const ColumnBatch> columns;  // columnar format
    // Columnar join format: per-source sections plus the staging interleave.
    std::vector<std::shared_ptr<const ColumnBatch>> join_sections;
    std::vector<uint8_t> join_order;
  };
  std::vector<Decoded> decoded(admitted.size());
  std::vector<Status> decode_status(admitted.size());
  pool_.ParallelFor(admitted.size(), [&](size_t k) {
    if (admitted[k].batch->format == BatchFormat::kColumnar) {
      Result<ColumnBatch> cols =
          DecodeColumnBatch(*registry_, admitted[k].batch->payload);
      if (cols.ok()) {
        decoded[k].columns =
            std::make_shared<const ColumnBatch>(std::move(*cols));
      } else {
        decode_status[k] = cols.status();
      }
      return;
    }
    if (admitted[k].batch->format == BatchFormat::kColumnarJoin) {
      Result<ColumnJoinBatch> join =
          DecodeColumnJoinBatch(*registry_, admitted[k].batch->payload);
      if (join.ok()) {
        decoded[k].join_sections.reserve(join->sections.size());
        for (ColumnBatch& section : join->sections) {
          decoded[k].join_sections.push_back(
              std::make_shared<const ColumnBatch>(std::move(section)));
        }
        decoded[k].join_order = std::move(join->order);
      } else {
        decode_status[k] = join.status();
      }
      return;
    }
    decode_status[k] = InvalidArgument(
        StrFormat("batch format %d cannot be folded",
                  static_cast<int>(admitted[k].batch->format)));
  });
  // Sequential contract: batches before the first decode failure are fully
  // applied; the failure is returned.
  size_t limit = admitted.size();
  Status failure = OkStatus();
  for (size_t k = 0; k < admitted.size(); ++k) {
    if (!decode_status[k].ok()) {
      limit = k;
      failure = decode_status[k];
      break;
    }
  }

  // Re-bucket by request id so join partners colocate. Work lists keep
  // batch order within each shard — the per-shard event order is therefore
  // identical to the one-batch-at-a-time path. Batches re-bucket by slicing
  // selection vectors (order-preserving row-index lists into the shared
  // batch); the events never leave their columns.
  struct ShardWork {
    QueryId query_id;
    HostId host;
    std::shared_ptr<const ColumnBatch> columns;  // columnar format
    std::vector<uint32_t> selection;             // rows of `columns`
    ColumnJoinSlice join;  // columnar join format (non-empty order)
  };
  std::vector<std::vector<ShardWork>> work(shards_.size());
  for (size_t k = 0; k < limit; ++k) {
    if (decoded[k].columns == nullptr) {
      // Join format. A join batch with no rows (its order may be empty even
      // when the header claims events) folds nothing.
      //
      // Join slices re-bucket position by position through the staging
      // interleave, routing each event by its request id, so each shard's
      // (order, rows) sub-slice preserves the arrival interleave of the
      // requests it owns.
      std::vector<ColumnJoinSlice> buckets(shards_.size());
      std::vector<uint32_t> cursor(decoded[k].join_sections.size(), 0);
      for (const uint8_t s : decoded[k].join_order) {
        const uint32_t row = cursor[s]++;
        const size_t shard = static_cast<size_t>(
            HashMix64(decoded[k].join_sections[s]->request_id(row)) %
            shards_.size());
        buckets[shard].order.push_back(s);
        buckets[shard].rows.push_back(row);
      }
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (buckets[s].order.empty()) {
          continue;
        }
        ShardWork sw;
        sw.query_id = admitted[k].batch->query_id;
        sw.host = admitted[k].batch->host;
        sw.join = std::move(buckets[s]);
        sw.join.sections = decoded[k].join_sections;  // shared, read-only
        work[s].push_back(std::move(sw));
      }
      continue;
    }
    const ColumnBatch& cols = *decoded[k].columns;
    std::vector<std::vector<uint32_t>> buckets(shards_.size());
    for (size_t r = 0; r < cols.rows(); ++r) {
      const size_t shard = static_cast<size_t>(
          HashMix64(cols.request_id(r)) % shards_.size());
      buckets[shard].push_back(static_cast<uint32_t>(r));
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (buckets[s].empty()) {
        continue;
      }
      ShardWork sw;
      sw.query_id = admitted[k].batch->query_id;
      sw.host = admitted[k].batch->host;
      sw.columns = decoded[k].columns;
      sw.selection = std::move(buckets[s]);
      work[s].push_back(std::move(sw));
    }
  }

  // Parallel fold: shard s's task touches only shard s (plus its own
  // pending_rows_ slot for raw-mode queries). Columnar work reads the
  // shared decoded batch through its selection — read-only, so shards can
  // share it without locks.
  std::vector<Status> shard_status(shards_.size());
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    for (const ShardWork& sw : work[s]) {
      Status st;
      if (!sw.join.order.empty()) {
        st = shards_[s]->IngestJoinColumns(sw.query_id, sw.host, sw.join);
      } else {
        st = shards_[s]->IngestColumns(sw.query_id, sw.host, sw.columns,
                                       sw.selection.data(),
                                       sw.selection.size());
      }
      if (!st.ok() && shard_status[s].ok()) {
        shard_status[s] = st;
      }
    }
  });
  DrainShardRows();  // raw-mode rows are emitted eagerly during the fold
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shard_status[s].ok()) {
      return shard_status[s];
    }
  }
  return failure;
}

void ShardedCentral::DrainPartials() {
  for (size_t i = 0; i < pending_partials_.size(); ++i) {
    for (WindowPartial& partial : pending_partials_[i]) {
      coordinator_.AbsorbPartial(std::move(partial));
    }
    pending_partials_[i].clear();
  }
}

void ShardedCentral::DrainShardRows() {
  for (size_t i = 0; i < pending_rows_.size(); ++i) {
    for (const ResultRow& row : pending_rows_[i]) {
      coordinator_.ForwardRow(row);
    }
    pending_rows_[i].clear();
  }
}

void ShardedCentral::OnTick(TimeMicros now) {
  // Window closes (partial computation: finalize per-group state, package
  // mergeable accumulators) run shard-concurrently; each shard's partials
  // buffer into its own slot.
  pool_.ParallelFor(shards_.size(),
                    [&](size_t i) { shards_[i]->OnTick(now); });
  DrainShardRows();
  DrainPartials();
  // Shards have emitted every window whose end + lateness has passed (and
  // retired expired queries, flushing the rest); finalize those windows.
  coordinator_.OnTick(now);
}

std::vector<OperatorMetrics> ShardedCentral::ShardOpMetrics(
    QueryId query_id) const {
  std::vector<OperatorMetrics> merged;
  for (const auto& shard : shards_) {
    const CentralQueryStats* stats = shard->StatsFor(query_id);
    if (stats != nullptr) {
      MergeOperatorMetrics(merged, stats->op_metrics);
    }
  }
  return merged;
}

std::vector<uint64_t> ShardedCentral::ShardLoads(QueryId query_id) const {
  std::vector<uint64_t> loads;
  loads.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const CentralQueryStats* stats = shard->StatsFor(query_id);
    loads.push_back(stats == nullptr ? 0 : stats->events_ingested);
  }
  return loads;
}

}  // namespace scrub
