// Determinism under parallelism: the defining contract of the worker-pool
// integration is that thread count is a pure performance knob. For the same
// seed and inputs, ShardedCentral and the full ScrubSystem must produce
// byte-identical result transcripts (row content AND emission order) for any
// worker count — including under fault injection, where retransmission and
// dedup paths are exercised.
//
// Transcripts render every field of every row at full precision, so any
// divergence (a reordered merge, a float summed in a different order, a
// dropped row) fails loudly.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

// Full-precision rendering: ResultRow::ToString() plus the completeness at
// 17 significant digits (ToString truncates it to two decimals).
std::string RenderRow(const ResultRow& row) {
  return StrFormat("q%llu %s c=%.17g",
                   static_cast<unsigned long long>(row.query_id),
                   row.ToString().c_str(), row.completeness);
}

// ---------------------------------------------------------------------------
// ShardedCentral: per-shard fold + coordinator merge on a WorkerPool.
// ---------------------------------------------------------------------------

class ShardedDeterminismTest : public ::testing::Test {
 protected:
  ShardedDeterminismTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
  }

  CentralPlan PlanFor(std::string_view text, QueryId id) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = 1;
    central.hosts_sampled = 1;
    return central;
  }

  // A multi-host, multi-tick ingest: 8 simulated hosts each ship a batch per
  // tick (distinct seqs so dedup admits them), interleaved with OnTick calls
  // so window closes race with ingestion the way they do in production.
  std::vector<std::string> RunSharded(size_t shards, size_t workers) {
    ShardedCentral central(&registry_, shards, CentralConfig{}, workers);
    const CentralPlan agg = PlanFor(
        "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
        "FROM bid GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
        1);
    const CentralPlan raw = PlanFor(
        "SELECT bid.user_id, bid.price FROM bid WHERE bid.price > 4.5 "
        "WINDOW 1 s DURATION 10 s;",
        2);
    std::vector<std::string> transcript;
    auto sink = [&transcript](const ResultRow& row) {
      transcript.push_back(RenderRow(row));
    };
    EXPECT_TRUE(central.InstallQuery(agg, sink).ok());
    EXPECT_TRUE(central.InstallQuery(raw, sink).ok());

    Rng rng(99);
    uint64_t seq = 1;
    for (int tick = 0; tick < 8; ++tick) {
      const TimeMicros now = (tick + 1) * 500 * kMicrosPerMilli;
      std::vector<EventBatch> batches;
      for (HostId host = 0; host < 8; ++host) {
        for (const QueryId qid : {agg.query_id, raw.query_id}) {
          std::vector<Event> events;
          for (int i = 0; i < 40; ++i) {
            Event e(bid_schema_, rng.NextUint64(),
                    tick * 500 * kMicrosPerMilli +
                        static_cast<TimeMicros>(rng.NextBelow(500'000)));
            e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(16))));
            e.SetField(1, Value(rng.NextDouble() * 5));
            events.push_back(std::move(e));
          }
          EventBatch batch;
          batch.query_id = qid;
          batch.host = host;
          batch.seq = seq++;
          batch.event_count = events.size();
          std::string encoded;
          batch.format = EncodeEvents(events, &encoded);
          batch.payload = BatchPayload(std::move(encoded));
          batches.push_back(std::move(batch));
        }
      }
      EXPECT_TRUE(central.IngestBatches(batches, now).ok());
      central.OnTick(now);
    }
    central.OnTick(60 * kMicrosPerSecond);
    EXPECT_FALSE(transcript.empty());
    return transcript;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
};

TEST_F(ShardedDeterminismTest, TranscriptByteIdenticalAcrossWorkerCounts) {
  // workers == 0 is the inline sequential reference path.
  const std::vector<std::string> reference = RunSharded(4, 0);
  EXPECT_EQ(RunSharded(4, 1), reference);
  EXPECT_EQ(RunSharded(4, 2), reference);
  EXPECT_EQ(RunSharded(4, 8), reference);
}

TEST_F(ShardedDeterminismTest, MoreWorkersThanShardsIsStillDeterministic) {
  const std::vector<std::string> reference = RunSharded(2, 0);
  EXPECT_EQ(RunSharded(2, 8), reference);
}

// ---------------------------------------------------------------------------
// Full ScrubSystem: agent flush fan-out across simulated hosts.
// ---------------------------------------------------------------------------

constexpr const char* kAggQuery =
    "SELECT bid.user_id, COUNT(*), SUM(bid.bid_price) FROM bid "
    "GROUP BY bid.user_id WINDOW 1 s DURATION 3 s;";

std::vector<std::string> RunSystem(size_t workers, double drop_rate,
                                   size_t regions = 0,
                                   const char* query = kAggQuery,
                                   bool metrics = true,
                                   size_t max_batch_events = 0) {
  SystemConfig config;
  config.seed = 7;
  config.platform.seed = 7;
  config.platform.bidservers_per_dc = 3;
  config.platform.adservers_per_dc = 1;
  config.platform.presentation_per_dc = 1;
  config.platform.num_campaigns = 3;
  config.platform.line_items_per_campaign = 3;
  config.workers = workers;
  config.combiner_regions = regions;
  // Flat agent batches and hierarchical combiner partials differ in size; a
  // zero per-byte transport latency keeps delivery timing — and the
  // transcript — comparable across topologies, not just across worker
  // counts (FlatAndHierarchicalAgreeOnExactAggregates).
  config.transport.micros_per_byte = 0;
  config.central.collect_op_metrics = metrics;
  if (max_batch_events > 0) {
    config.agent.max_batch_events = max_batch_events;
  }
  if (drop_rate > 0) {
    config.faults.Category(TrafficCategory::kScrubEvents).drop = drop_rate;
    config.central.allowed_lateness = 5 * kMicrosPerSecond;
    config.agent.retransmit_backoff = 125 * kMicrosPerMilli;
  }
  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 200;
  load.duration = 3 * kMicrosPerSecond;
  system.workload().SchedulePoissonLoad(load);
  std::vector<std::string> transcript;
  auto submitted =
      system.Submit(query, [&transcript](const ResultRow& row) {
        transcript.push_back(RenderRow(row));
      });
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  system.RunUntil(4 * kMicrosPerSecond);
  system.Drain();
  EXPECT_FALSE(transcript.empty());
  return transcript;
}

TEST(SystemDeterminismTest, FaultFreeTranscriptIdenticalAcrossWorkers) {
  const std::vector<std::string> reference = RunSystem(0, 0.0);
  EXPECT_EQ(RunSystem(1, 0.0), reference);
  EXPECT_EQ(RunSystem(2, 0.0), reference);
  EXPECT_EQ(RunSystem(8, 0.0), reference);
}

TEST(SystemDeterminismTest, TwentyPercentDropTranscriptIdenticalAcrossWorkers) {
  // Drops trigger per-host retransmission (its own RNG stream for backoff
  // jitter) and seq/epoch dedup at central: the paths most at risk from a
  // nondeterministic flush order.
  const std::vector<std::string> reference = RunSystem(0, 0.2);
  EXPECT_EQ(RunSystem(1, 0.2), reference);
  EXPECT_EQ(RunSystem(2, 0.2), reference);
  EXPECT_EQ(RunSystem(8, 0.2), reference);
}

TEST(SystemDeterminismTest, MetricsAndBatchCapMatrixCollapsesToOneTranscript) {
  // The operator-metrics plane is pure observation and batch boundaries
  // carry no fold effects at central, so the whole matrix — metrics
  // {off,on} x agent batch cap {16, default} x workers {0,2,8} — must
  // collapse onto the single reference transcript.
  const std::vector<std::string> reference = RunSystem(0, 0.0);
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    for (const bool metrics : {false, true}) {
      for (const size_t batch : {size_t{16}, size_t{0}}) {
        EXPECT_EQ(RunSystem(workers, 0.0, 0, kAggQuery, metrics, batch),
                  reference)
            << "workers=" << workers << " metrics=" << metrics
            << " max_batch_events=" << batch;
      }
    }
  }
}

constexpr const char* kJoinQuery =
    "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
    "GROUP BY impression.line_item_id WINDOW 1 s DURATION 3 s;";

TEST(SystemDeterminismTest, SmallBatchJoinTranscriptNeutralAcrossWorkers) {
  // Join plans exercise the other agent flush path (kColumnarJoin sections
  // plus the arrival interleave); a 16-event batch cap cuts the interleave
  // at many more places, which must stay invisible there too.
  const std::vector<std::string> reference =
      RunSystem(0, 0.0, /*regions=*/0, kJoinQuery);
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    EXPECT_EQ(RunSystem(workers, 0.0, 0, kJoinQuery, /*metrics=*/true,
                        /*max_batch_events=*/16),
              reference)
        << "workers=" << workers;
  }
}

TEST(SystemDeterminismTest, JoinTranscriptIdenticalAcrossWorkers) {
  // Joins stage per-source sections plus the explicit staging interleave in
  // one kColumnarJoin batch, and central re-folds them in arrival order.
  // workers > 0 also exercises the sharded per-request re-bucket of join
  // slices.
  const std::vector<std::string> reference =
      RunSystem(0, 0.0, /*regions=*/0, kJoinQuery);
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    EXPECT_EQ(RunSystem(workers, 0.0, 0, kJoinQuery), reference)
        << "workers=" << workers;
  }
}

TEST(SystemDeterminismTest, JoinTranscriptIdenticalUnderDrops) {
  // Under a 20% drop plan the retransmit path holds encoded kColumnarJoin
  // payloads; dedup and replay must keep the join transcript exact.
  const std::vector<std::string> reference =
      RunSystem(0, 0.2, /*regions=*/0, kJoinQuery);
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    EXPECT_EQ(RunSystem(workers, 0.2, 0, kJoinQuery), reference)
        << "workers=" << workers;
  }
}

TEST(SystemDeterminismTest, HierarchicalTranscriptIdenticalAcrossWorkers) {
  // The regional combiner tier must keep the worker knob pure: flat and
  // hierarchical are different pipelines, but WITHIN the hierarchical
  // topology every worker count replays the same transcript byte for byte.
  const std::vector<std::string> reference =
      RunSystem(0, 0.0, /*regions=*/2);
  EXPECT_EQ(RunSystem(2, 0.0, /*regions=*/2), reference);
  EXPECT_EQ(RunSystem(8, 0.0, /*regions=*/2), reference);
}

TEST(SystemDeterminismTest, HierarchicalTranscriptIdenticalUnderDrops) {
  // Drops now hit the agent -> combiner hop; combiner dedup plus envelope
  // sequencing must keep the replay exact for every worker count.
  const std::vector<std::string> reference =
      RunSystem(0, 0.2, /*regions=*/2);
  EXPECT_EQ(RunSystem(2, 0.2, /*regions=*/2), reference);
  EXPECT_EQ(RunSystem(8, 0.2, /*regions=*/2), reference);
}

TEST(SystemDeterminismTest, FlatAndHierarchicalAgreeOnExactAggregates) {
  // COUNT finals are order-independent bit for bit, so the full worker x
  // topology matrix must collapse onto ONE transcript: flat workers {0,2,8}
  // and hierarchical {1,2,4} regions x workers {0,2,8} all byte-identical.
  const char* query =
      "SELECT bid.user_id, COUNT(*) FROM bid "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 3 s;";
  const std::vector<std::string> reference =
      RunSystem(0, 0.0, /*regions=*/0, query);
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    EXPECT_EQ(RunSystem(workers, 0.0, 0, query), reference)
        << "flat workers=" << workers;
    for (const size_t regions : {size_t{1}, size_t{2}, size_t{4}}) {
      EXPECT_EQ(RunSystem(workers, 0.0, regions, query), reference)
          << "regions=" << regions << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace scrub
