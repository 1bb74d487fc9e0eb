// Tests for the sharded ScrubCentral deployment: result parity with a
// single instance (the defining property), join colocation by request id,
// shard balance, and the coordinator-level Eq. 1-3 estimation for sampled
// plans.

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

class ShardedCentralTest : public ::testing::Test {
 protected:
  ShardedCentralTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    imp_schema_ = *EventSchema::Builder("impression")
                       .AddField("line_item_id", FieldType::kLong)
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
    EXPECT_TRUE(registry_.Register(imp_schema_).ok());
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

  std::vector<Event> RandomBids(int n, uint64_t seed, int64_t users) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event e(bid_schema_, rng.NextUint64(),
              100 + static_cast<TimeMicros>(rng.NextBelow(8'000'000)));
      e.SetField(0, Value(static_cast<int64_t>(
                        rng.NextBelow(static_cast<uint64_t>(users)))));
      e.SetField(1, Value(rng.NextDouble() * 5));
      events.push_back(std::move(e));
    }
    return events;
  }

  static EventBatch Pack(QueryId qid, const std::vector<Event>& events) {
    EventBatch batch;
    batch.query_id = qid;
    batch.host = 0;
    batch.event_count = events.size();
    batch.format = EncodeEvents(events, &batch.payload);
    return batch;
  }

  // Canonical rendering of a row set for parity comparison.
  static std::map<std::string, std::string> Render(
      const std::vector<ResultRow>& rows) {
    std::map<std::string, std::string> out;
    for (const ResultRow& row : rows) {
      std::string key = StrFormat("%lld|", static_cast<long long>(
                                               row.window_start));
      key += row.values[0].ToString();
      std::string value;
      for (size_t i = 1; i < row.values.size(); ++i) {
        value += row.values[i].ToString() + "|";
      }
      out[key] = value;
    }
    return out;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr imp_schema_;
};

TEST_F(ShardedCentralTest, PreAggregatedBatchIsRejectedAndFoldsNothing) {
  // Shards fold events; pre-aggregated deltas have no request ids to route
  // by, so the router refuses them instead of misreading the payload.
  const char* query =
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 2 s DURATION 10 s;";
  ShardedCentral sharded(&registry_, 4);
  const CentralPlan plan = PlanFor(query, 1);
  std::vector<ResultRow> rows;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan, [&](const ResultRow& row) {
                    rows.push_back(row);
                  })
                  .ok());
  PreAggSlot slot;
  slot.window_start = 0;
  slot.events = 5;
  slot.groups.push_back(PreAggGroup{{Value(int64_t{3})}, {PreAggCell{5, 0}}});
  EventBatch batch;
  batch.query_id = plan.query_id;
  batch.host = 0;
  batch.format = BatchFormat::kPreAgg;
  batch.event_count = 5;
  batch.payload = EncodePreAggBatch({slot});
  const Status status = sharded.IngestBatch(batch, 0);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  for (const uint64_t load : sharded.ShardLoads(plan.query_id)) {
    EXPECT_EQ(load, 0u);
  }
  sharded.OnTick(60 * kMicrosPerSecond);
  EXPECT_TRUE(rows.empty());
}

TEST_F(ShardedCentralTest, RowlessJoinBatchFoldsNothing) {
  // A well-formed join payload with one zero-row section and an empty
  // interleave, under a header that claims an event: the router must not
  // mistake it for a single-source batch.
  const char* query =
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 2 s DURATION 10 s;";
  ShardedCentral sharded(&registry_, 4);
  const CentralPlan plan = PlanFor(query, 1);
  std::vector<ResultRow> rows;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan, [&](const ResultRow& row) {
                    rows.push_back(row);
                  })
                  .ok());
  const ColumnBatch empty(bid_schema_);
  EventBatch batch;
  batch.query_id = plan.query_id;
  batch.host = 0;
  batch.format = BatchFormat::kColumnarJoin;
  batch.event_count = 1;
  EncodeColumnJoinBatch({ColumnJoinSection{&empty, nullptr, 0, nullptr}}, {},
                        &batch.payload);
  ASSERT_TRUE(DecodeColumnJoinBatch(registry_, batch.payload).ok());
  const Status status = sharded.IngestBatch(batch, 0);
  EXPECT_TRUE(status.ok()) << status.ToString();
  for (const uint64_t load : sharded.ShardLoads(plan.query_id)) {
    EXPECT_EQ(load, 0u);
  }
  sharded.OnTick(60 * kMicrosPerSecond);
  EXPECT_TRUE(rows.empty());
}

TEST_F(ShardedCentralTest, ExactParityWithSingleInstance) {
  const char* query =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price), "
      "MIN(bid.price), MAX(bid.price) FROM bid GROUP BY bid.user_id "
      "WINDOW 2 s DURATION 10 s;";
  const std::vector<Event> events = RandomBids(5000, 31, 40);

  // Single instance.
  ScrubCentral single(&registry_);
  const CentralPlan plan1 = PlanFor(query, 1);
  std::vector<ResultRow> single_rows;
  ASSERT_TRUE(single
                  .InstallQuery(plan1, [&](const ResultRow& row) {
                    single_rows.push_back(row);
                  })
                  .ok());
  ASSERT_TRUE(single.IngestBatch(Pack(plan1.query_id, events), 0).ok());
  single.OnTick(60 * kMicrosPerSecond);

  // Four shards.
  ShardedCentral sharded(&registry_, 4);
  const CentralPlan plan2 = PlanFor(query, 2);
  std::vector<ResultRow> sharded_rows;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan2, [&](const ResultRow& row) {
                    sharded_rows.push_back(row);
                  })
                  .ok());
  ASSERT_TRUE(sharded.IngestBatch(Pack(plan2.query_id, events), 0).ok());
  sharded.OnTick(60 * kMicrosPerSecond);

  EXPECT_EQ(Render(single_rows), Render(sharded_rows));
  EXPECT_FALSE(single_rows.empty());
}

TEST_F(ShardedCentralTest, JoinPartnersColocate) {
  const char* query =
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 10 s DURATION 10 s;";
  // Build matched bid/impression pairs on shared request ids.
  Rng rng(7);
  std::vector<Event> events;
  for (int i = 0; i < 600; ++i) {
    const RequestId rid = rng.NextUint64();
    Event bid(bid_schema_, rid, 100 + i);
    bid.SetField(0, Value(int64_t{1}));
    bid.SetField(1, Value(1.0));
    events.push_back(std::move(bid));
    Event imp(imp_schema_, rid, 200 + i);
    imp.SetField(0, Value(static_cast<int64_t>(i % 7)));
    imp.SetField(1, Value(0.001));
    events.push_back(std::move(imp));
  }
  ShardedCentral sharded(&registry_, 3);
  const CentralPlan plan = PlanFor(query, 9);
  uint64_t total = 0;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan, [&](const ResultRow& row) {
                    total += static_cast<uint64_t>(row.values[1].AsInt());
                  })
                  .ok());
  ASSERT_TRUE(sharded.IngestBatch(Pack(plan.query_id, events), 0).ok());
  sharded.OnTick(60 * kMicrosPerSecond);
  // Every pair joined despite the sharding.
  EXPECT_EQ(total, 600u);
}

TEST_F(ShardedCentralTest, SketchesMergeAcrossShards) {
  const char* query =
      "SELECT COUNT_DISTINCT(bid.user_id), TOPK(3, bid.user_id) FROM bid "
      "WINDOW 10 s DURATION 10 s;";
  // 2000 distinct users plus one mega-user.
  std::vector<Event> events;
  Rng rng(5);
  for (int64_t u = 0; u < 2000; ++u) {
    Event e(bid_schema_, rng.NextUint64(), 100);
    e.SetField(0, Value(u));
    e.SetField(1, Value(1.0));
    events.push_back(std::move(e));
  }
  for (int i = 0; i < 500; ++i) {
    Event e(bid_schema_, rng.NextUint64(), 100);
    e.SetField(0, Value(int64_t{424242}));
    e.SetField(1, Value(1.0));
    events.push_back(std::move(e));
  }
  ShardedCentral sharded(&registry_, 4);
  const CentralPlan plan = PlanFor(query, 3);
  std::vector<ResultRow> rows;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan, [&](const ResultRow& row) {
                    rows.push_back(row);
                  })
                  .ok());
  ASSERT_TRUE(sharded.IngestBatch(Pack(plan.query_id, events), 0).ok());
  sharded.OnTick(60 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), 1u);
  // 2001 distinct users, ~1% sketch error.
  EXPECT_NEAR(static_cast<double>(rows[0].values[0].AsInt()), 2001.0, 80.0);
  ASSERT_TRUE(rows[0].values[1].is_list());
  ASSERT_FALSE(rows[0].values[1].AsList().empty());
  // The mega-user tops the merged summary.
  EXPECT_NE(rows[0].values[1].AsList()[0].AsString().find("424242:"),
            std::string::npos);
}

TEST_F(ShardedCentralTest, LoadSpreadsAcrossShards) {
  ShardedCentral sharded(&registry_, 4);
  const CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s;", 4);
  ASSERT_TRUE(sharded.InstallQuery(plan, [](const ResultRow&) {}).ok());
  const std::vector<Event> events = RandomBids(4000, 11, 100);
  ASSERT_TRUE(sharded.IngestBatch(Pack(plan.query_id, events), 0).ok());
  const std::vector<uint64_t> loads = sharded.ShardLoads(plan.query_id);
  ASSERT_EQ(loads.size(), 4u);
  uint64_t total = 0;
  for (const uint64_t l : loads) {
    total += l;
    EXPECT_GT(l, 700u);   // roughly balanced (1000 expected per shard)
    EXPECT_LT(l, 1300u);
  }
  EXPECT_EQ(total, 4000u);
}

TEST_F(ShardedCentralTest, AcceptsSampledPlansOfBothKinds) {
  // Sampled plans shard: the shard pipelines stop at WindowClose and the
  // coordinator's Finalize runs the Eq. 1-3 estimator over globally merged
  // counters, so neither sampling flavor is refused anymore.
  ShardedCentral sharded(&registry_, 2);
  const CentralPlan host_sampled = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s "
      "SAMPLE HOSTS 50%;",
      11);
  const CentralPlan event_sampled = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s "
      "SAMPLE EVENTS 25%;",
      12);
  for (const CentralPlan* plan : {&host_sampled, &event_sampled}) {
    const Status status =
        sharded.InstallQuery(*plan, [](const ResultRow&) {});
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(sharded.HasQuery(plan->query_id));
    EXPECT_TRUE(sharded.shard(0).HasQuery(plan->query_id));
    EXPECT_TRUE(sharded.shard(1).HasQuery(plan->query_id));
    EXPECT_TRUE(sharded
                    .IngestBatch(Pack(plan->query_id, RandomBids(10, 1, 5)), 0)
                    .ok());
  }
}

TEST_F(ShardedCentralTest, SampledCountEstimatesPopulationFromCounters) {
  // One host reports 50 of 100 seen events (SAMPLE EVENTS 50%). The
  // coordinator's Finalize must scale the merged readings by the global
  // M_i / m_i: COUNT comes back as exactly 100 — even though the 50 shipped
  // events were split across shards — with a zero bound (all-1.0 readings,
  // no unsampled-host stage, so Eq. 3 variance is 0).
  ShardedCentral sharded(&registry_, 2);
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s "
      "SAMPLE EVENTS 50%;",
      7);
  std::vector<ResultRow> rows;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan,
                                [&](const ResultRow& row) {
                                  rows.push_back(row);
                                })
                  .ok());
  EventBatch batch = Pack(plan.query_id, RandomBids(50, 19, 10));
  WindowCounter counter;
  counter.window_start = plan.start_time;
  counter.seen = 100;
  counter.sampled = 50;
  batch.counters.push_back(counter);
  ASSERT_TRUE(sharded.IngestBatch(batch, 0).ok());
  sharded.OnTick(60 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].values[0].AsNumber(), 100.0);
  ASSERT_EQ(rows[0].error_bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].error_bounds[0], 0.0);
  EXPECT_DOUBLE_EQ(rows[0].completeness, 1.0);
}

TEST_F(ShardedCentralTest, SampledGroupedCountsCarryPerGroupBounds) {
  // Grouped + sampled: each group's estimate is bounded per group at the
  // coordinator. With several hosts sampling at 50%, the per-group COUNT
  // estimates must bracket the true per-group populations within the
  // reported Eq. 2-3 bound, and groups the sample missed entirely still
  // finalize cleanly on the groups it did see.
  constexpr int kHosts = 6;
  constexpr int kPerHost = 200;  // events seen per host
  ShardedCentral sharded(&registry_, 3);
  CentralPlan plan = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 10 s DURATION 10 s SAMPLE EVENTS 50%;",
      8);
  plan.hosts_targeted = kHosts;
  plan.hosts_sampled = kHosts;
  std::vector<ResultRow> rows;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan,
                                [&](const ResultRow& row) {
                                  rows.push_back(row);
                                })
                  .ok());
  // Per host: kPerHost events over 4 users, every second event "sampled".
  std::map<int64_t, uint64_t> truth;  // user -> fleet-wide population
  Rng rng(23);
  for (int h = 0; h < kHosts; ++h) {
    std::vector<Event> shipped;
    uint64_t sampled = 0;
    for (int i = 0; i < kPerHost; ++i) {
      const int64_t user = static_cast<int64_t>(rng.NextBelow(4));
      ++truth[user];
      if (i % 2 == 0) {
        Event e(bid_schema_, rng.NextUint64(), 100 + i);
        e.SetField(0, Value(user));
        e.SetField(1, Value(1.0));
        shipped.push_back(std::move(e));
        ++sampled;
      }
    }
    EventBatch batch = Pack(plan.query_id, shipped);
    batch.host = static_cast<HostId>(h);
    WindowCounter counter;
    counter.window_start = plan.start_time;
    counter.seen = kPerHost;
    counter.sampled = sampled;
    batch.counters.push_back(counter);
    ASSERT_TRUE(sharded.IngestBatch(batch, 0).ok());
  }
  sharded.OnTick(60 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), truth.size());
  for (const ResultRow& row : rows) {
    const int64_t user = row.values[0].AsInt();
    const double estimate = row.values[1].AsNumber();
    const double bound = row.error_bounds[1];
    EXPECT_GT(bound, 0.0);
    EXPECT_LE(std::abs(estimate - static_cast<double>(truth[user])), bound)
        << "user " << user << ": estimate " << estimate << " truth "
        << truth[user] << " bound " << bound;
  }
}

TEST_F(ShardedCentralTest, RawModeShardsAndMatchesSingleInstance) {
  // Raw (non-aggregate) queries shard trivially: each shard emits its own
  // matching rows, the coordinator forwards them in shard-index order. The
  // row *set* must match a single instance exactly.
  const char* query =
      "SELECT bid.user_id, bid.price FROM bid WHERE bid.price > 4.0 "
      "WINDOW 10 s DURATION 10 s;";
  const std::vector<Event> events = RandomBids(2000, 17, 50);

  auto collect = [&](auto& central, QueryId qid) {
    const CentralPlan plan = PlanFor(query, qid);
    std::vector<std::string> rows;
    EXPECT_TRUE(central
                    .InstallQuery(plan, [&](const ResultRow& row) {
                      rows.push_back(row.ToString());
                    })
                    .ok());
    EXPECT_TRUE(central.IngestBatch(Pack(plan.query_id, events), 0).ok());
    central.OnTick(60 * kMicrosPerSecond);
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  ScrubCentral single(&registry_);
  ShardedCentral sharded(&registry_, 4, CentralConfig{}, /*workers=*/2);
  const std::vector<std::string> single_rows = collect(single, 21);
  const std::vector<std::string> sharded_rows = collect(sharded, 22);
  EXPECT_FALSE(single_rows.empty());
  EXPECT_EQ(sharded_rows, single_rows);
}

TEST_F(ShardedCentralTest, RemoveQueryFlushesPendingWindows) {
  ShardedCentral sharded(&registry_, 2);
  const CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s;", 5);
  uint64_t total = 0;
  ASSERT_TRUE(sharded
                  .InstallQuery(plan, [&](const ResultRow& row) {
                    total += static_cast<uint64_t>(row.values[0].AsInt());
                  })
                  .ok());
  const std::vector<Event> events = RandomBids(100, 3, 10);
  ASSERT_TRUE(sharded.IngestBatch(Pack(plan.query_id, events), 0).ok());
  sharded.RemoveQuery(plan.query_id);
  EXPECT_EQ(total, 100u);
  EXPECT_FALSE(sharded.HasQuery(plan.query_id));
}

}  // namespace
}  // namespace scrub
