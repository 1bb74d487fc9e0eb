// Unit tests for ScrubCentral: windowing, grouping, aggregate finalization,
// the request-id join, late-event handling, and sampling-aware estimates.

#include <map>

#include <gtest/gtest.h>

#include "src/central/central.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

class CentralTest : public ::testing::Test {
 protected:
  CentralTest() {
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
    central_ = std::make_unique<ScrubCentral>(&registry_);
  }

  CentralPlan PlanFor(std::string_view text, uint64_t hosts_targeted = 1,
                      uint64_t hosts_sampled = 1) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, next_id_++, /*submit=*/0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = hosts_targeted;
    central.hosts_sampled = hosts_sampled;
    return central;
  }

  // Packs events into a batch from `host` with optional counters.
  EventBatch MakeBatch(QueryId qid, HostId host, std::vector<Event> events,
                       std::vector<WindowCounter> counters = {}) {
    EventBatch batch;
    batch.query_id = qid;
    batch.host = host;
    batch.event_count = events.size();
    std::string encoded;
    batch.format = EncodeEvents(events, &encoded);
    batch.payload = BatchPayload(std::move(encoded));
    batch.counters = std::move(counters);
    return batch;
  }

  Event MakeBid(RequestId rid, TimeMicros ts, int64_t user, double price) {
    Event e(bid_schema_, rid, ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(price));
    return e;
  }

  Event MakeImpression(RequestId rid, TimeMicros ts, int64_t item,
                       double cost) {
    Event e(imp_schema_, rid, ts);
    e.SetField(0, Value(item));
    e.SetField(1, Value(cost));
    return e;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr imp_schema_;
  std::unique_ptr<ScrubCentral> central_;
  QueryId next_id_ = 1;
  std::vector<ResultRow> rows_;

  ResultSink Sink() {
    return [this](const ResultRow& row) { rows_.push_back(row); };
  }
};

TEST_F(CentralTest, GroupByCountAcrossWindows) {
  CentralPlan plan = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 1 s DURATION 10 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  std::vector<Event> events;
  // Window 0: user 1 twice, user 2 once. Window 1: user 1 once.
  events.push_back(MakeBid(1, 100, 1, 1.0));
  events.push_back(MakeBid(2, 200, 1, 1.0));
  events.push_back(MakeBid(3, 300, 2, 1.0));
  events.push_back(MakeBid(4, 1'200'000, 1, 1.0));
  ASSERT_TRUE(central_->IngestBatch(MakeBatch(plan.query_id, 0, events), 0)
                  .ok());
  central_->OnTick(20 * kMicrosPerSecond);

  std::map<std::pair<TimeMicros, int64_t>, int64_t> got;
  for (const ResultRow& row : rows_) {
    got[{row.window_start, row.values[0].AsInt()}] = row.values[1].AsInt();
  }
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ((got[{0, 1}]), 2);
  EXPECT_EQ((got[{0, 2}]), 1);
  EXPECT_EQ((got[{1'000'000, 1}]), 1);
}

TEST_F(CentralTest, AllAggregateFunctions) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*), SUM(bid.price), AVG(bid.price), MIN(bid.price), "
      "MAX(bid.price), COUNT_DISTINCT(bid.user_id), TOPK(2, bid.user_id) "
      "FROM bid WINDOW 10 s DURATION 10 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    // Users 1..5 twice each; prices 1..10.
    events.push_back(MakeBid(static_cast<RequestId>(i), 100 + i,
                             (i % 5) + 1, i + 1.0));
  }
  ASSERT_TRUE(central_->IngestBatch(MakeBatch(plan.query_id, 0, events), 0)
                  .ok());
  central_->OnTick(30 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  const ResultRow& row = rows_[0];
  EXPECT_EQ(row.values[0], Value(int64_t{10}));
  EXPECT_EQ(row.values[1], Value(55.0));
  EXPECT_EQ(row.values[2], Value(5.5));
  EXPECT_EQ(row.values[3], Value(1.0));
  EXPECT_EQ(row.values[4], Value(10.0));
  EXPECT_EQ(row.values[5], Value(int64_t{5}));
  ASSERT_TRUE(row.values[6].is_list());
  EXPECT_EQ(row.values[6].AsList().size(), 2u);  // top-2 users
}

TEST_F(CentralTest, EmptyWindowStillEmitsForUngroupedQuery) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 3 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  // One event in the middle window only.
  ASSERT_TRUE(central_
                  ->IngestBatch(MakeBatch(plan.query_id, 0,
                                          {MakeBid(1, 1'500'000, 1, 1.0)}),
                                0)
                  .ok());
  central_->OnTick(10 * kMicrosPerSecond);
  // Windows at 0s and 1s got data ingested or created? Only the window the
  // event touched exists plus... ungrouped queries emit for *created*
  // windows; window 1 exists, emits count=1.
  ASSERT_FALSE(rows_.empty());
  bool found = false;
  for (const ResultRow& row : rows_) {
    if (row.window_start == 1'000'000) {
      EXPECT_EQ(row.values[0], Value(int64_t{1}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CentralTest, RawModeEmitsPerEvent) {
  CentralPlan plan = PlanFor(
      "SELECT bid.user_id, bid.price FROM bid WINDOW 10 s DURATION 10 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  ASSERT_TRUE(central_
                  ->IngestBatch(MakeBatch(plan.query_id, 0,
                                          {MakeBid(1, 100, 4, 2.5),
                                           MakeBid(2, 200, 5, 3.5)}),
                                0)
                  .ok());
  // Raw rows are eager: no tick needed.
  ASSERT_EQ(rows_.size(), 2u);
  EXPECT_EQ(rows_[0].values[0], Value(int64_t{4}));
  EXPECT_EQ(rows_[1].values[1], Value(3.5));
}

TEST_F(CentralTest, JoinMatchesWithinWindowOnly) {
  CentralPlan plan = PlanFor(
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 1 s DURATION 10 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  std::vector<Event> events;
  // rid 1: bid + impression in same window -> joins.
  events.push_back(MakeBid(1, 100, 1, 1.0));
  events.push_back(MakeImpression(1, 200, 77, 0.001));
  // rid 2: bid in window 0, impression in window 1 -> no join.
  events.push_back(MakeBid(2, 900'000, 1, 1.0));
  events.push_back(MakeImpression(2, 1'100'000, 88, 0.001));
  ASSERT_TRUE(central_->IngestBatch(MakeBatch(plan.query_id, 0, events), 0)
                  .ok());
  central_->OnTick(20 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_EQ(rows_[0].values[0], Value(int64_t{77}));
  EXPECT_EQ(rows_[0].values[1], Value(int64_t{1}));
  const CentralQueryStats* stats = central_->StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->tuples_joined, 1u);
  EXPECT_GT(stats->join_orphans, 0u);
}

TEST_F(CentralTest, JoinCrossProductForRepeatedRequestIds) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid, impression WINDOW 10 s DURATION 10 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  std::vector<Event> events;
  // One bid and three impressions on the same request id: 3 tuples.
  events.push_back(MakeBid(5, 100, 1, 1.0));
  events.push_back(MakeImpression(5, 200, 1, 0.001));
  events.push_back(MakeImpression(5, 300, 2, 0.001));
  events.push_back(MakeImpression(5, 400, 3, 0.001));
  ASSERT_TRUE(central_->IngestBatch(MakeBatch(plan.query_id, 0, events), 0)
                  .ok());
  central_->OnTick(30 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_EQ(rows_[0].values[0], Value(int64_t{3}));
}

// The accountant's charges are the literals of src/common/state_bytes.h —
// the same ones the scrubql-window-state-budget lint predicts with — so one
// window's peak is an exact formula in groups, request ids and events.
TEST_F(CentralTest, WindowStatePeakMatchesChargedFormula) {
  CentralConfig config;
  config.track_state_bytes = true;
  ScrubCentral central(&registry_, config);

  // 3 groups, each: shell 96 B + two accumulators at 120 B + one HLL
  // (2^14 registers + 64 B shell) + the key's wire size (a long: 9 B).
  CentralPlan grouped = PlanFor(
      "SELECT bid.user_id, COUNT(*), COUNT_DISTINCT(bid.price) FROM bid "
      "GROUP BY bid.user_id WINDOW 10 s DURATION 10 s;");
  ASSERT_TRUE(central.InstallQuery(grouped, Sink()).ok());
  std::vector<Event> bids;
  for (int i = 0; i < 9; ++i) {
    bids.push_back(MakeBid(static_cast<RequestId>(i), 100 + i, i % 3, i));
  }
  ASSERT_TRUE(central.IngestBatch(MakeBatch(grouped.query_id, 0, bids), 0)
                  .ok());
  EXPECT_EQ(central.accountant().peak(grouped.query_id),
            3u * (96 + 2 * 120 + ((1u << 14) + 64) + 9));

  // Join: 64 + 2 x 24 B per request id, 48 B + wire size per buffered event
  // (bid 41 B, impression 48 B), plus the one ungrouped group (96 + 120 B).
  CentralPlan joined = PlanFor(
      "SELECT COUNT(*) FROM bid, impression WINDOW 10 s DURATION 10 s;");
  ASSERT_TRUE(central.InstallQuery(joined, Sink()).ok());
  ASSERT_EQ(MakeBid(1, 100, 1, 1.0).WireSize(), 41u);
  ASSERT_EQ(MakeImpression(1, 200, 7, 0.5).WireSize(), 48u);
  std::vector<Event> events = {
      MakeBid(1, 100, 1, 1.0), MakeBid(2, 110, 1, 1.0),
      MakeBid(3, 120, 1, 1.0), MakeImpression(1, 200, 7, 0.5),
      MakeImpression(2, 210, 7, 0.5)};
  ASSERT_TRUE(central.IngestBatch(MakeBatch(joined.query_id, 0, events), 0)
                  .ok());
  EXPECT_EQ(central.accountant().peak(joined.query_id),
            3u * (64 + 2 * 24) + 3u * (48 + 41) + 2u * (48 + 48) +
                (96 + 120));
}

// A group is charged once, when it is created, even when it holds no
// accumulators: a GROUP BY with no aggregates must not look like a new
// group on every row, or a budget would spill or shed it for nothing.
TEST_F(CentralTest, GroupByWithoutAggregatesChargesEachGroupOnce) {
  CentralConfig config;
  config.track_state_bytes = true;
  ScrubCentral central(&registry_, config);
  CentralPlan keys_only = PlanFor(
      "SELECT bid.user_id FROM bid GROUP BY bid.user_id "
      "WINDOW 10 s DURATION 10 s;");
  CentralPlan counted = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 10 s DURATION 10 s;");
  ASSERT_TRUE(central.InstallQuery(keys_only, Sink()).ok());
  ASSERT_TRUE(central.InstallQuery(counted, Sink()).ok());
  std::vector<Event> bids;
  for (int i = 0; i < 300; ++i) {
    bids.push_back(MakeBid(static_cast<RequestId>(i), 100 + i, i % 3, i));
  }
  for (const CentralPlan* plan : {&keys_only, &counted}) {
    ASSERT_TRUE(
        central.IngestBatch(MakeBatch(plan->query_id, 0, bids), 0).ok());
  }
  // 3 groups: shell 96 B + the key's wire size (a long: 9 B), plus one
  // 120 B accumulator each for COUNT(*).
  const size_t keys_peak = central.accountant().peak(keys_only.query_id);
  const size_t counted_peak = central.accountant().peak(counted.query_id);
  EXPECT_EQ(keys_peak, 3u * (96 + 9));
  EXPECT_EQ(counted_peak, 3u * (96 + 120 + 9));
  EXPECT_LE(keys_peak, counted_peak);
}

TEST_F(CentralTest, LateEventsDroppedAndCounted) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 10 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  ASSERT_TRUE(central_
                  ->IngestBatch(
                      MakeBatch(plan.query_id, 0, {MakeBid(1, 100, 1, 1.0)}),
                      0)
                  .ok());
  // Close window 0 (end 1s + 2s lateness).
  central_->OnTick(4 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  // A straggler for window 0 arrives after the close.
  ASSERT_TRUE(central_
                  ->IngestBatch(
                      MakeBatch(plan.query_id, 0, {MakeBid(2, 500, 1, 1.0)}),
                      0)
                  .ok());
  const CentralQueryStats* stats = central_->StatsFor(plan.query_id);
  EXPECT_EQ(stats->events_late, 1u);
  // No duplicate emission for the closed window.
  central_->OnTick(20 * kMicrosPerSecond);
  for (const ResultRow& row : rows_) {
    if (row.window_start == 0) {
      EXPECT_EQ(row.values[0], Value(int64_t{1}));
    }
  }
}

TEST_F(CentralTest, BatchForUnknownQueryIsIgnored) {
  EventBatch batch = MakeBatch(999, 0, {MakeBid(1, 100, 1, 1.0)});
  EXPECT_TRUE(central_->IngestBatch(batch, 0).ok());
}

TEST_F(CentralTest, UnknownBatchFormatIsRejectedAndFoldsNothing) {
  // Only the two columnar formats fold. An unassigned format byte (2) is
  // refused even when the payload would decode as columnar.
  CentralPlan plan = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 2 s DURATION 10 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  EventBatch batch = MakeBatch(plan.query_id, 0, {MakeBid(1, 100, 3, 1.0)});
  batch.format = static_cast<BatchFormat>(2);
  ASSERT_FALSE(batch.payload.empty());
  const Status status = central_->IngestBatch(batch, 0);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.ToString().find("batch format 2"), std::string::npos)
      << status.ToString();
  ASSERT_NE(central_->StatsFor(plan.query_id), nullptr);
  EXPECT_EQ(central_->StatsFor(plan.query_id)->events_ingested, 0u);
  central_->OnTick(60 * kMicrosPerSecond);
  EXPECT_TRUE(rows_.empty());
}

TEST_F(CentralTest, DuplicateInstallRejected) {
  CentralPlan plan = PlanFor("SELECT COUNT(*) FROM bid;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  EXPECT_EQ(central_->InstallQuery(plan, Sink()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CentralTest, RemoveQueryFlushesOpenWindows) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  ASSERT_TRUE(central_
                  ->IngestBatch(
                      MakeBatch(plan.query_id, 0, {MakeBid(1, 100, 1, 1.0)}),
                      0)
                  .ok());
  EXPECT_TRUE(rows_.empty());
  central_->RemoveQuery(plan.query_id);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_FALSE(central_->HasQuery(plan.query_id));
  EXPECT_NE(central_->StatsFor(plan.query_id), nullptr);
}

TEST_F(CentralTest, QueryRetiresAfterSpanPlusGrace) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 2 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  central_->OnTick(1 * kMicrosPerSecond);
  EXPECT_TRUE(central_->HasQuery(plan.query_id));
  central_->OnTick(10 * kMicrosPerSecond);
  EXPECT_FALSE(central_->HasQuery(plan.query_id));
}

TEST_F(CentralTest, SampledCountScalesByCounters) {
  // One host, event sampling 25%: seen=400, sampled=100, all shipped.
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s "
      "SAMPLE EVENTS 25%;",
      /*hosts_targeted=*/1, /*hosts_sampled=*/1);
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  std::vector<Event> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(MakeBid(static_cast<RequestId>(i), 100 + i, 1, 1.0));
  }
  std::vector<WindowCounter> counters = {{0, 400, 100}};
  ASSERT_TRUE(central_
                  ->IngestBatch(
                      MakeBatch(plan.query_id, 0, events, counters), 0)
                  .ok());
  central_->OnTick(30 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  ASSERT_TRUE(rows_[0].values[0].is_double());
  // (M/m) * m readings of 1 = M = 400.
  EXPECT_NEAR(rows_[0].values[0].AsDoubleExact(), 400.0, 1e-6);
}

TEST_F(CentralTest, HostSamplingExtrapolatesAcrossFleet) {
  // 10 hosts targeted, 2 sampled; each sampled host reports 50 events.
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s "
      "SAMPLE HOSTS 20%;",
      /*hosts_targeted=*/10, /*hosts_sampled=*/2);
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  for (HostId host = 0; host < 2; ++host) {
    std::vector<Event> events;
    for (int i = 0; i < 50; ++i) {
      events.push_back(
          MakeBid(static_cast<RequestId>(host * 1000 + i), 100 + i, 1, 1.0));
    }
    std::vector<WindowCounter> counters = {{0, 50, 50}};
    ASSERT_TRUE(central_
                    ->IngestBatch(
                        MakeBatch(plan.query_id, host, events, counters), 0)
                    .ok());
  }
  central_->OnTick(30 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  // (N/n) * sum M_i = (10/2) * 100 = 500.
  EXPECT_NEAR(rows_[0].values[0].AsDoubleExact(), 500.0, 1e-6);
}

TEST_F(CentralTest, GroupedScaledCountsUseRatioEstimator) {
  CentralPlan plan = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 10 s DURATION 10 s SAMPLE EVENTS 50%;",
      /*hosts_targeted=*/1, /*hosts_sampled=*/1);
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  std::vector<Event> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(MakeBid(static_cast<RequestId>(i), 100 + i, 1, 1.0));
  }
  // Agent saw 40, sampled 20 (rate 0.5 exactly).
  std::vector<WindowCounter> counters = {{0, 40, 20}};
  ASSERT_TRUE(central_
                  ->IngestBatch(
                      MakeBatch(plan.query_id, 0, events, counters), 0)
                  .ok());
  central_->OnTick(30 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  // 20 observed * (40/20) = 40.
  EXPECT_NEAR(rows_[0].values[1].AsDoubleExact(), 40.0, 1e-6);
}

// --- Sequenced-batch dedup and completeness ---------------------------------

TEST_F(CentralTest, SequencedDuplicateBatchesFoldOnlyOnce) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  EventBatch batch = MakeBatch(plan.query_id, 0, {MakeBid(1, 100, 1, 1.0)},
                               {{0, 1, 1}});
  batch.seq = 1;
  // A retransmit that raced its ack: same batch arrives twice. Events AND
  // counters must fold exactly once.
  ASSERT_TRUE(central_->IngestBatch(batch, 0).ok());
  ASSERT_TRUE(central_->IngestBatch(batch, 0).ok());
  central_->OnTick(10 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_EQ(rows_[0].values[0].AsInt(), 1);
  const CentralQueryStats* stats = central_->StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->batches, 2u);
  EXPECT_EQ(stats->batches_duplicate, 1u);
  EXPECT_EQ(stats->events_ingested, 1u);
}

TEST_F(CentralTest, OutOfOrderSequencesAreNotDuplicates) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  EventBatch second = MakeBatch(plan.query_id, 0, {MakeBid(2, 200, 1, 1.0)});
  second.seq = 2;
  EventBatch first = MakeBatch(plan.query_id, 0, {MakeBid(1, 100, 1, 1.0)});
  first.seq = 1;
  // Reordered network: seq 2 overtakes seq 1. Both are fresh data.
  ASSERT_TRUE(central_->IngestBatch(second, 0).ok());
  ASSERT_TRUE(central_->IngestBatch(first, 0).ok());
  central_->OnTick(10 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_EQ(rows_[0].values[0].AsInt(), 2);
  EXPECT_EQ(central_->StatsFor(plan.query_id)->batches_duplicate, 0u);
}

TEST_F(CentralTest, EpochsSeparateAgentIncarnations) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  EventBatch before = MakeBatch(plan.query_id, 0, {MakeBid(1, 100, 1, 1.0)});
  before.seq = 1;
  before.epoch = 0;
  // The host restarted: the fresh agent starts its stream at seq 1 again,
  // but under a bumped epoch, so it is not mistaken for a duplicate.
  EventBatch after = MakeBatch(plan.query_id, 0, {MakeBid(2, 200, 1, 1.0)});
  after.seq = 1;
  after.epoch = 1;
  ASSERT_TRUE(central_->IngestBatch(before, 0).ok());
  ASSERT_TRUE(central_->IngestBatch(after, 0).ok());
  central_->OnTick(10 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_EQ(rows_[0].values[0].AsInt(), 2);
  EXPECT_EQ(central_->StatsFor(plan.query_id)->batches_duplicate, 0u);
}

TEST_F(CentralTest, CompletenessReflectsHostsHeardFrom) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s;",
      /*hosts_targeted=*/4, /*hosts_sampled=*/4);
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  // Only 2 of the 4 expected hosts reach central before the window closes.
  for (HostId host : {HostId{0}, HostId{1}}) {
    ASSERT_TRUE(central_
                    ->IngestBatch(MakeBatch(plan.query_id, host,
                                            {MakeBid(host + 1, 100, 1, 1.0)},
                                            {{0, 1, 1}}),
                                  0)
                    .ok());
  }
  central_->OnTick(10 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_DOUBLE_EQ(rows_[0].completeness, 0.5);
  EXPECT_NE(rows_[0].ToString().find("[completeness 0.50]"),
            std::string::npos);
  const CentralQueryStats* stats = central_->StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->windows_incomplete, 1u);
  EXPECT_DOUBLE_EQ(stats->completeness_min, 0.5);
}

TEST_F(CentralTest, FullAttendanceRowsStayCleanlyRendered) {
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s;",
      /*hosts_targeted=*/2, /*hosts_sampled=*/2);
  ASSERT_TRUE(central_->InstallQuery(plan, Sink()).ok());
  for (HostId host : {HostId{0}, HostId{1}}) {
    // A heartbeat counter is enough to count as heard-from.
    ASSERT_TRUE(central_
                    ->IngestBatch(MakeBatch(plan.query_id, host,
                                            host == 0
                                                ? std::vector<Event>{MakeBid(
                                                      1, 100, 1, 1.0)}
                                                : std::vector<Event>{},
                                            {{0, 0, 0}}),
                                  0)
                    .ok());
  }
  central_->OnTick(10 * kMicrosPerSecond);
  ASSERT_EQ(rows_.size(), 1u);
  EXPECT_DOUBLE_EQ(rows_[0].completeness, 1.0);
  // Complete windows render exactly as before completeness existed.
  EXPECT_EQ(rows_[0].ToString().find("completeness"), std::string::npos);
  const CentralQueryStats* stats = central_->StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->windows_incomplete, 0u);
}

}  // namespace
}  // namespace scrub
