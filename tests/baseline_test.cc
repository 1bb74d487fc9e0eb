// Unit tests for the full-logging baseline pipeline and its batch query
// engine.

#include <gtest/gtest.h>

#include "src/baseline/logging_baseline.h"

namespace scrub {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : transport_(&scheduler_, &registry_) {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .AddField("country", FieldType::kString)
                   .Build();
    EXPECT_TRUE(schemas_.Register(schema_).ok());
    host_a_ = registry_.AddHost("a", "BidServers", "DC1");
    host_b_ = registry_.AddHost("b", "BidServers", "DC2");
    warehouse_ = registry_.AddHost("warehouse", "Warehouse", "DC1",
                                   /*monitorable=*/false);
    pipeline_ = std::make_unique<LoggingPipeline>(
        &scheduler_, &transport_, &registry_, &schemas_, warehouse_);
    logger_ = pipeline_->Logger();
  }

  Event MakeBid(RequestId rid, TimeMicros ts, int64_t user, double price,
                const char* country = "US") {
    Event e(schema_, rid, ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(price));
    e.SetField(2, Value(country));
    return e;
  }

  Scheduler scheduler_;
  HostRegistry registry_;
  Transport transport_;
  SchemaRegistry schemas_;
  SchemaPtr schema_;
  HostId host_a_ = kInvalidHost;
  HostId host_b_ = kInvalidHost;
  HostId warehouse_ = kInvalidHost;
  std::unique_ptr<LoggingPipeline> pipeline_;
  EventLoggerFn logger_;
};

TEST_F(BaselineTest, LoggingChargesHostsAndShipsEverything) {
  for (int i = 0; i < 100; ++i) {
    const int64_t ns = logger_(host_a_, MakeBid(i, 100 + i, i % 10, 1.5));
    EXPECT_GT(ns, 0);
  }
  EXPECT_GT(registry_.meter(host_a_).scrub_ns(), 0);
  EXPECT_EQ(pipeline_->events_stored(), 0u);  // staged, not shipped yet
  pipeline_->PumpFlushes();
  scheduler_.RunUntil(kMicrosPerSecond);
  EXPECT_EQ(pipeline_->events_stored(), 100u);
  EXPECT_GT(pipeline_->bytes_stored(), 0u);
  EXPECT_GT(transport_.bytes_sent(TrafficCategory::kBaselineLog), 0u);
  EXPECT_GT(pipeline_->data_complete_at(), 0);
}

TEST_F(BaselineTest, BatchQueryMatchesExpectedAggregates) {
  // 60 events: users 0..5, prices 1..60, two hosts.
  for (int i = 0; i < 60; ++i) {
    logger_(i % 2 ? host_a_ : host_b_,
            MakeBid(static_cast<RequestId>(i), 1000 + i, i % 6, i + 1.0));
  }
  pipeline_->PumpFlushes();
  scheduler_.RunUntil(kMicrosPerSecond);

  Result<LoggingPipeline::BatchAnswer> answer = pipeline_->RunQuery(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 1 h;");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->events_scanned, 60u);
  EXPECT_GT(answer->processing_ns, 0);
  EXPECT_GE(answer->answer_at, pipeline_->data_complete_at());
  ASSERT_EQ(answer->rows.size(), 6u);
  for (const ResultRow& row : answer->rows) {
    EXPECT_EQ(row.values[1], Value(int64_t{10}));
  }
}

TEST_F(BaselineTest, BatchQueryAppliesSelection) {
  for (int i = 0; i < 40; ++i) {
    logger_(host_a_, MakeBid(static_cast<RequestId>(i), 1000 + i, 1,
                             i < 10 ? 5.0 : 0.5));
  }
  pipeline_->PumpFlushes();
  scheduler_.RunUntil(kMicrosPerSecond);
  Result<LoggingPipeline::BatchAnswer> answer = pipeline_->RunQuery(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 1.0 WINDOW 1 h;");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_FALSE(answer->rows.empty());
  EXPECT_EQ(answer->rows[0].values[0], Value(int64_t{10}));
}

TEST_F(BaselineTest, BatchSpanLongerThanTheWindowRoundsToTheSlideGrid) {
  // A second of traffic queried with a 100 ms window: the span widened to
  // the last arrival is off the window grid, and RunQuery rounds it up
  // rather than handing the analyzer a duration it refuses.
  for (int round = 0; round < 10; ++round) {
    scheduler_.RunUntil(round * 100 * kMicrosPerMilli);
    for (int i = 0; i < 5; ++i) {
      logger_(host_a_, MakeBid(static_cast<RequestId>(round * 5 + i),
                               scheduler_.Now() + i, i, 1.5));
    }
    pipeline_->PumpFlushes();
  }
  scheduler_.RunUntil(2 * kMicrosPerSecond);
  const TimeMicros window = 100 * kMicrosPerMilli;
  ASSERT_GT(pipeline_->data_complete_at(), window);
  ASSERT_NE((pipeline_->data_complete_at() + 1) % window, 0);

  Result<LoggingPipeline::BatchAnswer> answer =
      pipeline_->RunQuery("SELECT COUNT(*) FROM bid WINDOW 100 ms;");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->events_scanned, 50u);
  int64_t counted = 0;
  for (const ResultRow& row : answer->rows) {
    counted += row.values[0].AsInt();
  }
  EXPECT_EQ(counted, 50);
}

TEST_F(BaselineTest, InvalidBatchQueryRejected) {
  EXPECT_FALSE(pipeline_->RunQuery("SELECT COUNT(*) FROM ghost;").ok());
}

TEST_F(BaselineTest, BaselineShipsMoreBytesThanScrubWould) {
  // The core E11 claim in miniature: the baseline ships full events; a
  // Scrub query projecting one field of 10% of events ships far less. Here
  // we just verify the baseline's byte accounting reflects full payloads.
  uint64_t full_bytes = 0;
  for (int i = 0; i < 50; ++i) {
    Event e = MakeBid(static_cast<RequestId>(i), 1000 + i, i, 2.0,
                      "somewhat_long_country_name");
    full_bytes += e.WireSize();
    logger_(host_a_, e);
  }
  pipeline_->PumpFlushes();
  scheduler_.RunUntil(kMicrosPerSecond);
  // Batch overhead exists but the payload dominates.
  EXPECT_GE(transport_.bytes_sent(TrafficCategory::kBaselineLog),
            full_bytes);
}

// The batch engine's selection charges what a Scrub agent charges:
// predicate_term_ns per instruction of the folded, pruned programs. The
// redundant WHERE folds and prunes down to `price > 2.0`, so both answer
// and cost are identical.
TEST_F(BaselineTest, SelectionChargesTheFoldedProgramsLikeTheAgent) {
  for (int i = 0; i < 40; ++i) {
    logger_(host_a_, MakeBid(static_cast<RequestId>(i), 1000 + i, 1,
                             (i % 5) * 1.0));
  }
  pipeline_->PumpFlushes();
  scheduler_.RunUntil(kMicrosPerSecond);
  Result<LoggingPipeline::BatchAnswer> redundant = pipeline_->RunQuery(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 4.0 / 2.0 AND "
      "bid.price > 1.0 WINDOW 1 h;");
  Result<LoggingPipeline::BatchAnswer> plain = pipeline_->RunQuery(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 2.0 WINDOW 1 h;");
  ASSERT_TRUE(redundant.ok()) << redundant.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_FALSE(plain->rows.empty());
  EXPECT_EQ(plain->rows[0].values[0], Value(int64_t{16}));
  EXPECT_EQ(redundant->rows[0].values, plain->rows[0].values);
  EXPECT_EQ(redundant->processing_ns, plain->processing_ns);
}

TEST_F(BaselineTest, ContradictoryWhereShipsNothingAndChargesNoPredicate) {
  for (int i = 0; i < 40; ++i) {
    logger_(host_a_, MakeBid(static_cast<RequestId>(i), 1000 + i, 1,
                             (i % 5) * 1.0));
  }
  pipeline_->PumpFlushes();
  scheduler_.RunUntil(kMicrosPerSecond);
  Result<LoggingPipeline::BatchAnswer> answer = pipeline_->RunQuery(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 5.0 AND bid.price < 1.0 "
      "WINDOW 1 h;");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->events_scanned, 40u);
  for (const ResultRow& row : answer->rows) {
    EXPECT_EQ(row.values[0], Value(int64_t{0}));
  }
  // Only the warehouse scan is paid: no predicate work, nothing ingested.
  EXPECT_EQ(answer->processing_ns, 40 * BaselineConfig{}.scan_cost_ns);
}

}  // namespace
}  // namespace scrub
