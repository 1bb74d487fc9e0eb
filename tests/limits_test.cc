// Tests for the load-protection limits: server admission control and the
// central join-state bound — both instances of the paper's "shed, never
// grow without bound" stance.

#include <gtest/gtest.h>

#include "src/central/central.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

TEST(AdmissionControlTest, RejectsBeyondActiveQueryLimit) {
  SystemConfig config;
  config.seed = 3;
  config.platform.seed = 3;
  config.platform.datacenters = 1;
  config.platform.bidservers_per_dc = 1;
  config.platform.adservers_per_dc = 1;
  config.server.max_active_queries = 3;
  ScrubSystem system(config);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(system
                    .Submit("SELECT COUNT(*) FROM bid WINDOW 1 s "
                            "DURATION 30 s;",
                            [](const ResultRow&) {})
                    .ok());
  }
  Result<SubmittedQuery> fourth = system.Submit(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 30 s;",
      [](const ResultRow&) {});
  ASSERT_FALSE(fourth.ok());
  EXPECT_EQ(fourth.status().code(), StatusCode::kResourceExhausted);

  // Cancelling one frees a slot.
  ASSERT_TRUE(system.server().Cancel(1).ok());
  EXPECT_TRUE(system
                  .Submit("SELECT COUNT(*) FROM bid WINDOW 1 s "
                          "DURATION 30 s;",
                          [](const ResultRow&) {})
                  .ok());
}

TEST(JoinBoundTest, ShedsRequestIdsBeyondCapacity) {
  SchemaRegistry registry;
  SchemaPtr bid = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .Build();
  SchemaPtr imp = *EventSchema::Builder("impression")
                       .AddField("cost", FieldType::kDouble)
                       .Build();
  ASSERT_TRUE(registry.Register(bid).ok());
  ASSERT_TRUE(registry.Register(imp).ok());

  CentralConfig config;
  config.max_join_requests_per_window = 100;
  ScrubCentral central(&registry, config);

  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid, impression WINDOW 10 s DURATION 10 s;",
      registry);
  ASSERT_TRUE(aq.ok());
  Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
  ASSERT_TRUE(plan.ok());
  CentralPlan central_plan = plan->central;
  central_plan.hosts_targeted = 1;
  central_plan.hosts_sampled = 1;
  uint64_t total = 0;
  ASSERT_TRUE(central
                  .InstallQuery(central_plan,
                                [&total](const ResultRow& row) {
                                  total += static_cast<uint64_t>(
                                      row.values[0].AsInt());
                                })
                  .ok());

  // 300 matched pairs on distinct request ids: only the first 100 rids fit.
  std::vector<Event> events;
  for (RequestId rid = 1; rid <= 300; ++rid) {
    Event b(bid, rid, 100);
    b.SetField(0, Value(int64_t{1}));
    events.push_back(std::move(b));
    Event i(imp, rid, 200);
    i.SetField(0, Value(0.001));
    events.push_back(std::move(i));
  }
  EventBatch batch;
  batch.query_id = central_plan.query_id;
  batch.host = 0;
  batch.event_count = events.size();
  batch.format = EncodeEvents(events, &batch.payload);
  ASSERT_TRUE(central.IngestBatch(batch, 0).ok());
  central.OnTick(60 * kMicrosPerSecond);

  const CentralQueryStats* stats = central.StatsFor(central_plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(total, 100u);            // joined within the bound
  EXPECT_EQ(stats->join_shed, 400u); // 200 pairs shed, both sides counted
}

TEST(JoinBoundTest, BoundIsPerWindow) {
  SchemaRegistry registry;
  SchemaPtr bid = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .Build();
  SchemaPtr imp = *EventSchema::Builder("impression")
                       .AddField("cost", FieldType::kDouble)
                       .Build();
  ASSERT_TRUE(registry.Register(bid).ok());
  ASSERT_TRUE(registry.Register(imp).ok());
  CentralConfig config;
  config.max_join_requests_per_window = 50;
  ScrubCentral central(&registry, config);
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid, impression WINDOW 1 s DURATION 10 s;",
      registry);
  ASSERT_TRUE(aq.ok());
  Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
  CentralPlan central_plan = plan->central;
  central_plan.hosts_targeted = 1;
  central_plan.hosts_sampled = 1;
  uint64_t total = 0;
  ASSERT_TRUE(central
                  .InstallQuery(central_plan,
                                [&total](const ResultRow& row) {
                                  total += static_cast<uint64_t>(
                                      row.values[0].AsInt());
                                })
                  .ok());
  // 50 pairs in each of two windows: the bound resets per window.
  std::vector<Event> events;
  RequestId rid = 1;
  for (const TimeMicros base : {TimeMicros{100}, kMicrosPerSecond + 100}) {
    for (int i = 0; i < 50; ++i, ++rid) {
      Event b(bid, rid, base);
      b.SetField(0, Value(int64_t{1}));
      events.push_back(std::move(b));
      Event im(imp, rid, base + 10);
      im.SetField(0, Value(0.001));
      events.push_back(std::move(im));
    }
  }
  EventBatch batch;
  batch.query_id = central_plan.query_id;
  batch.host = 0;
  batch.event_count = events.size();
  batch.format = EncodeEvents(events, &batch.payload);
  ASSERT_TRUE(central.IngestBatch(batch, 0).ok());
  central.OnTick(60 * kMicrosPerSecond);
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(central.StatsFor(central_plan.query_id)->join_shed, 0u);
}

}  // namespace
}  // namespace scrub
