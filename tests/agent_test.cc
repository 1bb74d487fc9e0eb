// Unit tests for the per-host ScrubAgent: selection, projection, sampling,
// shedding, window counters, flush batching, self-expiry, and the shared
// staging batches every query's staged rows point into.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/agent/agent.h"
#include "src/event/wire.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

// Decodes any event-bearing batch format into events in shipping order.
std::vector<Event> DecodeShipped(const SchemaRegistry& registry,
                                 const EventBatch& batch) {
  std::vector<Event> out;
  switch (batch.format) {
    case BatchFormat::kColumnar: {
      if (batch.event_count == 0) {
        break;  // counters-only: no payload
      }
      Result<ColumnBatch> cols = DecodeColumnBatch(registry, batch.payload);
      EXPECT_TRUE(cols.ok()) << cols.status().ToString();
      for (size_t r = 0; cols.ok() && r < cols->rows(); ++r) {
        out.push_back(cols->MaterializeEvent(r));
      }
      break;
    }
    case BatchFormat::kColumnarJoin: {
      Result<ColumnJoinBatch> join =
          DecodeColumnJoinBatch(registry, batch.payload);
      EXPECT_TRUE(join.ok()) << join.status().ToString();
      if (join.ok()) {
        std::vector<size_t> cursor(join->sections.size(), 0);
        for (const uint8_t s : join->order) {
          out.push_back(join->sections[s].MaterializeEvent(cursor[s]++));
        }
      }
      break;
    }
    case BatchFormat::kPreAgg:
      ADD_FAILURE() << "unexpected pre-aggregated batch";
      break;
  }
  return out;
}

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() : meter_(), agent_(MakeAgent()) {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .AddField("country", FieldType::kString)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  ScrubAgent MakeAgent(size_t staging = 64) {
    AgentConfig config;
    config.staging_capacity = staging;
    return ScrubAgent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  }

  HostPlan PlanFor(std::string_view text, TimeMicros submit = 0) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, next_id_++, submit);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan->host;
  }

  Event MakeBid(RequestId rid, TimeMicros ts, int64_t user, double price) {
    Event e(schema_, rid, ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(price));
    e.SetField(2, Value("US"));
    return e;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
  CostMeter meter_;
  ScrubAgent agent_;
  QueryId next_id_ = 1;
};

TEST_F(AgentTest, NoQueriesStillChargesLogFloor) {
  const int64_t ns = agent_.LogEvent(MakeBid(1, 10, 5, 1.0));
  EXPECT_GT(ns, 0);
  EXPECT_EQ(meter_.scrub_ns(), ns);
  EXPECT_EQ(agent_.total_events_logged(), 1u);
  // Nothing staged.
  EXPECT_TRUE(agent_.Flush(100).empty());
}

TEST_F(AgentTest, SelectionFiltersAndProjectionNulls) {
  agent_.InstallQuery(PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;"));
  agent_.LogEvent(MakeBid(1, 10, 7, 3.0));   // passes
  agent_.LogEvent(MakeBid(2, 11, 8, 1.0));   // filtered
  std::vector<EventBatch> batches = agent_.Flush(20);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].format, BatchFormat::kColumnar);
  EXPECT_EQ(batches[0].event_count, 1u);
  const std::vector<Event> events = DecodeShipped(registry_, batches[0]);
  ASSERT_EQ(events.size(), 1u);
  const Event& shipped = events[0];
  EXPECT_EQ(shipped.GetField("user_id"), Value(int64_t{7}));
  EXPECT_EQ(shipped.GetField("price"), Value(3.0));  // read by WHERE
  EXPECT_TRUE(shipped.GetField("country").is_null());  // projected away

  const AgentQueryStats* stats = agent_.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_considered, 2u);
  EXPECT_EQ(stats->events_filtered, 1u);
  EXPECT_EQ(stats->events_staged, 1u);
  EXPECT_EQ(stats->events_shipped, 1u);
}

TEST_F(AgentTest, WindowCountersTrackSeenAndSampled) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 10 s;"));
  // 3 events in window [0,1s), 2 in [1s,2s).
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  agent_.LogEvent(MakeBid(2, 200, 1, 1.0));
  agent_.LogEvent(MakeBid(3, 900'000, 1, 1.0));
  agent_.LogEvent(MakeBid(4, 1'100'000, 1, 1.0));
  agent_.LogEvent(MakeBid(5, 1'900'000, 1, 1.0));
  std::vector<EventBatch> batches = agent_.Flush(2'000'000);
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].counters.size(), 2u);
  EXPECT_EQ(batches[0].counters[0].window_start, 0);
  EXPECT_EQ(batches[0].counters[0].seen, 3u);
  EXPECT_EQ(batches[0].counters[0].sampled, 3u);  // no sampling -> all
  EXPECT_EQ(batches[0].counters[1].window_start, 1'000'000);
  EXPECT_EQ(batches[0].counters[1].seen, 2u);
}

TEST_F(AgentTest, EventSamplingReducesShippedShare) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s "
      "SAMPLE EVENTS 10%;"));
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    agent_.LogEvent(MakeBid(static_cast<RequestId>(i), 100 + i, 1, 1.0));
  }
  agent_.Flush(200 + n);  // events_staged settles at flush
  const AgentQueryStats* stats = agent_.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  const double rate =
      static_cast<double>(stats->events_staged + stats->events_dropped) / n;
  EXPECT_NEAR(rate, 0.10, 0.02);
  EXPECT_EQ(stats->events_sampled_out + stats->events_staged +
                stats->events_dropped,
            static_cast<uint64_t>(n));
}

TEST_F(AgentTest, ShedsInsteadOfBlockingWhenStagingFull) {
  ScrubAgent small = MakeAgent(/*staging=*/8);
  small.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s;"));
  for (int i = 0; i < 20; ++i) {
    small.LogEvent(MakeBid(static_cast<RequestId>(i), 100, 1, 1.0));
  }
  const AgentQueryStats* stats = small.StatsFor(next_id_ - 1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_dropped, 12u);  // shed at log() time
  std::vector<EventBatch> batches = small.Flush(200);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].event_count, 8u);
  ASSERT_EQ(batches[0].counters.size(), 1u);
  EXPECT_EQ(batches[0].counters[0].shed, 12u);
  EXPECT_EQ(stats->events_staged, 8u);
}

TEST_F(AgentTest, StagingCapacityCountsSampledEventsBeforeSelection) {
  // Selection runs at flush, so the capacity bounds every sampled event of
  // the query's type, including the ones its WHERE will filter out.
  ScrubAgent small = MakeAgent(/*staging=*/8);
  small.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "WINDOW 60 s DURATION 60 s;"));
  for (int i = 0; i < 20; ++i) {
    // Alternating prices: every other event passes the filter.
    small.LogEvent(
        MakeBid(static_cast<RequestId>(i), 100, 1, i % 2 == 0 ? 3.0 : 1.0));
  }
  std::vector<EventBatch> batches = small.Flush(200);
  const AgentQueryStats* stats = small.StatsFor(next_id_ - 1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_dropped, 12u);
  EXPECT_EQ(stats->events_filtered, 4u);
  EXPECT_EQ(stats->events_staged, 4u);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].event_count, 4u);
}

TEST_F(AgentTest, FlushSplitsLargeBatches) {
  AgentConfig config;
  config.staging_capacity = 4096;
  config.max_batch_events = 100;
  ScrubAgent agent(1, &meter_, config, 1);
  agent.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s;"));
  for (int i = 0; i < 250; ++i) {
    agent.LogEvent(MakeBid(static_cast<RequestId>(i), 100, 1, 1.0));
  }
  std::vector<EventBatch> batches = agent.Flush(200);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].event_count, 100u);
  EXPECT_EQ(batches[1].event_count, 100u);
  EXPECT_EQ(batches[2].event_count, 50u);
}

TEST_F(AgentTest, EventsOutsideSpanIgnored) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s START 10 s DURATION 5 s;"));
  agent_.LogEvent(MakeBid(1, 5 * kMicrosPerSecond, 1, 1.0));    // too early
  agent_.LogEvent(MakeBid(2, 12 * kMicrosPerSecond, 1, 1.0));   // in span
  agent_.LogEvent(MakeBid(3, 16 * kMicrosPerSecond, 1, 1.0));   // too late
  const AgentQueryStats* stats = agent_.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_considered, 1u);
}

TEST_F(AgentTest, ExpiredQueriesRetireOnFlush) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 2 s;"));
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  std::vector<QueryId> expired;
  std::vector<EventBatch> batches =
      agent_.Flush(3 * kMicrosPerSecond, &expired);
  EXPECT_EQ(batches.size(), 1u);  // final drain still ships
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
  EXPECT_EQ(agent_.active_queries(), 0u);
  // Stats survive retirement.
  EXPECT_NE(agent_.StatsFor(1), nullptr);
}

TEST_F(AgentTest, RemoveQueryStopsCollection) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s;"));
  agent_.RemoveQuery(1);
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  EXPECT_TRUE(agent_.Flush(200).empty());
}

TEST_F(AgentTest, MultipleQueriesProcessIndependently) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 5.0 "
      "WINDOW 1 s DURATION 60 s;"));
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.user_id = 1 "
      "WINDOW 1 s DURATION 60 s;"));
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));   // matches only query 2
  agent_.LogEvent(MakeBid(2, 100, 2, 9.0));   // matches only query 1
  std::vector<EventBatch> batches = agent_.Flush(200);
  ASSERT_EQ(batches.size(), 2u);
  for (const EventBatch& b : batches) {
    EXPECT_EQ(b.event_count, 1u);
  }
  EXPECT_NE(batches[0].query_id, batches[1].query_id);
}

// --- Reliable delivery ------------------------------------------------------

TEST_F(AgentTest, SequenceNumbersAreMonotonePerQuery) {
  const HostPlan p1 = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;");
  const HostPlan p2 = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;");
  agent_.InstallQuery(p1);
  agent_.InstallQuery(p2);
  agent_.LogEvent(MakeBid(1, 10, 5, 1.0));
  std::vector<EventBatch> first = agent_.Flush(1000);
  agent_.LogEvent(MakeBid(2, 2000, 5, 1.0));
  std::vector<EventBatch> second = agent_.Flush(3000);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (const EventBatch& b : first) {
    EXPECT_EQ(b.seq, 1u);  // each query numbers its own stream
    EXPECT_EQ(b.epoch, 0u);
  }
  for (const EventBatch& b : second) {
    EXPECT_EQ(b.seq, 2u);
  }
}

TEST_F(AgentTest, WireSizeCountsHeaderAndCounters) {
  agent_.InstallQuery(PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;"));
  agent_.LogEvent(MakeBid(1, 10, 5, 1.0));
  std::vector<EventBatch> batches = agent_.Flush(1000);
  ASSERT_EQ(batches.size(), 1u);
  const EventBatch& b = batches[0];
  EXPECT_FALSE(b.payload.empty());
  EXPECT_FALSE(b.counters.empty());
  // Header 36 bytes plus the columnar format discriminator.
  EXPECT_EQ(b.format, BatchFormat::kColumnar);
  EXPECT_EQ(b.WireSize(), b.payload.size() + 32 * b.counters.size() + 37);
}

TEST_F(AgentTest, RetransmitsUntilAcked) {
  AgentConfig config;
  config.retransmit_budget = 60 * kMicrosPerSecond;
  config.retransmit_backoff = 100 * kMicrosPerMilli;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                                "DURATION 60 s;");
  agent.InstallQuery(plan);
  agent.LogEvent(MakeBid(1, 10, 5, 1.0));
  std::vector<EventBatch> batches = agent.Flush(1000);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(agent.pending_retransmits(), 1u);

  // Jitter keeps the first retry within +/-25% of the backoff: nothing is
  // due at half the backoff, everything is due at 130%.
  EXPECT_TRUE(agent.Retransmits(1000 + 50 * kMicrosPerMilli).empty());
  std::vector<EventBatch> retries =
      agent.Retransmits(1000 + 130 * kMicrosPerMilli);
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].seq, batches[0].seq);  // identical batch, same seq
  EXPECT_EQ(retries[0].payload, batches[0].payload);
  EXPECT_EQ(agent.StatsFor(plan.query_id)->batches_retransmitted, 1u);
  EXPECT_EQ(agent.pending_retransmits(), 1u);  // still buffered until acked

  agent.OnAck(plan.query_id, batches[0].seq);
  EXPECT_EQ(agent.pending_retransmits(), 0u);
  EXPECT_EQ(agent.StatsFor(plan.query_id)->batches_acked, 1u);
  EXPECT_TRUE(agent.Retransmits(1000 + kMicrosPerSecond).empty());
}

TEST_F(AgentTest, RetransmitBudgetSpentShedsAndCounts) {
  AgentConfig config;
  config.retransmit_budget = 200 * kMicrosPerMilli;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                                "DURATION 60 s;");
  agent.InstallQuery(plan);
  agent.LogEvent(MakeBid(1, 10, 5, 1.0));
  ASSERT_EQ(agent.Flush(1000).size(), 1u);
  EXPECT_EQ(agent.pending_retransmits(), 1u);
  // Never acked; once the budget elapses the copy is shed, not re-sent.
  EXPECT_TRUE(agent.Retransmits(1000 + 300 * kMicrosPerMilli).empty());
  EXPECT_EQ(agent.pending_retransmits(), 0u);
  const AgentQueryStats* stats = agent.StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->batches_expired, 1u);
  EXPECT_EQ(stats->events_abandoned, 1u);
}

TEST_F(AgentTest, RetransmitBufferEvictsOldestAtCapacity) {
  AgentConfig config;
  config.retransmit_budget = 60 * kMicrosPerSecond;
  config.retransmit_capacity = 2;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                                "DURATION 60 s;");
  agent.InstallQuery(plan);
  for (int i = 0; i < 3; ++i) {
    agent.LogEvent(MakeBid(i + 1, 10 + i, 5, 1.0));
    ASSERT_EQ(agent.Flush(1000 * (i + 1)).size(), 1u);
  }
  EXPECT_EQ(agent.pending_retransmits(), 2u);  // oldest copy gave way
  const AgentQueryStats* stats = agent.StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->batches_evicted, 1u);
  EXPECT_EQ(stats->events_abandoned, 1u);
}

TEST_F(AgentTest, HeartbeatsOnlyWhenOptedIn) {
  // Default config: a flush with nothing staged ships nothing.
  agent_.InstallQuery(PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;"));
  EXPECT_TRUE(agent_.Flush(5000).empty());

  // With heartbeats on, the same silent flush ships a zeroed counter for
  // the current window — "reachable, nothing to report".
  AgentConfig config;
  config.flush_heartbeats = true;
  ScrubAgent beating(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  beating.InstallQuery(PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                               "DURATION 60 s;"));
  std::vector<EventBatch> batches = beating.Flush(5000);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].event_count, 0u);
  ASSERT_EQ(batches[0].counters.size(), 1u);
  EXPECT_EQ(batches[0].counters[0].window_start, 0);
  EXPECT_EQ(batches[0].counters[0].seen, 0u);
  EXPECT_EQ(batches[0].counters[0].sampled, 0u);
}

TEST_F(AgentTest, CountersOnlyFlushShipsOneEmptyPayloadBatch) {
  // The wire form of a flush with nothing to ship is pinned: exactly one
  // batch with no events and an empty payload, carrying the counters. Every
  // heartbeat pays these bytes, so they feed the bytes-per-event figures
  // directly.
  AgentConfig config;
  config.flush_heartbeats = true;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 100.0 "
      "WINDOW 1 s DURATION 60 s;");
  agent.InstallQuery(plan);
  auto expect_counters_only = [&](const std::vector<EventBatch>& batches,
                                  uint64_t seen) {
    ASSERT_EQ(batches.size(), 1u);
    const EventBatch& b = batches[0];
    EXPECT_EQ(b.event_count, 0u);
    EXPECT_TRUE(b.payload.empty());
    ASSERT_EQ(b.counters.size(), 1u);
    EXPECT_EQ(b.counters[0].seen, seen);
    EXPECT_EQ(b.counters[0].sampled, seen);
    EXPECT_EQ(b.WireSize(), 32u + 37u);
  };
  // Nothing staged: a pure heartbeat.
  expect_counters_only(agent.Flush(500 * kMicrosPerMilli), 0);
  // Staged events that all fail selection leave only their counters.
  agent.LogEvent(MakeBid(1, 600 * kMicrosPerMilli, 5, 1.0));
  agent.LogEvent(MakeBid(2, 700 * kMicrosPerMilli, 6, 2.0));
  expect_counters_only(agent.Flush(900 * kMicrosPerMilli), 2);
  const AgentQueryStats* stats = agent.StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_filtered, 2u);
  EXPECT_EQ(stats->events_shipped, 0u);
  EXPECT_EQ(stats->batches_sent, 2u);
}

TEST_F(AgentTest, PerQueryCostScalesWithActiveQueries) {
  // The marginal cost of logging grows with matching queries — the E7
  // relationship. Verify monotonicity at the agent level.
  const int64_t baseline = agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 0.5 "
      "WINDOW 1 s DURATION 60 s;"));
  const int64_t one_query = agent_.LogEvent(MakeBid(2, 101, 1, 1.0));
  for (int i = 0; i < 4; ++i) {
    agent_.InstallQuery(PlanFor(
        "SELECT COUNT(*) FROM bid WHERE bid.price > 0.5 "
        "WINDOW 1 s DURATION 60 s;"));
  }
  const int64_t five_queries = agent_.LogEvent(MakeBid(3, 102, 1, 1.0));
  EXPECT_GT(one_query, baseline);
  EXPECT_GT(five_queries, one_query);
}

// --- Shared staging -----------------------------------------------------------
//
// The agent stages each logged event at most once, in a batch shared by
// every query; each query keeps only row indices into it. These tests pin
// that sharing against solo agents (one query each, so nothing is shared)
// and check its lifecycle.

std::vector<EventBatch> BatchesFor(const std::vector<EventBatch>& batches,
                                   QueryId query_id) {
  std::vector<EventBatch> out;
  for (const EventBatch& b : batches) {
    if (b.query_id == query_id) {
      out.push_back(b);
    }
  }
  return out;
}

class SharedStagingTest : public ::testing::Test {
 protected:
  static constexpr TimeMicros kSecond = kMicrosPerSecond;

  SharedStagingTest() {
    bid_ = *EventSchema::Builder("bid")
                .AddField("user_id", FieldType::kLong)
                .AddField("price", FieldType::kDouble)
                .AddField("country", FieldType::kString)
                .Build();
    impression_ = *EventSchema::Builder("impression")
                       .AddField("line_item_id", FieldType::kLong)
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    click_ = *EventSchema::Builder("click")
                  .AddField("page", FieldType::kString)
                  .AddField("blob", FieldType::kString)
                  .Build();
    for (const SchemaPtr& s : {bid_, impression_, click_}) {
      EXPECT_TRUE(registry_.Register(s).ok());
    }
  }

  AgentConfig Config() const {
    AgentConfig config;
    config.staging_capacity = 64;
    config.staging_budget_bytes = 4096;
    config.max_batch_events = 16;
    return config;
  }

  HostPlan PlanFor(std::string_view text) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << text << ": " << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, next_id_++, /*submit_time=*/0);
    EXPECT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    return plan->host;
  }

  // One second of traffic starting at `start`: 40 bids (most with an
  // impression), 30 extra impressions, and 80 wide clicks, interleaved in a
  // seeded order with ascending timestamps.
  std::vector<Event> Interval(Rng& rng, TimeMicros start) {
    std::vector<int> kinds;
    kinds.insert(kinds.end(), 40, 0);
    kinds.insert(kinds.end(), 30, 1);
    kinds.insert(kinds.end(), 80, 2);
    for (size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.NextBelow(i)]);
    }
    static const char* const kCountries[] = {"US", "DE", "FR", "JP"};
    std::vector<Event> events;
    const TimeMicros step = kSecond / static_cast<TimeMicros>(kinds.size() + 1);
    for (size_t i = 0; i < kinds.size(); ++i) {
      const TimeMicros ts = start + static_cast<TimeMicros>(i + 1) * step;
      const RequestId rid = next_rid_++;
      if (kinds[i] == 0) {
        Event bid(bid_, rid, ts);
        bid.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(100))));
        bid.SetField(1, Value(static_cast<double>(rng.NextBelow(1000)) / 100));
        bid.SetField(2, Value(kCountries[rng.NextBelow(4)]));
        events.push_back(bid);
        if (rng.NextBool(0.75)) {
          Event imp(impression_, rid, ts);
          imp.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(10))));
          imp.SetField(1, Value(static_cast<double>(rng.NextBelow(50))));
          events.push_back(std::move(imp));
        }
      } else if (kinds[i] == 1) {
        Event imp(impression_, rid, ts);
        imp.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(10))));
        imp.SetField(1, Value(static_cast<double>(rng.NextBelow(50))));
        events.push_back(std::move(imp));
      } else {
        Event click(click_, rid, ts);
        click.SetField(0, Value("page-" + std::to_string(rng.NextBelow(5))));
        click.SetField(1, Value(std::string(200, 'x')));
        events.push_back(std::move(click));
      }
    }
    return events;
  }

  // Same events, same batch boundaries, same counters. Payload bytes may
  // differ: a shared column's encoding can depend on rows other queries
  // staged (see SchemaDriftMigratesSharedColumnForEveryQuery).
  void ExpectSameShipment(const std::vector<EventBatch>& solo,
                          const std::vector<EventBatch>& shared,
                          const std::string& context) {
    ASSERT_EQ(solo.size(), shared.size()) << context;
    for (size_t i = 0; i < solo.size(); ++i) {
      EXPECT_EQ(solo[i].format, shared[i].format) << context;
      EXPECT_EQ(solo[i].seq, shared[i].seq) << context;
      EXPECT_EQ(solo[i].event_count, shared[i].event_count) << context;
      ASSERT_EQ(solo[i].counters.size(), shared[i].counters.size())
          << context;
      for (size_t k = 0; k < solo[i].counters.size(); ++k) {
        const WindowCounter& a = solo[i].counters[k];
        const WindowCounter& b = shared[i].counters[k];
        EXPECT_EQ(a.window_start, b.window_start) << context;
        EXPECT_EQ(a.seen, b.seen) << context;
        EXPECT_EQ(a.sampled, b.sampled) << context;
        EXPECT_EQ(a.shed, b.shed) << context;
      }
      const std::vector<Event> a = DecodeShipped(registry_, solo[i]);
      const std::vector<Event> b = DecodeShipped(registry_, shared[i]);
      ASSERT_EQ(a.size(), b.size()) << context;
      for (size_t e = 0; e < a.size(); ++e) {
        EXPECT_EQ(a[e].ToString(), b[e].ToString()) << context;
        ASSERT_EQ(a[e].field_count(), b[e].field_count()) << context;
        for (size_t f = 0; f < a[e].field_count(); ++f) {
          EXPECT_EQ(a[e].field(f), b[e].field(f)) << context;
        }
      }
    }
  }

  void ExpectSameStats(const AgentQueryStats* solo,
                       const AgentQueryStats* shared,
                       const std::string& context) {
    ASSERT_NE(solo, nullptr) << context;
    ASSERT_NE(shared, nullptr) << context;
    EXPECT_EQ(solo->events_considered, shared->events_considered) << context;
    EXPECT_EQ(solo->events_sampled_out, shared->events_sampled_out)
        << context;
    EXPECT_EQ(solo->events_filtered, shared->events_filtered) << context;
    EXPECT_EQ(solo->events_staged, shared->events_staged) << context;
    EXPECT_EQ(solo->events_dropped, shared->events_dropped) << context;
    EXPECT_EQ(solo->events_shipped, shared->events_shipped) << context;
    EXPECT_EQ(solo->batches_sent, shared->batches_sent) << context;
  }

  // The reference for a shared agent: one agent per plan, with the same
  // config and seed and only that plan installed. With at most one sampled
  // plan in `plans`, each solo agent flips the sampling coin on exactly the
  // events the shared agent flips it on, so the two RNG streams match.
  std::vector<std::unique_ptr<ScrubAgent>> SoloAgents(
      const std::vector<HostPlan>& plans, uint64_t seed) {
    std::vector<std::unique_ptr<ScrubAgent>> solo;
    for (const HostPlan& p : plans) {
      solo.push_back(std::make_unique<ScrubAgent>(/*host=*/1, &meter_,
                                                  Config(), seed));
      solo.back()->InstallQuery(p);
    }
    return solo;
  }

  // Logs `events` into the shared agent and every solo agent, flushes all
  // of them at `now`, and checks that each query's shipment and stats are
  // the same either way.
  void LogAndCompare(ScrubAgent& shared,
                     std::vector<std::unique_ptr<ScrubAgent>>& solo,
                     const std::vector<HostPlan>& plans,
                     const std::vector<Event>& events, TimeMicros now) {
    for (const Event& e : events) {
      shared.LogEvent(e);
      for (auto& agent : solo) {
        agent->LogEvent(e);
      }
    }
    // At most one copy of each logged event, however many queries kept it.
    EXPECT_LE(shared.shared_staged_rows(), events.size());
    const std::vector<EventBatch> shared_out = shared.Flush(now);
    EXPECT_EQ(shared.shared_staged_rows(), 0u);
    for (size_t i = 0; i < plans.size(); ++i) {
      const QueryId id = plans[i].query_id;
      const std::string context = "query " + std::to_string(id) +
                                  " flush at " + std::to_string(now) + " us";
      ExpectSameShipment(solo[i]->Flush(now), BatchesFor(shared_out, id),
                         context);
      ExpectSameStats(solo[i]->StatsFor(id), shared.StatsFor(id), context);
    }
  }

  SchemaRegistry registry_;
  SchemaPtr bid_;
  SchemaPtr impression_;
  SchemaPtr click_;
  CostMeter meter_;
  QueryId next_id_ = 1;
  RequestId next_rid_ = 1;
};

TEST_F(SharedStagingTest, SharedAgentMatchesSoloAgentsOnOverlappingQueries) {
  // Capacity and byte budget are per query and count sampled events before
  // selection, so sharing must not move a single shed: the unfiltered
  // impression query and the join hit staging_capacity, and the click
  // query, which keeps every field, runs over the byte budget. Query 3 is
  // the only sampled one.
  const std::vector<HostPlan> plans = {
      PlanFor("SELECT COUNT(*) FROM bid WHERE bid.price > 5.0 "
              "WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT bid.country, COUNT(*) FROM bid WHERE bid.user_id < 50 "
              "GROUP BY bid.country WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT AVG(bid.price) FROM bid WHERE bid.country = 'US' "
              "WINDOW 1 s DURATION 60 s SAMPLE EVENTS 10%;"),
      PlanFor("SELECT bid.user_id, SUM(bid.price) FROM bid "
              "WHERE bid.price < 8.0 GROUP BY bid.user_id "
              "WINDOW 1 s START 3 s DURATION 4 s;"),
      PlanFor("SELECT COUNT(*) FROM bid WHERE bid.country != 'JP' "
              "WINDOW 1 s START 6 s DURATION 20 s;"),
      PlanFor("SELECT bid.user_id, COUNT(*) FROM bid, impression "
              "GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT impression.line_item_id, SUM(impression.cost) "
              "FROM impression GROUP BY impression.line_item_id "
              "WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT click.page, COUNT(*) FROM click "
              "WHERE click.blob != 'y' GROUP BY click.page "
              "WINDOW 1 s DURATION 60 s;"),
      // A join starting mid-interval: its first row lists do not begin at
      // shared row 0.
      PlanFor("SELECT impression.line_item_id, SUM(impression.cost) "
              "FROM bid, impression GROUP BY impression.line_item_id "
              "WINDOW 1 s START 2500 ms DURATION 60 s;"),
  };
  ScrubAgent shared(/*host=*/1, &meter_, Config(), /*sampling_seed=*/7);
  for (const HostPlan& p : plans) {
    shared.InstallQuery(p);
  }
  std::vector<std::unique_ptr<ScrubAgent>> solo =
      SoloAgents(plans, /*seed=*/7);

  Rng rng(2024);
  for (int second = 0; second < 12; ++second) {
    LogAndCompare(shared, solo, plans, Interval(rng, second * kSecond),
                  (second + 1) * kSecond);
  }

  // The limits really were exercised, identically on both sides.
  EXPECT_GT(shared.StatsFor(6)->events_dropped, 0u);  // join: capacity
  EXPECT_GT(shared.StatsFor(7)->events_dropped, 0u);  // impressions: capacity
  EXPECT_GT(shared.StatsFor(8)->events_dropped, 0u);  // clicks: byte budget
  EXPECT_LT(shared.StatsFor(8)->events_staged, 64u * 12);
  EXPECT_GT(shared.StatsFor(3)->events_sampled_out, 0u);
  EXPECT_EQ(shared.StatsFor(1)->events_dropped, 0u);
}

TEST_F(SharedStagingTest, JoinCapacityCountsEverySource) {
  // A join's staging capacity bounds its rows across all sources together.
  AgentConfig config = Config();
  config.staging_capacity = 8;
  config.staging_budget_bytes = 0;
  ScrubAgent agent(/*host=*/1, &meter_, config, /*sampling_seed=*/7);
  const HostPlan join = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid, impression "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;");
  agent.InstallQuery(join);
  for (int i = 0; i < 5; ++i) {
    const TimeMicros ts = 1000 * (i + 1);
    Event bid(bid_, next_rid_, ts);
    bid.SetField(0, Value(int64_t{i}));
    bid.SetField(1, Value(1.0));
    bid.SetField(2, Value("US"));
    Event imp(impression_, next_rid_++, ts);
    imp.SetField(0, Value(int64_t{i}));
    imp.SetField(1, Value(2.0));
    agent.LogEvent(bid);
    agent.LogEvent(imp);
  }
  const std::vector<EventBatch> batches = agent.Flush(kSecond);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].format, BatchFormat::kColumnarJoin);
  EXPECT_EQ(batches[0].event_count, 8u);
  const AgentQueryStats* stats = agent.StatsFor(join.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_staged, 8u);
  EXPECT_EQ(stats->events_dropped, 2u);
}

// Disturbing one query while rows are staged must not change a byte of
// what the other queries ship.
enum class Disturbance { kRemove, kExpire };

class SharedStagingLifecycleTest
    : public SharedStagingTest,
      public ::testing::WithParamInterface<Disturbance> {};

TEST_P(SharedStagingLifecycleTest, OtherQueriesShipIdenticalBytes) {
  const HostPlan q1 = PlanFor(
      "SELECT bid.country, COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "GROUP BY bid.country WINDOW 1 s DURATION 60 s;");
  // The disturbed query. Expiry: its span ends mid-way through the second
  // interval, so it keeps rows there and is then skipped.
  const HostPlan q2 = GetParam() == Disturbance::kExpire
                          ? PlanFor("SELECT COUNT(*) FROM bid "
                                    "WINDOW 1 s DURATION 1500 ms;")
                          : PlanFor("SELECT bid.user_id, COUNT(*) FROM bid "
                                    "GROUP BY bid.user_id "
                                    "WINDOW 1 s DURATION 60 s;");
  const HostPlan q3 = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid, impression "
      "WHERE bid.price < 9.0 GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;");

  AgentConfig config = Config();
  config.staging_budget_bytes = 0;
  config.staging_capacity = 1024;
  ScrubAgent reference(/*host=*/1, &meter_, config, /*sampling_seed=*/7);
  ScrubAgent disturbed(/*host=*/1, &meter_, config, /*sampling_seed=*/7);
  reference.InstallQuery(q1);
  reference.InstallQuery(q3);
  disturbed.InstallQuery(q2);  // first in line: it appends shared rows first
  disturbed.InstallQuery(q1);
  disturbed.InstallQuery(q3);

  Rng rng(99);
  for (int second = 0; second < 4; ++second) {
    const std::vector<Event> events = Interval(rng, second * kSecond);
    for (size_t i = 0; i < events.size(); ++i) {
      if (second == 1 && i == events.size() / 2 &&
          GetParam() == Disturbance::kRemove) {
        disturbed.RemoveQuery(q2.query_id);
      }
      reference.LogEvent(events[i]);
      disturbed.LogEvent(events[i]);
    }
    const TimeMicros now = (second + 1) * kSecond;
    const std::vector<EventBatch> ref_out = reference.Flush(now);
    const std::vector<EventBatch> dis_out = disturbed.Flush(now);
    EXPECT_EQ(disturbed.shared_staged_rows(), 0u);
    for (const QueryId id : {q1.query_id, q3.query_id}) {
      const std::vector<EventBatch> a = BatchesFor(ref_out, id);
      const std::vector<EventBatch> b = BatchesFor(dis_out, id);
      ASSERT_EQ(a.size(), b.size()) << "query " << id << " second " << second;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].format, b[i].format);
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].event_count, b[i].event_count);
        EXPECT_EQ(a[i].payload, b[i].payload)
            << "query " << id << " second " << second;
        EXPECT_EQ(a[i].WireSize(), b[i].WireSize());
      }
    }
  }
  switch (GetParam()) {
    case Disturbance::kRemove:
      EXPECT_FALSE(disturbed.HasQuery(q2.query_id));
      break;
    case Disturbance::kExpire:
      EXPECT_FALSE(disturbed.HasQuery(q2.query_id));
      EXPECT_GT(disturbed.StatsFor(q2.query_id)->events_shipped, 0u);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Disturbances, SharedStagingLifecycleTest,
                         ::testing::Values(Disturbance::kRemove,
                                           Disturbance::kExpire));

TEST_F(SharedStagingTest, SchemaDriftMigratesSharedColumnForEveryQuery) {
  // q1 starts at 0 and keeps the drifted event (the first of second 1); q2
  // starts at 1200 ms and never keeps it, yet shares the staging batch it
  // landed in.
  const std::vector<HostPlan> plans = {
      PlanFor("SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
              "WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
              "WINDOW 1 s START 1200 ms DURATION 60 s;"),
  };
  ScrubAgent shared(/*host=*/1, &meter_, Config(), /*sampling_seed=*/7);
  for (const HostPlan& p : plans) {
    shared.InstallQuery(p);
  }
  std::vector<std::unique_ptr<ScrubAgent>> solo =
      SoloAgents(plans, /*seed=*/7);
  const size_t country = 2;
  for (int second = 0; second < 3; ++second) {
    const bool drift = second == 1;
    std::vector<Event> events;
    for (int i = 0; i < 20; ++i) {
      Event e(bid_, next_rid_++,
              second * kSecond + (i + 1) * (kSecond / 21));
      e.SetField(0, Value(int64_t{i}));
      e.SetField(1, Value(1.5));
      // A mistyped value: an int in the string `country` column.
      e.SetField(2, drift && i == 0 ? Value(int64_t{42})
                                    : Value(i % 2 == 0 ? "US" : "DE"));
      events.push_back(std::move(e));
    }
    LogAndCompare(shared, solo, plans, events, (second + 1) * kSecond);
    // A string column ships dictionary-encoded (> 0); the migrated generic
    // column ships plain (0) for q2 too, although q2 never kept the drifted
    // event (a solo q2 agent keeps its dictionary). The next flush starts
    // from a cleared, typed batch again.
    if (second == 0) {
      continue;  // q2 has not started yet
    }
    for (const HostPlan& p : plans) {
      const std::string context = "query " + std::to_string(p.query_id) +
                                  " second " + std::to_string(second);
      const std::vector<std::vector<int>>& enc =
          shared.StatsFor(p.query_id)->last_encodings;
      ASSERT_EQ(enc.size(), 1u) << context;
      if (drift) {
        EXPECT_EQ(enc[0][country], 0) << context;
      } else {
        EXPECT_GT(enc[0][country], 0) << context;
      }
    }
  }
  // The solo q2 agent never saw the drift: its column stayed typed.
  EXPECT_GT(solo[1]->StatsFor(plans[1].query_id)->last_encodings[0][country],
            0);
}

}  // namespace
}  // namespace scrub
