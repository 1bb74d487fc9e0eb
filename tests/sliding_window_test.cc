// Tests for the sliding-window extension (paper Section 3.2: "Currently,
// only tumbling windows are supported, but Scrub can easily be extended to
// allow sliding windows").

#include <map>

#include <gtest/gtest.h>

#include "src/central/central.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"
#include "src/query/parser.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

TEST(SlidingWindowParseTest, WindowSlideClause) {
  Result<Query> q = ParseQuery(
      "SELECT COUNT(*) FROM bid WINDOW 10 s SLIDE 2 s DURATION 60 s;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->window_micros, 10 * kMicrosPerSecond);
  EXPECT_EQ(q->slide_micros, 2 * kMicrosPerSecond);
  // Round-trips.
  Result<Query> again = ParseQuery(q->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->slide_micros, q->slide_micros);
}

TEST(SlidingWindowParseTest, AnalyzerValidatesSlide) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry
                  .Register(*EventSchema::Builder("bid")
                                 .AddField("user_id", FieldType::kLong)
                                 .Build())
                  .ok());
  // Slide > window.
  EXPECT_FALSE(ParseAndAnalyze(
                   "SELECT COUNT(*) FROM bid WINDOW 2 s SLIDE 5 s "
                   "DURATION 60 s;",
                   registry)
                   .ok());
  // Window not a multiple of slide.
  EXPECT_FALSE(ParseAndAnalyze(
                   "SELECT COUNT(*) FROM bid WINDOW 10 s SLIDE 3 s "
                   "DURATION 60 s;",
                   registry)
                   .ok());
  // Tumbling default: slide filled in.
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 60 s;", registry);
  ASSERT_TRUE(aq.ok());
  EXPECT_EQ(aq->query.slide_micros, aq->query.window_micros);
}

class SlidingCentralTest : public ::testing::Test {
 protected:
  SlidingCentralTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
    central_ = std::make_unique<ScrubCentral>(&registry_);
  }

  CentralPlan PlanFor(std::string_view text) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = 1;
    central.hosts_sampled = 1;
    return central;
  }

  void Ingest(QueryId qid, std::vector<Event> events) {
    EventBatch batch;
    batch.query_id = qid;
    batch.host = 0;
    batch.event_count = events.size();
    std::string encoded;
    batch.format = EncodeEvents(events, &encoded);
    batch.payload = BatchPayload(std::move(encoded));
    ASSERT_TRUE(central_->IngestBatch(batch, 0).ok());
  }

  Event MakeBid(RequestId rid, TimeMicros ts) {
    Event e(schema_, rid, ts);
    e.SetField(0, Value(int64_t{1}));
    return e;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
  std::unique_ptr<ScrubCentral> central_;
  std::vector<ResultRow> rows_;
};

TEST_F(SlidingCentralTest, EventCountedInEveryCoveringWindow) {
  // Window 4 s, slide 1 s: an event at t=5.5 s belongs to windows starting
  // at 2, 3, 4, 5 s.
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 4 s SLIDE 1 s DURATION 20 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, [this](const ResultRow& row) {
    rows_.push_back(row);
  }).ok());
  Ingest(plan.query_id, {MakeBid(1, 5'500'000)});
  central_->OnTick(60 * kMicrosPerSecond);

  std::map<TimeMicros, int64_t> counts;
  for (const ResultRow& row : rows_) {
    if (row.values[0].AsInt() > 0) {
      counts[row.window_start] = row.values[0].AsInt();
    }
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const TimeMicros start :
       {2'000'000, 3'000'000, 4'000'000, 5'000'000}) {
    EXPECT_EQ(counts[start], 1) << "window " << start;
  }
}

TEST_F(SlidingCentralTest, EarlyEventsOnlyInValidWindows) {
  // An event at t=0.5 s with window 4 s / slide 1 s: only the window at 0
  // exists (windows cannot start before the query).
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 4 s SLIDE 1 s DURATION 20 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, [this](const ResultRow& row) {
    rows_.push_back(row);
  }).ok());
  Ingest(plan.query_id, {MakeBid(1, 500'000)});
  central_->OnTick(60 * kMicrosPerSecond);
  int windows_with_event = 0;
  for (const ResultRow& row : rows_) {
    if (row.values[0].AsInt() > 0) {
      ++windows_with_event;
      EXPECT_EQ(row.window_start, 0);
    }
  }
  EXPECT_EQ(windows_with_event, 1);
}

TEST_F(SlidingCentralTest, SlidingAverageSmoothsAcrossWindows) {
  // Events at 1s..6s, one per second, value user_id=1. COUNT over 3s/1s
  // sliding windows forms the classic ramp-plateau-ramp shape.
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 3 s SLIDE 1 s DURATION 20 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, [this](const ResultRow& row) {
    rows_.push_back(row);
  }).ok());
  std::vector<Event> events;
  for (int s = 1; s <= 6; ++s) {
    events.push_back(MakeBid(static_cast<RequestId>(s),
                             s * kMicrosPerSecond + 1000));
  }
  Ingest(plan.query_id, std::move(events));
  central_->OnTick(60 * kMicrosPerSecond);
  std::map<TimeMicros, int64_t> counts;
  for (const ResultRow& row : rows_) {
    counts[row.window_start / kMicrosPerSecond] = row.values[0].AsInt();
  }
  // Window [4,7) holds events at 4,5,6 -> 3; window [6,9) holds only 6 -> 1.
  EXPECT_EQ(counts[4], 3);
  EXPECT_EQ(counts[5], 2);
  EXPECT_EQ(counts[6], 1);
}

TEST_F(SlidingCentralTest, TrailingWindowsEndByTheDuration) {
  // Window 4 s, slide 1 s, duration 20 s: the windows starting at 17, 18
  // and 19 s would run past the span and hold only its last seconds, which
  // the window [16, 20) already covers. An event at 18.5 s counts in the
  // windows at 15 and 16 s only, and no window ends after 20 s.
  CentralPlan plan = PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 4 s SLIDE 1 s DURATION 20 s;");
  ASSERT_TRUE(central_->InstallQuery(plan, [this](const ResultRow& row) {
    rows_.push_back(row);
  }).ok());
  Ingest(plan.query_id, {MakeBid(1, 18'500'000)});
  central_->OnTick(60 * kMicrosPerSecond);
  std::map<TimeMicros, int64_t> counts;
  for (const ResultRow& row : rows_) {
    EXPECT_LE(row.window_end, 20 * kMicrosPerSecond);
    if (row.values[0].AsInt() > 0) {
      counts[row.window_start] = row.values[0].AsInt();
    }
  }
  EXPECT_EQ(counts, (std::map<TimeMicros, int64_t>{{15'000'000, 1},
                                                   {16'000'000, 1}}));
}

TEST_F(SlidingCentralTest, DurationOffTheSlideGridIsRefused) {
  // Tumbling 3 s windows over 10 s would end the span inside [9, 12), a
  // window holding 1 s of data yet reporting full completeness. Admission
  // refuses the explicit duration; a defaulted one rounds up to the grid.
  Result<AnalyzedQuery> clipped = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WINDOW 3 s DURATION 10 s;", registry_);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(clipped.status().ToString().find(
                "duration must be a multiple of the slide"),
            std::string::npos);
  EXPECT_FALSE(ParseAndAnalyze(
                   "SELECT COUNT(*) FROM bid WINDOW 4 s SLIDE 2 s "
                   "DURATION 11 s;",
                   registry_)
                   .ok());
  Result<AnalyzedQuery> defaulted =
      ParseAndAnalyze("SELECT COUNT(*) FROM bid WINDOW 7 s;", registry_);
  ASSERT_TRUE(defaulted.ok()) << defaulted.status().ToString();
  EXPECT_EQ(defaulted->query.duration_micros % (7 * kMicrosPerSecond), 0);
  EXPECT_GE(defaulted->query.duration_micros,
            AnalyzerOptions{}.default_duration_micros);
}

TEST(SlidingIntegrationTest, EndToEndSlidingCount) {
  SystemConfig config;
  config.seed = 61;
  config.platform.seed = 61;
  config.platform.datacenters = 1;
  config.platform.bidservers_per_dc = 2;
  config.platform.adservers_per_dc = 1;
  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 300;
  load.duration = 10 * kMicrosPerSecond;
  system.workload().SchedulePoissonLoad(load);

  std::map<TimeMicros, double> series;
  Result<SubmittedQuery> submitted = system.Submit(
      "SELECT COUNT(*) FROM bid WINDOW 4 s SLIDE 2 s DURATION 10 s;",
      [&series](const ResultRow& row) {
        series[row.window_start] = static_cast<double>(row.values[0].AsInt());
      });
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  system.RunUntil(11 * kMicrosPerSecond);
  system.Drain();

  // Windows at 0,2,4,6 s (those within the span).
  ASSERT_GE(series.size(), 4u);
  // Steady traffic: interior 4-second windows hold roughly twice the events
  // of a 2-second slide; ratio between adjacent interior windows is ~1.
  const double w2 = series[2 * kMicrosPerSecond];
  const double w4 = series[4 * kMicrosPerSecond];
  EXPECT_GT(w2, 0);
  EXPECT_GT(w4, 0);
  EXPECT_NEAR(w2 / w4, 1.0, 0.35);
}

}  // namespace
}  // namespace scrub
