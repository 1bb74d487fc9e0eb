// Property tests: ScrubCentral's windowed grouped aggregation must agree
// with a brute-force reference computation over the same random event
// stream, across a sweep of window sizes, group cardinalities and batch
// arrival orders.

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "src/central/central.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

struct PropertyParams {
  TimeMicros window = kMicrosPerSecond;
  int64_t users = 10;
  int events = 2000;
  int batches = 7;   // arrival split
  uint64_t seed = 1;
};

class CentralPropertyTest
    : public ::testing::TestWithParam<PropertyParams> {
 protected:
  CentralPropertyTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
};

TEST_P(CentralPropertyTest, MatchesBruteForceReference) {
  const PropertyParams p = GetParam();
  Rng rng(p.seed);

  // Random events across a 10-second span.
  std::vector<Event> events;
  struct Ref {
    int64_t count = 0;
    double sum = 0;
    double min = 1e18;
    double max = -1e18;
  };
  std::map<std::pair<TimeMicros, int64_t>, Ref> reference;
  for (int i = 0; i < p.events; ++i) {
    const TimeMicros ts =
        static_cast<TimeMicros>(rng.NextBelow(10 * kMicrosPerSecond));
    const int64_t user = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(p.users)));
    const double price = 0.25 + rng.NextDouble() * 9.5;
    Event e(schema_, rng.NextUint64(), ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(price));
    events.push_back(std::move(e));

    Ref& ref = reference[{(ts / p.window) * p.window, user}];
    ++ref.count;
    ref.sum += price;
    ref.min = std::min(ref.min, price);
    ref.max = std::max(ref.max, price);
  }

  // Query with every exact aggregate.
  const std::string text = StrFormat(
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price), "
      "MIN(bid.price), MAX(bid.price) FROM bid GROUP BY bid.user_id "
      "WINDOW %lld us DURATION 10 s;",
      static_cast<long long>(p.window));
  Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CentralPlan central_plan = plan->central;
  central_plan.hosts_targeted = 1;
  central_plan.hosts_sampled = 1;

  ScrubCentral central(&registry_);
  std::map<std::pair<TimeMicros, int64_t>, ResultRow> rows;
  ASSERT_TRUE(central
                  .InstallQuery(central_plan,
                                [&rows](const ResultRow& row) {
                                  rows[{row.window_start,
                                        row.values[0].AsInt()}] = row;
                                })
                  .ok());

  // Deliver in `batches` chunks, each from a different "host".
  const size_t chunk = events.size() / static_cast<size_t>(p.batches) + 1;
  for (int b = 0; b < p.batches; ++b) {
    const size_t begin = static_cast<size_t>(b) * chunk;
    if (begin >= events.size()) {
      break;
    }
    const size_t end = std::min(events.size(), begin + chunk);
    std::vector<Event> slice(events.begin() + static_cast<long>(begin),
                             events.begin() + static_cast<long>(end));
    EventBatch batch;
    batch.query_id = central_plan.query_id;
    batch.host = b;
    batch.event_count = slice.size();
    std::string encoded;
    batch.format = EncodeEvents(slice, &encoded);
    batch.payload = BatchPayload(std::move(encoded));
    ASSERT_TRUE(central.IngestBatch(batch, 0).ok());
  }
  central.OnTick(60 * kMicrosPerSecond);

  ASSERT_EQ(rows.size(), reference.size());
  for (const auto& [key, ref] : reference) {
    const auto it = rows.find(key);
    ASSERT_NE(it, rows.end())
        << "missing window=" << key.first << " user=" << key.second;
    const ResultRow& row = it->second;
    EXPECT_EQ(row.values[1], Value(ref.count));
    EXPECT_NEAR(row.values[2].AsNumber(), ref.sum, 1e-9);
    EXPECT_NEAR(row.values[3].AsNumber(),
                ref.sum / static_cast<double>(ref.count), 1e-9);
    EXPECT_NEAR(row.values[4].AsNumber(), ref.min, 1e-12);
    EXPECT_NEAR(row.values[5].AsNumber(), ref.max, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CentralPropertyTest,
    ::testing::Values(
        PropertyParams{kMicrosPerSecond, 10, 2000, 7, 1},
        PropertyParams{kMicrosPerSecond, 1, 500, 1, 2},     // single group
        PropertyParams{kMicrosPerSecond, 500, 4000, 13, 3}, // many groups
        PropertyParams{10 * kMicrosPerSecond, 25, 3000, 4, 4},  // one window
        PropertyParams{250 * kMicrosPerMilli, 5, 2500, 9, 5},   // many windows
        PropertyParams{kMicrosPerSecond, 50, 1, 1, 6},      // single event
        PropertyParams{2 * kMicrosPerSecond, 100, 5000, 2, 7}));

}  // namespace
}  // namespace scrub
