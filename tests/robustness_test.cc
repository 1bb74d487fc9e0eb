// Robustness / failure-injection tests: hostile inputs must produce errors,
// never crashes or hangs. The wire decoder faces bytes from the network;
// the parser faces arbitrary user text; the agent faces overload.

#include <gtest/gtest.h>

#include "src/agent/agent.h"
#include "src/common/rng.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"
#include "src/query/parser.h"

namespace scrub {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .AddField("tag", FieldType::kString)
                   .AddField("items", FieldType::kLongList)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  Event ValidEvent(int i) const {
    Event e(schema_, static_cast<RequestId>(i), 100 + i);
    e.SetField(0, Value(int64_t{i}));
    e.SetField(1, Value(1.5 * i));
    e.SetField(2, Value("payload"));
    e.SetField(3, Value(std::vector<Value>{Value(int64_t{1})}));
    return e;
  }

  // Eight back-to-back event records, the way a spill run stores them.
  std::string ValidRecords() const {
    std::string out;
    for (int i = 0; i < 8; ++i) {
      EncodeEvent(ValidEvent(i), &out);
    }
    return out;
  }

  // Decodes records until the buffer is consumed; the first failure wins.
  Result<std::vector<Event>> DecodeRecords(const std::string& buf) const {
    std::vector<Event> events;
    size_t offset = 0;
    while (offset < buf.size()) {
      Result<Event> e = DecodeEvent(registry_, buf, &offset);
      if (!e.ok()) {
        return e.status();
      }
      events.push_back(std::move(e).value());
    }
    return events;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
};

TEST_F(RobustnessTest, SingleByteCorruptionNeverCrashesDecoder) {
  const std::string valid = ValidRecords();
  Rng rng(99);
  int decode_failures = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupted = valid;
    const size_t pos = rng.NextBelow(corrupted.size());
    corrupted[pos] = static_cast<char>(rng.NextBelow(256));
    Result<std::vector<Event>> decoded = DecodeRecords(corrupted);
    if (!decoded.ok()) {
      ++decode_failures;
      continue;
    }
    // A flip that survived decoding must still produce well-formed events
    // (or have hit a value byte, which is fine).
    for (const Event& e : *decoded) {
      (void)e.ToString();
    }
  }
  // Most corruptions land in payload bytes and decode "successfully" with
  // altered values; structural corruptions must fail cleanly. Either way:
  // no crash, which is the property under test.
  EXPECT_GT(decode_failures, 0);
}

TEST_F(RobustnessTest, TruncationAtEveryLengthFailsCleanly) {
  std::string valid;
  EncodeEvent(ValidEvent(3), &valid);
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    const std::string truncated = valid.substr(0, cut);
    size_t offset = 0;
    EXPECT_FALSE(DecodeEvent(registry_, truncated, &offset).ok())
        << "cut=" << cut;
  }
}

TEST_F(RobustnessTest, HugeLengthPrefixesRejected) {
  // A record claiming a 2^31-byte type name with no payload must not
  // allocate wildly.
  std::string hostile;
  const uint32_t count = 0x7FFFFFFF;
  hostile.append(reinterpret_cast<const char*>(&count), 4);
  size_t offset = 0;
  EXPECT_FALSE(DecodeEvent(registry_, hostile, &offset).ok());
}

TEST_F(RobustnessTest, RandomGarbageQueriesNeverCrashParser) {
  Rng rng(7);
  const char alphabet[] =
      "SELECTFROMWHEREGROUPBY()*,.;@[]<>=!%'\" 0123456789abcdef_";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text;
    const size_t len = rng.NextBelow(120);
    for (size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    const Result<Query> q = ParseQuery(text);
    if (q.ok()) {
      (void)q->ToString();  // whatever parsed must render
    }
  }
}

TEST_F(RobustnessTest, MutatedValidQueriesFailWithMessagesNotCrashes) {
  const std::string base =
      "SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.price > 1.0 "
      "GROUP BY bid.user_id WINDOW 10 s DURATION 60 s;";
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    const int op = static_cast<int>(rng.NextBelow(3));
    const size_t pos = rng.NextBelow(mutated.size());
    if (op == 0) {
      mutated.erase(pos, 1);
    } else if (op == 1) {
      mutated.insert(pos, 1, static_cast<char>(rng.NextBelow(96) + 32));
    } else {
      mutated[pos] = static_cast<char>(rng.NextBelow(96) + 32);
    }
    Result<AnalyzedQuery> aq = ParseAndAnalyze(mutated, registry_);
    if (!aq.ok()) {
      EXPECT_FALSE(aq.status().message().empty());
    }
  }
}

TEST_F(RobustnessTest, AgentSurvivesSustainedOverload) {
  CostMeter meter;
  AgentConfig config;
  config.staging_capacity = 64;  // tiny: everything above this sheds
  ScrubAgent agent(0, &meter, config, 1);
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WINDOW 1 h DURATION 2 h;", registry_,
      [] {
        AnalyzerOptions o;
        o.max_duration_micros = 10 * kMicrosPerHour;
        return o;
      }());
  ASSERT_TRUE(aq.ok());
  Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
  ASSERT_TRUE(plan.ok());
  agent.InstallQuery(plan->host);
  for (int i = 0; i < 100000; ++i) {
    Event e(schema_, static_cast<RequestId>(i), 100);
    e.SetField(0, Value(int64_t{i}));
    agent.LogEvent(e);
  }
  const AgentQueryStats* stats = agent.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_dropped, 100000u - 64u);
  // One flush drains exactly the staged 64; the agent remains healthy.
  std::vector<EventBatch> batches = agent.Flush(200);
  size_t shipped = 0;
  for (const EventBatch& b : batches) {
    shipped += b.event_count;
  }
  EXPECT_EQ(shipped, 64u);
  EXPECT_EQ(stats->events_staged, 64u);  // settles at flush
}

TEST_F(RobustnessTest, EmptyAndWhitespaceQueries) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("   \n\t  ").ok());
  EXPECT_FALSE(ParseQuery(";").ok());
  EXPECT_FALSE(ParseQuery("-- just a comment").ok());
}

TEST_F(RobustnessTest, DeeplyNestedExpressionParses) {
  // 200 nested parens: recursion depth must be tolerable.
  std::string text = "SELECT COUNT(*) FROM bid WHERE ";
  for (int i = 0; i < 200; ++i) {
    text += "(";
  }
  text += "bid.price > 1.0";
  for (int i = 0; i < 200; ++i) {
    text += ")";
  }
  text += ";";
  Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
  EXPECT_TRUE(aq.ok()) << aq.status().ToString();
}

}  // namespace
}  // namespace scrub
