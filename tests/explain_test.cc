// Tests for EXPLAIN and query diagnostics.

#include <gtest/gtest.h>

#include "src/plan/explain.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() {
    EXPECT_TRUE(registry_
                    .Register(*EventSchema::Builder("bid")
                                   .AddField("user_id", FieldType::kLong)
                                   .AddField("price", FieldType::kDouble)
                                   .AddField("country", FieldType::kString)
                                   .Build())
                    .ok());
    EXPECT_TRUE(registry_
                    .Register(*EventSchema::Builder("impression")
                                   .AddField("line_item_id", FieldType::kLong)
                                   .AddField("cost", FieldType::kDouble)
                                   .Build())
                    .ok());
  }

  SchemaRegistry registry_;
};

TEST_F(ExplainTest, ShowsSelectionAndProjection) {
  const std::string text = ExplainQuery(
      "SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "GROUP BY bid.user_id WINDOW 10 s DURATION 60 s;",
      registry_);
  EXPECT_NE(text.find("host plan"), std::string::npos) << text;
  EXPECT_NE(text.find("(bid.price > 2)"), std::string::npos) << text;
  // user_id + price read; country projected away.
  EXPECT_NE(text.find("2 of 3 fields ship"), std::string::npos) << text;
  EXPECT_EQ(text.find("country"), std::string::npos) << text;
  EXPECT_NE(text.find("group by: 1 key(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("COUNT"), std::string::npos) << text;
}

TEST_F(ExplainTest, ShowsJoinAndSketches) {
  const std::string text = ExplainQuery(
      "SELECT COUNT_DISTINCT(bid.user_id), TOPK(5, impression.line_item_id) "
      "FROM bid, impression WINDOW 10 s DURATION 60 s;",
      registry_);
  EXPECT_NE(text.find("join:"), std::string::npos) << text;
  EXPECT_NE(text.find("__request_id"), std::string::npos) << text;
  EXPECT_NE(text.find("HyperLogLog"), std::string::npos) << text;
  EXPECT_NE(text.find("SpaceSaving"), std::string::npos) << text;
}

TEST_F(ExplainTest, ShowsSamplingAndSliding) {
  const std::string text = ExplainQuery(
      "SELECT COUNT(*) FROM bid WINDOW 10 s SLIDE 5 s DURATION 60 s "
      "SAMPLE HOSTS 10% SAMPLE EVENTS 25%;",
      registry_);
  EXPECT_NE(text.find("sliding"), std::string::npos) << text;
  EXPECT_NE(text.find("event sampling: 25%"), std::string::npos) << text;
  EXPECT_NE(text.find("hosts 10%"), std::string::npos) << text;
}

TEST_F(ExplainTest, ShowsPhysicalPipelineOperators) {
  const std::string agg = ExplainQuery(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 10 s DURATION 60 s;",
      registry_);
  EXPECT_NE(agg.find("physical pipeline:"), std::string::npos) << agg;
  EXPECT_NE(agg.find("Decode("), std::string::npos) << agg;
  EXPECT_NE(agg.find("GroupFold("), std::string::npos) << agg;
  EXPECT_NE(agg.find("WindowClose("), std::string::npos) << agg;
  EXPECT_NE(agg.find("Finalize("), std::string::npos) << agg;
  EXPECT_EQ(agg.find("Join("), std::string::npos) << agg;

  const std::string join = ExplainQuery(
      "SELECT COUNT(*) FROM bid, impression WINDOW 10 s DURATION 60 s;",
      registry_);
  EXPECT_NE(join.find("Join("), std::string::npos) << join;

  const std::string raw = ExplainQuery(
      "SELECT bid.user_id FROM bid WINDOW 10 s DURATION 60 s;", registry_);
  EXPECT_NE(raw.find("Project("), std::string::npos) << raw;
  EXPECT_EQ(raw.find("Finalize("), std::string::npos) << raw;
}

TEST_F(ExplainTest, ShowsTypedIrPrograms) {
  const std::string text = ExplainQuery(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "WINDOW 10 s DURATION 60 s;",
      registry_);
  EXPECT_NE(text.find("ir:"), std::string::npos) << text;
  EXPECT_NE(text.find("filter program 0"), std::string::npos) << text;
  EXPECT_NE(text.find("bid.price"), std::string::npos) << text;
  EXPECT_NE(text.find("null|double"), std::string::npos) << text;
  EXPECT_NE(text.find("predicate unknown"), std::string::npos) << text;
  EXPECT_NE(text.find("central:"), std::string::npos) << text;

  // An unsatisfiable filter is called out, its programs pruned, and lint
  // flags the contradiction alongside.
  const std::string dead = ExplainQuery(
      "SELECT COUNT(*) FROM bid WHERE bid.user_id = 200 AND "
      "bid.user_id >= 500 WINDOW 10 s DURATION 60 s;",
      registry_);
  EXPECT_NE(dead.find("unsatisfiable"), std::string::npos) << dead;
  EXPECT_NE(dead.find("scrubql-filter-contradiction"), std::string::npos)
      << dead;

  // A redundant conjunct is pruned from the executed programs: only the
  // stronger bound survives.
  const std::string pruned = ExplainQuery(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 10 AND bid.price > 5 "
      "WINDOW 10 s DURATION 60 s;",
      registry_);
  EXPECT_NE(pruned.find("folded away or implied"), std::string::npos)
      << pruned;
  EXPECT_NE(pruned.find("filter program 0"), std::string::npos) << pruned;
  EXPECT_EQ(pruned.find("filter program 1"), std::string::npos) << pruned;
}

TEST_F(ExplainTest, ErrorsRenderAsText) {
  const std::string text = ExplainQuery("SELECT COUNT(*) FROM ghost;",
                                        registry_);
  EXPECT_NE(text.find("error:"), std::string::npos);
  EXPECT_NE(text.find("ghost"), std::string::npos);
}

TEST(DescribeQueryTest, ReportsAgentAndCentralCounters) {
  SystemConfig config;
  config.seed = 91;
  config.platform.seed = 91;
  config.platform.datacenters = 1;
  config.platform.bidservers_per_dc = 2;
  config.platform.adservers_per_dc = 1;
  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 300;
  load.duration = 4 * kMicrosPerSecond;
  system.workload().SchedulePoissonLoad(load);
  Result<SubmittedQuery> submitted = system.Submit(
      "SELECT COUNT(*) FROM bid WHERE bid.exchange_id = 1 "
      "WINDOW 2 s DURATION 4 s;",
      [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok());
  system.RunUntil(5 * kMicrosPerSecond);
  system.Drain();

  const std::string text = system.DescribeQuery(submitted->id);
  EXPECT_NE(text.find("hosts: 5 reporting"), std::string::npos) << text;
  EXPECT_NE(text.find("considered="), std::string::npos);
  EXPECT_NE(text.find("filtered="), std::string::npos);
  EXPECT_NE(text.find("central: batches="), std::string::npos);
  // Facade-level Explain is also wired.
  EXPECT_NE(system.Explain("SELECT COUNT(*) FROM bid;").find("host plan"),
            std::string::npos);
  // Unknown queries degrade gracefully.
  EXPECT_NE(system.DescribeQuery(999).find("no record"), std::string::npos);
}

TEST(DescribeQueryTest, ReportsStagingAndColumnEncodings) {
  SystemConfig config;
  config.seed = 92;
  config.platform.seed = 92;
  config.platform.datacenters = 1;
  config.platform.bidservers_per_dc = 2;
  config.platform.adservers_per_dc = 1;
  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 400;
  load.duration = 4 * kMicrosPerSecond;
  system.workload().SchedulePoissonLoad(load);
  Result<SubmittedQuery> grouped = system.Submit(
      "SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
      "WINDOW 2 s DURATION 4 s;",
      [](const ResultRow&) {});
  ASSERT_TRUE(grouped.ok());
  Result<SubmittedQuery> join = system.Submit(
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 2 s DURATION 4 s;",
      [](const ResultRow&) {});
  ASSERT_TRUE(join.ok());
  system.RunUntil(5 * kMicrosPerSecond);
  system.Drain();

  // Single-source columnar query: the country column is the only shipped
  // field (low-cardinality, so the dictionary wins); the rest render as
  // dropped.
  const std::string g = system.DescribeQuery(grouped->id);
  EXPECT_NE(g.find("staging: columnar\n"), std::string::npos) << g;
  EXPECT_NE(g.find("source bid:"), std::string::npos) << g;
  EXPECT_NE(g.find("country=dict("), std::string::npos) << g;
  EXPECT_NE(g.find("bid_price=dropped"), std::string::npos) << g;
  EXPECT_EQ(g.find("country=plain"), std::string::npos) << g;

  // Join query: one staging line per source, flagged as columnar join.
  const std::string j = system.DescribeQuery(join->id);
  EXPECT_NE(j.find("staging: columnar join\n"), std::string::npos) << j;
  EXPECT_NE(j.find("source bid:"), std::string::npos) << j;
  EXPECT_NE(j.find("source impression:"), std::string::npos) << j;
  EXPECT_NE(j.find("line_item_id=plain"), std::string::npos) << j;
}

}  // namespace
}  // namespace scrub
