// Tests for nested-object field access in queries (paper Section 3.1:
// events may carry nested, XML-ish objects). References like bid.device.os
// descend into object fields; nested values are dynamically typed.

#include <map>

#include <gtest/gtest.h>

#include "src/plan/expr_ir.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"
#include "src/scrub/scrub_system.h"
#include "tests/tree_eval.h"

namespace scrub {
namespace {

class NestedObjectTest : public ::testing::Test {
 protected:
  NestedObjectTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("device", FieldType::kObject)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  Event MakeBid(RequestId rid, int64_t user, const char* os, int64_t gen) {
    Event e(schema_, rid, 100);
    e.SetField(0, Value(user));
    NestedObject hw;
    hw.fields.emplace_back("generation", Value(gen));
    NestedObject device;
    device.fields.emplace_back("os", Value(os));
    device.fields.emplace_back("hw", Value(std::move(hw)));
    e.SetField(1, Value(std::move(device)));
    return e;
  }

  // The analyzed WHERE of a single-source query, for direct evaluation.
  ExprPtr ParseWhere(std::string_view text) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return aq->query.where->Clone();
  }

  // The lowered IR's verdict, checked against the tree oracle.
  bool Matches(const ExprPtr& pred, const Event& e) {
    Result<ExprProgram> program = LowerExpr(*pred, {"bid"}, {schema_});
    if (!program.ok()) {
      ADD_FAILURE() << program.status().ToString();
      return false;
    }
    const bool ir = EvalProgramPredicateSingle(*program, e);
    EXPECT_EQ(ir, TreePredicateSingle(*pred, e));
    return ir;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
};

TEST_F(NestedObjectTest, QualifiedPathResolves) {
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WHERE bid.device.os = 'ios';", registry_);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
}

TEST_F(NestedObjectTest, UnqualifiedPathResolves) {
  // "device.os": 'device' is not an event type, so the analyzer treats it
  // as a field with a nested path.
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WHERE device.os = 'ios';", registry_);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  EXPECT_EQ(aq->query.where->children[0]->field, "device");
  EXPECT_EQ(aq->query.where->children[0]->path,
            std::vector<std::string>{"os"});
}

TEST_F(NestedObjectTest, PathIntoNonObjectRejected) {
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WHERE bid.user_id.bits = 1;", registry_);
  ASSERT_FALSE(aq.ok());
  EXPECT_NE(aq.status().message().find("nested object"), std::string::npos);
}

TEST_F(NestedObjectTest, PredicateOnNestedString) {
  const ExprPtr pred =
      ParseWhere("SELECT COUNT(*) FROM bid WHERE bid.device.os = 'ios';");
  EXPECT_TRUE(Matches(pred, MakeBid(1, 1, "ios", 3)));
  EXPECT_FALSE(Matches(pred, MakeBid(2, 2, "android", 3)));
}

TEST_F(NestedObjectTest, DeepPathAndArithmetic) {
  const ExprPtr pred = ParseWhere(
      "SELECT COUNT(*) FROM bid WHERE bid.device.hw.generation + 1 > 3;");
  EXPECT_TRUE(Matches(pred, MakeBid(1, 1, "ios", 3)));
  EXPECT_FALSE(Matches(pred, MakeBid(2, 1, "ios", 1)));
}

TEST_F(NestedObjectTest, MissingPathYieldsNull) {
  const ExprPtr pred = ParseWhere(
      "SELECT COUNT(*) FROM bid WHERE bid.device.carrier = 'tmo';");
  // Field exists but has no 'carrier' member: null never matches equality.
  EXPECT_FALSE(Matches(pred, MakeBid(1, 1, "ios", 3)));
  // Unset object field entirely.
  Event bare(schema_, 9, 100);
  EXPECT_FALSE(Matches(pred, bare));
}

TEST_F(NestedObjectTest, GroupByNestedPath) {
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT bid.device.os, COUNT(*) FROM bid GROUP BY bid.device.os;",
      registry_);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->central.outputs.size(), 2u);
  EXPECT_EQ(plan->central.outputs[0].expr.kind, OutputKind::kGroupKey);
}

TEST_F(NestedObjectTest, EndToEndGroupByDeviceOs) {
  SystemConfig config;
  config.seed = 71;
  config.platform.seed = 71;
  config.platform.datacenters = 1;
  config.platform.bidservers_per_dc = 2;
  config.platform.adservers_per_dc = 1;
  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 400;
  load.duration = 5 * kMicrosPerSecond;
  system.workload().SchedulePoissonLoad(load);

  std::map<std::string, uint64_t> by_os;
  Result<SubmittedQuery> submitted = system.Submit(
      "SELECT bid.device.os, COUNT(*) FROM bid GROUP BY bid.device.os "
      "WINDOW 5 s DURATION 5 s;",
      [&by_os](const ResultRow& row) {
        by_os[row.values[0].AsString()] +=
            static_cast<uint64_t>(row.values[1].AsInt());
      });
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  system.RunUntil(6 * kMicrosPerSecond);
  system.Drain();

  // The platform assigns one of four OSes by user id; all four appear.
  EXPECT_EQ(by_os.size(), 4u);
  uint64_t total = 0;
  for (const auto& [os, n] : by_os) {
    EXPECT_GT(n, 0u) << os;
    total += n;
  }
  EXPECT_GT(total, 500u);
}

}  // namespace
}  // namespace scrub
