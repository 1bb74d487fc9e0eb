// Tests for the ScrubQL static query linter: one positive (diagnostic fires
// with the right rule id, severity and span) and one negative (a well-formed
// query stays clean) case per rule, plus the selectivity estimator and the
// diagnostic renderer.

#include <gtest/gtest.h>

#include "src/lint/lint.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

class LintTest : public ::testing::Test {
 protected:
  LintTest() {
    EXPECT_TRUE(registry_
                    .Register(*EventSchema::Builder("bid")
                                   .AddField("user_id", FieldType::kLong)
                                   .AddField("price", FieldType::kDouble)
                                   .AddField("country", FieldType::kString)
                                   .AddField("won", FieldType::kBool)
                                   .Build())
                    .ok());
    options_.fleet_hosts = 100;
    options_.events_per_host_per_second = 1000.0;
    options_.field_cardinality = {{"user_id", 1'000'000}, {"country", 8}};
  }

  // Parse + analyze + lint; analysis must succeed.
  std::vector<Diagnostic> Lint(std::string_view text) {
    Result<AnalyzedQuery> analyzed = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    if (!analyzed.ok()) {
      return {};
    }
    return LintQuery(*analyzed, options_);
  }

  // All diagnostics carrying `rule`.
  static std::vector<Diagnostic> WithRule(
      const std::vector<Diagnostic>& diags, std::string_view rule) {
    std::vector<Diagnostic> out;
    for (const Diagnostic& d : diags) {
      if (d.rule == rule) {
        out.push_back(d);
      }
    }
    return out;
  }

  static std::string SpanText(std::string_view query, const SourceSpan& span) {
    if (!span.IsValid() || span.end > query.size()) {
      return "";
    }
    return std::string(query.substr(span.begin, span.end - span.begin));
  }

  SchemaRegistry registry_;
  LintOptions options_;
};

// --- (a) scrubql-unbounded-group-by ----------------------------------------

TEST_F(LintTest, UnboundedGroupByFiresOnHighCardinalityKey) {
  const std::string q =
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kUnboundedGroupBy);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kError);
  EXPECT_EQ(SpanText(q, hits[0].span), "bid.user_id");
  EXPECT_NE(hits[0].message.find("TOPK"), std::string::npos);
}

TEST_F(LintTest, UnboundedGroupByFiresOnRequestIdKey) {
  const std::string q =
      "SELECT bid.__request_id, COUNT(*) FROM bid GROUP BY bid.__request_id "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kUnboundedGroupBy);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kError);
  EXPECT_NE(hits[0].message.find("one group per request"), std::string::npos);
}

TEST_F(LintTest, GroupByLowCardinalityKeyIsClean) {
  const std::string q =
      "SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kUnboundedGroupBy).empty());
}

TEST_F(LintTest, GroupByUnknownCardinalityIsClean) {
  // price has no cardinality profile: the rule never guesses.
  const std::string q =
      "SELECT bid.price, COUNT(*) FROM bid GROUP BY bid.price "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kUnboundedGroupBy).empty());
}

TEST_F(LintTest, TopKSilencesUnboundedGroupBy) {
  const std::string q =
      "SELECT bid.user_id, TOPK(10, bid.user_id) FROM bid "
      "GROUP BY bid.user_id WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kUnboundedGroupBy).empty());
}

// --- (b) scrubql-exact-distinct --------------------------------------------

TEST_F(LintTest, ExactDistinctFiresOnAggregateFreeGroupBy) {
  const std::string q =
      "SELECT bid.country FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kExactDistinct);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("COUNT_DISTINCT"), std::string::npos);
  EXPECT_NE(SpanText(q, hits[0].span).find("GROUP BY"), std::string::npos);
}

TEST_F(LintTest, GroupByWithAggregateIsNotExactDistinct) {
  const std::string q =
      "SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kExactDistinct).empty());
}

// --- (c) scrubql-sampling-error --------------------------------------------

TEST_F(LintTest, SamplingErrorFiresWhenPredictedErrorIsUseless) {
  // n = 10 hosts, m = 1 event/host/window: Eqs. 1-3 predict ~+/-100%.
  const std::string q =
      "SELECT COUNT(*) FROM bid WHERE bid.price > 100 "
      "WINDOW 1 s DURATION 60 s SAMPLE HOSTS 10% SAMPLE EVENTS 0.1%;";
  const auto hits = WithRule(Lint(q), lint_rules::kSamplingError);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("relative error"), std::string::npos);
  EXPECT_NE(SpanText(q, hits[0].span).find("SAMPLE EVENTS"),
            std::string::npos);
}

TEST_F(LintTest, SamplingErrorWarnsOnSingleSampledHost) {
  const std::string q =
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s SAMPLE HOSTS 1%;";
  const auto hits = WithRule(Lint(q), lint_rules::kSamplingError);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("single host"), std::string::npos);
  EXPECT_NE(SpanText(q, hits[0].span).find("SAMPLE HOSTS"),
            std::string::npos);
}

TEST_F(LintTest, GenerousSamplingIsClean) {
  const std::string q =
      "SELECT COUNT(*) FROM bid WHERE bid.price > 100 "
      "WINDOW 1 s DURATION 60 s SAMPLE HOSTS 10% SAMPLE EVENTS 50%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kSamplingError).empty());
}

TEST_F(LintTest, UnsampledQueryNeverPredictsSamplingError) {
  const std::string q =
      "SELECT COUNT(*) FROM bid @[SERVICE IN BidServers] "
      "WINDOW 1 s DURATION 60 s;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kSamplingError).empty());
}

// --- (d) scrubql-full-fleet ------------------------------------------------

TEST_F(LintTest, FullFleetFiresWithoutTargetOrSampling) {
  const std::string q = "SELECT COUNT(*) FROM bid WINDOW 5 s DURATION 60 s;";
  const auto hits = WithRule(Lint(q), lint_rules::kFullFleet);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("every monitorable host"),
            std::string::npos);
}

TEST_F(LintTest, TargetClauseSilencesFullFleet) {
  const std::string q =
      "SELECT COUNT(*) FROM bid @[SERVICE IN BidServers] "
      "WINDOW 5 s DURATION 60 s;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kFullFleet).empty());
}

TEST_F(LintTest, SamplingSilencesFullFleet) {
  const std::string q =
      "SELECT COUNT(*) FROM bid WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kFullFleet).empty());
}

// --- (e) scrubql-dead-projection -------------------------------------------

TEST_F(LintTest, DeadProjectionFiresOnWhereOnlyField) {
  const std::string q =
      "SELECT COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kDeadProjection);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kNote);
  EXPECT_NE(hits[0].message.find("bid.price"), std::string::npos);
  EXPECT_EQ(SpanText(q, hits[0].span), "bid.price");
}

TEST_F(LintTest, CentrallyReadFieldIsNotDeadProjection) {
  const std::string q =
      "SELECT bid.price, COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "GROUP BY bid.price WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kDeadProjection).empty());
}

// --- (f) scrubql-ineffective-filter ----------------------------------------

TEST_F(LintTest, IneffectiveFilterFiresOnSelectivityNearOne) {
  // user_id != 42 keeps ~all of a million-user population.
  const std::string q =
      "SELECT COUNT(*) FROM bid WHERE bid.user_id != 42 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto hits = WithRule(Lint(q), lint_rules::kIneffectiveFilter);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("full logging"), std::string::npos);
  EXPECT_NE(SpanText(q, hits[0].span).find("WHERE"), std::string::npos);
}

TEST_F(LintTest, SelectiveFilterIsClean) {
  const std::string q =
      "SELECT COUNT(*) FROM bid WHERE bid.country = 'US' "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kIneffectiveFilter).empty());
}

// --- (g) scrubql-window-under-flush ----------------------------------------

TEST_F(LintTest, WindowUnderFlushFires) {
  options_.flush_interval_micros = 500 * kMicrosPerMilli;
  const std::string q =
      "SELECT COUNT(*) FROM bid WINDOW 100 ms DURATION 60 s "
      "SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kWindowUnderFlush);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("flush interval"), std::string::npos);
  EXPECT_NE(SpanText(q, hits[0].span).find("WINDOW"), std::string::npos);
}

TEST_F(LintTest, WindowAtOrAboveFlushIsClean) {
  options_.flush_interval_micros = 500 * kMicrosPerMilli;
  const std::string q =
      "SELECT COUNT(*) FROM bid WINDOW 500 ms DURATION 60 s "
      "SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kWindowUnderFlush).empty());
}

// --- (h) scrubql-span-budget -----------------------------------------------

TEST_F(LintTest, SpanBudgetFiresPastBudgetFraction) {
  // Default budget: 50% of 24 h.
  const std::string q =
      "SELECT COUNT(*) FROM bid WINDOW 5 s DURATION 13 h SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kSpanBudget);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(SpanText(q, hits[0].span).find("DURATION"), std::string::npos);
}

TEST_F(LintTest, ShortSpanIsClean) {
  const std::string q =
      "SELECT COUNT(*) FROM bid WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kSpanBudget).empty());
}

// --- Clean query / ordering / API ------------------------------------------

// --- (i) scrubql-no-retry-headroom -----------------------------------------

TEST_F(LintTest, RetryHeadroomFiresWhenLatenessTooTight) {
  options_.flush_interval_micros = 500 * kMicrosPerMilli;
  options_.retry_rtt_micros = 700 * kMicrosPerMilli;
  options_.allowed_lateness_micros = 1 * kMicrosPerSecond;
  // Needed headroom = flush 500 ms + retry RTT 700 ms = 1.2 s > 1 s grace:
  // one lost batch at a window's last flush becomes missing data.
  const std::string q =
      "SELECT COUNT(*) FROM bid @[SERVICE IN BidServers] "
      "WINDOW 5 s DURATION 60 s;";
  const auto hits = WithRule(Lint(q), lint_rules::kNoRetryHeadroom);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("retransmit"), std::string::npos);
  EXPECT_NE(SpanText(q, hits[0].span).find("WINDOW"), std::string::npos);
}

TEST_F(LintTest, RetryHeadroomCleanWithAmpleLateness) {
  options_.flush_interval_micros = 500 * kMicrosPerMilli;
  options_.retry_rtt_micros = 700 * kMicrosPerMilli;
  options_.allowed_lateness_micros = 2 * kMicrosPerSecond;
  const std::string q =
      "SELECT COUNT(*) FROM bid @[SERVICE IN BidServers] "
      "WINDOW 5 s DURATION 60 s;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kNoRetryHeadroom).empty());
}

TEST_F(LintTest, RetryHeadroomDisabledWithoutRttEstimate) {
  // retry_rtt_micros == 0 (the default) disables the rule even under an
  // impossibly tight grace: only a deployment that knows its round trip
  // (the ScrubSystem wires it) can judge headroom.
  options_.allowed_lateness_micros = 1 * kMicrosPerMilli;
  const std::string q =
      "SELECT COUNT(*) FROM bid @[SERVICE IN BidServers] "
      "WINDOW 5 s DURATION 60 s;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kNoRetryHeadroom).empty());
}

TEST_F(LintTest, RetryHeadroomAppliesToRawQueriesToo) {
  // Even a raw-mode query gets the analyzer's default window, and late
  // events against a closed window are dropped the same way — the headroom
  // rule judges the lateness budget regardless of aggregation.
  options_.retry_rtt_micros = 10 * kMicrosPerSecond;
  options_.allowed_lateness_micros = 1 * kMicrosPerMilli;
  const std::string q =
      "SELECT bid.user_id FROM bid WHERE bid.price > 100.0 "
      "@[SERVICE IN BidServers] DURATION 60 s;";
  EXPECT_EQ(WithRule(Lint(q), lint_rules::kNoRetryHeadroom).size(), 1u);
}

// --- (j) scrubql-sampling-sharded-estimate ---------------------------------

TEST_F(LintTest, SamplingShardedEstimateNotesGroupedScaledAggregates) {
  const std::string q =
      "SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto hits = WithRule(Lint(q), lint_rules::kSamplingShardedEstimate);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kNote);
  EXPECT_NE(SpanText(q, hits[0].span).find("SAMPLE EVENTS"),
            std::string::npos);
}

TEST_F(LintTest, SamplingShardedEstimateCoversHostSampledSum) {
  const std::string q =
      "SELECT bid.country, SUM(bid.price) FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE HOSTS 50%;";
  const auto hits = WithRule(Lint(q), lint_rules::kSamplingShardedEstimate);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(SpanText(q, hits[0].span).find("SAMPLE HOSTS"),
            std::string::npos);
}

TEST_F(LintTest, SamplingShardedEstimateQuietWithoutGroupOrSampling) {
  // Ungrouped sampled COUNT gets the single-instance Eq. 2-3 bound already;
  // grouped unsampled needs no estimate; grouped sampled MIN never scales.
  EXPECT_TRUE(WithRule(Lint("SELECT COUNT(*) FROM bid WINDOW 5 s "
                            "DURATION 60 s SAMPLE EVENTS 50%;"),
                       lint_rules::kSamplingShardedEstimate)
                  .empty());
  EXPECT_TRUE(WithRule(Lint("SELECT bid.country, COUNT(*) FROM bid "
                            "GROUP BY bid.country WINDOW 5 s "
                            "DURATION 60 s;"),
                       lint_rules::kSamplingShardedEstimate)
                  .empty());
  EXPECT_TRUE(WithRule(Lint("SELECT bid.country, MIN(bid.price) FROM bid "
                            "GROUP BY bid.country WINDOW 5 s DURATION 60 s "
                            "SAMPLE EVENTS 50%;"),
                       lint_rules::kSamplingShardedEstimate)
                  .empty());
}

TEST_F(LintTest, SamplingShardedEstimateQuietOnUnsampledGroupedQuery) {
  // Grouped, scaling aggregates, but no SAMPLE clause at all: there is no
  // estimate to annotate, sharded central or not.
  const std::string q =
      "SELECT bid.country, SUM(bid.price), COUNT(*) FROM bid "
      "GROUP BY bid.country WINDOW 5 s DURATION 60 s;";
  EXPECT_TRUE(
      WithRule(Lint(q), lint_rules::kSamplingShardedEstimate).empty());
}

// --- (k) scrubql-filter-contradiction --------------------------------------

TEST_F(LintTest, FilterContradictionFiresOnConflictingConjuncts) {
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.user_id = 200 AND bid.user_id >= 500 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto diags = Lint(q);
  const auto hits = WithRule(diags, lint_rules::kFilterContradiction);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("user_id"), std::string::npos);
  // Semantic rules warn; the query is well-formed and admission accepts it.
  EXPECT_FALSE(HasLintErrors(WithRule(diags,
                                      lint_rules::kFilterContradiction)));
}

TEST_F(LintTest, FilterContradictionFiresOnEmptyIntegerBand) {
  // No integer lies strictly between 1 and 2 and user_id is integral.
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.user_id > 1 AND bid.user_id < 2 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  EXPECT_EQ(WithRule(Lint(q), lint_rules::kFilterContradiction).size(), 1u);
}

TEST_F(LintTest, SatisfiableBoundsAreNotAContradiction) {
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.user_id >= 200 AND bid.user_id <= 500 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto diags = Lint(q);
  EXPECT_TRUE(WithRule(diags, lint_rules::kFilterContradiction).empty());
  EXPECT_TRUE(WithRule(diags, lint_rules::kRedundantConjunct).empty());
}

// --- (l) scrubql-redundant-conjunct ----------------------------------------

TEST_F(LintTest, RedundantConjunctFiresOnImpliedBound) {
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.price > 10 AND bid.price > 5 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto hits = WithRule(Lint(q), lint_rules::kRedundantConjunct);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  // The weaker bound is the redundant one.
  EXPECT_EQ(SpanText(q, hits[0].span), "bid.price > 5");
}

TEST_F(LintTest, RedundantConjunctFiresOnEqualityPinnedRange) {
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.user_id = 7 AND bid.user_id < 10 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto hits = WithRule(Lint(q), lint_rules::kRedundantConjunct);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(SpanText(q, hits[0].span), "bid.user_id < 10");
}

TEST_F(LintTest, TighteningBoundsAreNotRedundant) {
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.price > 10 AND bid.price < 20 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kRedundantConjunct).empty());
}

// --- (m) scrubql-division-by-zero ------------------------------------------

TEST_F(LintTest, DivisionByZeroFiresInWhere) {
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.price / 0 > 1 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto hits = WithRule(Lint(q), lint_rules::kDivisionByZero);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("NULL"), std::string::npos);
}

TEST_F(LintTest, DivisionByZeroFiresInSelectList) {
  const std::string q =
      "SELECT SUM(bid.price) / 0 FROM bid "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  EXPECT_EQ(WithRule(Lint(q), lint_rules::kDivisionByZero).size(), 1u);
}

TEST_F(LintTest, NonZeroDivisorIsClean) {
  const std::string q =
      "SELECT SUM(bid.price) / 100 FROM bid "
      "WHERE bid.price / 2 > 1 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto diags = Lint(q);
  EXPECT_TRUE(WithRule(diags, lint_rules::kDivisionByZero).empty());
  EXPECT_TRUE(WithRule(diags, lint_rules::kNullComparison).empty());
}

// --- (n) scrubql-null-comparison -------------------------------------------

TEST_F(LintTest, NullComparisonFiresOnProvablyNullOperand) {
  // price / 0 is always NULL, and an ordered comparison against NULL is
  // never true — so this also contradicts.
  const std::string q =
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.price / 0 > 1 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  const auto diags = Lint(q);
  const auto hits = WithRule(diags, lint_rules::kNullComparison);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(WithRule(diags, lint_rules::kFilterContradiction).size(), 1u);
  // Warnings all the way down: the query still admits.
  EXPECT_FALSE(HasLintErrors(diags));
}

TEST_F(LintTest, OrdinaryComparisonIsNotNullComparison) {
  const std::string q =
      "SELECT COUNT(*) FROM bid WHERE bid.price > 1 "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 50%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kNullComparison).empty());
}

// --- (o) scrubql-window-state-budget ----------------------------------------

TEST_F(LintTest, WindowStateBudgetFiresOnGroupedStateOverBudget) {
  // 8 country groups at ~240 logical bytes each cannot fit in 256 bytes.
  options_.query_state_budget_bytes = 256;
  const std::string q =
      "SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kWindowStateBudget);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("live groups"), std::string::npos);
  EXPECT_NE(hits[0].message.find("spill"), std::string::npos);
  EXPECT_TRUE(hits[0].span.IsValid());
}

TEST_F(LintTest, WindowStateBudgetFiresOnJoinBuffer) {
  EXPECT_TRUE(registry_
                  .Register(*EventSchema::Builder("impression")
                                 .AddField("cost", FieldType::kDouble)
                                 .Build())
                  .ok());
  // 100 hosts x 1000 ev/s x 10 s buffered until window close dwarfs 64 KiB.
  options_.query_state_budget_bytes = 64 * 1024;
  const std::string q =
      "SELECT COUNT(*) FROM bid, impression WINDOW 10 s DURATION 60 s;";
  const auto hits = WithRule(Lint(q), lint_rules::kWindowStateBudget);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("buffered join rows"), std::string::npos);
}

TEST_F(LintTest, WindowStateBudgetPredictsTheExecutorsCharges) {
  // 8 country groups, each charged by the executor as: group shell 96 B,
  // two accumulators at 120 B, one HLL sketch at the default precision
  // (2^14 registers + 64 B shell), plus the lint's 24 B key model. The rule
  // warns strictly above the budget, so the prediction is pinned exactly.
  const std::string q =
      "SELECT bid.country, COUNT(*), COUNT_DISTINCT(bid.user_id) FROM bid "
      "GROUP BY bid.country WINDOW 5 s DURATION 60 s;";
  const uint64_t predicted = 8 * (96 + 2 * 120 + ((1 << 14) + 64) + 24);
  ASSERT_EQ(predicted, 134'464u);
  options_.query_state_budget_bytes = predicted - 1;
  EXPECT_EQ(WithRule(Lint(q), lint_rules::kWindowStateBudget).size(), 1u);
  options_.query_state_budget_bytes = predicted;
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kWindowStateBudget).empty());
}

TEST_F(LintTest, WindowStateBudgetQuietUnderBudget) {
  options_.query_state_budget_bytes = 1024 * 1024;
  const std::string q =
      "SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kWindowStateBudget).empty());
}

TEST_F(LintTest, WindowStateBudgetDisabledWithoutBudget) {
  // The default (no budget configured) never predicts pressure.
  const std::string q =
      "SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kWindowStateBudget).empty());
}

TEST_F(LintTest, TopKBoundSilencesWindowStateBudget) {
  options_.query_state_budget_bytes = 256;
  const std::string q =
      "SELECT bid.country, TOPK(5, bid.country) FROM bid "
      "GROUP BY bid.country WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(WithRule(Lint(q), lint_rules::kWindowStateBudget).empty());
}

TEST_F(LintTest, WellFormedQueryIsCompletelyClean) {
  const std::string q =
      "SELECT bid.country, COUNT(*), COUNT_DISTINCT(bid.user_id) FROM bid "
      "WHERE bid.country = 'US' @[SERVICE IN BidServers] "
      "GROUP BY bid.country WINDOW 5 s DURATION 60 s;";
  const auto diags = Lint(q);
  EXPECT_TRUE(diags.empty()) << RenderDiagnostics(diags, q);
}

TEST_F(LintTest, HasLintErrorsDistinguishesSeverity) {
  const std::string errors =
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  EXPECT_TRUE(HasLintErrors(Lint(errors)));
  const std::string warnings =
      "SELECT COUNT(*) FROM bid WINDOW 5 s DURATION 60 s;";
  const auto diags = Lint(warnings);
  EXPECT_FALSE(diags.empty());
  EXPECT_FALSE(HasLintErrors(diags));
}

TEST_F(LintTest, LintQueryTextSurfacesParseFailuresAsStatus) {
  Result<std::vector<Diagnostic>> r =
      LintQueryText("SELECT FROM;", registry_, {}, options_);
  EXPECT_FALSE(r.ok());
}

TEST_F(LintTest, RenderDiagnosticIncludesRuleAndSnippet) {
  const std::string q =
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 5 s DURATION 60 s SAMPLE EVENTS 10%;";
  const auto hits = WithRule(Lint(q), lint_rules::kUnboundedGroupBy);
  ASSERT_EQ(hits.size(), 1u);
  const std::string rendered = RenderDiagnostic(hits[0], q);
  EXPECT_NE(rendered.find("error[scrubql-unbounded-group-by]"),
            std::string::npos);
  EXPECT_NE(rendered.find("bid.user_id"), std::string::npos);
  EXPECT_NE(rendered.find("--> offset"), std::string::npos);
}

// --- Selectivity estimator ---------------------------------------------------

TEST_F(LintTest, SelectivityOfKnownEquality) {
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WHERE bid.country = 'US' DURATION 60 s;",
      registry_);
  ASSERT_TRUE(aq.ok());
  EXPECT_NEAR(EstimateSelectivity(*aq->query.where, options_), 1.0 / 8,
              1e-9);
}

TEST_F(LintTest, SelectivityCombinesConjunctionAndNegation) {
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.country = 'US' AND NOT bid.price > 10 DURATION 60 s;",
      registry_);
  ASSERT_TRUE(aq.ok());
  // 1/8 * (1 - 1/3)
  EXPECT_NEAR(EstimateSelectivity(*aq->query.where, options_),
              (1.0 / 8) * (2.0 / 3), 1e-9);
}

TEST_F(LintTest, SelectivityOfDisjunctionAndInList) {
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid "
      "WHERE bid.country IN ('US', 'DE') DURATION 60 s;",
      registry_);
  ASSERT_TRUE(aq.ok());
  EXPECT_NEAR(EstimateSelectivity(*aq->query.where, options_), 2.0 / 8,
              1e-9);
}

// --- (p) scrubql-sampled-join ------------------------------------------------

class SampledJoinLintTest : public LintTest {
 protected:
  SampledJoinLintTest() {
    EXPECT_TRUE(registry_
                    .Register(*EventSchema::Builder("impression")
                                   .AddField("cost", FieldType::kDouble)
                                   .Build())
                    .ok());
  }
};

TEST_F(SampledJoinLintTest, FiresOnEventSampledJoin) {
  const std::string q =
      "SELECT COUNT(*), SUM(impression.cost) FROM bid, impression "
      "WINDOW 10 s DURATION 60 s SAMPLE EVENTS 25%;";
  const std::vector<Diagnostic> diags = Lint(q);
  const auto hits = WithRule(diags, lint_rules::kSampledJoin);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, LintSeverity::kWarning);
  EXPECT_NE(hits[0].message.find("each source independently"),
            std::string::npos)
      << hits[0].message;
  EXPECT_NE(hits[0].message.find("p^2 (6.25%)"), std::string::npos)
      << hits[0].message;
  EXPECT_NE(hits[0].message.find("1/p"), std::string::npos)
      << hits[0].message;
  EXPECT_NE(SpanText(q, hits[0].span).find("SAMPLE EVENTS"),
            std::string::npos);
  // A warning: admission (errors only) is unchanged.
  EXPECT_FALSE(HasLintErrors(diags));
}

TEST_F(SampledJoinLintTest, QuietOnSampledSingleSourceAndUnsampledJoin) {
  EXPECT_TRUE(WithRule(Lint("SELECT COUNT(*) FROM bid WINDOW 10 s "
                            "DURATION 60 s SAMPLE EVENTS 25%;"),
                       lint_rules::kSampledJoin)
                  .empty());
  EXPECT_TRUE(WithRule(Lint("SELECT COUNT(*) FROM bid, impression "
                            "WINDOW 10 s DURATION 60 s;"),
                       lint_rules::kSampledJoin)
                  .empty());
}

}  // namespace
}  // namespace scrub
