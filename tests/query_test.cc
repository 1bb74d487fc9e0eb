// Unit tests for src/query: lexer, parser (including round-trips through
// Query::ToString), and the semantic analyzer with its language
// restrictions.

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/query/analyzer.h"
#include "src/query/lexer.h"
#include "src/query/parser.h"

namespace scrub {
namespace {

// ---------------------------------------------------------------------------
// Lexer.

TEST(LexerTest, TokenKinds) {
  Result<std::vector<Token>> tokens =
      Tokenize("SELECT a.b, 42 1.5 'str' <> <= >= != @[ ] ( ) * / + - %");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) {
    kinds.push_back(t.kind);
  }
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdentifier, TokenKind::kIdentifier,
                TokenKind::kDot, TokenKind::kIdentifier, TokenKind::kComma,
                TokenKind::kInteger, TokenKind::kFloat, TokenKind::kString,
                TokenKind::kNe, TokenKind::kLe, TokenKind::kGe, TokenKind::kNe,
                TokenKind::kAt, TokenKind::kLBracket, TokenKind::kRBracket,
                TokenKind::kLParen, TokenKind::kRParen, TokenKind::kStar,
                TokenKind::kSlash, TokenKind::kPlus, TokenKind::kMinus,
                TokenKind::kPercent, TokenKind::kEnd}));
}

TEST(LexerTest, NumbersAndStrings) {
  Result<std::vector<Token>> tokens = Tokenize("123 45.75 1e3 \"dq\" 'sq'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 123);
  EXPECT_DOUBLE_EQ((*tokens)[1].float_value, 45.75);
  EXPECT_DOUBLE_EQ((*tokens)[2].float_value, 1000.0);
  EXPECT_EQ((*tokens)[3].text, "dq");
  EXPECT_EQ((*tokens)[4].text, "sq");
}

TEST(LexerTest, EscapedString) {
  Result<std::vector<Token>> tokens = Tokenize(R"('a\'b')");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a'b");
}

TEST(LexerTest, CommentsSkipped) {
  Result<std::vector<Token>> tokens =
      Tokenize("SELECT -- this is a comment\n x");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // SELECT, x, end
  EXPECT_EQ((*tokens)[1].text, "x");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// ---------------------------------------------------------------------------
// Parser.

TEST(ParserTest, PaperSpamQuery) {
  // Figure 9 of the paper (modulo our target-host spelling).
  Result<Query> q = ParseQuery(
      "Select bid.user_id, COUNT(*) from bid "
      "@[Service in BidServers and Server = host1] "
      "group by bid.user_id;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->select[0].expr->kind, ExprKind::kFieldRef);
  EXPECT_EQ(q->select[1].expr->agg_func, AggregateFunc::kCount);
  EXPECT_EQ(q->sources, std::vector<std::string>{"bid"});
  EXPECT_EQ(q->targets.services, std::vector<std::string>{"BidServers"});
  EXPECT_EQ(q->targets.hosts, std::vector<std::string>{"host1"});
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0]->field, "user_id");
}

TEST(ParserTest, PaperCpmQuery) {
  // Figure 13: CPM = 1000*AVG(impression.cost) with a host list.
  Result<Query> q = ParseQuery(
      "Select 1000*AVG(impression.cost) from impression "
      "where impression.line_item_id = 123 "
      "@[Servers in (hostA, hostB, hostC)];");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select[0].expr->kind, ExprKind::kBinary);
  EXPECT_TRUE(q->select[0].expr->ContainsAggregate());
  ASSERT_NE(q->where, nullptr);
  EXPECT_EQ(q->targets.hosts,
            (std::vector<std::string>{"hostA", "hostB", "hostC"}));
}

TEST(ParserTest, WindowSpanAndSampling) {
  Result<Query> q = ParseQuery(
      "SELECT COUNT(*) FROM impression WINDOW 10 s START 1 m "
      "DURATION 20 m SAMPLE HOSTS 10% SAMPLE EVENTS 12.5%;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->window_micros, 10 * kMicrosPerSecond);
  EXPECT_EQ(q->start_offset_micros, kMicrosPerMinute);
  EXPECT_EQ(q->duration_micros, 20 * kMicrosPerMinute);
  EXPECT_DOUBLE_EQ(q->host_sample_rate, 0.10);
  EXPECT_DOUBLE_EQ(q->event_sample_rate, 0.125);
}

TEST(ParserTest, JoinSourcesAndContains) {
  Result<Query> q = ParseQuery(
      "SELECT impression.line_item_id, COUNT(*), "
      "AVG(impression.cost) FROM auction, impression "
      "WHERE auction.line_item_ids CONTAINS 4242 "
      "GROUP BY impression.line_item_id WINDOW 1 h DURATION 1 h;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->sources, (std::vector<std::string>{"auction", "impression"}));
  EXPECT_EQ(q->where->binary_op, BinaryOp::kContains);
}

TEST(ParserTest, ExpressionPrecedence) {
  Result<Query> q = ParseQuery("SELECT a + b * c - d FROM t;");
  ASSERT_TRUE(q.ok());
  // ((a + (b*c)) - d)
  EXPECT_EQ(q->select[0].expr->ToString(), "((a + (b * c)) - d)");
}

TEST(ParserTest, BooleanPrecedenceAndNot) {
  Result<Query> q = ParseQuery(
      "SELECT x FROM t WHERE NOT a = 1 AND b = 2 OR c = 3;");
  ASSERT_TRUE(q.ok());
  // ((NOT(a=1) AND (b=2)) OR (c=3))
  EXPECT_EQ(q->where->binary_op, BinaryOp::kOr);
  EXPECT_EQ(q->where->children[0]->binary_op, BinaryOp::kAnd);
  EXPECT_EQ(q->where->children[0]->children[0]->kind, ExprKind::kUnary);
}

TEST(ParserTest, InListAndLiterals) {
  Result<Query> q = ParseQuery(
      "SELECT x FROM t WHERE x IN (1, 2, 3) AND s = 'sj' AND f = TRUE "
      "AND n = NULL;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE(q->where, nullptr);
}

TEST(ParserTest, AggregateVariants) {
  Result<Query> q = ParseQuery(
      "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), "
      "COUNT_DISTINCT(u), TOPK(10, u) FROM t;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->select.size(), 8u);
  EXPECT_TRUE(q->select[0].expr->children.empty());  // COUNT(*)
  EXPECT_EQ(q->select[7].expr->topk_k, 10);
}

TEST(ParserTest, Aliases) {
  Result<Query> q = ParseQuery("SELECT COUNT(*) AS n FROM t;");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select[0].alias, "n");
}

TEST(ParserTest, SyntaxErrors) {
  const char* bad[] = {
      "",
      "SELECT",
      "SELECT FROM t;",
      "SELECT x FROM;",
      "SELECT x FROM t GROUP;",
      "SELECT x FROM t WINDOW 10;",        // missing unit
      "SELECT x FROM t WINDOW 10 parsecs;",
      "SELECT x FROM t SAMPLE HOSTS 10;",  // missing %
      "SELECT x FROM t SAMPLE HOSTS 150%;",
      "SELECT x FROM t @[UNKNOWN = y];",
      "SELECT x FROM t @[SERVICE IN];",
      "SELECT TOPK(x, y) FROM t;",         // k must be a literal integer
      "SELECT NOSUCHFUNC(x) FROM t;",
      "SELECT x FROM t; trailing",
      "SELECT x FROM t WINDOW 0 s;",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseQuery(text).ok()) << text;
  }
}

// Round-trip property: parse -> ToString -> parse yields the same rendering.
class ParserRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRoundTripTest, Stable) {
  Result<Query> first = ParseQuery(GetParam());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string rendered = first->ToString();
  Result<Query> second = ParseQuery(rendered);
  ASSERT_TRUE(second.ok()) << "re-parse failed: " << rendered;
  EXPECT_EQ(second->ToString(), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, ParserRoundTripTest,
    ::testing::Values(
        "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id;",
        "SELECT 1000 * AVG(impression.cost) FROM impression "
        "WHERE impression.line_item_id = 7 @[SERVERS IN (a, b)];",
        "SELECT COUNT(*) FROM bid @[SERVICE IN BidServers AND "
        "DATACENTER = DC1] WINDOW 10 SECONDS DURATION 20 MINUTES "
        "SAMPLE HOSTS 10% SAMPLE EVENTS 10%;",
        "SELECT x FROM t WHERE NOT a = 1 AND b IN (1, 2) OR c CONTAINS 5;",
        "SELECT TOPK(5, bid.user_id) FROM bid WINDOW 1 MINUTES "
        "DURATION 5 MINUTES;",
        "SELECT MIN(x), MAX(x), COUNT_DISTINCT(y) FROM t "
        "WHERE s = 'str' AND f = true;"));

// ---------------------------------------------------------------------------
// Analyzer.

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest() {
    SchemaPtr bid = *EventSchema::Builder("bid")
                         .AddField("user_id", FieldType::kLong)
                         .AddField("price", FieldType::kDouble)
                         .AddField("country", FieldType::kString)
                         .AddField("exchange_id", FieldType::kLong)
                         .Build();
    SchemaPtr excl = *EventSchema::Builder("exclusion")
                          .AddField("line_item_id", FieldType::kLong)
                          .AddField("reason", FieldType::kString)
                          .AddField("items", FieldType::kLongList)
                          .AddField("exchange_id", FieldType::kLong)
                          .Build();
    EXPECT_TRUE(registry_.Register(bid).ok());
    EXPECT_TRUE(registry_.Register(excl).ok());
  }

  Result<AnalyzedQuery> Run(std::string_view text) {
    return ParseAndAnalyze(text, registry_);
  }

  SchemaRegistry registry_;
};

TEST_F(AnalyzerTest, ResolvesAndDefaults) {
  Result<AnalyzedQuery> aq =
      Run("SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id;");
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  EXPECT_TRUE(aq->has_aggregates);
  EXPECT_EQ(aq->query.window_micros, 10 * kMicrosPerSecond);
  EXPECT_EQ(aq->query.duration_micros, 5 * kMicrosPerMinute);
  EXPECT_EQ(aq->schemas.size(), 1u);
  EXPECT_TRUE(aq->fields_per_source[0].count("user_id"));
}

TEST_F(AnalyzerTest, UnqualifiedFieldsResolveWhenUnambiguous) {
  Result<AnalyzedQuery> aq =
      Run("SELECT user_id FROM bid WHERE price > 1.0;");
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  EXPECT_EQ(aq->query.select[0].expr->qualifier, "bid");
}

TEST_F(AnalyzerTest, AmbiguousFieldRejected) {
  Result<AnalyzedQuery> aq =
      Run("SELECT exchange_id FROM bid, exclusion;");
  ASSERT_FALSE(aq.ok());
  EXPECT_NE(aq.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(AnalyzerTest, CrossSourcePredicateRejected) {
  // The essence of the language restriction: no general join predicates.
  Result<AnalyzedQuery> aq = Run(
      "SELECT COUNT(*) FROM bid, exclusion "
      "WHERE bid.exchange_id = exclusion.exchange_id;");
  ASSERT_FALSE(aq.ok());
  EXPECT_EQ(aq.status().code(), StatusCode::kUnimplemented);
}

TEST_F(AnalyzerTest, PerSourceConjunctsSplit) {
  Result<AnalyzedQuery> aq = Run(
      "SELECT COUNT(*) FROM bid, exclusion "
      "WHERE bid.price > 1.0 AND exclusion.reason = 'budget' AND 1 = 1;");
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  ASSERT_EQ(aq->conjuncts.size(), 3u);
  EXPECT_EQ(aq->conjunct_source[0], 0);
  EXPECT_EQ(aq->conjunct_source[1], 1);
  EXPECT_EQ(aq->conjunct_source[2], -1);
}

TEST_F(AnalyzerTest, TypeErrors) {
  const char* bad[] = {
      "SELECT COUNT(*) FROM bid WHERE bid.country > 1;",
      "SELECT COUNT(*) FROM bid WHERE bid.price AND bid.user_id = 1;",
      "SELECT SUM(bid.country) FROM bid;",
      "SELECT AVG(bid.country) FROM bid;",
      "SELECT COUNT(*) FROM bid WHERE bid.user_id;",  // non-boolean WHERE
      "SELECT bid.price FROM bid GROUP BY bid.user_id;",
      "SELECT COUNT(COUNT(*)) FROM bid;",
      "SELECT COUNT(*) FROM bid WHERE COUNT(*) > 1;",
      "SELECT COUNT(*) FROM bid GROUP BY bid.user_id + 1;",
      "SELECT TOPK(0, bid.user_id) FROM bid;",
      "SELECT COUNT(*) FROM bid WHERE bid.user_id IN (1, 'x');",
      "SELECT COUNT(*) FROM bid WHERE bid.country CONTAINS 'x';",
      "SELECT MIN(exclusion.items) FROM exclusion;",
      "SELECT exclusion.items, COUNT(*) FROM exclusion "
      "GROUP BY exclusion.items;",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Run(text).ok()) << text;
  }
}

TEST_F(AnalyzerTest, ContainsOnListField) {
  Result<AnalyzedQuery> aq = Run(
      "SELECT COUNT(*) FROM exclusion WHERE exclusion.items CONTAINS 42;");
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
}

TEST_F(AnalyzerTest, SystemFieldsUsable) {
  Result<AnalyzedQuery> aq = Run(
      "SELECT COUNT(*) FROM bid WHERE bid.__timestamp > 100 "
      "AND __request_id != 0;");
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
}

TEST_F(AnalyzerTest, SourceValidation) {
  EXPECT_FALSE(Run("SELECT COUNT(*) FROM nosuch;").ok());
  EXPECT_FALSE(Run("SELECT COUNT(*) FROM bid, bid;").ok());
  // Three-way joins are outside the supported subset.
  Result<AnalyzedQuery> three =
      Run("SELECT COUNT(*) FROM bid, exclusion, bid;");
  EXPECT_FALSE(three.ok());
  EXPECT_EQ(three.status().code(), StatusCode::kUnimplemented);
}

TEST_F(AnalyzerTest, DurationLimits) {
  EXPECT_FALSE(
      Run("SELECT COUNT(*) FROM bid WINDOW 10 m DURATION 1 m;").ok());
  EXPECT_FALSE(Run("SELECT COUNT(*) FROM bid DURATION 25 h;").ok());
}

TEST_F(AnalyzerTest, StarOutsideCountRejected) {
  EXPECT_FALSE(Run("SELECT * FROM bid;").ok());
}

TEST_F(AnalyzerTest, CloneIsDeep) {
  Result<AnalyzedQuery> aq = Run(
      "SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.price > 1.0 "
      "GROUP BY bid.user_id;");
  ASSERT_TRUE(aq.ok());
  AnalyzedQuery copy = aq->Clone();
  EXPECT_EQ(copy.query.ToString(), aq->query.ToString());
  EXPECT_EQ(copy.conjuncts.size(), aq->conjuncts.size());
  EXPECT_NE(copy.query.select[0].expr.get(), aq->query.select[0].expr.get());
}

// ---------------------------------------------------------------------------
// Expression depth limits: hostile query text is rejected with a spanned
// kInvalidArgument, never recursed into a stack overflow.

std::string Repeat(std::string_view piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out += piece;
  }
  return out;
}

// "1+1+...+1" with `terms` ones: a left-deep tree of height `terms`.
std::string AdditionChain(int terms) {
  return "1" + Repeat("+1", terms - 1);
}

void ExpectTooDeep(const std::string& text) {
  Result<Query> q = ParseQuery(text);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().message().find(std::to_string(kMaxExprHeight)),
            std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("at offset"), std::string::npos)
      << q.status().ToString();
}

TEST(QueryLimitsTest, DeepNotChainRejected) {
  ExpectTooDeep("SELECT COUNT(*) FROM bid WHERE " + Repeat("NOT ", 25000) +
                "bid.bid_price > 1;");
}

TEST(QueryLimitsTest, DeepParenthesesRejected) {
  ExpectTooDeep("SELECT COUNT(*) FROM bid WHERE " + Repeat("(", 25000) +
                "bid.bid_price > 1" + Repeat(")", 25000) + ";");
}

TEST(QueryLimitsTest, LongOperatorChainRejected) {
  // The binary-operator loops build this tree without recursing; its
  // height is what must be bounded.
  ExpectTooDeep("SELECT COUNT(*) FROM bid WHERE " + AdditionChain(30000) +
                " > 1;");
  ExpectTooDeep("SELECT COUNT(*) FROM bid WHERE " +
                Repeat("bid.bid_price > 1 AND ", 30000) + "TRUE;");
}

TEST(QueryLimitsTest, DeepUnaryMinusRejected) {
  ExpectTooDeep("SELECT COUNT(*) FROM bid WHERE " + Repeat("- ", 25000) +
                "bid.bid_price > 1;");
}

TEST(QueryLimitsTest, TreeHeightLimitIsExact) {
  // `chain > 1` adds one level above a chain of height `terms`.
  EXPECT_TRUE(ParseQuery("SELECT COUNT(*) FROM bid WHERE " +
                         AdditionChain(kMaxExprHeight - 1) + " > 1;")
                  .ok());
  ExpectTooDeep("SELECT COUNT(*) FROM bid WHERE " +
                AdditionChain(kMaxExprHeight) + " > 1;");
}

}  // namespace
}  // namespace scrub
