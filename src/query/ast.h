// Abstract syntax tree of the Scrub query language (paper Section 3.2).
//
// A query selects expressions (possibly aggregates) over one or more event
// types, optionally filtered (WHERE), grouped (GROUP BY), windowed (WINDOW),
// time-bounded (START/DURATION), host-targeted (@[...]) and sampled
// (SAMPLE HOSTS p% / SAMPLE EVENTS p%). When a query names more than one
// event type, the sources are implicitly equi-joined on the request
// identifier — the only join the language admits.

#ifndef SRC_QUERY_AST_H_
#define SRC_QUERY_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/event/value.h"

namespace scrub {

// ---------------------------------------------------------------------------
// Source spans.

// Half-open byte range [begin, end) into the query text an AST node was
// parsed from. Programmatically built queries carry invalid (empty) spans;
// diagnostics fall back to whole-query scope for those.
struct SourceSpan {
  size_t begin = 0;
  size_t end = 0;

  bool IsValid() const { return end > begin; }
};

// ---------------------------------------------------------------------------
// Expressions.

enum class ExprKind {
  kLiteral,
  kFieldRef,
  kUnary,
  kBinary,
  kInList,
  kAggregate,
  kStar,  // the '*' in COUNT(*)
};

enum class UnaryOp { kNegate, kNot };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kContains,  // <list-field> CONTAINS <value>
};

const char* BinaryOpName(BinaryOp op);
bool IsComparisonOp(BinaryOp op);
bool IsArithmeticOp(BinaryOp op);

enum class AggregateFunc {
  kCount,          // COUNT(*) or COUNT(expr)
  kSum,
  kAvg,
  kMin,
  kMax,
  kCountDistinct,  // HyperLogLog
  kTopK,           // SpaceSaving; first argument is the literal k
};

const char* AggregateFuncName(AggregateFunc func);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kFieldRef: qualifier is the event type ("bid" in bid.user_id) or empty
  // for unqualified references (resolved by the analyzer when unambiguous).
  // `path` descends into nested-object fields (bid.device.os -> field
  // "device", path {"os"}); such references are dynamically typed.
  std::string qualifier;
  std::string field;
  std::vector<std::string> path;

  // kUnary
  UnaryOp unary_op = UnaryOp::kNegate;

  // kBinary
  BinaryOp binary_op = BinaryOp::kAdd;

  // kAggregate
  AggregateFunc agg_func = AggregateFunc::kCount;
  int64_t topk_k = 0;  // the k of TOPK(k, expr)

  // Children: operand(s) of unary/binary/in/aggregate. For kInList,
  // children[0] is the probe and the rest are list members.
  std::vector<ExprPtr> children;

  // Filled by the analyzer: result type of this expression.
  std::optional<FieldType> resolved_type;

  // Filled by the parser: where this expression sits in the query text.
  SourceSpan span;

  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeFieldRef(std::string qualifier, std::string field);
  static ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
  static ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeInList(ExprPtr probe, std::vector<ExprPtr> members);
  static ExprPtr MakeAggregate(AggregateFunc func, ExprPtr arg);
  static ExprPtr MakeTopK(int64_t k, ExprPtr arg);
  static ExprPtr MakeStar();

  // Deep copy (query objects fan out to many hosts).
  ExprPtr Clone() const;

  // True if this subtree contains an aggregate call.
  bool ContainsAggregate() const;

  // Unparse; parses back to an equivalent tree (round-trip tested).
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Target hosts: the @[...] clause. Terms are conjunctive.

struct TargetSpec {
  // SERVICE IN <name>: restrict to hosts running a service.
  std::vector<std::string> services;
  // SERVER = <name> / SERVERS IN (a, b, c): explicit host allowlist.
  std::vector<std::string> hosts;
  // DATACENTER = <name>: restrict to a data center.
  std::vector<std::string> datacenters;

  bool IsUnrestricted() const {
    return services.empty() && hosts.empty() && datacenters.empty();
  }
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// The query.

// Spans of the clause keywords-plus-operands, for diagnostics that point at
// a clause rather than an expression (WINDOW, DURATION, SAMPLE, @[...]).
// Absent clauses keep invalid (empty) spans.
struct QueryClauseSpans {
  SourceSpan from;
  SourceSpan where;
  SourceSpan targets;
  SourceSpan group_by;
  SourceSpan window;
  SourceSpan start;
  SourceSpan duration;
  SourceSpan sample_hosts;
  SourceSpan sample_events;
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty if none

  SelectItem Clone() const;
  std::string ToString() const;
};

struct Query {
  std::vector<SelectItem> select;
  std::vector<std::string> sources;  // event type names; >1 implies the join
  ExprPtr where;                     // may be null
  TargetSpec targets;
  std::vector<ExprPtr> group_by;     // field refs

  // Windowing & span. Zero means "use default" (filled by the analyzer).
  // slide < window gives sliding windows (the extension Section 3.2 calls
  // out); the analyzer defaults slide to window (tumbling) and requires the
  // window to be a multiple of the slide. An explicit duration must be a
  // multiple of the slide too; a defaulted one is rounded up to the next.
  TimeMicros window_micros = 0;
  TimeMicros slide_micros = 0;
  TimeMicros start_offset_micros = 0;  // relative to submission time
  TimeMicros duration_micros = 0;

  // Sampling rates in (0, 1]; 1.0 = no sampling.
  double host_sample_rate = 1.0;
  double event_sample_rate = 1.0;

  // Clause positions in the original text (empty for built-up queries).
  QueryClauseSpans spans;

  Query Clone() const;
  std::string ToString() const;
};

}  // namespace scrub

#endif  // SRC_QUERY_AST_H_
