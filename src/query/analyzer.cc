#include "src/query/analyzer.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/query/parser.h"

namespace scrub {
namespace {

class Analyzer {
 public:
  Analyzer(const SchemaRegistry& registry, const AnalyzerOptions& options)
      : registry_(registry), options_(options) {}

  Result<AnalyzedQuery> Run(const Query& input) {
    AnalyzedQuery out;
    out.query = input.Clone();
    Query& q = out.query;

    Status s = BindSources(q, &out);
    if (!s.ok()) {
      return s;
    }
    s = ApplyDefaults(&q);
    if (!s.ok()) {
      return s;
    }

    // SELECT list.
    if (q.select.empty()) {
      return InvalidArgument("SELECT list must not be empty");
    }
    for (SelectItem& item : q.select) {
      Status st = TypeCheck(item.expr.get(), &out, /*allow_aggregates=*/true);
      if (!st.ok()) {
        return st;
      }
      if (item.expr->ContainsAggregate()) {
        out.has_aggregates = true;
      }
    }

    // WHERE: boolean, no aggregates, conjuncts single-source.
    if (q.where != nullptr) {
      Status st = TypeCheck(q.where.get(), &out, /*allow_aggregates=*/false);
      if (!st.ok()) {
        return st;
      }
      if (q.where->resolved_type != FieldType::kBool) {
        return InvalidArgument("WHERE predicate must be boolean");
      }
      st = SplitWhere(q.where.get(), &out);
      if (!st.ok()) {
        return st;
      }
    }

    // GROUP BY: field refs only; type-checked; no aggregates.
    for (ExprPtr& g : q.group_by) {
      if (g->kind != ExprKind::kFieldRef) {
        return InvalidArgument("GROUP BY supports only field references");
      }
      Status st = TypeCheck(g.get(), &out, /*allow_aggregates=*/false);
      if (!st.ok()) {
        return st;
      }
      if (g->resolved_type && IsListType(*g->resolved_type)) {
        return InvalidArgument(
            StrFormat("GROUP BY field '%s' has a list type",
                      g->field.c_str()));
      }
    }

    // With aggregates or GROUP BY present, every bare select expression must
    // be one of the grouping fields.
    if (out.has_aggregates || !q.group_by.empty()) {
      for (const SelectItem& item : q.select) {
        if (item.expr->ContainsAggregate()) {
          continue;
        }
        if (!IsGroupingExpr(*item.expr, q.group_by)) {
          return InvalidArgument(StrFormat(
              "select item '%s' is neither an aggregate nor a GROUP BY field",
              item.expr->ToString().c_str()));
        }
      }
    }

    CollectFields(q, &out);
    return out;
  }

 private:
  Status BindSources(const Query& q, AnalyzedQuery* out) {
    if (q.sources.empty()) {
      return InvalidArgument("FROM clause must name at least one event type");
    }
    if (q.sources.size() > kMaxJoinSources) {
      return Unimplemented(StrFormat(
          "queries may join at most %zu event types", kMaxJoinSources));
    }
    for (size_t i = 0; i < q.sources.size(); ++i) {
      for (size_t j = i + 1; j < q.sources.size(); ++j) {
        if (q.sources[i] == q.sources[j]) {
          return InvalidArgument(StrFormat(
              "event type '%s' appears twice in FROM; self-joins are not "
              "supported",
              q.sources[i].c_str()));
        }
      }
      Result<SchemaPtr> schema = registry_.Get(q.sources[i]);
      if (!schema.ok()) {
        return schema.status();
      }
      out->schemas.push_back(std::move(schema).value());
    }
    out->fields_per_source.resize(out->schemas.size());
    return OkStatus();
  }

  Status ApplyDefaults(Query* q) const {
    if (q->window_micros == 0) {
      q->window_micros = options_.default_window_micros;
    }
    if (q->duration_micros == 0) {
      q->duration_micros = options_.default_duration_micros;
    }
    if (q->duration_micros > options_.max_duration_micros) {
      return InvalidArgument(StrFormat(
          "duration exceeds the maximum of %lld hours",
          static_cast<long long>(options_.max_duration_micros /
                                 kMicrosPerHour)));
    }
    if (q->window_micros > q->duration_micros) {
      return InvalidArgument("window is longer than the query duration");
    }
    if (q->slide_micros == 0) {
      q->slide_micros = q->window_micros;  // tumbling by default
    }
    if (q->slide_micros > q->window_micros) {
      return InvalidArgument("slide is longer than the window");
    }
    if (q->window_micros % q->slide_micros != 0) {
      return InvalidArgument("window must be a multiple of the slide");
    }
    return OkStatus();
  }

  // Resolves a field ref in place: canonicalizes the qualifier, settles
  // whether a dotted chain's first segment is an event type or a field
  // (bid.device.os vs device.os), and fills resolved_type. Nested-object
  // paths are dynamically typed (resolved_type == nullopt). Unqualified
  // names must be unambiguous across the sources; system fields on a join
  // resolve to source 0.
  Status ResolveFieldRef(Expr* ref, const AnalyzedQuery& out) {
    const Query& q = out.query;
    // A "qualifier" that is not in the FROM clause is actually the field of
    // an unqualified chain into a nested object.
    if (!ref->qualifier.empty() &&
        std::find(q.sources.begin(), q.sources.end(), ref->qualifier) ==
            q.sources.end()) {
      ref->path.insert(ref->path.begin(), ref->field);
      ref->field = ref->qualifier;
      ref->qualifier.clear();
    }

    int source = -1;
    FieldType declared = FieldType::kBool;
    if (!ref->qualifier.empty()) {
      for (size_t i = 0; i < q.sources.size(); ++i) {
        if (q.sources[i] == ref->qualifier) {
          source = static_cast<int>(i);
          break;
        }
      }
      Result<FieldType> t =
          out.schemas[static_cast<size_t>(source)]->FieldTypeOf(ref->field);
      if (!t.ok()) {
        return t.status();
      }
      declared = *t;
    } else if (ref->field == kRequestIdField ||
               ref->field == kTimestampField) {
      source = 0;
      declared = *out.schemas[0]->FieldTypeOf(ref->field);
    } else {
      for (size_t i = 0; i < out.schemas.size(); ++i) {
        if (out.schemas[i]->FieldIndex(ref->field) >= 0) {
          if (source >= 0) {
            return InvalidArgument(StrFormat(
                "field '%s' is ambiguous between '%s' and '%s'; qualify it",
                ref->field.c_str(),
                q.sources[static_cast<size_t>(source)].c_str(),
                q.sources[i].c_str()));
          }
          source = static_cast<int>(i);
          declared = *out.schemas[i]->FieldTypeOf(ref->field);
        }
      }
      if (source < 0) {
        return NotFound(StrFormat("no source has a field named '%s'",
                                  ref->field.c_str()));
      }
    }

    ref->qualifier = q.sources[static_cast<size_t>(source)];
    if (ref->path.empty()) {
      ref->resolved_type = declared;
      return OkStatus();
    }
    if (declared != FieldType::kObject) {
      return InvalidArgument(StrFormat(
          "field '%s' is %s, not a nested object; '.%s' cannot descend "
          "into it",
          ref->field.c_str(), FieldTypeName(declared),
          ref->path[0].c_str()));
    }
    ref->resolved_type = std::nullopt;  // nested values are dynamic
    return OkStatus();
  }

  Status TypeCheck(Expr* e, AnalyzedQuery* out, bool allow_aggregates) {
    switch (e->kind) {
      case ExprKind::kLiteral: {
        if (e->literal.is_null()) {
          e->resolved_type = std::nullopt;  // matches any comparison peer
        } else if (e->literal.is_bool()) {
          e->resolved_type = FieldType::kBool;
        } else if (e->literal.is_int()) {
          e->resolved_type = FieldType::kLong;
        } else if (e->literal.is_double()) {
          e->resolved_type = FieldType::kDouble;
        } else if (e->literal.is_string()) {
          e->resolved_type = FieldType::kString;
        } else {
          return InvalidArgument("unsupported literal type");
        }
        return OkStatus();
      }
      case ExprKind::kFieldRef:
        return ResolveFieldRef(e, *out);
      case ExprKind::kStar:
        return InvalidArgument("'*' is only valid inside COUNT(*)");
      case ExprKind::kUnary: {
        Status s = TypeCheck(e->children[0].get(), out, allow_aggregates);
        if (!s.ok()) {
          return s;
        }
        const auto& t = e->children[0]->resolved_type;
        if (e->unary_op == UnaryOp::kNegate) {
          if (t && !IsNumericType(*t)) {
            return InvalidArgument("unary '-' requires a numeric operand");
          }
          e->resolved_type = t;
        } else {
          if (t != FieldType::kBool) {
            return InvalidArgument("NOT requires a boolean operand");
          }
          e->resolved_type = FieldType::kBool;
        }
        return OkStatus();
      }
      case ExprKind::kBinary:
        return TypeCheckBinary(e, out, allow_aggregates);
      case ExprKind::kInList: {
        Status s = TypeCheck(e->children[0].get(), out, allow_aggregates);
        if (!s.ok()) {
          return s;
        }
        const auto probe_type = e->children[0]->resolved_type;
        for (size_t i = 1; i < e->children.size(); ++i) {
          Expr* member = e->children[i].get();
          if (member->kind != ExprKind::kLiteral) {
            return InvalidArgument("IN list members must be literals");
          }
          Status ms = TypeCheck(member, out, false);
          if (!ms.ok()) {
            return ms;
          }
          if (!Comparable(probe_type, member->resolved_type)) {
            return InvalidArgument(StrFormat(
                "IN list member %s does not match the probe's type",
                member->ToString().c_str()));
          }
        }
        e->resolved_type = FieldType::kBool;
        return OkStatus();
      }
      case ExprKind::kAggregate:
        return TypeCheckAggregate(e, out, allow_aggregates);
    }
    return InternalError("unhandled expression kind");
  }

  Status TypeCheckBinary(Expr* e, AnalyzedQuery* out, bool allow_aggregates) {
    Status s = TypeCheck(e->children[0].get(), out, allow_aggregates);
    if (!s.ok()) {
      return s;
    }
    s = TypeCheck(e->children[1].get(), out, allow_aggregates);
    if (!s.ok()) {
      return s;
    }
    const auto& lt = e->children[0]->resolved_type;
    const auto& rt = e->children[1]->resolved_type;
    const BinaryOp op = e->binary_op;

    if (IsArithmeticOp(op)) {
      // Dynamic (nested-object / null) operands are decided at runtime.
      if ((lt && !IsNumericType(*lt)) || (rt && !IsNumericType(*rt))) {
        return InvalidArgument(StrFormat(
            "operator '%s' requires numeric operands", BinaryOpName(op)));
      }
      if (!lt || !rt) {
        e->resolved_type = FieldType::kDouble;
        return OkStatus();
      }
      const bool integral = (*lt == FieldType::kInt ||
                             *lt == FieldType::kLong ||
                             *lt == FieldType::kDateTime) &&
                            (*rt == FieldType::kInt ||
                             *rt == FieldType::kLong ||
                             *rt == FieldType::kDateTime);
      e->resolved_type = (integral && op != BinaryOp::kDiv)
                             ? FieldType::kLong
                             : FieldType::kDouble;
      return OkStatus();
    }
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      if (lt != FieldType::kBool || rt != FieldType::kBool) {
        return InvalidArgument(StrFormat(
            "operator '%s' requires boolean operands", BinaryOpName(op)));
      }
      e->resolved_type = FieldType::kBool;
      return OkStatus();
    }
    if (op == BinaryOp::kContains) {
      if (lt && !IsListType(*lt)) {
        return InvalidArgument("CONTAINS requires a list-typed left operand");
      }
      if (lt && !Comparable(ListElementType(*lt), rt)) {
        return InvalidArgument(
            "CONTAINS operand does not match the list element type");
      }
      e->resolved_type = FieldType::kBool;
      return OkStatus();
    }
    // Comparison.
    if (!Comparable(lt, rt)) {
      return InvalidArgument(StrFormat(
          "cannot compare %s with %s",
          lt ? FieldTypeName(*lt) : "null",
          rt ? FieldTypeName(*rt) : "null"));
    }
    if ((op != BinaryOp::kEq && op != BinaryOp::kNe) && lt && rt &&
        !(IsOrderedType(*lt) && IsOrderedType(*rt))) {
      return InvalidArgument(StrFormat(
          "operator '%s' requires ordered operands", BinaryOpName(op)));
    }
    e->resolved_type = FieldType::kBool;
    return OkStatus();
  }

  Status TypeCheckAggregate(Expr* e, AnalyzedQuery* out,
                            bool allow_aggregates) {
    if (!allow_aggregates) {
      return InvalidArgument(
          "aggregates are not allowed here (only in the SELECT list)");
    }
    for (const ExprPtr& child : e->children) {
      if (child->ContainsAggregate()) {
        return InvalidArgument("aggregates cannot be nested");
      }
    }
    if (!e->children.empty()) {
      Status s = TypeCheck(e->children[0].get(), out,
                           /*allow_aggregates=*/false);
      if (!s.ok()) {
        return s;
      }
    }
    const auto arg_type =
        e->children.empty() ? std::nullopt : e->children[0]->resolved_type;
    switch (e->agg_func) {
      case AggregateFunc::kCount:
        e->resolved_type = FieldType::kLong;
        return OkStatus();
      case AggregateFunc::kSum:
      case AggregateFunc::kAvg:
        if (arg_type && !IsNumericType(*arg_type)) {
          return InvalidArgument(StrFormat(
              "%s requires a numeric argument",
              AggregateFuncName(e->agg_func)));
        }
        e->resolved_type = FieldType::kDouble;
        return OkStatus();
      case AggregateFunc::kMin:
      case AggregateFunc::kMax:
        if (arg_type && !IsOrderedType(*arg_type)) {
          return InvalidArgument(StrFormat(
              "%s requires an ordered argument",
              AggregateFuncName(e->agg_func)));
        }
        e->resolved_type = arg_type;
        return OkStatus();
      case AggregateFunc::kCountDistinct:
        if (arg_type && (IsListType(*arg_type) ||
                         *arg_type == FieldType::kObject)) {
          return InvalidArgument(
              "COUNT_DISTINCT requires a primitive argument");
        }
        e->resolved_type = FieldType::kLong;
        return OkStatus();
      case AggregateFunc::kTopK:
        if (e->topk_k <= 0) {
          return InvalidArgument("TOPK's k must be positive");
        }
        if (e->topk_k > 100000) {
          return InvalidArgument("TOPK's k is unreasonably large");
        }
        if (arg_type && (IsListType(*arg_type) ||
                         *arg_type == FieldType::kObject)) {
          return InvalidArgument("TOPK requires a primitive argument");
        }
        e->resolved_type = FieldType::kString;  // rendered "key:count" rows
        return OkStatus();
    }
    return InternalError("unhandled aggregate");
  }

  static bool Comparable(const std::optional<FieldType>& a,
                         const std::optional<FieldType>& b) {
    if (!a || !b) {
      return true;  // null literal compares with anything
    }
    if (IsNumericType(*a) && IsNumericType(*b)) {
      return true;
    }
    if (IsListType(*a) || IsListType(*b) || *a == FieldType::kObject ||
        *b == FieldType::kObject) {
      return false;
    }
    return *a == *b ||
           (*a == FieldType::kString && *b == FieldType::kString);
  }

  // Which sources does this (type-checked) expression touch?
  void SourcesOf(const Expr& e, const AnalyzedQuery& out,
                 std::unordered_set<int>* sources) {
    if (e.kind == ExprKind::kFieldRef) {
      // System fields attribute to their (canonicalized) qualifier too:
      // bid.__timestamp and exclusion.__timestamp are different values, so a
      // predicate over one of them is a single-source predicate.
      for (size_t i = 0; i < out.query.sources.size(); ++i) {
        if (out.query.sources[i] == e.qualifier) {
          sources->insert(static_cast<int>(i));
          return;
        }
      }
      return;
    }
    for (const ExprPtr& child : e.children) {
      SourcesOf(*child, out, sources);
    }
  }

  // Splits WHERE into top-level AND conjuncts; each must reference at most
  // one source (the equi-join-on-request-id-only rule).
  Status SplitWhere(const Expr* where, AnalyzedQuery* out) {
    std::vector<const Expr*> stack = {where};
    std::vector<const Expr*> conjuncts;
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
        stack.push_back(e->children[1].get());
        stack.push_back(e->children[0].get());
        continue;
      }
      conjuncts.push_back(e);
    }
    // Preserve source order of conjuncts (stack gives reverse; we pushed
    // right-then-left so pops come left-to-right already).
    for (const Expr* c : conjuncts) {
      std::unordered_set<int> sources;
      SourcesOf(*c, *out, &sources);
      if (sources.size() > 1) {
        return Unimplemented(StrFormat(
            "predicate '%s' references multiple event types; Scrub joins "
            "are restricted to the implicit equi-join on %.*s",
            c->ToString().c_str(), static_cast<int>(kRequestIdField.size()),
            kRequestIdField.data()));
      }
      out->conjuncts.push_back(c->Clone());
      out->conjunct_source.push_back(
          sources.empty() ? -1 : *sources.begin());
    }
    return OkStatus();
  }

  static bool IsGroupingExpr(const Expr& e,
                             const std::vector<ExprPtr>& group_by) {
    if (e.kind != ExprKind::kFieldRef) {
      return false;
    }
    for (const ExprPtr& g : group_by) {
      if (g->qualifier == e.qualifier && g->field == e.field &&
          g->path == e.path) {
        return true;
      }
    }
    return false;
  }

  void CollectFieldsIn(const Expr& e, AnalyzedQuery* out) {
    if (e.kind == ExprKind::kFieldRef) {
      for (size_t i = 0; i < out->query.sources.size(); ++i) {
        if (out->query.sources[i] == e.qualifier) {
          out->fields_per_source[i].insert(e.field);
          return;
        }
      }
      return;
    }
    for (const ExprPtr& child : e.children) {
      CollectFieldsIn(*child, out);
    }
  }

  void CollectFields(const Query& q, AnalyzedQuery* out) {
    for (const SelectItem& item : q.select) {
      CollectFieldsIn(*item.expr, out);
    }
    if (q.where != nullptr) {
      CollectFieldsIn(*q.where, out);
    }
    for (const ExprPtr& g : q.group_by) {
      CollectFieldsIn(*g, out);
    }
  }

  const SchemaRegistry& registry_;
  const AnalyzerOptions& options_;
};

}  // namespace

AnalyzedQuery AnalyzedQuery::Clone() const {
  AnalyzedQuery out;
  out.query = query.Clone();
  out.schemas = schemas;
  out.fields_per_source = fields_per_source;
  out.conjuncts.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    out.conjuncts.push_back(c->Clone());
  }
  out.conjunct_source = conjunct_source;
  out.has_aggregates = has_aggregates;
  return out;
}

Result<AnalyzedQuery> Analyze(const Query& query,
                              const SchemaRegistry& registry,
                              const AnalyzerOptions& options) {
  Analyzer analyzer(registry, options);
  return analyzer.Run(query);
}

Result<AnalyzedQuery> ParseAndAnalyze(std::string_view text,
                                      const SchemaRegistry& registry,
                                      const AnalyzerOptions& options) {
  Result<Query> parsed = ParseQuery(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Analyze(*parsed, registry, options);
}

}  // namespace scrub
