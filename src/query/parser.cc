#include "src/query/parser.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/common/strings.h"
#include "src/query/lexer.h"

namespace scrub {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query query;
    if (!ConsumeKeyword("SELECT")) {
      return Error("expected SELECT");
    }
    for (;;) {
      Result<SelectItem> item = ParseSelectItem();
      if (!item.ok()) {
        return item.status();
      }
      query.select.push_back(std::move(item).value());
      if (!Consume(TokenKind::kComma)) {
        break;
      }
    }
    size_t clause_begin = Peek().offset;
    if (!ConsumeKeyword("FROM")) {
      return Error("expected FROM");
    }
    for (;;) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected event type name");
      }
      query.sources.push_back(Next().text);
      if (!Consume(TokenKind::kComma)) {
        break;
      }
    }
    query.spans.from = {clause_begin, PrevEnd()};
    clause_begin = Peek().offset;
    if (ConsumeKeyword("WHERE")) {
      Result<ExprPtr> where = ParseOrExpr();
      if (!where.ok()) {
        return where.status();
      }
      query.where = std::move(where).value();
      query.spans.where = {clause_begin, PrevEnd()};
    }
    clause_begin = Peek().offset;
    if (Consume(TokenKind::kAt)) {
      Status s = ParseTargets(&query.targets);
      if (!s.ok()) {
        return s;
      }
      query.spans.targets = {clause_begin, PrevEnd()};
    }
    clause_begin = Peek().offset;
    if (ConsumeKeyword("GROUP")) {
      if (!ConsumeKeyword("BY")) {
        return Error("expected BY after GROUP");
      }
      for (;;) {
        Result<ExprPtr> ref = ParseFieldRef();
        if (!ref.ok()) {
          return ref.status();
        }
        query.group_by.push_back(std::move(ref).value());
        if (!Consume(TokenKind::kComma)) {
          break;
        }
      }
      query.spans.group_by = {clause_begin, PrevEnd()};
    }
    clause_begin = Peek().offset;
    if (ConsumeKeyword("WINDOW")) {
      Result<TimeMicros> d = ParseDuration();
      if (!d.ok()) {
        return d.status();
      }
      query.window_micros = *d;
      if (ConsumeKeyword("SLIDE")) {
        Result<TimeMicros> s = ParseDuration();
        if (!s.ok()) {
          return s.status();
        }
        query.slide_micros = *s;
      }
      query.spans.window = {clause_begin, PrevEnd()};
    }
    clause_begin = Peek().offset;
    if (ConsumeKeyword("START")) {
      Result<TimeMicros> d = ParseDuration();
      if (!d.ok()) {
        return d.status();
      }
      query.start_offset_micros = *d;
      query.spans.start = {clause_begin, PrevEnd()};
    }
    clause_begin = Peek().offset;
    if (ConsumeKeyword("DURATION")) {
      Result<TimeMicros> d = ParseDuration();
      if (!d.ok()) {
        return d.status();
      }
      query.duration_micros = *d;
      query.spans.duration = {clause_begin, PrevEnd()};
    }
    clause_begin = Peek().offset;
    while (ConsumeKeyword("SAMPLE")) {
      const bool hosts = ConsumeKeyword("HOSTS");
      const bool events = !hosts && ConsumeKeyword("EVENTS");
      if (!hosts && !events) {
        return Error("expected HOSTS or EVENTS after SAMPLE");
      }
      Result<double> rate = ParsePercent();
      if (!rate.ok()) {
        return rate.status();
      }
      if (hosts) {
        query.host_sample_rate = *rate;
        query.spans.sample_hosts = {clause_begin, PrevEnd()};
      } else {
        query.event_sample_rate = *rate;
        query.spans.sample_events = {clause_begin, PrevEnd()};
      }
      clause_begin = Peek().offset;
    }
    Consume(TokenKind::kSemicolon);
    if (Peek().kind != TokenKind::kEnd) {
      return Error(StrFormat("unexpected %s after end of query",
                             TokenKindName(Peek().kind)));
    }
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }

  const Token& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool Consume(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }

  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(std::string message) const {
    return ErrorAt(std::move(message), Peek().offset);
  }

  static Status ErrorAt(std::string message, size_t offset) {
    return InvalidArgument(
        StrFormat("%s at offset %zu", message.c_str(), offset));
  }

  // One past the last byte of the most recently consumed token.
  size_t PrevEnd() const {
    return pos_ == 0 ? 0 : tokens_[pos_ - 1].end_offset;
  }

  // Stamps [begin, end-of-previous-token) onto a freshly built node and
  // records its height, rejecting trees taller than kMaxExprHeight.
  Result<ExprPtr> Spanned(ExprPtr e, size_t begin) {
    e->span = {begin, PrevEnd()};
    int height = 1;
    for (const ExprPtr& child : e->children) {
      if (child != nullptr) {
        height = std::max(height, heights_[child.get()] + 1);
      }
    }
    if (height > kMaxExprHeight) {
      return ErrorAt(StrFormat("expression tree is taller than %d levels",
                               kMaxExprHeight),
                     begin);
    }
    heights_[e.get()] = height;
    return e;
  }

  // One level of expression nesting, held for the scope of a recursive
  // descent; Enter() fails once the nesting passes kMaxExprHeight.
  class Nesting {
   public:
    explicit Nesting(Parser* parser) : parser_(parser) { ++parser_->depth_; }
    ~Nesting() { --parser_->depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

    Status Enter() const {
      if (parser_->depth_ <= kMaxExprHeight) {
        return OkStatus();
      }
      return parser_->Error(StrFormat("expression nests deeper than %d levels",
                                      kMaxExprHeight));
    }

   private:
    Parser* parser_;
  };

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    Result<ExprPtr> expr = ParseOrExpr();
    if (!expr.ok()) {
      return expr.status();
    }
    item.expr = std::move(expr).value();
    if (ConsumeKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected alias after AS");
      }
      item.alias = Next().text;
    }
    return item;
  }

  Result<ExprPtr> ParseOrExpr() {
    const Nesting nesting(this);
    if (Status s = nesting.Enter(); !s.ok()) {
      return s;
    }
    const size_t begin = Peek().offset;
    Result<ExprPtr> lhs = ParseAndExpr();
    if (!lhs.ok()) {
      return lhs;
    }
    ExprPtr expr = std::move(lhs).value();
    while (ConsumeKeyword("OR")) {
      Result<ExprPtr> rhs = ParseAndExpr();
      if (!rhs.ok()) {
        return rhs;
      }
      Result<ExprPtr> built =
          Spanned(Expr::MakeBinary(BinaryOp::kOr, std::move(expr),
                                   std::move(rhs).value()),
                  begin);
      if (!built.ok()) {
        return built;
      }
      expr = std::move(built).value();
    }
    return expr;
  }

  Result<ExprPtr> ParseAndExpr() {
    const size_t begin = Peek().offset;
    Result<ExprPtr> lhs = ParseNotExpr();
    if (!lhs.ok()) {
      return lhs;
    }
    ExprPtr expr = std::move(lhs).value();
    while (ConsumeKeyword("AND")) {
      Result<ExprPtr> rhs = ParseNotExpr();
      if (!rhs.ok()) {
        return rhs;
      }
      Result<ExprPtr> built =
          Spanned(Expr::MakeBinary(BinaryOp::kAnd, std::move(expr),
                                   std::move(rhs).value()),
                  begin);
      if (!built.ok()) {
        return built;
      }
      expr = std::move(built).value();
    }
    return expr;
  }

  Result<ExprPtr> ParseNotExpr() {
    const size_t begin = Peek().offset;
    if (ConsumeKeyword("NOT")) {
      const Nesting nesting(this);
      if (Status s = nesting.Enter(); !s.ok()) {
        return s;
      }
      Result<ExprPtr> operand = ParseNotExpr();
      if (!operand.ok()) {
        return operand;
      }
      return Spanned(Expr::MakeUnary(UnaryOp::kNot, std::move(operand).value()),
                     begin);
    }
    return ParseCmpExpr();
  }

  Result<ExprPtr> ParseCmpExpr() {
    const size_t begin = Peek().offset;
    Result<ExprPtr> lhs = ParseAddExpr();
    if (!lhs.ok()) {
      return lhs;
    }
    ExprPtr expr = std::move(lhs).value();
    BinaryOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenKind::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        if (PeekKeyword("IN")) {
          ++pos_;
          return ParseInList(std::move(expr), begin);
        }
        if (PeekKeyword("CONTAINS")) {
          ++pos_;
          Result<ExprPtr> rhs = ParseAddExpr();
          if (!rhs.ok()) {
            return rhs;
          }
          return Spanned(Expr::MakeBinary(BinaryOp::kContains, std::move(expr),
                                          std::move(rhs).value()),
                         begin);
        }
        return expr;
    }
    ++pos_;
    Result<ExprPtr> rhs = ParseAddExpr();
    if (!rhs.ok()) {
      return rhs;
    }
    return Spanned(
        Expr::MakeBinary(op, std::move(expr), std::move(rhs).value()), begin);
  }

  Result<ExprPtr> ParseInList(ExprPtr probe, size_t begin) {
    if (!Consume(TokenKind::kLParen)) {
      return Error("expected '(' after IN");
    }
    std::vector<ExprPtr> members;
    for (;;) {
      Result<ExprPtr> member = ParseAddExpr();
      if (!member.ok()) {
        return member;
      }
      members.push_back(std::move(member).value());
      if (!Consume(TokenKind::kComma)) {
        break;
      }
    }
    if (!Consume(TokenKind::kRParen)) {
      return Error("expected ')' to close IN list");
    }
    return Spanned(Expr::MakeInList(std::move(probe), std::move(members)),
                   begin);
  }

  Result<ExprPtr> ParseAddExpr() {
    const size_t begin = Peek().offset;
    Result<ExprPtr> lhs = ParseMulExpr();
    if (!lhs.ok()) {
      return lhs;
    }
    ExprPtr expr = std::move(lhs).value();
    for (;;) {
      BinaryOp op;
      if (Peek().kind == TokenKind::kPlus) {
        op = BinaryOp::kAdd;
      } else if (Peek().kind == TokenKind::kMinus) {
        op = BinaryOp::kSub;
      } else {
        return expr;
      }
      ++pos_;
      Result<ExprPtr> rhs = ParseMulExpr();
      if (!rhs.ok()) {
        return rhs;
      }
      Result<ExprPtr> built = Spanned(
          Expr::MakeBinary(op, std::move(expr), std::move(rhs).value()),
          begin);
      if (!built.ok()) {
        return built;
      }
      expr = std::move(built).value();
    }
  }

  Result<ExprPtr> ParseMulExpr() {
    const size_t begin = Peek().offset;
    Result<ExprPtr> lhs = ParseUnary();
    if (!lhs.ok()) {
      return lhs;
    }
    ExprPtr expr = std::move(lhs).value();
    for (;;) {
      BinaryOp op;
      if (Peek().kind == TokenKind::kStar) {
        op = BinaryOp::kMul;
      } else if (Peek().kind == TokenKind::kSlash) {
        op = BinaryOp::kDiv;
      } else {
        return expr;
      }
      ++pos_;
      Result<ExprPtr> rhs = ParseUnary();
      if (!rhs.ok()) {
        return rhs;
      }
      Result<ExprPtr> built = Spanned(
          Expr::MakeBinary(op, std::move(expr), std::move(rhs).value()),
          begin);
      if (!built.ok()) {
        return built;
      }
      expr = std::move(built).value();
    }
  }

  Result<ExprPtr> ParseUnary() {
    const size_t begin = Peek().offset;
    if (Consume(TokenKind::kMinus)) {
      const Nesting nesting(this);
      if (Status s = nesting.Enter(); !s.ok()) {
        return s;
      }
      Result<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) {
        return operand;
      }
      return Spanned(
          Expr::MakeUnary(UnaryOp::kNegate, std::move(operand).value()),
          begin);
    }
    return ParsePrimary();
  }

  static Result<AggregateFunc> AggregateFromName(std::string_view name) {
    if (EqualsIgnoreCase(name, "COUNT")) {
      return AggregateFunc::kCount;
    }
    if (EqualsIgnoreCase(name, "SUM")) {
      return AggregateFunc::kSum;
    }
    if (EqualsIgnoreCase(name, "AVG")) {
      return AggregateFunc::kAvg;
    }
    if (EqualsIgnoreCase(name, "MIN")) {
      return AggregateFunc::kMin;
    }
    if (EqualsIgnoreCase(name, "MAX")) {
      return AggregateFunc::kMax;
    }
    if (EqualsIgnoreCase(name, "COUNT_DISTINCT")) {
      return AggregateFunc::kCountDistinct;
    }
    if (EqualsIgnoreCase(name, "TOPK") || EqualsIgnoreCase(name, "TOP_K")) {
      return AggregateFunc::kTopK;
    }
    return NotFound("not an aggregate");
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    const size_t begin = t.offset;
    switch (t.kind) {
      case TokenKind::kInteger: {
        const int64_t v = t.int_value;
        ++pos_;
        return Spanned(Expr::MakeLiteral(Value(v)), begin);
      }
      case TokenKind::kFloat: {
        const double v = t.float_value;
        ++pos_;
        return Spanned(Expr::MakeLiteral(Value(v)), begin);
      }
      case TokenKind::kString: {
        std::string s = t.text;
        ++pos_;
        return Spanned(Expr::MakeLiteral(Value(std::move(s))), begin);
      }
      case TokenKind::kLParen: {
        ++pos_;
        Result<ExprPtr> inner = ParseOrExpr();
        if (!inner.ok()) {
          return inner;
        }
        if (!Consume(TokenKind::kRParen)) {
          return Error("expected ')'");
        }
        // Widen the span over the parentheses.
        return Spanned(std::move(inner).value(), begin);
      }
      case TokenKind::kIdentifier: {
        if (EqualsIgnoreCase(t.text, "TRUE")) {
          ++pos_;
          return Spanned(Expr::MakeLiteral(Value(true)), begin);
        }
        if (EqualsIgnoreCase(t.text, "FALSE")) {
          ++pos_;
          return Spanned(Expr::MakeLiteral(Value(false)), begin);
        }
        if (EqualsIgnoreCase(t.text, "NULL")) {
          ++pos_;
          return Spanned(Expr::MakeLiteral(Value::Null()), begin);
        }
        // Aggregate call?
        if (Peek(1).kind == TokenKind::kLParen) {
          Result<AggregateFunc> func = AggregateFromName(t.text);
          if (func.ok()) {
            return ParseAggregate(*func);
          }
          return Error(StrFormat("unknown function '%s'", t.text.c_str()));
        }
        return ParseFieldRef();
      }
      default:
        return Error(StrFormat("unexpected %s", TokenKindName(t.kind)));
    }
  }

  Result<ExprPtr> ParseAggregate(AggregateFunc func) {
    const size_t begin = Peek().offset;
    ++pos_;  // function name
    if (!Consume(TokenKind::kLParen)) {
      return Error("expected '(' after aggregate name");
    }
    if (func == AggregateFunc::kTopK) {
      if (Peek().kind != TokenKind::kInteger) {
        return Error("TOPK requires a literal integer k as first argument");
      }
      const int64_t k = Next().int_value;
      if (!Consume(TokenKind::kComma)) {
        return Error("expected ',' after TOPK's k");
      }
      Result<ExprPtr> arg = ParseOrExpr();
      if (!arg.ok()) {
        return arg;
      }
      if (!Consume(TokenKind::kRParen)) {
        return Error("expected ')' to close TOPK");
      }
      return Spanned(Expr::MakeTopK(k, std::move(arg).value()), begin);
    }
    // COUNT(*) special case.
    if (func == AggregateFunc::kCount && Peek().kind == TokenKind::kStar) {
      ++pos_;
      if (!Consume(TokenKind::kRParen)) {
        return Error("expected ')' after COUNT(*)");
      }
      return Spanned(Expr::MakeAggregate(AggregateFunc::kCount, nullptr),
                     begin);
    }
    Result<ExprPtr> arg = ParseOrExpr();
    if (!arg.ok()) {
      return arg;
    }
    if (!Consume(TokenKind::kRParen)) {
      return Error("expected ')' to close aggregate");
    }
    return Spanned(Expr::MakeAggregate(func, std::move(arg).value()), begin);
  }

  Result<ExprPtr> ParseFieldRef() {
    const size_t begin = Peek().offset;
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected field reference");
    }
    // A dotted chain: [event_type .] field [. nested_path ...]. Whether the
    // first segment is a qualifier is settled by the analyzer against the
    // FROM clause.
    std::vector<std::string> segments;
    segments.push_back(Next().text);
    while (Consume(TokenKind::kDot)) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected field name after '.'");
      }
      segments.push_back(Next().text);
    }
    ExprPtr ref;
    if (segments.size() == 1) {
      ref = Expr::MakeFieldRef("", std::move(segments[0]));
    } else {
      ref = Expr::MakeFieldRef(std::move(segments[0]),
                               std::move(segments[1]));
      for (size_t i = 2; i < segments.size(); ++i) {
        ref->path.push_back(std::move(segments[i]));
      }
    }
    return Spanned(std::move(ref), begin);
  }

  // Target names (services, hosts, data centers) may be bare identifiers
  // or quoted strings — production host names contain dashes.
  Result<std::string> ParseTargetName(const char* what) {
    if (Peek().kind == TokenKind::kIdentifier ||
        Peek().kind == TokenKind::kString) {
      return Next().text;
    }
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("expected %s at offset %zu", what,
                            Peek().offset));
  }

  Status ParseTargets(TargetSpec* targets) {
    if (!Consume(TokenKind::kLBracket)) {
      return Error("expected '[' after '@'");
    }
    for (;;) {
      if (ConsumeKeyword("SERVICE")) {
        if (!ConsumeKeyword("IN")) {
          return Error("expected IN after SERVICE");
        }
        Result<std::string> name = ParseTargetName("service name");
        if (!name.ok()) {
          return name.status();
        }
        targets->services.push_back(std::move(name).value());
      } else if (ConsumeKeyword("SERVERS")) {
        if (!ConsumeKeyword("IN")) {
          return Error("expected IN after SERVERS");
        }
        if (!Consume(TokenKind::kLParen)) {
          return Error("expected '(' after SERVERS IN");
        }
        for (;;) {
          Result<std::string> name = ParseTargetName("host name");
          if (!name.ok()) {
            return name.status();
          }
          targets->hosts.push_back(std::move(name).value());
          if (!Consume(TokenKind::kComma)) {
            break;
          }
        }
        if (!Consume(TokenKind::kRParen)) {
          return Error("expected ')' to close SERVERS IN list");
        }
      } else if (ConsumeKeyword("SERVER")) {
        if (!Consume(TokenKind::kEq)) {
          return Error("expected '=' after SERVER");
        }
        Result<std::string> name = ParseTargetName("host name");
        if (!name.ok()) {
          return name.status();
        }
        targets->hosts.push_back(std::move(name).value());
      } else if (ConsumeKeyword("DATACENTER")) {
        if (!Consume(TokenKind::kEq)) {
          return Error("expected '=' after DATACENTER");
        }
        Result<std::string> name = ParseTargetName("data center name");
        if (!name.ok()) {
          return name.status();
        }
        targets->datacenters.push_back(std::move(name).value());
      } else {
        return Error("expected SERVICE, SERVER, SERVERS or DATACENTER");
      }
      if (ConsumeKeyword("AND")) {
        continue;
      }
      break;
    }
    if (!Consume(TokenKind::kRBracket)) {
      return Error("expected ']' to close target clause");
    }
    return OkStatus();
  }

  Result<TimeMicros> ParseDuration() {
    double amount;
    if (Peek().kind == TokenKind::kInteger) {
      amount = static_cast<double>(Next().int_value);
    } else if (Peek().kind == TokenKind::kFloat) {
      amount = Next().float_value;
    } else {
      return Error("expected a number in duration");
    }
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected a time unit (us/ms/s/m/h/d)");
    }
    const std::string unit = AsciiToLower(Next().text);
    double scale;
    if (unit == "us" || unit == "micros") {
      scale = 1;
    } else if (unit == "ms" || unit == "millis") {
      scale = kMicrosPerMilli;
    } else if (unit == "s" || unit == "sec" || unit == "second" ||
               unit == "seconds") {
      scale = kMicrosPerSecond;
    } else if (unit == "m" || unit == "min" || unit == "minute" ||
               unit == "minutes") {
      scale = kMicrosPerMinute;
    } else if (unit == "h" || unit == "hour" || unit == "hours") {
      scale = kMicrosPerHour;
    } else if (unit == "d" || unit == "day" || unit == "days") {
      scale = kMicrosPerDay;
    } else {
      return Error(StrFormat("unknown time unit '%s'", unit.c_str()));
    }
    const double micros = amount * scale;
    if (micros <= 0) {
      return Error("duration must be positive");
    }
    return static_cast<TimeMicros>(micros);
  }

  Result<double> ParsePercent() {
    double amount;
    if (Peek().kind == TokenKind::kInteger) {
      amount = static_cast<double>(Next().int_value);
    } else if (Peek().kind == TokenKind::kFloat) {
      amount = Next().float_value;
    } else {
      return Error("expected a number for sampling rate");
    }
    if (!Consume(TokenKind::kPercent)) {
      return Error("expected '%' after sampling rate");
    }
    if (amount <= 0 || amount > 100) {
      return Error("sampling rate must be in (0, 100]");
    }
    return amount / 100.0;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current expression nesting (see Nesting)
  // Height of every expression node built so far (a leaf is 1).
  std::unordered_map<const Expr*, int> heights_;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) {
    return tokens.status();
  }
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace scrub
