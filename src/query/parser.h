// Recursive-descent parser for the Scrub query language.
//
// Grammar (keywords case-insensitive):
//
//   query      := SELECT select_item (',' select_item)*
//                 FROM ident (',' ident)*
//                 [WHERE or_expr]
//                 ['@' '[' target_term (AND target_term)* ']']
//                 [GROUP BY field_ref (',' field_ref)*]
//                 [WINDOW duration]
//                 [START duration]
//                 [DURATION duration]
//                 [SAMPLE HOSTS percent] [SAMPLE EVENTS percent]
//                 [';']
//   select_item:= or_expr [AS ident]
//   or_expr    := and_expr (OR and_expr)*
//   and_expr   := not_expr (AND not_expr)*
//   not_expr   := NOT not_expr | cmp_expr
//   cmp_expr   := add_expr [(=|!=|<|<=|>|>=) add_expr | IN '(' literal_list ')']
//   add_expr   := mul_expr (('+'|'-') mul_expr)*
//   mul_expr   := unary (('*'|'/') unary)*
//   unary      := '-' unary | primary
//   primary    := literal | aggregate | field_ref | '(' or_expr ')'
//   aggregate  := (COUNT|SUM|AVG|MIN|MAX|COUNT_DISTINCT) '(' ('*'|or_expr) ')'
//               | (TOPK|TOP_K) '(' integer ',' or_expr ')'
//   field_ref  := ident ['.' ident]
//   target_term:= SERVICE IN ident | SERVER = ident
//               | SERVERS IN '(' ident (',' ident)* ')' | DATACENTER = ident
//   duration   := (integer|float) unit      -- unit: us|ms|s|sec|seconds|
//                                              m|min|minutes|h|hours|d|days
//   percent    := (integer|float) '%'

#ifndef SRC_QUERY_PARSER_H_
#define SRC_QUERY_PARSER_H_

#include <string_view>

#include "src/common/status.h"
#include "src/query/ast.h"

namespace scrub {

// Ceiling on expression nesting (parentheses, NOT, unary minus, aggregate
// arguments) and on the height of every parsed expression tree. The parser,
// the analyzer, IR lowering and ToString all recurse over the tree, so
// deeper input is rejected with kInvalidArgument rather than allowed to
// exhaust the stack. Binary-operator chains are built iteratively but yield
// left-deep trees, which is why the height is bounded as well as the
// nesting.
inline constexpr int kMaxExprHeight = 256;

// Parses query text to an AST. Purely syntactic: event/field existence and
// typing are the analyzer's job.
Result<Query> ParseQuery(std::string_view text);

}  // namespace scrub

#endif  // SRC_QUERY_PARSER_H_
