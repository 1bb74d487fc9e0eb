#include "src/lint/lint.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/state_bytes.h"
#include "src/common/strings.h"
#include "src/plan/expr_analysis.h"
#include "src/plan/expr_ir.h"
#include "src/sketch/stats.h"

namespace scrub {

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kNote:
      return "note";
  }
  return "?";
}

namespace {

// Cardinality sentinel for fields that are unique per request.
constexpr uint64_t kUnboundedCardinality = ~uint64_t{0};

std::string FieldKey(const Expr& ref) {
  std::string key = ref.qualifier.empty() ? ref.field
                                          : ref.qualifier + "." + ref.field;
  for (const std::string& p : ref.path) {
    key += "." + p;
  }
  return key;
}

std::string BareFieldKey(const Expr& ref) {
  std::string key = ref.field;
  for (const std::string& p : ref.path) {
    key += "." + p;
  }
  return key;
}

std::string DurationText(TimeMicros micros) {
  if (micros >= kMicrosPerHour && micros % kMicrosPerHour == 0) {
    return StrFormat("%lldh", static_cast<long long>(micros / kMicrosPerHour));
  }
  if (micros >= kMicrosPerMinute && micros % kMicrosPerMinute == 0) {
    return StrFormat("%lldm",
                     static_cast<long long>(micros / kMicrosPerMinute));
  }
  if (micros >= kMicrosPerSecond && micros % kMicrosPerSecond == 0) {
    return StrFormat("%llds",
                     static_cast<long long>(micros / kMicrosPerSecond));
  }
  if (micros >= kMicrosPerMilli && micros % kMicrosPerMilli == 0) {
    return StrFormat("%lldms",
                     static_cast<long long>(micros / kMicrosPerMilli));
  }
  return StrFormat("%lldus", static_cast<long long>(micros));
}

std::string BytesText(uint64_t bytes) {
  if (bytes >= 1024ull * 1024 * 1024) {
    return StrFormat("%.1f GiB",
                     static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  }
  if (bytes >= 1024ull * 1024) {
    return StrFormat("%.1f MiB", static_cast<double>(bytes) / (1024.0 * 1024));
  }
  if (bytes >= 1024) {
    return StrFormat("%.1f KiB", static_cast<double>(bytes) / 1024.0);
  }
  return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
}

// Equality selectivity: 1/cardinality when one side is a field with known
// cardinality, otherwise a default guess.
double EqualitySelectivity(const Expr& e, const LintOptions& options) {
  constexpr double kDefaultEqSelectivity = 0.05;
  for (const ExprPtr& child : e.children) {
    if (child->kind != ExprKind::kFieldRef) {
      continue;
    }
    if (child->field == kRequestIdField) {
      return 1e-9;
    }
    auto it = options.field_cardinality.find(FieldKey(*child));
    if (it == options.field_cardinality.end()) {
      it = options.field_cardinality.find(BareFieldKey(*child));
    }
    if (it != options.field_cardinality.end() && it->second > 0) {
      return std::min(1.0, 1.0 / static_cast<double>(it->second));
    }
  }
  return kDefaultEqSelectivity;
}

int CountAggregateNodes(const Expr& e) {
  int n = e.kind == ExprKind::kAggregate ? 1 : 0;
  for (const ExprPtr& child : e.children) {
    n += CountAggregateNodes(*child);
  }
  return n;
}

class Linter {
 public:
  Linter(const AnalyzedQuery& analyzed, const LintOptions& options)
      : aq_(analyzed), q_(analyzed.query), options_(options) {}

  std::vector<Diagnostic> Run() {
    CheckUnboundedGroupBy();
    CheckExactDistinct();
    CheckSamplingError();
    CheckSamplingShardedEstimate();
    CheckSampledJoin();
    CheckFullFleet();
    CheckDeadProjection();
    CheckIneffectiveFilter();
    CheckWindowUnderFlush();
    CheckSpanBudget();
    CheckRetryHeadroom();
    CheckWindowStateBudget();
    CheckSemanticIr();
    return std::move(diags_);
  }

 private:
  void Emit(LintSeverity severity, std::string_view rule, std::string message,
            SourceSpan span) {
    Diagnostic d;
    d.severity = severity;
    d.rule = std::string(rule);
    d.message = std::move(message);
    d.span = span;
    diags_.push_back(std::move(d));
  }

  // Known distinct-value count of a grouped field; 0 = unknown.
  uint64_t CardinalityOf(const Expr& ref) const {
    if (ref.field == kRequestIdField) {
      return kUnboundedCardinality;  // one group per request
    }
    auto it = options_.field_cardinality.find(FieldKey(ref));
    if (it == options_.field_cardinality.end()) {
      it = options_.field_cardinality.find(BareFieldKey(ref));
    }
    return it == options_.field_cardinality.end() ? 0 : it->second;
  }

  bool SelectHasTopK() const {
    for (const SelectItem& item : q_.select) {
      if (HasAggregateFunc(*item.expr, AggregateFunc::kTopK)) {
        return true;
      }
    }
    return false;
  }

  static bool HasAggregateFunc(const Expr& e, AggregateFunc func) {
    if (e.kind == ExprKind::kAggregate && e.agg_func == func) {
      return true;
    }
    for (const ExprPtr& child : e.children) {
      if (HasAggregateFunc(*child, func)) {
        return true;
      }
    }
    return false;
  }

  // --- (a) scrubql-unbounded-group-by -------------------------------------
  //
  // Paper Section 3.2: grouped state lives at ScrubCentral for the whole
  // window; a group per user (or per request) over a production fleet is an
  // unbounded memory and result-set commitment. SpaceSaving (TOPK) bounds it.
  void CheckUnboundedGroupBy() {
    if (q_.group_by.empty() || SelectHasTopK()) {
      return;
    }
    for (const ExprPtr& g : q_.group_by) {
      const uint64_t card = CardinalityOf(*g);
      if (card == kUnboundedCardinality) {
        Emit(LintSeverity::kError, lint_rules::kUnboundedGroupBy,
             StrFormat("GROUP BY %s creates one group per request; central "
                       "state is unbounded. Bound it with TOPK(k, expr) "
                       "(SpaceSaving) or group on a coarser field",
                       g->ToString().c_str()),
             g->span);
      } else if (card > options_.high_cardinality_threshold) {
        Emit(LintSeverity::kError, lint_rules::kUnboundedGroupBy,
             StrFormat("GROUP BY %s spans ~%llu distinct values (threshold "
                       "%llu); every group holds live state at ScrubCentral "
                       "for the whole window. Bound it with TOPK(k, expr) "
                       "(SpaceSaving) or group on a coarser field",
                       g->ToString().c_str(),
                       static_cast<unsigned long long>(card),
                       static_cast<unsigned long long>(
                           options_.high_cardinality_threshold)),
             g->span);
      }
    }
  }

  // --- (b) scrubql-exact-distinct ------------------------------------------
  //
  // A SELECT list made purely of group keys enumerates every distinct value
  // through ScrubCentral. If the troubleshooter only needs the count, the
  // HyperLogLog COUNT_DISTINCT aggregate ships a constant-size sketch.
  void CheckExactDistinct() {
    if (q_.group_by.empty() || aq_.has_aggregates) {
      return;
    }
    // No aggregates at all: every select item is a grouping field (the
    // analyzer enforced that), so this is a distinct-value enumeration.
    const Expr& key = *q_.group_by[0];
    Emit(LintSeverity::kWarning, lint_rules::kExactDistinct,
         StrFormat("this query enumerates every distinct value of %s "
                   "through ScrubCentral; if only the count matters, "
                   "COUNT_DISTINCT(%s) (HyperLogLog) ships a constant-size "
                   "sketch instead",
                   key.ToString().c_str(), key.ToString().c_str()),
         q_.spans.group_by.IsValid() ? q_.spans.group_by : key.span);
  }

  // --- (c) scrubql-sampling-error -------------------------------------------
  //
  // Predicts the Eq. 1-3 relative error bound of a sampled COUNT/SUM before
  // any event is collected, from the fleet-shape assumptions in LintOptions:
  // N hosts, n = N*host_rate sampled, M events/host/window, m = M*event_rate
  // sampled. With per-host totals varying by cv_u and readings by cv_r,
  //
  //   Var/tau^2 = (N-n)*cv_u^2 / (n*N)            (stage 1 of Eq. 3)
  //             + (M-m)*cv_r^2 / (m*M*N)          (stage 2 of Eq. 3)
  //   rel_err   = t_{n-1, 1-alpha/2} * sqrt(Var/tau^2)   (Eq. 2)
  void CheckSamplingError() {
    if (aq_.is_join()) {
      return;  // the estimator covers single-source COUNT/SUM only
    }
    const bool sampling =
        q_.host_sample_rate < 1.0 || q_.event_sample_rate < 1.0;
    if (!sampling) {
      return;
    }
    bool has_count = false;
    bool has_sum = false;
    for (const SelectItem& item : q_.select) {
      has_count |= HasAggregateFunc(*item.expr, AggregateFunc::kCount);
      has_sum |= HasAggregateFunc(*item.expr, AggregateFunc::kSum);
    }
    if (!has_count && !has_sum) {
      return;  // nothing scales under Eq. 1
    }

    const SourceSpan span = q_.spans.sample_events.IsValid()
                                ? q_.spans.sample_events
                                : q_.spans.sample_hosts;
    const double big_n =
        static_cast<double>(std::max<uint64_t>(1, options_.fleet_hosts));
    const double n =
        std::max(1.0, std::round(big_n * q_.host_sample_rate));
    if (q_.host_sample_rate < 1.0 && n < 2.0) {
      Emit(LintSeverity::kWarning, lint_rules::kSamplingError,
           StrFormat("SAMPLE HOSTS %.4g%% of ~%.0f hosts selects a single "
                     "host; the Eq. 2 t-quantile is undefined at n=1 and the "
                     "error bound degrades to infinity. Raise the host "
                     "sampling rate",
                     q_.host_sample_rate * 100, big_n),
           q_.spans.sample_hosts);
      return;
    }

    const double window_seconds =
        static_cast<double>(q_.window_micros) /
        static_cast<double>(kMicrosPerSecond);
    const double big_m =
        options_.events_per_host_per_second * window_seconds;
    if (big_m < 1.0) {
      return;  // no traffic assumption to predict against
    }
    const double m = std::max(1.0, big_m * q_.event_sample_rate);

    // Within-host reading variability: SUM readings use the configured cv;
    // COUNT readings are selection indicators, whose cv follows from the
    // WHERE selectivity p: sqrt((1-p)/p), capped to stay finite.
    double reading_cv = has_sum ? options_.reading_cv : 0.0;
    if (has_count) {
      const double p = q_.where == nullptr
                           ? 1.0
                           : EstimateSelectivity(*q_.where, options_);
      const double indicator_cv =
          p <= 0.01 ? 10.0 : std::sqrt((1.0 - p) / p);
      reading_cv = std::max(reading_cv, indicator_cv);
    }

    double rel_var = 0.0;
    if (big_n > n) {
      rel_var += (big_n - n) * options_.host_total_cv *
                 options_.host_total_cv / (n * big_n);
    }
    if (big_m > m) {
      rel_var += (big_m - m) * reading_cv * reading_cv / (m * big_m * n);
    }
    if (rel_var <= 0.0) {
      return;
    }
    const double alpha = 1.0 - options_.confidence;
    const double t = StudentTQuantile(1.0 - alpha / 2.0,
                                      std::max(1.0, n - 1.0));
    const double rel_err = t * std::sqrt(rel_var);
    if (rel_err <= options_.max_relative_error) {
      return;
    }
    Emit(LintSeverity::kWarning, lint_rules::kSamplingError,
         StrFormat("predicted relative error of the sampled %s is +/-%.0f%% "
                   "at %.0f%% confidence (Eqs. 1-3 with N=%.0f hosts, "
                   "n=%.0f sampled, ~%.0f events/host/window, m=%.0f "
                   "sampled), above the +/-%.0f%% usefulness bound; raise "
                   "the SAMPLE rates or widen WINDOW",
                   has_count && !has_sum ? "COUNT" : "SUM",
                   rel_err * 100, options_.confidence * 100, big_n, n, big_m,
                   m, options_.max_relative_error * 100),
         span);
  }

  // --- (j) scrubql-sampling-sharded-estimate ---------------------------------
  //
  // Purely informational. A sampled + grouped COUNT/SUM on a single central
  // instance only gets the Eq. 1 ratio scale (its pipeline bounds ungrouped
  // plans only). Under the sharded deployment the coordinator's
  // Finalize merges per-(group, host) readings globally, so the same query
  // reports a full Eq. 2-3 error bound per group. Troubleshooters reading a
  // grouped estimate should know which deployment produced it.
  void CheckSamplingShardedEstimate() {
    if (q_.group_by.empty() || aq_.is_join()) {
      return;
    }
    const bool sampling =
        q_.host_sample_rate < 1.0 || q_.event_sample_rate < 1.0;
    if (!sampling) {
      return;
    }
    bool has_scaled = false;
    for (const SelectItem& item : q_.select) {
      has_scaled |= HasAggregateFunc(*item.expr, AggregateFunc::kCount);
      has_scaled |= HasAggregateFunc(*item.expr, AggregateFunc::kSum);
    }
    if (!has_scaled) {
      return;  // nothing scales under Eq. 1, so no estimate to bound
    }
    const SourceSpan span = q_.spans.sample_events.IsValid()
                                ? q_.spans.sample_events
                                : q_.spans.sample_hosts;
    Emit(LintSeverity::kNote, lint_rules::kSamplingShardedEstimate,
         "sampled grouped COUNT/SUM: on the sharded central each group's "
         "estimate carries a per-group Eq. 2-3 error bound (the coordinator "
         "merges per-(group, host) readings globally at Finalize); a single "
         "instance reports the Eq. 1 ratio scale without bounds for grouped "
         "plans",
         span);
  }

  // --- (p) scrubql-sampled-join ---------------------------------------------
  //
  // SAMPLE EVENTS draws each source's events independently at the agents,
  // so a joined tuple survives only when both of its events were sampled
  // (probability p^2), while Eq. 1 scales COUNT/SUM by 1/p: the joined
  // answer comes out about p times the truth, and nothing in the row
  // (completeness 1.000) says so. Host sampling on a join is refused at
  // analysis; this is the event-sampled case that still runs. A warning,
  // not an error: the query is well-formed, and admission is unchanged.
  void CheckSampledJoin() {
    if (!aq_.is_join() || q_.event_sample_rate >= 1.0) {
      return;
    }
    const double p = q_.event_sample_rate;
    Emit(LintSeverity::kWarning, lint_rules::kSampledJoin,
         StrFormat("SAMPLE EVENTS %.4g%% on a join samples each source "
                   "independently, so a joined tuple survives at p^2 "
                   "(%.4g%%) but COUNT/SUM scale it by only 1/p: the joined "
                   "answer comes out about %.4g%% of the true value while "
                   "completeness reads 1.000. Drop SAMPLE EVENTS, or read "
                   "the result as a lower bound",
                   p * 100, p * p * 100, p * 100),
         q_.spans.sample_events);
  }

  // --- (d) scrubql-full-fleet -----------------------------------------------
  //
  // An unrestricted @[...] with no sampling installs the query object on
  // every monitorable host (Section 3.2, "Target hosts"): the blast radius
  // the target clause exists to avoid.
  void CheckFullFleet() {
    if (!q_.targets.IsUnrestricted() || q_.host_sample_rate < 1.0 ||
        q_.event_sample_rate < 1.0) {
      return;
    }
    Emit(LintSeverity::kWarning, lint_rules::kFullFleet,
         StrFormat("no @[...] target and no sampling: the query object "
                   "installs on every monitorable host (~%llu) and every "
                   "matching event pays filter/projection cost. Scope with "
                   "@[SERVICE IN ...] or add SAMPLE HOSTS/EVENTS",
                   static_cast<unsigned long long>(options_.fleet_hosts)),
         q_.spans.from);
  }

  // --- (e) scrubql-dead-projection -------------------------------------------
  //
  // The host plan ships every field the query references anywhere, including
  // fields only the host-side WHERE reads. Those values cross the wire on
  // every shipped event and ScrubCentral never looks at them.
  void CheckDeadProjection() {
    // Fields the central side actually reads: select list + group keys.
    std::vector<std::unordered_set<std::string>> central(aq_.schemas.size());
    for (const SelectItem& item : q_.select) {
      CollectFieldRefs(*item.expr, &central);
    }
    for (const ExprPtr& g : q_.group_by) {
      CollectFieldRefs(*g, &central);
    }

    for (size_t i = 0; i < aq_.schemas.size(); ++i) {
      for (const std::string& field : aq_.fields_per_source[i]) {
        if (aq_.schemas[i]->FieldIndex(field) < 0) {
          continue;  // system fields ride in the event header for free
        }
        if (central[i].count(field) > 0) {
          continue;
        }
        Emit(LintSeverity::kNote, lint_rules::kDeadProjection,
             StrFormat("field '%s.%s' is only read by the host-side WHERE; "
                       "it still ships with every selected event (+%lld ns "
                       "projection plus its wire bytes) and ScrubCentral "
                       "never reads it",
                       q_.sources[i].c_str(), field.c_str(),
                       static_cast<long long>(
                           options_.costs.projection_per_field_ns)),
             SpanOfFieldInWhere(static_cast<int>(i), field));
      }
    }
  }

  void CollectFieldRefs(
      const Expr& e,
      std::vector<std::unordered_set<std::string>>* per_source) const {
    if (e.kind == ExprKind::kFieldRef) {
      for (size_t i = 0; i < q_.sources.size(); ++i) {
        if (q_.sources[i] == e.qualifier) {
          (*per_source)[i].insert(e.field);
          return;
        }
      }
      return;
    }
    for (const ExprPtr& child : e.children) {
      CollectFieldRefs(*child, per_source);
    }
  }

  SourceSpan SpanOfFieldInWhere(int source, const std::string& field) const {
    for (size_t c = 0; c < aq_.conjuncts.size(); ++c) {
      if (aq_.conjunct_source[c] != source && aq_.conjunct_source[c] != -1) {
        continue;
      }
      const Expr* ref = FindFieldRef(*aq_.conjuncts[c], source, field);
      if (ref != nullptr && ref->span.IsValid()) {
        return ref->span;
      }
    }
    return q_.spans.where;
  }

  const Expr* FindFieldRef(const Expr& e, int source,
                           const std::string& field) const {
    if (e.kind == ExprKind::kFieldRef && e.field == field &&
        e.qualifier == q_.sources[static_cast<size_t>(source)]) {
      return &e;
    }
    for (const ExprPtr& child : e.children) {
      const Expr* found = FindFieldRef(*child, source, field);
      if (found != nullptr) {
        return found;
      }
    }
    return nullptr;
  }

  // --- (f) scrubql-ineffective-filter ----------------------------------------
  //
  // A WHERE whose estimated selectivity is ~1 pays predicate evaluation on
  // every event and then ships (nearly) every event anyway: the query is
  // full logging wearing a filter.
  void CheckIneffectiveFilter() {
    if (q_.where == nullptr) {
      return;
    }
    const double selectivity = EstimateSelectivity(*q_.where, options_);
    if (selectivity < options_.max_where_selectivity) {
      return;
    }
    const int terms = CountNodes(*q_.where);
    Emit(LintSeverity::kWarning, lint_rules::kIneffectiveFilter,
         StrFormat("WHERE keeps an estimated %.0f%% of events: hosts pay "
                   "~%lld ns/event evaluating it and still ship nearly "
                   "everything - effectively full logging. Tighten the "
                   "predicate or add SAMPLE EVENTS",
                   selectivity * 100,
                   static_cast<long long>(terms *
                                          options_.costs.predicate_term_ns)),
         q_.spans.where.IsValid() ? q_.spans.where : q_.where->span);
  }

  static int CountNodes(const Expr& e) {
    int n = 1;
    for (const ExprPtr& child : e.children) {
      n += CountNodes(*child);
    }
    return n;
  }

  // --- (g) scrubql-window-under-flush ----------------------------------------
  //
  // Agents batch and ship on the flush cadence; a window shorter than it
  // cannot observe fresher data, it only multiplies window bookkeeping.
  void CheckWindowUnderFlush() {
    if (options_.flush_interval_micros <= 0 ||
        q_.window_micros >= options_.flush_interval_micros) {
      return;
    }
    Emit(LintSeverity::kWarning, lint_rules::kWindowUnderFlush,
         StrFormat("WINDOW %s is shorter than the agent flush interval "
                   "(%s): several windows' partials arrive in one batch, so "
                   "results cannot be fresher than the flush cadence. Use "
                   "WINDOW >= %s",
                   DurationText(q_.window_micros).c_str(),
                   DurationText(options_.flush_interval_micros).c_str(),
                   DurationText(options_.flush_interval_micros).c_str()),
         q_.spans.window);
  }

  // --- (h) scrubql-span-budget ------------------------------------------------
  //
  // Every query has a finite span so a forgotten one cannot load the system
  // forever; a span that consumes most of the admission budget holds its
  // host-side query objects live for that whole time.
  void CheckSpanBudget() {
    const double budget = options_.span_budget_fraction *
                          static_cast<double>(options_.max_duration_micros);
    if (options_.max_duration_micros <= 0 ||
        static_cast<double>(q_.duration_micros) <= budget) {
      return;
    }
    Emit(LintSeverity::kWarning, lint_rules::kSpanBudget,
         StrFormat("DURATION %s consumes %.0f%% of the %s admission budget; "
                   "the query object stays installed on every targeted host "
                   "for that whole span. Prefer a shorter DURATION and "
                   "resubmission",
                   DurationText(q_.duration_micros).c_str(),
                   100.0 * static_cast<double>(q_.duration_micros) /
                       static_cast<double>(options_.max_duration_micros),
                   DurationText(options_.max_duration_micros).c_str()),
         q_.spans.duration);
  }

  // --- (i) scrubql-no-retry-headroom -----------------------------------------
  //
  // Reliable delivery retries a lost batch on the next flush round, and the
  // retried copy still has to cross the network. If central's allowed
  // lateness is smaller than one flush interval plus that round trip, a
  // batch lost at a window's final flush can never make it back before the
  // window closes: every network fault silently becomes missing data
  // instead of recovered data.
  void CheckRetryHeadroom() {
    if (options_.retry_rtt_micros <= 0 || q_.window_micros <= 0) {
      return;  // rule disabled, or no windows to close
    }
    const TimeMicros needed =
        options_.flush_interval_micros + options_.retry_rtt_micros;
    if (options_.allowed_lateness_micros >= needed) {
      return;
    }
    Emit(LintSeverity::kWarning, lint_rules::kNoRetryHeadroom,
         StrFormat("allowed lateness %s leaves no room for one retransmit "
                   "round trip (flush %s + retry %s = %s): a batch lost at a "
                   "window's last flush arrives after the window closed and "
                   "is dropped, not recovered",
                   DurationText(options_.allowed_lateness_micros).c_str(),
                   DurationText(options_.flush_interval_micros).c_str(),
                   DurationText(options_.retry_rtt_micros).c_str(),
                   DurationText(needed).c_str()),
         q_.spans.window);
  }

  // --- (o) scrubql-window-state-budget ---------------------------------------
  //
  // Predicts the live central state one window of this query holds — the
  // same logical sizing the executor's MemoryAccountant charges — and warns
  // when the prediction exceeds the configured per-query budget: the query
  // would run under memory pressure from its first full window, spilling
  // every window to disk when a spill directory is configured (lossless,
  // slower) or shedding events with fidelity < 1 when it is not.
  void CheckWindowStateBudget() {
    if (options_.query_state_budget_bytes == 0) {
      return;
    }
    // The executor's charges, read from the same constants
    // (src/common/state_bytes.h): per-group overhead, per-aggregate
    // accumulator, HLL sketch at the default precision, join-buffer entry.
    // Key and buffered-row sizes are a rough wire model.
    constexpr double kHllSketchBytes =
        (size_t{1} << kDefaultHllPrecision) + kHllStructBytes;
    constexpr double kKeyBytes = 24;
    constexpr double kEventHeaderBytes = 36;
    constexpr double kEventFieldBytes = 24;

    double grouped_bytes = 0;
    double groups = 0;
    if (!q_.group_by.empty() && !SelectHasTopK()) {
      groups = 1;
      for (const ExprPtr& g : q_.group_by) {
        const uint64_t card = CardinalityOf(*g);
        if (card == 0 || card == kUnboundedCardinality) {
          // Unknown cardinality predicts nothing; the unbounded sentinel is
          // already rule (a)'s error.
          groups = 0;
          break;
        }
        groups *= static_cast<double>(card);
      }
      if (groups > 0) {
        double aggregates = 0;
        double sketches = 0;
        for (const SelectItem& item : q_.select) {
          aggregates += CountAggregates(*item.expr);
          if (HasAggregateFunc(*item.expr, AggregateFunc::kCountDistinct)) {
            sketches += 1;
          }
        }
        grouped_bytes =
            groups * (kGroupStateBytes + aggregates * kAccumulatorBytes +
                      sketches * kHllSketchBytes +
                      static_cast<double>(q_.group_by.size()) * kKeyBytes);
      }
    }

    double join_bytes = 0;
    double join_rows = 0;
    if (aq_.is_join() && q_.window_micros > 0) {
      // Join buffers hold every surviving event until window close.
      join_rows = static_cast<double>(options_.fleet_hosts) *
                  options_.events_per_host_per_second *
                  (static_cast<double>(q_.window_micros) / 1e6) *
                  q_.host_sample_rate * q_.event_sample_rate;
      if (q_.where != nullptr) {
        join_rows *= EstimateSelectivity(*q_.where, options_);
      }
      size_t fields = 0;
      for (const auto& per_source : aq_.fields_per_source) {
        fields += per_source.size();
      }
      const double avg_fields =
          static_cast<double>(fields) /
          static_cast<double>(std::max<size_t>(1, aq_.fields_per_source.size()));
      join_bytes = join_rows * (kJoinEventBytes + kEventHeaderBytes +
                                avg_fields * kEventFieldBytes);
    }

    const double total = grouped_bytes + join_bytes;
    const double budget =
        static_cast<double>(options_.query_state_budget_bytes);
    if (total <= budget) {
      return;
    }
    std::string detail;
    if (grouped_bytes > 0) {
      detail = StrFormat("~%.0f live groups", groups);
    }
    if (join_bytes > 0) {
      if (!detail.empty()) {
        detail += " plus ";
      }
      detail += StrFormat("~%.0f buffered join rows", join_rows);
    }
    const uint64_t total_bytes =
        total > 1e18 ? ~uint64_t{0} : static_cast<uint64_t>(total);
    const SourceSpan span = grouped_bytes >= join_bytes &&
                                    q_.spans.group_by.IsValid()
                                ? q_.spans.group_by
                                : q_.spans.from;
    Emit(LintSeverity::kWarning, lint_rules::kWindowStateBudget,
         StrFormat("estimated per-window central state ~%s (%s) exceeds the "
                   "per-query state budget %s: every window runs under "
                   "memory pressure - lossless disk spill when a spill "
                   "directory is configured, counted shed with fidelity < 1 "
                   "when it is not. Bound the state with TOPK, a coarser "
                   "group key, or SAMPLE EVENTS",
                   BytesText(total_bytes).c_str(), detail.c_str(),
                   BytesText(options_.query_state_budget_bytes).c_str()),
         span);
  }

  static int CountAggregates(const Expr& e) {
    int n = e.kind == ExprKind::kAggregate ? 1 : 0;
    for (const ExprPtr& child : e.children) {
      n += CountAggregates(*child);
    }
    return n;
  }

  // --- (k)-(n) semantic rules over the expression IR --------------------------
  //
  // Each WHERE conjunct is lowered to the typed IR and run through the
  // abstract interpreter, exactly as the planner does before installing the
  // filter — so what lint reports is what execution prunes.
  void CheckSemanticIr() {
    const SourceSpan where_span = q_.spans.where;
    for (size_t i = 0; i < q_.sources.size(); ++i) {
      const std::vector<std::string> single_source = {q_.sources[i]};
      const std::vector<SchemaPtr> single_schema = {aq_.schemas[i]};
      std::vector<ExprProgram> programs;
      std::vector<SourceSpan> spans;
      for (size_t c = 0; c < aq_.conjuncts.size(); ++c) {
        const int src = aq_.conjunct_source[c];
        if (src != static_cast<int>(i) && src != -1) {
          continue;
        }
        // Source-free constant conjuncts would be diagnosed once per source;
        // report them only with the first.
        if (src == -1 && i != 0) {
          continue;
        }
        const Expr& e = *aq_.conjuncts[c];
        const SourceSpan span = e.span.IsValid() ? e.span : where_span;
        Result<ExprProgram> program =
            LowerExpr(e, single_source, single_schema);
        if (!program.ok()) {
          continue;  // admission rejects it elsewhere
        }
        const ProgramAnalysis analysis = AnalyzeProgram(*program);
        if (analysis.predicate == PredicateClass::kAlwaysFalse) {
          Emit(LintSeverity::kWarning, lint_rules::kFilterContradiction,
               "WHERE conjunct can never be true: it filters out every "
               "event, so the query returns nothing",
               span);
        } else if (analysis.predicate == PredicateClass::kAlwaysTrue) {
          Emit(LintSeverity::kWarning, lint_rules::kRedundantConjunct,
               "WHERE conjunct is always true: it filters nothing and is "
               "pruned from the executed filter",
               span);
        }
        for (const AnalysisNote& note : analysis.notes) {
          if (note.kind == AnalysisNoteKind::kDivisionByZero) {
            Emit(LintSeverity::kWarning, lint_rules::kDivisionByZero,
                 "division by a divisor that is provably zero always yields "
                 "NULL",
                 span);
          } else {
            Emit(LintSeverity::kWarning, lint_rules::kNullComparison,
                 "ordered comparison with an always-NULL operand is never "
                 "true",
                 span);
          }
        }
        FoldProgram(&*program, analysis);
        if (analysis.predicate == PredicateClass::kUnknown) {
          programs.push_back(std::move(program).value());
          spans.push_back(span);
        }
      }
      // Cross-conjunct reasoning on the same field (the per-source conjunct
      // set the host filter executes).
      std::vector<const ExprProgram*> refs;
      refs.reserve(programs.size());
      for (const ExprProgram& p : programs) {
        refs.push_back(&p);
      }
      const ConjunctSetResult set = AnalyzeConjunctSet(refs);
      if (set.contradiction) {
        std::string field = "a field";
        if (static_cast<size_t>(set.contradiction_field) <
            aq_.schemas[i]->field_count()) {
          field = StrFormat(
              "'%s.%s'", q_.sources[i].c_str(),
              aq_.schemas[i]
                  ->field(static_cast<size_t>(set.contradiction_field))
                  .name.c_str());
        }
        Emit(LintSeverity::kWarning, lint_rules::kFilterContradiction,
             StrFormat("WHERE conjuncts on %s contradict each other: no "
                       "event can satisfy all of them, so the query returns "
                       "nothing",
                       field.c_str()),
             where_span);
      } else {
        for (const int r : set.redundant) {
          Emit(LintSeverity::kWarning, lint_rules::kRedundantConjunct,
               "WHERE conjunct is implied by the other conjuncts on the "
               "same field and does no additional filtering",
               spans[static_cast<size_t>(r)]);
        }
      }
    }
    // Divisions in the SELECT list (aggregate arguments and output math)
    // never reach the WHERE lowering above; catch constant-zero divisors
    // syntactically.
    for (const SelectItem& item : q_.select) {
      CheckZeroDivisor(*item.expr);
    }
  }

  void CheckZeroDivisor(const Expr& e) {
    if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kDiv &&
        e.children[1]->kind == ExprKind::kLiteral &&
        e.children[1]->literal.is_numeric() &&
        e.children[1]->literal.AsNumber() == 0.0) {
      Emit(LintSeverity::kWarning, lint_rules::kDivisionByZero,
           "division by a divisor that is provably zero always yields NULL",
           e.span.IsValid() ? e.span : q_.spans.from);
    }
    for (const ExprPtr& child : e.children) {
      CheckZeroDivisor(*child);
    }
  }

  const AnalyzedQuery& aq_;
  const Query& q_;
  const LintOptions& options_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

double EstimateSelectivity(const Expr& predicate, const LintOptions& options) {
  auto clamp01 = [](double s) { return std::min(1.0, std::max(0.0, s)); };
  switch (predicate.kind) {
    case ExprKind::kLiteral:
      if (predicate.literal.is_bool()) {
        return predicate.literal.AsBool() ? 1.0 : 0.0;
      }
      return 1.0;
    case ExprKind::kFieldRef:
      // A bare boolean field in predicate position: even odds.
      return predicate.resolved_type == FieldType::kBool ? 0.5 : 1.0;
    case ExprKind::kUnary:
      if (predicate.unary_op == UnaryOp::kNot) {
        return clamp01(1.0 -
                       EstimateSelectivity(*predicate.children[0], options));
      }
      return 1.0;
    case ExprKind::kBinary: {
      switch (predicate.binary_op) {
        case BinaryOp::kAnd:
          return clamp01(
              EstimateSelectivity(*predicate.children[0], options) *
              EstimateSelectivity(*predicate.children[1], options));
        case BinaryOp::kOr: {
          const double a =
              EstimateSelectivity(*predicate.children[0], options);
          const double b =
              EstimateSelectivity(*predicate.children[1], options);
          return clamp01(a + b - a * b);
        }
        case BinaryOp::kEq:
          return clamp01(EqualitySelectivity(predicate, options));
        case BinaryOp::kNe:
          return clamp01(1.0 - EqualitySelectivity(predicate, options));
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return 1.0 / 3.0;  // the classical range-predicate guess
        case BinaryOp::kContains:
          return 0.1;
        default:
          return 1.0;  // arithmetic cannot appear in predicate position
      }
    }
    case ExprKind::kInList: {
      const double members =
          static_cast<double>(predicate.children.size()) - 1.0;
      return clamp01(members * EqualitySelectivity(predicate, options));
    }
    case ExprKind::kAggregate:
    case ExprKind::kStar:
      return 1.0;  // not valid in WHERE; the analyzer already rejected it
  }
  return 1.0;
}

uint64_t PredictCentralCostNsPerSec(const AnalyzedQuery& analyzed,
                                    const LintOptions& options) {
  const Query& q = analyzed.query;
  // Events/sec arriving at central: every source contributes the fleet's
  // per-host rate, scaled by the query's sampling plan and the host-side
  // WHERE filter (only survivors ship).
  double shipped_per_sec =
      static_cast<double>(options.fleet_hosts) *
      options.events_per_host_per_second * q.host_sample_rate *
      q.event_sample_rate *
      static_cast<double>(std::max<size_t>(1, q.sources.size()));
  if (q.where != nullptr) {
    shipped_per_sec *= EstimateSelectivity(*q.where, options);
  }
  // Per-event central work: decode/ingest always; a hash probe per event for
  // joins; one fold update per aggregate for grouped/aggregated plans.
  const CostModel& costs = options.costs;
  double per_event = static_cast<double>(costs.central_ingest_ns);
  if (analyzed.is_join()) {
    per_event += static_cast<double>(costs.central_join_probe_ns);
  }
  if (analyzed.has_aggregates || !q.group_by.empty()) {
    int aggregates = 0;
    for (const SelectItem& item : q.select) {
      aggregates += CountAggregateNodes(*item.expr);
    }
    per_event += static_cast<double>(costs.central_group_update_ns) *
                 static_cast<double>(std::max(1, aggregates));
  }
  const double total = shipped_per_sec * per_event;
  if (total <= 0) {
    return 0;
  }
  if (total > 1e18) {
    return ~uint64_t{0};
  }
  return static_cast<uint64_t>(total);
}

std::vector<Diagnostic> LintQuery(const AnalyzedQuery& analyzed,
                                  const LintOptions& options) {
  Linter linter(analyzed, options);
  return linter.Run();
}

bool HasLintErrors(const std::vector<Diagnostic>& diagnostics) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) {
                       return d.severity == LintSeverity::kError;
                     });
}

std::string RenderDiagnostic(const Diagnostic& diagnostic,
                             std::string_view query_text) {
  std::string out = StrFormat("%s[%s]: %s",
                              LintSeverityName(diagnostic.severity),
                              diagnostic.rule.c_str(),
                              diagnostic.message.c_str());
  const SourceSpan& span = diagnostic.span;
  if (span.IsValid() && span.end <= query_text.size()) {
    std::string snippet(query_text.substr(span.begin, span.end - span.begin));
    for (char& c : snippet) {
      if (c == '\n' || c == '\r' || c == '\t') {
        c = ' ';
      }
    }
    out += StrFormat("\n  --> offset %zu: %s", span.begin, snippet.c_str());
  }
  return out;
}

std::string RenderDiagnostics(const std::vector<Diagnostic>& diagnostics,
                              std::string_view query_text) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += RenderDiagnostic(d, query_text);
    out += "\n";
  }
  return out;
}

Result<std::vector<Diagnostic>> LintQueryText(
    std::string_view text, const SchemaRegistry& registry,
    const AnalyzerOptions& analyzer_options, const LintOptions& options) {
  Result<AnalyzedQuery> analyzed =
      ParseAndAnalyze(text, registry, analyzer_options);
  if (!analyzed.ok()) {
    return analyzed.status();
  }
  return LintQuery(*analyzed, options);
}

}  // namespace scrub
