// Ingest microbench: the full data plane — agent-side filter + project +
// encode, then central-side decode + fold — over a fixed event stream:
// ColumnBatch staging, the vectorized host filter
// (HostSourcePlan::SelectBatch) over a selection vector, EncodeColumnBatch /
// DecodeColumnBatch, and the per-row fold straight off the columns (no
// intermediate Event). Every pipeline selects with the planner's folded,
// pruned programs through the same HostSourcePlan entry points the agent
// calls.
//
// Cases: "scan" (single-source grouped aggregate, the historical bench),
// "join" (two sources equi-joined on request id, run as per-source
// kColumnar batches AND the staged kColumnarJoin format whose order bytes
// carry the arrival interleave), "dict" (a kept low-cardinality string
// column, gated on the wire-bytes reduction the dictionary encoding buys
// over one record per event), and "filter" (the agent-flush selection step
// in isolation). The join case exercises the executor's join path: the
// probe reads the request-id column directly and joined tuples fold
// column-direct — orphans never materialize an Event. The filter
// case runs a WHERE with install-time-foldable arithmetic and redundant
// bounds three ways: the planner's programs per event (ir_row) and
// vectorized (ir_columnar), and every conjunct lowered without folding and
// none pruned (unfolded_row). ir_row over unfolded_row
// ("speedup_vs_unfolded") is what install-time folding and pruning buy.
// Every filter run's match count is checked against a count read straight
// off the price and tag fields.
//
// Every run of a case must produce the identical result transcript
// (asserted) — the benchmark measures representation, not semantics. Timing
// uses CLOCK_THREAD_CPUTIME_ID (single-core safe, like
// bench_parallel_central); best-of-three is the estimator. Output is the
// "ingest" JSON section merged into BENCH_scrub.json by tools/bench_run.sh.
// tools/ingest_vs_parent.sh races the scan and join runs against the parent
// commit's build on the same machine; tools/bench_compare.py gates the
// other cases against the committed baseline.
//
// Usage: bench_ingest [events_per_batch] > ingest.json

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "src/central/central.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/worker_pool.h"
#include "src/event/column_batch.h"
#include "src/event/wire.h"
#include "src/plan/expr_ir.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

constexpr int kHosts = 4;
constexpr int kTicks = 50;
constexpr TimeMicros kTickMicros = 500 * kMicrosPerMilli;

// Pre-generated raw stream: what the hosts logged, before any Scrub-side
// work. Both pipelines start from these identical Events. Sources are
// parallel to the plan's (one for the scan case, two for the join case).
struct Workload {
  SchemaRegistry registry;
  std::vector<SchemaPtr> schemas;       // parallel to plan sources
  std::vector<HostSourcePlan> sources;  // parallel to schemas
  CentralPlan central_plan;
  // stream[tick][host][source]: the logged events.
  std::vector<std::vector<std::vector<std::vector<Event>>>> stream;
  uint64_t total_events = 0;

  AnalyzedQuery Plan(std::string_view query) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(query, registry, options);
    if (!aq.ok()) {
      std::abort();
    }
    Result<QueryPlan> qp = PlanQuery(*aq, 1, 0);
    if (!qp.ok() || qp->host.sources.size() != schemas.size()) {
      std::abort();
    }
    sources = qp->host.sources;
    central_plan = qp->central;
    central_plan.hosts_targeted = kHosts;
    central_plan.hosts_sampled = 0;  // hand-installed: no completeness math
    stream.resize(kTicks);
    for (auto& per_host : stream) {
      per_host.resize(kHosts);
      for (auto& per_source : per_host) {
        per_source.resize(schemas.size());
      }
    }
    return std::move(aq).value();
  }
};


// Single-source grouped aggregate over a ~80%-selective predicate: the
// historical ingest bench, dominated by filter + project + fold. The spill
// case reuses it at a higher group-key cardinality so a fractional state
// budget actually bites.
Workload ScanWorkload(size_t events_per_batch, uint64_t cardinality = 64) {
  Workload w;
  w.schemas.push_back(*EventSchema::Builder("bid")
                           .AddField("user_id", FieldType::kLong)
                           .AddField("price", FieldType::kDouble)
                           .AddField("tag", FieldType::kString)
                           .Build());
  if (!w.registry.Register(w.schemas[0]).ok()) {
    std::abort();
  }
  w.Plan(
      "SELECT bid.user_id, COUNT(*), SUM(bid.price) FROM bid "
      "WHERE bid.price > 1.0 GROUP BY bid.user_id "
      "WINDOW 1 s DURATION 60 s;");

  static const char* kTags[] = {"organic", "paid", "house", "remnant"};
  Rng rng(4321);
  for (int tick = 0; tick < kTicks; ++tick) {
    for (int host = 0; host < kHosts; ++host) {
      auto& events = w.stream[static_cast<size_t>(tick)]
                             [static_cast<size_t>(host)][0];
      events.reserve(events_per_batch);
      for (size_t i = 0; i < events_per_batch; ++i) {
        Event e(w.schemas[0], rng.NextUint64(),
                tick * kTickMicros +
                    static_cast<TimeMicros>(rng.NextBelow(
                        static_cast<uint64_t>(kTickMicros))));
        e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(cardinality))));
        e.SetField(1, Value(rng.NextDouble() * 5));  // ~80% pass > 1.0
        e.SetField(2, Value(kTags[rng.NextBelow(4)]));
        events.push_back(std::move(e));
      }
      w.total_events += events.size();
    }
  }
  return w;
}

// Two-source equi-join on request id: two thirds of the bids get a matching
// impression on the same host in the same tick; the rest are join orphans —
// the rows a lazy columnar join must never materialize.
Workload JoinWorkload(size_t events_per_batch) {
  Workload w;
  w.schemas.push_back(*EventSchema::Builder("bid")
                           .AddField("campaign_id", FieldType::kLong)
                           .AddField("price", FieldType::kDouble)
                           .Build());
  w.schemas.push_back(*EventSchema::Builder("impression")
                           .AddField("line_item_id", FieldType::kLong)
                           .AddField("cost", FieldType::kDouble)
                           .Build());
  for (const SchemaPtr& schema : w.schemas) {
    if (!w.registry.Register(schema).ok()) {
      std::abort();
    }
  }
  w.Plan(
      "SELECT impression.line_item_id, COUNT(*), SUM(bid.price) "
      "FROM bid, impression GROUP BY impression.line_item_id "
      "WINDOW 1 s DURATION 60 s;");

  Rng rng(8765);
  for (int tick = 0; tick < kTicks; ++tick) {
    for (int host = 0; host < kHosts; ++host) {
      auto& per_source =
          w.stream[static_cast<size_t>(tick)][static_cast<size_t>(host)];
      per_source[0].reserve(events_per_batch);
      for (size_t i = 0; i < events_per_batch; ++i) {
        const RequestId rid = rng.NextUint64();
        const TimeMicros ts =
            tick * kTickMicros + static_cast<TimeMicros>(rng.NextBelow(
                                     static_cast<uint64_t>(kTickMicros)));
        Event bid(w.schemas[0], rid, ts);
        bid.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(16))));
        bid.SetField(1, Value(rng.NextDouble() * 5));
        per_source[0].push_back(std::move(bid));
        if (i % 3 != 0) {
          Event imp(w.schemas[1], rid, ts);
          imp.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(8))));
          imp.SetField(1, Value(rng.NextDouble()));
          per_source[1].push_back(std::move(imp));
        }
      }
      w.total_events += per_source[0].size() + per_source[1].size();
    }
  }
  return w;
}

// Low-cardinality string projection: the tag column (4 distinct ~12-byte
// values) is a group key, so it survives projection onto the wire — where
// the columnar encoder dictionary-encodes it (4-entry dict + one code byte
// per row instead of a length-prefixed string per row). The case gates the
// wire-bytes reduction vs one record per event (RecordFormatBytes) and
// asserts the dictionary was actually chosen.
Workload DictWorkload(size_t events_per_batch) {
  Workload w;
  w.schemas.push_back(*EventSchema::Builder("bid")
                           .AddField("user_id", FieldType::kLong)
                           .AddField("price", FieldType::kDouble)
                           .AddField("tag", FieldType::kString)
                           .Build());
  if (!w.registry.Register(w.schemas[0]).ok()) {
    std::abort();
  }
  w.Plan(
      "SELECT bid.tag, COUNT(*), SUM(bid.price) FROM bid "
      "WHERE bid.price > 1.0 GROUP BY bid.tag "
      "WINDOW 1 s DURATION 60 s;");

  static const char* kTags[] = {"organic_search", "paid_social",
                                "house_banner", "remnant_fill"};
  Rng rng(2468);
  for (int tick = 0; tick < kTicks; ++tick) {
    for (int host = 0; host < kHosts; ++host) {
      auto& events = w.stream[static_cast<size_t>(tick)]
                             [static_cast<size_t>(host)][0];
      events.reserve(events_per_batch);
      for (size_t i = 0; i < events_per_batch; ++i) {
        Event e(w.schemas[0], rng.NextUint64(),
                tick * kTickMicros +
                    static_cast<TimeMicros>(rng.NextBelow(
                        static_cast<uint64_t>(kTickMicros))));
        e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(64))));
        e.SetField(1, Value(rng.NextDouble() * 5));  // ~80% pass > 1.0
        e.SetField(2, Value(kTags[rng.NextBelow(4)]));
        events.push_back(std::move(e));
      }
      w.total_events += events.size();
    }
  }
  return w;
}

// The agent-flush selection step with a WHERE full of install-time slack:
// `4.0 / 2.0` re-divides per event unless folded, and the two weaker price
// bounds are implied by `price > 2`. The planner folds the division and
// prunes the implied conjuncts, so its per-event filter runs two short
// programs; `unfolded` keeps all four conjuncts exactly as written.
struct FilterWorkload {
  Workload w;
  std::vector<ExprProgram> unfolded;
  uint64_t expected_matches = 0;  // per pass, read off the fields directly
};

FilterWorkload MakeFilterWorkload(size_t events_per_batch) {
  FilterWorkload f;
  Workload& w = f.w;
  w.schemas.push_back(*EventSchema::Builder("bid")
                           .AddField("user_id", FieldType::kLong)
                           .AddField("price", FieldType::kDouble)
                           .AddField("tag", FieldType::kString)
                           .Build());
  if (!w.registry.Register(w.schemas[0]).ok()) {
    std::abort();
  }
  const AnalyzedQuery aq = w.Plan(
      "SELECT bid.user_id, COUNT(*) FROM bid "
      "WHERE bid.price > 4.0 / 2.0 AND bid.price > 1.0 AND "
      "bid.price > 0.5 AND bid.tag != 'nosuch' "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;");
  for (const ExprPtr& conjunct : aq.conjuncts) {
    Result<CompiledExpr> compiled =
        CompileExpr(*conjunct, aq.query.sources, aq.schemas);
    if (!compiled.ok()) {
      std::abort();
    }
    f.unfolded.push_back(LowerExpr(*compiled, aq.schemas, /*fold=*/false));
  }

  static const char* kTags[] = {"organic", "paid", "house", "remnant"};
  Rng rng(1357);
  for (int tick = 0; tick < kTicks; ++tick) {
    for (int host = 0; host < kHosts; ++host) {
      auto& events = w.stream[static_cast<size_t>(tick)]
                             [static_cast<size_t>(host)][0];
      events.reserve(events_per_batch);
      for (size_t i = 0; i < events_per_batch; ++i) {
        Event e(w.schemas[0], rng.NextUint64(),
                tick * kTickMicros +
                    static_cast<TimeMicros>(rng.NextBelow(
                        static_cast<uint64_t>(kTickMicros))));
        e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(64))));
        e.SetField(1, Value(rng.NextDouble() * 5));  // ~60% pass > 2.0
        e.SetField(2, Value(kTags[rng.NextBelow(4)]));
        const bool kept = e.field(1).AsNumber() > 2.0 &&
                          e.field(2).AsString() != "nosuch";
        f.expected_matches += kept ? 1 : 0;
        events.push_back(std::move(e));
      }
      w.total_events += events.size();
    }
  }
  return f;
}

struct FilterResult {
  std::string pipeline;
  uint64_t events = 0;
  uint64_t matched = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
};

constexpr int kFilterPasses = 4;

enum class FilterMode { kIrRow, kIrColumnar, kUnfoldedRow };

// The selection step alone: no staging, encode or fold — pure predicate
// work, which is what the IR lowering set out to cheapen.
FilterResult RunFilter(const FilterWorkload& f, FilterMode mode) {
  const Workload& w = f.w;
  const HostSourcePlan& sp = w.sources[0];
  FilterResult r;
  r.pipeline = mode == FilterMode::kIrRow        ? "ir_row"
               : mode == FilterMode::kIrColumnar ? "ir_columnar"
                                                 : "unfolded_row";

  // Columnar batches are staged outside the timed region.
  std::vector<ColumnBatch> batches;
  if (mode == FilterMode::kIrColumnar) {
    for (const auto& per_host : w.stream) {
      for (const auto& per_source : per_host) {
        ColumnBatch cols(w.schemas[0]);
        cols.Reserve(per_source[0].size());
        for (const Event& e : per_source[0]) {
          cols.AppendEvent(e);
        }
        batches.push_back(std::move(cols));
      }
    }
  }

  const uint64_t cpu0 = WorkerPool::ThreadCpuNs();
  for (int pass = 0; pass < kFilterPasses; ++pass) {
    r.matched = 0;
    if (mode == FilterMode::kIrColumnar) {
      for (const ColumnBatch& cols : batches) {
        std::vector<uint32_t> selection(cols.rows());
        std::iota(selection.begin(), selection.end(), 0u);
        sp.SelectBatch(cols, &selection);
        r.matched += selection.size();
      }
      continue;
    }
    for (const auto& per_host : w.stream) {
      for (const auto& per_source : per_host) {
        for (const Event& e : per_source[0]) {
          bool keep = true;
          if (mode == FilterMode::kIrRow) {
            int64_t insts = 0;
            keep = sp.Selects(e, &insts);
          } else {
            for (const ExprProgram& program : f.unfolded) {
              if (!EvalProgramPredicateSingle(program, e)) {
                keep = false;
                break;
              }
            }
          }
          r.matched += keep ? 1 : 0;
        }
      }
    }
  }
  r.seconds =
      static_cast<double>(WorkerPool::ThreadCpuNs() - cpu0) / 1e9;
  r.events = w.total_events * kFilterPasses;
  r.events_per_sec = static_cast<double>(r.events) / r.seconds;
  return r;
}

FilterResult BestFilter(const FilterWorkload& f, FilterMode mode) {
  FilterResult best = RunFilter(f, mode);
  for (int rep = 1; rep < 3; ++rep) {
    FilterResult again = RunFilter(f, mode);
    if (again.seconds < best.seconds) {
      best = std::move(again);
    }
  }
  return best;
}

struct RunResult {
  std::string pipeline;
  uint64_t events = 0;
  uint64_t shipped = 0;
  uint64_t payload_bytes = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  // Per-field wire encoding of the last columnar flush (EncodeColumnBatch's
  // convention: -1 dropped/all-null, 0 plain, n > 0 dict with n entries).
  std::vector<int> encodings;
  // Memory-pressure readings (spill case): the accountant's high-water mark
  // and the spill/shed counters for the bench query.
  size_t state_peak = 0;
  size_t budget = 0;
  uint64_t spilled = 0;
  uint64_t shed = 0;
  std::vector<std::string> transcript;
};

// Pipeline under test. kColumnar ships one kColumnar batch per (tick, host,
// source); kColumnarJoin ships ALL of a (tick, host)'s sources as one
// kColumnarJoin batch: per-source sections plus the staging order — exactly
// what the agent's per-source join staging puts on the wire.
enum class Mode { kColumnar, kColumnarJoin };

// One full pass of the stream through the chosen pipeline. The returned
// transcript is the self-check: every representation must emit the same
// rows in the same order.
RunResult RunOne(const Workload& w, Mode mode, CentralConfig config = {}) {
  config.allowed_lateness = 0;
  ScrubCentral central(&w.registry, config);
  RunResult r;
  r.pipeline = mode == Mode::kColumnar ? "columnar" : "join_columnar";
  auto sink = [&r](const ResultRow& row) {
    r.transcript.push_back(
        StrFormat("w%lld %s", static_cast<long long>(row.window_start),
                  row.ToString().c_str()));
  };
  if (!central.InstallQuery(w.central_plan, sink).ok()) {
    std::abort();
  }

  uint64_t seq = 1;
  const uint64_t cpu0 = WorkerPool::ThreadCpuNs();
  for (int tick = 0; tick < kTicks; ++tick) {
    const TimeMicros now = (tick + 1) * kTickMicros;
    for (int host = 0; host < kHosts; ++host) {
      if (mode == Mode::kColumnarJoin) {
        // Stage every source columnar, filter vectorized, then ship the
        // survivors as one kColumnarJoin batch whose order bytes replay the
        // per-source batches' fold sequence (all of source 0, then 1, ...).
        std::vector<ColumnBatch> staged;
        std::vector<std::vector<uint32_t>> selections(w.sources.size());
        for (size_t s = 0; s < w.sources.size(); ++s) {
          const auto& events = w.stream[static_cast<size_t>(tick)]
                                       [static_cast<size_t>(host)][s];
          ColumnBatch cols(w.schemas[s]);
          cols.Reserve(events.size());
          for (const Event& e : events) {
            cols.AppendEvent(e);
          }
          selections[s].resize(cols.rows());
          std::iota(selections[s].begin(), selections[s].end(), 0u);
          w.sources[s].SelectBatch(cols, &selections[s]);
          staged.push_back(std::move(cols));
        }
        std::vector<ColumnJoinSection> sections;
        std::vector<uint8_t> order;
        for (size_t s = 0; s < w.sources.size(); ++s) {
          if (selections[s].empty()) {
            continue;
          }
          order.insert(order.end(), selections[s].size(),
                       static_cast<uint8_t>(sections.size()));
          sections.push_back({&staged[s], selections[s].data(),
                              selections[s].size(),
                              &w.sources[s].keep_field});
        }
        if (sections.empty()) {
          continue;
        }
        EventBatch batch;
        batch.query_id = w.central_plan.query_id;
        batch.host = static_cast<HostId>(host);
        batch.seq = seq++;
        batch.format = BatchFormat::kColumnarJoin;
        batch.event_count = order.size();
        EncodeColumnJoinBatch(sections, order, &batch.payload);
        r.shipped += batch.event_count;
        r.payload_bytes += batch.WireSize();
        if (!central.IngestBatch(batch, now).ok()) {
          std::abort();
        }
        continue;
      }
      for (size_t s = 0; s < w.sources.size(); ++s) {
        const HostSourcePlan& sp = w.sources[s];
        const auto& events = w.stream[static_cast<size_t>(tick)]
                                     [static_cast<size_t>(host)][s];
        EventBatch batch;
        batch.query_id = w.central_plan.query_id;
        batch.host = static_cast<HostId>(host);
        batch.seq = seq++;
        // Stage, filter vectorized, encode the selection.
        ColumnBatch cols(w.schemas[s]);
        cols.Reserve(events.size());
        for (const Event& e : events) {
          cols.AppendEvent(e);
        }
        std::vector<uint32_t> selection(cols.rows());
        std::iota(selection.begin(), selection.end(), 0u);
        sp.SelectBatch(cols, &selection);
        batch.format = BatchFormat::kColumnar;
        batch.event_count = selection.size();
        EncodeColumnBatch(cols, selection.data(), selection.size(),
                          &sp.keep_field, &batch.payload, &r.encodings);
        r.shipped += batch.event_count;
        r.payload_bytes += batch.WireSize();
        if (!central.IngestBatch(batch, now).ok()) {
          std::abort();
        }
      }
    }
    central.OnTick(now);
  }
  // Read the high-water mark before the final tick: that tick runs past the
  // query's span, and retirement releases the accountant entry.
  r.state_peak = central.accountant().peak(w.central_plan.query_id);
  central.OnTick(kTicks * kTickMicros + kMicrosPerMinute);
  r.seconds =
      static_cast<double>(WorkerPool::ThreadCpuNs() - cpu0) / 1e9;
  r.events = w.total_events;
  r.events_per_sec = static_cast<double>(w.total_events) / r.seconds;
  if (const CentralQueryStats* stats =
          central.StatsFor(w.central_plan.query_id)) {
    r.spilled = stats->events_spilled;
    r.shed = stats->events_shed;
  }
  if (r.transcript.empty()) {
    std::abort();  // the bench must actually compute something
  }
  return r;
}

// Best of three passes of one pipeline; every pass must emit the same
// transcript.
RunResult BestOf3(const Workload& w, Mode mode, const char* name) {
  RunResult best = RunOne(w, mode);
  for (int rep = 1; rep < 3; ++rep) {
    RunResult again = RunOne(w, mode);
    if (again.transcript != best.transcript) {
      std::fprintf(stderr, "%s passes diverged: %zu vs %zu rows\n", name,
                   again.transcript.size(), best.transcript.size());
      std::exit(1);
    }
    if (again.seconds < best.seconds) {
      best = std::move(again);
    }
  }
  return best;
}

// The join case runs two representations: per-source kColumnar batches
// (the lazy-probe legacy) and the kColumnarJoin staged format. Both
// transcripts must be byte-identical.
struct JoinCase {
  RunResult col;
  RunResult join_col;
};

JoinCase RunJoinCase(const Workload& w) {
  JoinCase out;
  out.col = BestOf3(w, Mode::kColumnar, "join columnar");
  out.join_col = BestOf3(w, Mode::kColumnarJoin, "join join_columnar");
  if (out.col.transcript != out.join_col.transcript) {
    std::fprintf(stderr, "join pipelines diverged: %zu / %zu rows\n",
                 out.col.transcript.size(), out.join_col.transcript.size());
    std::exit(1);
  }
  return out;
}

// The dict case's denominator: the bytes the same stream costs when every
// shipped event travels as its own record — per (tick, host, source) batch,
// a 36-byte header, a u32 event count and one EncodeEvent record per
// selected event with its dropped fields null.
uint64_t RecordFormatBytes(const Workload& w) {
  uint64_t bytes = 0;
  for (const auto& per_host : w.stream) {
    for (const auto& per_source : per_host) {
      for (size_t s = 0; s < w.sources.size(); ++s) {
        const HostSourcePlan& sp = w.sources[s];
        bytes += 36 + 4;
        for (const Event& e : per_source[s]) {
          int64_t insts = 0;
          if (!sp.Selects(e, &insts)) {
            continue;
          }
          Event out(e.schema(), e.request_id(), e.timestamp());
          for (size_t f = 0; f < out.field_count(); ++f) {
            if (sp.keep_field[f]) {
              out.SetField(f, e.field(f));
            }
          }
          bytes += out.WireSize();
        }
      }
    }
  }
  return bytes;
}

// Memory-pressure case: the columnar pipeline over a high-cardinality
// grouped scan at state-budget tiers {unlimited, 1/2, 1/8 of the measured
// working set}. Spill keeps every tier's transcript byte-identical
// (asserted); the budgeted tiers pay serialize + replay, so only the
// unlimited tier — the production default, accountant fully inactive — is
// regression-gated by tools/bench_compare.py.
struct SpillCaseResult {
  size_t working_set = 0;
  std::vector<RunResult> tiers;
};

SpillCaseResult RunSpillCase(const Workload& w) {
  SpillCaseResult out;
  // Calibration pass (untimed for gating purposes): tracking on, no budget,
  // to learn the unbounded working set.
  CentralConfig tracked;
  tracked.track_state_bytes = true;
  const RunResult calibration = RunOne(w, Mode::kColumnar, tracked);
  out.working_set = calibration.state_peak;

  struct Tier {
    const char* name;
    size_t budget;
  };
  const Tier tiers[] = {{"unlimited", 0},
                        {"half", out.working_set / 2},
                        {"eighth", out.working_set / 8}};
  for (const Tier& tier : tiers) {
    CentralConfig config;
    config.query_state_budget_bytes = tier.budget;
    if (tier.budget > 0) {
      config.spill_dir = "/tmp/scrub_bench_spill";
    }
    RunResult best = RunOne(w, Mode::kColumnar, config);
    for (int rep = 1; rep < 3; ++rep) {
      RunResult again = RunOne(w, Mode::kColumnar, config);
      if (again.seconds < best.seconds) {
        best = std::move(again);
      }
    }
    if (best.transcript != calibration.transcript || best.shed != 0) {
      std::fprintf(stderr,
                   "spill tier '%s' diverged from the unbounded run "
                   "(%zu vs %zu rows, %llu shed)\n",
                   tier.name, best.transcript.size(),
                   calibration.transcript.size(),
                   static_cast<unsigned long long>(best.shed));
      std::exit(1);
    }
    best.pipeline = tier.name;
    best.budget = tier.budget;
    out.tiers.push_back(std::move(best));
  }
  return out;
}

// Metrics-overhead case: the identical columnar scan with the operator-
// metrics plane on (the production default) vs off. The plane is pure
// counters plus one thread-CPU read per chunk, so metrics-on must hold the
// absolute floor against metrics-off (tools/bench_compare.py gates the
// ratio at 0.95 by default) — the observability tax can never quietly grow.
struct MetricsCase {
  RunResult on;
  RunResult off;
};

MetricsCase RunMetricsCase(const Workload& w) {
  MetricsCase out;
  CentralConfig metrics_off;
  metrics_off.collect_op_metrics = false;
  out.on = RunOne(w, Mode::kColumnar);
  out.off = RunOne(w, Mode::kColumnar, metrics_off);
  if (out.on.transcript != out.off.transcript) {
    std::fprintf(stderr, "metrics on/off diverged: %zu vs %zu rows\n",
                 out.on.transcript.size(), out.off.transcript.size());
    std::exit(1);
  }
  for (int rep = 1; rep < 3; ++rep) {
    RunResult again = RunOne(w, Mode::kColumnar);
    if (again.seconds < out.on.seconds) {
      out.on = std::move(again);
    }
    again = RunOne(w, Mode::kColumnar, metrics_off);
    if (again.seconds < out.off.seconds) {
      out.off = std::move(again);
    }
  }
  out.on.pipeline = "metrics_on";
  out.off.pipeline = "metrics_off";
  return out;
}

std::string RunJson(const RunResult& r, const char* indent, bool last) {
  return StrFormat(
      "%s{\"pipeline\": \"%s\", \"events\": %llu, \"shipped\": %llu, "
      "\"payload_bytes\": %llu, \"seconds\": %.6f, "
      "\"events_per_sec\": %.0f}%s\n",
      indent, r.pipeline.c_str(), static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.shipped),
      static_cast<unsigned long long>(r.payload_bytes), r.seconds,
      r.events_per_sec, last ? "" : ",");
}

int Main(int argc, char** argv) {
  const size_t events_per_batch =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 1024;
  const Workload scan = ScanWorkload(events_per_batch);
  const Workload join = JoinWorkload(events_per_batch);
  const Workload dict = DictWorkload(events_per_batch);
  const FilterWorkload filter = MakeFilterWorkload(events_per_batch);
  const Workload spill = ScanWorkload(events_per_batch, /*cardinality=*/2048);

  const RunResult scan_run = BestOf3(scan, Mode::kColumnar, "scan");
  const JoinCase join_case = RunJoinCase(join);
  const RunResult dict_run = BestOf3(dict, Mode::kColumnar, "dict");
  const uint64_t dict_record_bytes = RecordFormatBytes(dict);
  const SpillCaseResult spill_case = RunSpillCase(spill);
  const MetricsCase metrics_case = RunMetricsCase(scan);

  // The dict case only means something if the dictionary actually fired on
  // the kept string column (field 2, "tag").
  if (dict_run.encodings.size() != 3 || dict_run.encodings[2] <= 0) {
    std::fprintf(stderr, "dict case: tag column was not dict-encoded\n");
    std::exit(1);
  }

  const FilterResult f_ir_row = BestFilter(filter, FilterMode::kIrRow);
  const FilterResult f_ir_col = BestFilter(filter, FilterMode::kIrColumnar);
  const FilterResult f_unfolded =
      BestFilter(filter, FilterMode::kUnfoldedRow);
  // Representation must not change semantics, and the filter must do real
  // work: every pipeline keeps exactly the rows a direct read of price and
  // tag keeps.
  for (const FilterResult* fr : {&f_ir_row, &f_ir_col, &f_unfolded}) {
    if (fr->matched != filter.expected_matches) {
      std::fprintf(stderr,
                   "filter pipeline %s matched %llu rows per pass, direct "
                   "field read says %llu\n",
                   fr->pipeline.c_str(),
                   static_cast<unsigned long long>(fr->matched),
                   static_cast<unsigned long long>(filter.expected_matches));
      std::exit(1);
    }
  }

  // The scan case keeps the top-level "runs" layout; the other cases nest
  // under their own keys.
  std::string out = "{\n";
  out += "  \"bench\": \"ingest\",\n";
  out += StrFormat("  \"events_per_batch\": %zu,\n", events_per_batch);
  out += StrFormat("  \"hosts\": %d,\n", kHosts);
  out += StrFormat("  \"ticks\": %d,\n", kTicks);
  out +=
      "  \"timing\": \"thread CPU clock, best of 3, decode+filter+fold "
      "end to end\",\n";
  out += "  \"runs\": [\n";
  out += RunJson(scan_run, "    ", /*last=*/true);
  out += "  ],\n";
  out += "  \"join\": {\n";
  out += "    \"query\": \"bid x impression equi-join on request id, "
         "grouped COUNT/SUM\",\n";
  out += "    \"runs\": [\n";
  out += RunJson(join_case.col, "      ", /*last=*/false);
  out += RunJson(join_case.join_col, "      ", /*last=*/true);
  out += "    ]\n";
  out += "  },\n";
  out += "  \"dict\": {\n";
  out += "    \"query\": \"grouped COUNT/SUM keyed by a 4-value string "
         "column: the kept tag ships as a dictionary + code bytes\",\n";
  out += "    \"runs\": [\n";
  out += RunJson(dict_run, "      ", /*last=*/true);
  out += "    ],\n";
  out += StrFormat("    \"dict_entries\": %d,\n", dict_run.encodings[2]);
  out += StrFormat("    \"record_format_bytes\": %llu,\n",
                   static_cast<unsigned long long>(dict_record_bytes));
  out += StrFormat("    \"wire_bytes_reduction\": %.3f\n",
                   static_cast<double>(dict_record_bytes) /
                       static_cast<double>(dict_run.payload_bytes));
  out += "  },\n";
  out += "  \"spill\": {\n";
  out += "    \"query\": \"grouped scan over 2048 keys/window at state "
         "budgets {unlimited, 1/2, 1/8 working set}; spill keeps tiers "
         "byte-identical, only the unlimited tier is gated\",\n";
  out += StrFormat("    \"working_set_bytes\": %zu,\n",
                   spill_case.working_set);
  out += "    \"runs\": [\n";
  for (size_t i = 0; i < spill_case.tiers.size(); ++i) {
    const RunResult& tier = spill_case.tiers[i];
    out += StrFormat(
        "      {\"pipeline\": \"%s\", \"budget_bytes\": %zu, "
        "\"events\": %llu, \"spilled\": %llu, \"seconds\": %.6f, "
        "\"events_per_sec\": %.0f}%s\n",
        tier.pipeline.c_str(), tier.budget,
        static_cast<unsigned long long>(tier.events),
        static_cast<unsigned long long>(tier.spilled), tier.seconds,
        tier.events_per_sec,
        i + 1 == spill_case.tiers.size() ? "" : ",");
  }
  out += "    ]\n";
  out += "  },\n";
  out += "  \"filter\": {\n";
  out += "    \"query\": \"4 conjuncts with foldable arithmetic and "
         "implied bounds; the planner runs 2 folded programs, "
         "unfolded_row all 4 as written\",\n";
  out += "    \"runs\": [\n";
  const FilterResult* filter_results[] = {&f_ir_row, &f_ir_col, &f_unfolded};
  for (const FilterResult* fr : filter_results) {
    out += StrFormat(
        "      {\"pipeline\": \"%s\", \"events\": %llu, "
        "\"matched\": %llu, \"seconds\": %.6f, "
        "\"events_per_sec\": %.0f}%s\n",
        fr->pipeline.c_str(), static_cast<unsigned long long>(fr->events),
        static_cast<unsigned long long>(fr->matched), fr->seconds,
        fr->events_per_sec, fr == &f_unfolded ? "" : ",");
  }
  out += "    ],\n";
  out += StrFormat("    \"speedup_vs_unfolded\": %.3f\n",
                   f_ir_row.events_per_sec / f_unfolded.events_per_sec);
  out += "  },\n";
  out += "  \"metrics\": {\n";
  out += "    \"query\": \"the scan workload with the operator-metrics "
         "plane on vs off; the ratio is the observability tax and is "
         "floor-gated\",\n";
  out += "    \"runs\": [\n";
  for (const RunResult* r : {&metrics_case.on, &metrics_case.off}) {
    out += StrFormat(
        "      {\"pipeline\": \"%s\", \"events\": %llu, "
        "\"seconds\": %.6f, \"events_per_sec\": %.0f}%s\n",
        r->pipeline.c_str(), static_cast<unsigned long long>(r->events),
        r->seconds, r->events_per_sec,
        r == &metrics_case.off ? "" : ",");
  }
  out += "    ],\n";
  out += StrFormat("    \"events_per_sec_ratio\": %.3f\n",
                   metrics_case.on.events_per_sec /
                       metrics_case.off.events_per_sec);
  out += "  }\n";
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace scrub

int main(int argc, char** argv) { return scrub::Main(argc, argv); }
