// Differential testing: the full Scrub pipeline (host instrumentation →
// agent selection/projection/batching → transport → central join/group/
// aggregate/window) against the naive single-threaded oracle in
// reference_executor.h, over randomized bidding workloads.
//
// Each combo runs a real ScrubSystem with an event tap recording the ground
// truth exactly as hosts log it, then replays that stream through the
// oracle and compares row sets:
//
//  * exact columns (group keys, COUNT, MIN/MAX) must match byte-for-byte;
//  * SUM/AVG must match to float tolerance (accumulation order differs);
//  * COUNT_DISTINCT must land within the HLL error envelope
//    (precision 14: sigma = 1.04/sqrt(2^14) ~ 0.8% relative; we allow 5
//    sigma, floored at +/-2 for tiny cardinalities where the sketch is in
//    its exact linear-counting regime);
//  * TOPK entries must carry exact counts (SpaceSaving is exact while
//    capacity >= distinct keys, which these workloads guarantee) and form
//    a valid top-k of the true ranking, tolerating tie reordering.
//
// The load starts 300 ms into the simulation so query dissemination is
// complete before the first ground-truth event is logged: the tap and the
// agents then observe exactly the same stream.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/scrub/scrub_system.h"
#include "tests/reference_executor.h"

namespace scrub {
namespace {

struct Combo {
  const char* query;
  uint64_t seed;
  double rps = 250.0;
  TimeMicros horizon = 4 * kMicrosPerSecond;
};

std::vector<std::pair<std::string, double>> ParseTopK(const Value& v) {
  std::vector<std::pair<std::string, double>> out;
  EXPECT_TRUE(v.is_list()) << v.ToString();
  if (!v.is_list()) {
    return out;
  }
  for (const Value& entry : v.AsList()) {
    const std::string s = entry.AsString();
    const size_t colon = s.rfind(':');
    EXPECT_NE(colon, std::string::npos) << s;
    out.emplace_back(s.substr(0, colon), std::stod(s.substr(colon + 1)));
  }
  return out;
}

// Scrub's TOPK list vs the oracle's full exact ranking.
void CheckTopK(const Value& scrub_v, const Value& oracle_v, int64_t k,
               const std::string& where) {
  const auto got = ParseTopK(scrub_v);
  const auto truth = ParseTopK(oracle_v);
  const size_t expect_size =
      std::min(static_cast<size_t>(k), truth.size());
  ASSERT_EQ(got.size(), expect_size) << where;
  std::map<std::string, double> truth_counts;
  for (const auto& [key, count] : truth) {
    truth_counts[key] = count;
  }
  double min_returned = 0.0;
  std::map<std::string, bool> returned;
  for (const auto& [key, count] : got) {
    ASSERT_TRUE(truth_counts.count(key) > 0) << where << " key " << key;
    // Counts are exact: capacity >= distinct keys in these workloads.
    EXPECT_DOUBLE_EQ(count, truth_counts[key]) << where << " key " << key;
    returned[key] = true;
    min_returned = returned.size() == 1 ? count
                                        : std::min(min_returned, count);
  }
  // Valid top-k under ties: nothing excluded may outrank anything returned.
  for (const auto& [key, count] : truth) {
    if (returned.count(key) == 0) {
      EXPECT_LE(count, min_returned) << where << " excluded key " << key;
    }
  }
}

// One full ScrubSystem run.
struct PipelineRun {
  std::vector<Event> tapped;      // ground truth at the log() call
  std::vector<ResultRow> rows;    // emission order
  std::vector<std::string> transcript;  // full-precision rendering of rows
  QueryId query_id = 0;
  SchemaRegistry* schemas = nullptr;
};

// Full-precision rendering: any cross-topology or cross-worker divergence (a
// float summed in a different order, a reordered emission) must fail loudly.
std::string RenderRow(const ResultRow& row) {
  return StrFormat("w%lld %s c=%.17g",
                   static_cast<long long>(row.window_start),
                   row.ToString().c_str(), row.completeness);
}

// Builds and drives one system; returned so the caller can keep its schema
// registry alive for the oracle replay. `regions` > 0 inserts the regional
// combiner tier between the agents and central.
std::unique_ptr<ScrubSystem> RunPipeline(const Combo& combo, PipelineRun* out,
                                         size_t regions = 0,
                                         size_t workers = 0) {
  SystemConfig config;
  config.seed = combo.seed;
  config.platform.seed = combo.seed;
  config.platform.bidservers_per_dc = 3;
  config.platform.adservers_per_dc = 2;
  config.platform.presentation_per_dc = 1;
  config.platform.num_campaigns = 3;
  config.platform.line_items_per_campaign = 3;
  config.combiner_regions = regions;
  config.workers = workers;
  // Flat and hierarchical runs move different payloads (agent batches
  // straight to central vs combiner partials); zero out the per-byte
  // transport latency so delivery timing — and therefore the transcripts —
  // can be compared byte-for-byte across topologies.
  config.transport.micros_per_byte = 0;
  auto system = std::make_unique<ScrubSystem>(config);

  // Ground truth: every event every live host logs, before any Scrub-side
  // selection, projection or batching.
  system->SetEventTap([out](HostId, const Event& event) {
    out->tapped.push_back(event);
  });

  auto submitted = system->Submit(combo.query, [out](const ResultRow& row) {
    out->rows.push_back(row);
    out->transcript.push_back(RenderRow(row));
  });
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  if (!submitted.ok()) {
    return system;
  }
  out->query_id = submitted->id;

  // Load begins only after the install (submitted at t=0) has reached every
  // agent, so tap and agents see the identical stream.
  PoissonLoadConfig load;
  load.requests_per_second = combo.rps;
  load.start = 300 * kMicrosPerMilli;
  load.duration = combo.horizon - kMicrosPerSecond - load.start;
  system->workload().SchedulePoissonLoad(load);

  system->RunUntil(combo.horizon);
  system->Drain();

  // The oracle comparison below assumes nothing was dropped for lateness.
  // Combiner-handled queries keep their stats at the partial coordinator.
  const CentralQueryStats* stats = system->central().StatsFor(submitted->id);
  if (stats == nullptr && system->hierarchical()) {
    stats = system->coordinator()->StatsFor(submitted->id);
  }
  EXPECT_NE(stats, nullptr);
  if (stats != nullptr) {
    EXPECT_EQ(stats->events_late, 0u);
  }
  return system;
}

// Replays `run`'s tapped ground truth through the naive oracle and checks
// the pipeline's rows column-by-column under the per-kind checks.
void CompareToOracle(const Combo& combo, const PipelineRun& run,
                     const SchemaRegistry& schemas) {
  const std::vector<ResultRow>& scrub_rows = run.rows;

  // Oracle: re-derive the plan the server built (submit time was 0) and
  // replay the tap through the naive executor.
  AnalyzerOptions options;
  Result<AnalyzedQuery> analyzed =
      ParseAndAnalyze(combo.query, schemas, options);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  Result<QueryPlan> plan = PlanQuery(*analyzed, run.query_id, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ReferenceExecutor oracle(*analyzed, plan->central);
  for (const Event& event : run.tapped) {
    oracle.Observe(event);
  }
  const std::vector<ResultRow> oracle_rows = oracle.Execute();
  ASSERT_FALSE(scrub_rows.empty());

  // Raw mode: row multisets must match exactly.
  if (!plan->central.aggregate_mode) {
    auto rendered = [](const std::vector<ResultRow>& rows) {
      std::vector<std::string> out;
      out.reserve(rows.size());
      for (const ResultRow& r : rows) {
        out.push_back(r.ToString());
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(rendered(scrub_rows), rendered(oracle_rows));
    return;
  }

  // Aggregate mode: match rows by (window, group-key columns), then compare
  // column by column under the oracle's per-column check.
  const std::vector<ColumnCheck> checks = oracle.ColumnChecks();
  const std::vector<OutputColumn>& outputs = plan->central.outputs;
  auto row_key = [&](const ResultRow& row) {
    std::string key = std::to_string(row.window_start);
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (outputs[i].expr.kind == OutputKind::kGroupKey) {
        key += "\x1f" + row.values[i].ToString();
      }
    }
    return key;
  };
  std::map<std::string, const ResultRow*> oracle_by_key;
  for (const ResultRow& row : oracle_rows) {
    oracle_by_key[row_key(row)] = &row;
  }
  ASSERT_EQ(scrub_rows.size(), oracle_rows.size());
  for (const ResultRow& row : scrub_rows) {
    const std::string key = row_key(row);
    ASSERT_TRUE(oracle_by_key.count(key) > 0) << "unexpected row " << key;
    const ResultRow& truth = *oracle_by_key[key];
    EXPECT_DOUBLE_EQ(row.completeness, 1.0) << key;
    ASSERT_EQ(row.values.size(), truth.values.size());
    for (size_t i = 0; i < row.values.size(); ++i) {
      const std::string where =
          key + " column " + std::to_string(i) + " (" + outputs[i].name + ")";
      switch (checks[i]) {
        case ColumnCheck::kExact:
          EXPECT_EQ(row.values[i].ToString(), truth.values[i].ToString())
              << where;
          break;
        case ColumnCheck::kApproxDouble: {
          if (truth.values[i].is_null()) {
            EXPECT_TRUE(row.values[i].is_null()) << where;
            break;
          }
          const double got = row.values[i].AsNumber();
          const double want = truth.values[i].AsNumber();
          EXPECT_NEAR(got, want, 1e-6 * (1.0 + std::fabs(want))) << where;
          break;
        }
        case ColumnCheck::kDistinctEstimate: {
          const double exact =
              static_cast<double>(truth.values[i].AsInt());
          const double est = static_cast<double>(row.values[i].AsInt());
          // 5 sigma of the precision-14 HLL, floored for tiny sets.
          const double tol =
              std::max(2.0, 5.0 * 1.04 / std::sqrt(16384.0) * exact);
          EXPECT_NEAR(est, exact, tol) << where;
          break;
        }
        case ColumnCheck::kTopK: {
          int64_t k = 0;
          for (const AggregateSpec& spec : plan->central.aggregates) {
            if (spec.func == AggregateFunc::kTopK) {
              k = spec.topk_k;
            }
          }
          CheckTopK(row.values[i], truth.values[i], k, where);
          break;
        }
      }
    }
  }
}

void RunCombo(const Combo& combo) {
  SCOPED_TRACE(combo.query);

  // The flat run is checked against the oracle and is the reference
  // transcript for every other topology.
  PipelineRun flat_run;
  std::unique_ptr<ScrubSystem> flat_system;
  {
    SCOPED_TRACE("flat");
    flat_system = RunPipeline(combo, &flat_run);
  }
  CompareToOracle(combo, flat_run, flat_system->schemas());

  // Whether flat-vs-hierarchical transcripts can be byte-compared: COUNT /
  // MIN / MAX finals are order-independent bit-for-bit, while SUM / AVG
  // accumulate floats in a different order across the tier and sketches are
  // envelope-checked — those still go through the oracle below.
  AnalyzerOptions options;
  Result<AnalyzedQuery> analyzed =
      ParseAndAnalyze(combo.query, flat_system->schemas(), options);
  ASSERT_TRUE(analyzed.ok());
  Result<QueryPlan> plan = PlanQuery(*analyzed, flat_run.query_id, 0);
  ASSERT_TRUE(plan.ok());
  bool exact_transcript = true;
  for (const AggregateSpec& spec : plan->central.aggregates) {
    if (spec.func != AggregateFunc::kCount &&
        spec.func != AggregateFunc::kMin &&
        spec.func != AggregateFunc::kMax) {
      exact_transcript = false;
    }
  }

  // The same combo through the regional combiner tier, at several region
  // counts (4 regions over 2 DCs exercises multiple combiners per DC).
  // Every topology must satisfy the oracle; exact-aggregate topologies must
  // reproduce the flat transcript byte-for-byte.
  for (const size_t regions : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(StrFormat("hierarchical, %zu regions", regions));
    PipelineRun hier_run;
    std::unique_ptr<ScrubSystem> hier_system =
        RunPipeline(combo, &hier_run, regions);
    ASSERT_EQ(hier_run.tapped.size(), flat_run.tapped.size());
    CompareToOracle(combo, hier_run, hier_system->schemas());
    if (exact_transcript) {
      EXPECT_EQ(hier_run.transcript, flat_run.transcript);
    }
  }
}

// ~10 query x workload x seed combos across the feature surface.

TEST(DifferentialTest, UngroupedCount) {
  RunCombo({"SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 3 s;", 101});
}

TEST(DifferentialTest, GroupedMultiAggregate) {
  RunCombo(
      {"SELECT bid.campaign_id, COUNT(*), SUM(bid.bid_price), "
       "AVG(bid.bid_price), MIN(bid.bid_price), MAX(bid.bid_price) "
       "FROM bid GROUP BY bid.campaign_id WINDOW 1 s DURATION 3 s;",
       202});
}

TEST(DifferentialTest, WhereFilterOnDouble) {
  RunCombo(
      {"SELECT COUNT(*), SUM(bid.bid_price) FROM bid "
       "WHERE bid.bid_price > 1.0 WINDOW 1 s DURATION 3 s;",
       303});
}

TEST(DifferentialTest, RawProjection) {
  RunCombo(
      {"SELECT bid.campaign_id, bid.bid_price FROM bid "
       "WHERE bid.bid_price > 2.0 WINDOW 1 s DURATION 3 s;",
       404, /*rps=*/120.0});
}

TEST(DifferentialTest, JoinGroupedCount) {
  RunCombo(
      {"SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
       "GROUP BY impression.line_item_id WINDOW 1 s DURATION 3 s;",
       505});
}

TEST(DifferentialTest, JoinWithCrossSourceAggregate) {
  RunCombo(
      {"SELECT impression.campaign_id, SUM(bid.bid_price), "
       "AVG(impression.cost) FROM bid, impression "
       "GROUP BY impression.campaign_id WINDOW 1 s DURATION 3 s;",
       606});
}

TEST(DifferentialTest, JoinStagingAcrossWorkerCounts) {
  // The staged join (per-source kColumnarJoin sections + staging
  // interleave) against the oracle, and the inline run as the reference for
  // every worker count: workers > 0 re-buckets the join slice per request
  // id across shards, and each transcript must still match byte for byte.
  const Combo combo = {
      "SELECT impression.line_item_id, COUNT(*), SUM(bid.bid_price) "
      "FROM bid, impression GROUP BY impression.line_item_id "
      "WINDOW 1 s DURATION 3 s;",
      707};
  PipelineRun reference;
  std::unique_ptr<ScrubSystem> reference_system;
  {
    SCOPED_TRACE("workers=0");
    reference_system = RunPipeline(combo, &reference);
  }
  CompareToOracle(combo, reference, reference_system->schemas());
  for (const size_t workers : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE(StrFormat("%zu workers", workers));
    PipelineRun run;
    RunPipeline(combo, &run, /*regions=*/0, workers);
    ASSERT_EQ(run.tapped.size(), reference.tapped.size());
    EXPECT_EQ(run.transcript, reference.transcript);
  }
}

TEST(DifferentialTest, CountDistinctUsers) {
  RunCombo(
      {"SELECT COUNT_DISTINCT(bid.user_id) FROM bid "
       "WINDOW 1 s DURATION 3 s;",
       707, /*rps=*/400.0});
}

TEST(DifferentialTest, TopKLineItems) {
  RunCombo(
      {"SELECT TOPK(3, bid.line_item_id) FROM bid WINDOW 1 s DURATION 3 s;",
       808});
}

TEST(DifferentialTest, SlidingWindowCount) {
  RunCombo({"SELECT COUNT(*) FROM bid WINDOW 2 s SLIDE 1 s DURATION 4 s;",
            909, /*rps=*/250.0, /*horizon=*/5 * kMicrosPerSecond});
}

TEST(DifferentialTest, OutputExpressionOverAggregates) {
  RunCombo(
      {"SELECT 1000 * AVG(bid.bid_price) + COUNT(*) FROM bid "
       "WINDOW 1 s DURATION 3 s;",
       1010});
}

TEST(DifferentialTest, GroupedSeedVariant) {
  RunCombo(
      {"SELECT bid.campaign_id, COUNT(*), SUM(bid.bid_price), "
       "AVG(bid.bid_price), MIN(bid.bid_price), MAX(bid.bid_price) "
       "FROM bid GROUP BY bid.campaign_id WINDOW 1 s DURATION 3 s;",
       1111, /*rps=*/500.0});
}

// ---------------------------------------------------------------------------
// Sampled queries on shards: ShardedCentral's coordinator-level Eq. 1-3
// estimates against the unsampled oracle over the full pre-sampling stream.
//
// The fleet here is simulated directly (no ScrubSystem): H hosts each log a
// full event stream; a per-host coin decides which events ship, and each
// batch carries the per-window {seen, sampled} counters an agent would
// attach. The oracle replays the COMPLETE stream through the unsampled twin
// of the query, so the comparison is estimate-vs-ground-truth, not
// estimate-vs-itself. COUNT/SUM must land inside their reported 95%
// envelope (a small miss quota covers the 5% the interval concedes by
// construction); AVG ships unscaled and must sit near the true mean.
// ---------------------------------------------------------------------------

class ShardedSampledDifferentialTest : public ::testing::Test {
 protected:
  ShardedSampledDifferentialTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
  }

  CentralPlan PlanFor(std::string_view text, QueryId id, uint64_t targeted,
                      uint64_t sampled) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = targeted;
    central.hosts_sampled = sampled;
    return central;
  }

  // One full-stream per host: `per_host` bids spread over [100, 8 s).
  std::vector<std::vector<Event>> FleetStreams(size_t hosts, int per_host,
                                               uint64_t seed, int64_t users) {
    std::vector<std::vector<Event>> streams(hosts);
    for (size_t h = 0; h < hosts; ++h) {
      Rng rng(seed + h * 1001);
      for (int i = 0; i < per_host; ++i) {
        Event e(bid_schema_, rng.NextUint64(),
                100 + static_cast<TimeMicros>(rng.NextBelow(8'000'000)));
        e.SetField(0, Value(static_cast<int64_t>(
                          rng.NextBelow(static_cast<uint64_t>(users)))));
        e.SetField(1, Value(rng.NextDouble() * 5));
        streams[h].push_back(std::move(e));
      }
    }
    return streams;
  }

  // Ships the per-host sampled slice (shipped[h] selects events) plus the
  // agent-style per-window counters, then closes every window.
  std::vector<ResultRow> RunSampledSharded(
      const CentralPlan& plan, const std::vector<std::vector<Event>>& streams,
      const std::vector<std::vector<bool>>& shipped, size_t shards,
      size_t workers, std::vector<std::string>* transcript = nullptr) {
    ShardedCentral central(&registry_, shards, CentralConfig{}, workers);
    std::vector<ResultRow> rows;
    EXPECT_TRUE(central
                    .InstallQuery(plan,
                                  [&](const ResultRow& row) {
                                    rows.push_back(row);
                                    if (transcript != nullptr) {
                                      transcript->push_back(RenderRow(row));
                                    }
                                  })
                    .ok());
    std::vector<EventBatch> batches;
    for (size_t h = 0; h < streams.size(); ++h) {
      if (shipped[h].empty()) {
        continue;  // host not selected by the host-sampling stage
      }
      std::vector<Event> kept;
      std::map<TimeMicros, WindowCounter> counters;
      for (size_t i = 0; i < streams[h].size(); ++i) {
        const Event& e = streams[h][i];
        const TimeMicros w =
            plan.start_time +
            ((e.timestamp() - plan.start_time) / plan.window_micros) *
                plan.window_micros;
        WindowCounter& c = counters[w];
        c.window_start = w;
        ++c.seen;
        if (shipped[h][i]) {
          ++c.sampled;
          kept.push_back(e);
        }
      }
      EventBatch batch;
      batch.query_id = plan.query_id;
      batch.host = static_cast<HostId>(h);
      batch.event_count = kept.size();
      batch.format = EncodeEvents(kept, &batch.payload);
      for (const auto& [w, c] : counters) {
        batch.counters.push_back(c);
      }
      batches.push_back(std::move(batch));
    }
    EXPECT_TRUE(central.IngestBatches(batches, 0).ok());
    central.OnTick(60 * kMicrosPerSecond);
    return rows;
  }

  // Oracle truth rows for the UNSAMPLED twin of the query over every event
  // every host logged, keyed like RunCombo: window |group-key columns.
  std::map<std::string, ResultRow> OracleRows(
      std::string_view unsampled_text,
      const std::vector<std::vector<Event>>& streams) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq =
        ParseAndAnalyze(unsampled_text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, /*query_id=*/999, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    oracle_outputs_ = plan->central.outputs;
    ReferenceExecutor oracle(*aq, plan->central);
    for (const std::vector<Event>& stream : streams) {
      for (const Event& e : stream) {
        oracle.Observe(e);
      }
    }
    std::map<std::string, ResultRow> by_key;
    for (const ResultRow& row : oracle.Execute()) {
      by_key[RowKey(row)] = row;
    }
    return by_key;
  }

  std::string RowKey(const ResultRow& row) const {
    std::string key = std::to_string(row.window_start);
    for (size_t i = 0; i < oracle_outputs_.size(); ++i) {
      if (oracle_outputs_[i].expr.kind == OutputKind::kGroupKey) {
        key += "\x1f" + row.values[i].ToString();
      }
    }
    return key;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  std::vector<OutputColumn> oracle_outputs_;
};

TEST_F(ShardedSampledDifferentialTest, EventSampledGroupedCountSumAvg) {
  const char* sampled_text =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
      "FROM bid GROUP BY bid.user_id WINDOW 2 s DURATION 10 s "
      "SAMPLE EVENTS 50%;";
  const char* unsampled_text =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
      "FROM bid GROUP BY bid.user_id WINDOW 2 s DURATION 10 s;";
  const size_t kHosts = 8;
  const auto streams = FleetStreams(kHosts, 400, 424242, 5);

  // The event-sampling coin, flipped per event exactly like an agent would.
  std::vector<std::vector<bool>> shipped(kHosts);
  for (size_t h = 0; h < kHosts; ++h) {
    Rng coin(7000 + h);
    shipped[h].resize(streams[h].size());
    for (size_t i = 0; i < streams[h].size(); ++i) {
      shipped[h][i] = coin.NextDouble() < 0.5;
    }
  }

  const CentralPlan plan =
      PlanFor(sampled_text, 42, /*targeted=*/kHosts, /*sampled=*/kHosts);
  std::vector<std::string> transcript0;
  const std::vector<ResultRow> rows =
      RunSampledSharded(plan, streams, shipped, /*shards=*/3,
                        /*workers=*/0, &transcript0);
  const std::map<std::string, ResultRow> truth =
      OracleRows(unsampled_text, streams);
  ASSERT_FALSE(rows.empty());

  // Worker count must stay a pure performance knob for sampled plans too.
  std::vector<std::string> transcript2;
  RunSampledSharded(plan, streams, shipped, /*shards=*/3, /*workers=*/2,
                    &transcript2);
  EXPECT_EQ(transcript2, transcript0);

  // Columns: 0 = user_id, 1 = COUNT (bounded), 2 = SUM (bounded),
  // 3 = AVG (unscaled, no bound).
  size_t bounded_checks = 0;
  size_t bounded_hits = 0;
  double est_total_count = 0.0;
  double true_total_count = 0.0;
  for (const ResultRow& row : rows) {
    const std::string key = RowKey(row);
    ASSERT_TRUE(truth.count(key) > 0) << "group not in oracle: " << key;
    const ResultRow& t = truth.at(key);
    for (const size_t col : {size_t{1}, size_t{2}}) {
      const double got = row.values[col].AsNumber();
      const double want = t.values[col].AsNumber();
      EXPECT_GT(row.error_bounds[col], 0.0) << key;
      EXPECT_TRUE(std::isfinite(row.error_bounds[col])) << key;
      ++bounded_checks;
      if (std::fabs(got - want) <= row.error_bounds[col]) {
        ++bounded_hits;
      }
    }
    est_total_count += row.values[1].AsNumber();
    true_total_count += t.values[1].AsNumber();
    // AVG: unscaled sample mean of the shipped events — near the true mean,
    // no error bound.
    EXPECT_DOUBLE_EQ(row.error_bounds[3], 0.0) << key;
    if (!t.values[3].is_null() && !row.values[3].is_null()) {
      const double want_avg = t.values[3].AsNumber();
      EXPECT_NEAR(row.values[3].AsNumber(), want_avg,
                  0.30 * (1.0 + std::fabs(want_avg)))
          << key;
    }
  }
  // 95% intervals concede ~5% misses; demand at least 85% coverage.
  EXPECT_GE(bounded_hits, (bounded_checks * 85) / 100)
      << bounded_hits << "/" << bounded_checks << " inside the bound";
  // The fleet-wide COUNT estimate must sit close to the truth.
  EXPECT_NEAR(est_total_count, true_total_count, 0.10 * true_total_count);
}

TEST_F(ShardedSampledDifferentialTest, HostSampledUngroupedCountSum) {
  const char* sampled_text =
      "SELECT COUNT(*), SUM(bid.price) FROM bid "
      "WINDOW 2 s DURATION 10 s SAMPLE HOSTS 50%;";
  const char* unsampled_text =
      "SELECT COUNT(*), SUM(bid.price) FROM bid "
      "WINDOW 2 s DURATION 10 s;";
  const size_t kHosts = 8;
  const auto streams = FleetStreams(kHosts, 300, 99, 4);

  // Host sampling: the even hosts ship EVERY event; the odd hosts ship
  // nothing at all (not even counters) — the coordinator must scale by
  // hosts_targeted / hosts_sampled and bound from host-stage variance.
  std::vector<std::vector<bool>> shipped(kHosts);
  for (size_t h = 0; h < kHosts; h += 2) {
    shipped[h].assign(streams[h].size(), true);
  }

  const CentralPlan plan =
      PlanFor(sampled_text, 43, /*targeted=*/kHosts, /*sampled=*/kHosts / 2);
  const std::vector<ResultRow> rows = RunSampledSharded(
      plan, streams, shipped, /*shards=*/2, /*workers=*/0);
  const std::map<std::string, ResultRow> truth =
      OracleRows(unsampled_text, streams);
  ASSERT_FALSE(rows.empty());

  size_t misses = 0;
  for (const ResultRow& row : rows) {
    const std::string key = RowKey(row);
    ASSERT_TRUE(truth.count(key) > 0) << key;
    const ResultRow& t = truth.at(key);
    for (const size_t col : {size_t{0}, size_t{1}}) {
      EXPECT_GT(row.error_bounds[col], 0.0) << key;
      if (std::fabs(row.values[col].AsNumber() - t.values[col].AsNumber()) >
          row.error_bounds[col]) {
        ++misses;
      }
    }
  }
  // 5 windows x 2 bounded columns at 95% confidence: allow one miss.
  EXPECT_LE(misses, 1u);
}

}  // namespace
}  // namespace scrub
