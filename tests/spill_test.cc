// Chaos stress suite for graceful degradation under memory pressure
// (DESIGN.md §13): budgeted window state, lossless defer-and-replay spill,
// and honest shed accounting.
//
// The contract under test, from strongest to weakest rung of the ladder:
//
//  1. Spill is LOSSLESS: with a spill directory configured, a state budget
//     of half or an eighth of the unbounded run's working set produces a
//     byte-identical result transcript — same rows, same order, same float
//     bits — because deferred events replay through the ordinary fold path
//     in arrival order at window close.
//  2. Shed is HONEST: when spill is unavailable (no directory), exhausted
//     (byte cap), or failing (injected I/O faults), events are counted shed
//     and every affected window's rows carry fidelity < 1 — never a crash,
//     never a silently wrong answer presented as complete.
//  3. Degradation is DETERMINISTIC: transcripts stay byte-identical across
//     worker counts with spill engaged, because budget charges use logical
//     event sizes, not container capacities.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/central.h"
#include "src/central/executor.h"
#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/common/spill.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

// Full-precision rendering: any divergence in values, order, completeness
// or fidelity fails loudly.
std::string RenderRow(const ResultRow& row) {
  return StrFormat("q%llu %s c=%.17g f=%.17g",
                   static_cast<unsigned long long>(row.query_id),
                   row.ToString().c_str(), row.completeness, row.fidelity);
}

// A per-test-case scratch directory under the gtest temp root; SpillManager
// mkdir -p's it on Configure.
std::string SpillDir(const std::string& label) {
  return ::testing::TempDir() + "scrub_spill_" + label;
}

// ---------------------------------------------------------------------------
// ScrubCentral directly: high-cardinality GROUP BY plus an equi-join, the
// two state shapes the accountant charges.
// ---------------------------------------------------------------------------

class SpillCentralTest : public ::testing::Test {
 protected:
  SpillCentralTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    imp_schema_ = *EventSchema::Builder("impression")
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
    EXPECT_TRUE(registry_.Register(imp_schema_).ok());
  }

  CentralPlan PlanFor(std::string_view text, QueryId id) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = 1;
    central.hosts_sampled = 1;
    return central;
  }

  struct RunOutcome {
    std::vector<std::string> transcript;
    size_t group_peak = 0;       // accountant peak of the grouped query
    size_t join_peak = 0;        // accountant peak of the join query
    CentralQueryStats group_stats;
    CentralQueryStats join_stats;
    SpillStats spill;
  };

  // One deterministic multi-host, multi-tick workload: ~1500 distinct group
  // keys per window plus matched join pairs, interleaved with ticks so
  // window closes race ingestion.
  RunOutcome Run(CentralConfig config) {
    config.track_state_bytes = true;  // always measure, optionally budget
    ScrubCentral central(&registry_, config);
    const CentralPlan grouped = PlanFor(
        "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
        "FROM bid GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
        1);
    const CentralPlan joined = PlanFor(
        "SELECT COUNT(*), SUM(impression.cost) FROM bid, impression "
        "WINDOW 1 s DURATION 10 s;",
        2);
    RunOutcome out;
    auto sink = [&out](const ResultRow& row) {
      out.transcript.push_back(RenderRow(row));
    };
    EXPECT_TRUE(central.InstallQuery(grouped, sink).ok());
    EXPECT_TRUE(central.InstallQuery(joined, sink).ok());

    Rng rng(42);
    uint64_t seq = 1;
    RequestId rid = 1;
    for (int tick = 0; tick < 8; ++tick) {
      const TimeMicros now = (tick + 1) * 500 * kMicrosPerMilli;
      for (HostId host = 0; host < 4; ++host) {
        std::vector<Event> group_events;
        std::vector<Event> join_events;
        for (int i = 0; i < 60; ++i) {
          const TimeMicros ts = tick * 500 * kMicrosPerMilli +
                                static_cast<TimeMicros>(rng.NextBelow(500'000));
          Event e(bid_schema_, rng.NextUint64(), ts);
          e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(1500))));
          e.SetField(1, Value(rng.NextDouble() * 5));
          group_events.push_back(std::move(e));
          if (i % 3 == 0) {  // matched pair on a fresh request id
            Event b(bid_schema_, rid, ts);
            b.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(1500))));
            b.SetField(1, Value(rng.NextDouble() * 5));
            join_events.push_back(std::move(b));
            Event m(imp_schema_, rid, ts);
            m.SetField(0, Value(rng.NextDouble() * 0.01));
            join_events.push_back(std::move(m));
            ++rid;
          }
        }
        for (auto* events : {&group_events, &join_events}) {
          EventBatch batch;
          batch.query_id =
              events == &group_events ? grouped.query_id : joined.query_id;
          batch.host = host;
          batch.seq = seq++;
          batch.event_count = events->size();
          std::string encoded;
          batch.format = EncodeEvents(*events, &encoded);
          batch.payload = BatchPayload(std::move(encoded));
          EXPECT_TRUE(central.IngestBatch(batch, now).ok());
        }
      }
      central.OnTick(now);
      // Peaks persist in the accountant, but sample mid-run anyway so the
      // numbers reflect live-window state, not only the final close.
      out.group_peak =
          std::max(out.group_peak, central.accountant().peak(grouped.query_id));
      out.join_peak =
          std::max(out.join_peak, central.accountant().peak(joined.query_id));
    }
    central.OnTick(60 * kMicrosPerSecond);
    out.group_peak =
        std::max(out.group_peak, central.accountant().peak(grouped.query_id));
    out.join_peak =
        std::max(out.join_peak, central.accountant().peak(joined.query_id));
    const CentralQueryStats* gs = central.StatsFor(grouped.query_id);
    const CentralQueryStats* js = central.StatsFor(joined.query_id);
    EXPECT_NE(gs, nullptr);
    EXPECT_NE(js, nullptr);
    if (gs != nullptr) {
      out.group_stats = *gs;
    }
    if (js != nullptr) {
      out.join_stats = *js;
    }
    out.spill = central.spill_stats();
    EXPECT_FALSE(out.transcript.empty());
    return out;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr imp_schema_;
};

TEST_F(SpillCentralTest, SpillIsByteIdenticalAtHalfAndEighthBudget) {
  const RunOutcome unbounded = Run(CentralConfig{});
  ASSERT_GT(unbounded.group_peak, 0u);
  ASSERT_GT(unbounded.join_peak, 0u);
  EXPECT_EQ(unbounded.group_stats.events_spilled, 0u);
  EXPECT_EQ(unbounded.group_stats.events_shed, 0u);
  EXPECT_DOUBLE_EQ(unbounded.group_stats.fidelity_min, 1.0);

  const size_t working_set =
      std::max(unbounded.group_peak, unbounded.join_peak);
  for (const size_t divisor : {size_t{2}, size_t{8}}) {
    CentralConfig config;
    config.query_state_budget_bytes = working_set / divisor;
    config.spill_dir = SpillDir(StrFormat("identity_%zu", divisor));
    config.spill_instance = StrFormat("central_d%zu", divisor);
    const RunOutcome budgeted = Run(config);
    EXPECT_EQ(budgeted.transcript, unbounded.transcript)
        << "budget = 1/" << divisor << " of working set";
    // Pressure really engaged, losslessly: spilled yes, shed no.
    EXPECT_GT(budgeted.group_stats.events_spilled, 0u)
        << "budget = 1/" << divisor;
    EXPECT_EQ(budgeted.group_stats.events_shed, 0u);
    EXPECT_EQ(budgeted.join_stats.events_shed, 0u);
    EXPECT_DOUBLE_EQ(budgeted.group_stats.fidelity_min, 1.0);
    EXPECT_EQ(budgeted.group_stats.windows_lossy, 0u);
    // Every run opened was replayed and discarded; no files leak.
    EXPECT_EQ(budgeted.spill.runs_opened, budgeted.spill.runs_discarded);
    EXPECT_EQ(budgeted.spill.records_written,
              budgeted.spill.records_replayed);
    EXPECT_EQ(budgeted.spill.write_failures, 0u);
    EXPECT_EQ(budgeted.spill.read_failures, 0u);
  }
}

TEST_F(SpillCentralTest, NoSpillDirectoryDegradesToCountedShed) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  // No spill_dir: the ladder bottoms out at counted shed.
  const RunOutcome shed = Run(config);
  EXPECT_GT(shed.group_stats.events_shed, 0u);
  EXPECT_GT(shed.group_stats.windows_lossy, 0u);
  EXPECT_LT(shed.group_stats.fidelity_min, 1.0);
  EXPECT_EQ(shed.group_stats.events_spilled, 0u);
  // The lossy windows advertise it on their rows.
  bool saw_fidelity_marker = false;
  for (const std::string& row : shed.transcript) {
    saw_fidelity_marker |= row.find("[fidelity") != std::string::npos;
  }
  EXPECT_TRUE(saw_fidelity_marker);
}

TEST_F(SpillCentralTest, InjectedWriteFailuresBecomeCountedShed) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  config.spill_dir = SpillDir("write_fault");
  config.spill_faults.write_fail = 0.5;
  config.spill_seed = 77;
  const RunOutcome faulty = Run(config);
  // Both rungs active at once: some records spilled and replayed, the
  // injected failures counted shed — never a crash, never silent loss.
  EXPECT_GT(faulty.spill.write_failures, 0u);
  EXPECT_GT(faulty.group_stats.spill_write_failures +
                faulty.join_stats.spill_write_failures,
            0u);
  EXPECT_GT(faulty.group_stats.events_spilled, 0u);
  EXPECT_GT(faulty.group_stats.events_shed, 0u);
  EXPECT_LT(faulty.group_stats.fidelity_min, 1.0);
  EXPECT_GT(faulty.group_stats.windows_lossy, 0u);
}

TEST_F(SpillCentralTest, InjectedReadFailuresShedTheLostRemainder) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  config.spill_dir = SpillDir("read_fault");
  config.spill_faults.read_fail = 1.0;  // every replay dies on record one
  config.spill_seed = 78;
  const RunOutcome faulty = Run(config);
  EXPECT_GT(faulty.spill.read_failures, 0u);
  EXPECT_GT(faulty.group_stats.spill_read_failures +
                faulty.join_stats.spill_read_failures,
            0u);
  // Everything written was lost at replay and counted shed.
  EXPECT_GT(faulty.group_stats.events_spilled, 0u);
  EXPECT_GE(faulty.group_stats.events_shed,
            faulty.group_stats.events_spilled);
  EXPECT_LT(faulty.group_stats.fidelity_min, 1.0);
}

TEST_F(SpillCentralTest, SpillByteCapFallsBackToShed) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  config.spill_dir = SpillDir("byte_cap");
  config.max_spill_bytes_per_query = 4096;  // a few records, then exhausted
  const RunOutcome capped = Run(config);
  EXPECT_GT(capped.group_stats.events_spilled, 0u);
  EXPECT_LE(capped.group_stats.spill_bytes, 4096u + 1024u);
  EXPECT_GT(capped.group_stats.events_shed, 0u);
  EXPECT_LT(capped.group_stats.fidelity_min, 1.0);
}

TEST_F(SpillCentralTest, TinyBudgetStressStaysLosslessAndLeakFree) {
  // check.sh drives this with SCRUB_SPILL_STRESS_DIVISOR=64 under
  // ASan+UBSan: a budget a tiny fraction of the working set forces nearly
  // every event through the spill path, and the run must still be lossless,
  // byte-identical, and leak no spill files.
  size_t divisor = 32;
  if (const char* env = std::getenv("SCRUB_SPILL_STRESS_DIVISOR")) {
    divisor = static_cast<size_t>(std::max(1, std::atoi(env)));
  }
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes = std::max<size_t>(
      1, std::max(unbounded.group_peak, unbounded.join_peak) / divisor);
  config.spill_dir = SpillDir("stress");
  config.spill_instance = "central_stress";
  const RunOutcome stressed = Run(config);
  EXPECT_EQ(stressed.transcript, unbounded.transcript)
      << "divisor=" << divisor;
  EXPECT_GT(stressed.group_stats.events_spilled, 0u);
  EXPECT_EQ(stressed.group_stats.events_shed, 0u);
  EXPECT_EQ(stressed.spill.runs_opened, stressed.spill.runs_discarded);
}

TEST_F(SpillCentralTest, ShedNeverInflatesAggregatesAboveTruth) {
  // Counted shed must subtract work, not corrupt it: every COUNT in the
  // shedding run is <= the unbounded run's count for the same group/window.
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  const RunOutcome shed = Run(config);
  EXPECT_LE(shed.transcript.size(), unbounded.transcript.size());
  const uint64_t attempted =
      shed.group_stats.events_shed + shed.group_stats.events_spilled;
  EXPECT_GT(attempted, 0u);
}

// ---------------------------------------------------------------------------
// ShardedCentral: per-shard spill under the coordinator merge.
// ---------------------------------------------------------------------------

class SpillShardedTest : public SpillCentralTest {
 protected:
  std::vector<std::string> RunSharded(size_t workers, CentralConfig config) {
    config.track_state_bytes = true;
    ShardedCentral central(&registry_, /*shards=*/4, config, workers);
    const CentralPlan grouped = PlanFor(
        "SELECT bid.user_id, COUNT(*), SUM(bid.price) FROM bid "
        "GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
        1);
    std::vector<std::string> transcript;
    auto sink = [&transcript](const ResultRow& row) {
      transcript.push_back(RenderRow(row));
    };
    EXPECT_TRUE(central.InstallQuery(grouped, sink).ok());
    Rng rng(43);
    uint64_t seq = 1;
    for (int tick = 0; tick < 8; ++tick) {
      const TimeMicros now = (tick + 1) * 500 * kMicrosPerMilli;
      std::vector<EventBatch> batches;
      for (HostId host = 0; host < 4; ++host) {
        std::vector<Event> events;
        for (int i = 0; i < 60; ++i) {
          Event e(bid_schema_, rng.NextUint64(),
                  tick * 500 * kMicrosPerMilli +
                      static_cast<TimeMicros>(rng.NextBelow(500'000)));
          e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(1500))));
          e.SetField(1, Value(rng.NextDouble() * 5));
          events.push_back(std::move(e));
        }
        EventBatch batch;
        batch.query_id = grouped.query_id;
        batch.host = host;
        batch.seq = seq++;
        batch.event_count = events.size();
        std::string encoded;
        batch.format = EncodeEvents(events, &encoded);
        batch.payload = BatchPayload(std::move(encoded));
        batches.push_back(std::move(batch));
      }
      EXPECT_TRUE(central.IngestBatches(batches, now).ok());
      central.OnTick(now);
    }
    central.OnTick(60 * kMicrosPerSecond);
    EXPECT_FALSE(transcript.empty());
    return transcript;
  }
};

TEST_F(SpillShardedTest, ShardSpillIsByteIdenticalAcrossWorkerCounts) {
  const std::vector<std::string> unbounded = RunSharded(0, CentralConfig{});
  CentralConfig config;
  // A deliberately tiny per-shard budget: every shard spills every window.
  config.query_state_budget_bytes = 8 * 1024;
  config.spill_dir = SpillDir("sharded");
  const std::vector<std::string> reference = RunSharded(0, config);
  EXPECT_EQ(reference, unbounded);  // spill stays lossless behind the router
  EXPECT_EQ(RunSharded(2, config), reference);
  EXPECT_EQ(RunSharded(8, config), reference);
}

TEST_F(SpillShardedTest, ShardShedSurfacesFidelityAtTheCoordinator) {
  CentralConfig config;
  config.query_state_budget_bytes = 8 * 1024;  // no spill_dir: shed
  const std::vector<std::string> reference = RunSharded(0, config);
  bool saw_fidelity_marker = false;
  for (const std::string& row : reference) {
    saw_fidelity_marker |= row.find("[fidelity") != std::string::npos;
  }
  EXPECT_TRUE(saw_fidelity_marker);
  // Deterministic degradation: the lossy transcript is still byte-stable.
  EXPECT_EQ(RunSharded(8, config), reference);
}

// ---------------------------------------------------------------------------
// Full ScrubSystem: budgets + spill + agent staging pressure end to end.
// ---------------------------------------------------------------------------

struct SystemOutcome {
  std::vector<std::string> transcript;
  std::string describe;
  std::string explain_analyze;
  CentralQueryStats stats;
  size_t peak = 0;
};

SystemOutcome RunSpillSystem(size_t workers, size_t central_budget,
                             const std::string& spill_dir,
                             size_t staging_budget = 0,
                             SpillFaultSpec spill_faults = {}) {
  SystemConfig config;
  config.seed = 7;
  config.platform.seed = 7;
  config.platform.bidservers_per_dc = 3;
  config.platform.adservers_per_dc = 1;
  config.platform.presentation_per_dc = 1;
  config.platform.num_campaigns = 3;
  config.platform.line_items_per_campaign = 3;
  config.workers = workers;
  config.central.track_state_bytes = true;
  config.central.query_state_budget_bytes = central_budget;
  config.central.spill_dir = spill_dir;
  config.agent.staging_budget_bytes = staging_budget;
  config.faults.spill = spill_faults;
  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 200;
  load.duration = 3 * kMicrosPerSecond;
  system.workload().SchedulePoissonLoad(load);
  SystemOutcome out;
  auto submitted = system.Submit(
      "SELECT bid.user_id, COUNT(*), SUM(bid.bid_price) FROM bid "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 3 s;",
      [&out](const ResultRow& row) {
        out.transcript.push_back(RenderRow(row));
      });
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  const QueryId id = submitted.ok() ? submitted->id : 0;
  system.RunUntil(2 * kMicrosPerSecond);
  out.explain_analyze = system.ExplainAnalyze(id);  // while still installed
  // Peak must be read while the query is installed: retirement's ReleaseAll
  // drops the accountant entry. Two of the three windows have closed by
  // now, so this is the sustained working set.
  out.peak = system.central().accountant().peak(id);
  system.RunUntil(4 * kMicrosPerSecond);
  system.Drain();
  out.describe = system.DescribeQuery(id);
  const CentralQueryStats* stats = system.central().StatsFor(id);
  EXPECT_NE(stats, nullptr);
  if (stats != nullptr) {
    out.stats = *stats;
  }
  EXPECT_FALSE(out.transcript.empty());
  return out;
}

TEST(SpillSystemTest, BudgetedRunMatchesUnboundedAcrossWorkers) {
  const SystemOutcome unbounded = RunSpillSystem(0, 0, "");
  ASSERT_GT(unbounded.peak, 0u);
  const size_t budget = unbounded.peak / 8;
  const std::string dir = SpillDir("system");
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    const SystemOutcome budgeted = RunSpillSystem(workers, budget, dir);
    EXPECT_EQ(budgeted.transcript, unbounded.transcript)
        << "workers=" << workers;
    EXPECT_EQ(budgeted.stats.events_shed, 0u);
    // The budget was real: the run under pressure spilled.
    EXPECT_GT(budgeted.stats.events_spilled, 0u) << "workers=" << workers;
  }
}

TEST(SpillSystemTest, InjectedSpillFaultNeverCrashesAndDentsFidelity) {
  const SystemOutcome unbounded =
      RunSpillSystem(0, 0, "");
  SpillFaultSpec faults;
  faults.write_fail = 0.7;
  const SystemOutcome faulty = RunSpillSystem(
      0, unbounded.peak / 8, SpillDir("system_fault"),
      /*staging_budget=*/0, faults);
  EXPECT_GT(faulty.stats.spill_write_failures, 0u);
  EXPECT_GT(faulty.stats.events_shed, 0u);
  EXPECT_LT(faulty.stats.fidelity_min, 1.0);
  EXPECT_NE(faulty.describe.find("pressure:"), std::string::npos);
  EXPECT_NE(faulty.describe.find("fidelity:"), std::string::npos);
}

TEST(SpillSystemTest, AgentStagingBudgetShedIsCountedIntoFidelity) {
  const SystemOutcome pressured = RunSpillSystem(
      0, 0, "", /*staging_budget=*/2 * 1024);
  EXPECT_GT(pressured.stats.agent_events_shed, 0u);
  EXPECT_LT(pressured.stats.fidelity_min, 1.0);
  EXPECT_NE(pressured.describe.find("agent_shed="), std::string::npos);
  bool saw_fidelity_marker = false;
  for (const std::string& row : pressured.transcript) {
    saw_fidelity_marker |= row.find("[fidelity") != std::string::npos;
  }
  EXPECT_TRUE(saw_fidelity_marker);
}

TEST(SpillSystemTest, AgentStagingShedIsDeterministicAcrossWorkers) {
  const SystemOutcome reference = RunSpillSystem(
      0, 0, "", /*staging_budget=*/2 * 1024);
  for (const size_t workers : {size_t{2}, size_t{8}}) {
    const SystemOutcome other = RunSpillSystem(
        workers, 0, "", /*staging_budget=*/2 * 1024);
    EXPECT_EQ(other.transcript, reference.transcript)
        << "workers=" << workers;
  }
}

TEST(SpillSystemTest, ExplainAnalyzeReportsBudgetsAndSpill) {
  const SystemOutcome unbounded =
      RunSpillSystem(0, 0, "");
  const SystemOutcome budgeted = RunSpillSystem(
      0, unbounded.peak / 8, SpillDir("system_explain"));
  EXPECT_NE(budgeted.explain_analyze.find("state bytes:"), std::string::npos);
  EXPECT_NE(budgeted.explain_analyze.find("budget="), std::string::npos);
  EXPECT_NE(budgeted.explain_analyze.find("spill:"), std::string::npos);
  EXPECT_NE(budgeted.describe.find("join_shed="), std::string::npos);
  // Unbudgeted, tracking-only runs still report usage but no spill section.
  EXPECT_NE(unbounded.explain_analyze.find("state bytes:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Corrupt spill runs. Replay is the only reader of event records, so a run
// damaged on disk must lose exactly the records from the damage on, counted
// as shed: never a crash, never an unaccounted event.
// ---------------------------------------------------------------------------

class SpillCorruptionTest : public ::testing::Test {
 protected:
  SpillCorruptionTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .AddField("tag", FieldType::kString)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
  }

  // One record of the run as laid out on disk: u32 len | u32 host | payload.
  struct RecordSpan {
    size_t header;   // offset of the length prefix
    size_t payload;  // offset of the payload
    uint32_t len;
  };

  static std::vector<RecordSpan> Records(const std::string& run) {
    std::vector<RecordSpan> out;
    for (size_t pos = 0; pos + 8 <= run.size();) {
      uint32_t len = 0;
      std::memcpy(&len, run.data() + pos, 4);
      out.push_back(RecordSpan{pos, pos + 8, len});
      pos += 8 + len;
    }
    return out;
  }

  struct Outcome {
    uint64_t events = 0;    // events routed to the window
    uint64_t records = 0;   // records the run held
    uint64_t folded = 0;    // COUNT(*) the window emitted
    uint64_t shed = 0;
    uint64_t read_failures = 0;
    double fidelity = 1.0;
  };

  // Spills `n` events from four hosts (or, with `hostless`, from batches
  // sent as kInvalidHost) into one window under a tiny budget, lets
  // `corrupt` rewrite the run's bytes, then closes the window.
  Outcome Run(const std::string& label, int n,
              const std::function<void(std::string*)>& corrupt,
              bool hostless = false) {
    const std::string dir = SpillDir("corrupt_" + label);
    std::filesystem::remove_all(dir);
    Result<AnalyzedQuery> aq = ParseAndAnalyze(
        "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s;", registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    QueryState q;
    q.plan = plan->central;
    q.plan.hosts_targeted = 4;
    q.plan.hosts_sampled = 4;
    q.pipeline = CompilePhysical(q.plan, PipelineRole::kSingleInstance);
    Outcome out;
    q.sink = [&out](const ResultRow& row) {
      out.folded += static_cast<uint64_t>(row.values[0].AsInt());
      out.fidelity = row.fidelity;
    };
    CentralConfig config;
    CostMeter meter;
    MemoryAccountant accountant;
    accountant.set_budgets(1, 0);
    SpillManager spill;
    spill.Configure(dir, "central", 1, SpillFaultSpec{});
    Executor executor(&registry_, &config, &meter, &accountant, &spill);

    Rng rng(5);
    std::vector<Event> events;
    for (int i = 0; i < n; ++i) {
      Event e(bid_schema_, rng.NextUint64(),
              static_cast<TimeMicros>(rng.NextBelow(9'000'000)));
      e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(50))));
      e.SetField(1, Value(rng.NextDouble() * 5));
      e.SetField(2, Value(StrFormat("tag%d", i % 7)));
      events.push_back(std::move(e));
    }
    for (size_t i = 0; i < events.size(); i += 10) {
      EventBatch batch;
      batch.query_id = 1;
      batch.event_count = std::min<size_t>(10, events.size() - i);
      const std::vector<Event> slice(
          events.begin() + static_cast<std::ptrdiff_t>(i),
          events.begin() + static_cast<std::ptrdiff_t>(i + batch.event_count));
      std::string encoded;
      batch.format = EncodeEvents(slice, &encoded);
      batch.payload = BatchPayload(std::move(encoded));
      EXPECT_TRUE(executor
                      .DecodeAndFold(q,
                                     hostless
                                         ? kInvalidHost
                                         : static_cast<HostId>((i / 10) % 4),
                                     batch)
                      .ok());
    }
    if (q.windows.size() != 1 || q.windows.begin()->second.spill == nullptr) {
      ADD_FAILURE() << "expected one spilled window";
      return out;
    }
    WindowState& w = q.windows.begin()->second;
    out.events = w.input_events;
    out.records = w.spill->records();

    // Flush the run to disk, rewrite it, and replay the damaged bytes.
    EXPECT_TRUE(w.spill->BeginReplay());
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files.push_back(entry.path());
    }
    if (files.size() != 1) {
      ADD_FAILURE() << files.size() << " spill files in " << dir;
      return out;
    }
    std::string bytes;
    if (std::FILE* f = std::fopen(files[0].c_str(), "rb")) {
      char chunk[4096];
      size_t got = 0;
      while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
        bytes.append(chunk, got);
      }
      std::fclose(f);
    }
    EXPECT_EQ(Records(bytes).size(), out.records);
    corrupt(&bytes);
    if (std::FILE* f = std::fopen(files[0].c_str(), "wb")) {
      std::fwrite(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
    }
    executor.CloseWindow(q, &w);
    q.windows.clear();
    out.shed = q.stats.events_shed;
    out.read_failures = q.stats.spill_read_failures;
    std::filesystem::remove_all(dir);
    return out;
  }

  // Every routed event either folded or was counted shed; a loss means one
  // read failure and a dented fidelity.
  static void ExpectAccounted(const Outcome& o, bool lossy) {
    EXPECT_GT(o.records, 0u);
    EXPECT_EQ(o.folded + o.shed, o.events);
    if (lossy) {
      EXPECT_GT(o.shed, 0u);
      EXPECT_EQ(o.read_failures, 1u);
      EXPECT_LT(o.fidelity, 1.0);
    }
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
};

TEST_F(SpillCorruptionTest, IntactRunReplaysEveryRecord) {
  const Outcome o = Run("intact", 2500, [](std::string*) {});
  ExpectAccounted(o, /*lossy=*/false);
  EXPECT_EQ(o.shed, 0u);
  EXPECT_EQ(o.folded, o.events);
  EXPECT_GT(o.records, 2048u);  // replays as several decoded blocks
}

TEST_F(SpillCorruptionTest, HostlessRecordsRoundTrip) {
  // kInvalidHost spills as 0xFFFFFFFF; replay must accept what it wrote.
  const Outcome o = Run("hostless", 300, [](std::string*) {}, true);
  ExpectAccounted(o, /*lossy=*/false);
  EXPECT_EQ(o.shed, 0u);
  EXPECT_EQ(o.folded, o.events);
}

TEST_F(SpillCorruptionTest, TruncatedRecordShedsOnlyTheTail) {
  const Outcome o = Run("truncated", 300, [](std::string* run) {
    run->resize(run->size() - 3);
  });
  ExpectAccounted(o, /*lossy=*/true);
  EXPECT_EQ(o.shed, 1u);  // only the torn last record
}

TEST_F(SpillCorruptionTest, LengthPrefixPastEofShedsTheRemainder) {
  const Outcome o = Run("past_eof", 300, [](std::string* run) {
    const std::vector<RecordSpan> records = Records(*run);
    const RecordSpan& r = records[records.size() / 2];
    const uint32_t len =
        static_cast<uint32_t>(run->size() - r.payload + 1);  // one past EOF
    std::memcpy(run->data() + r.header, &len, 4);
  });
  ExpectAccounted(o, /*lossy=*/true);
  EXPECT_EQ(o.shed, o.records - o.records / 2);
}

TEST_F(SpillCorruptionTest, OversizedLengthIsRejectedBeforeAllocating) {
  const Outcome o = Run("oversized", 300, [](std::string* run) {
    const RecordSpan r = Records(*run)[3];
    const uint32_t len = 0xFFFFFFF0u;
    std::memcpy(run->data() + r.header, &len, 4);
  });
  ExpectAccounted(o, /*lossy=*/true);
  EXPECT_EQ(o.shed, o.records - 3);
}

TEST_F(SpillCorruptionTest, OutOfRangeHostShedsTheRemainder) {
  const Outcome o = Run("host", 300, [](std::string* run) {
    const RecordSpan r = Records(*run)[10];
    const uint32_t host = 0x80000000u;  // below kInvalidHost: never written
    std::memcpy(run->data() + r.header + 4, &host, 4);
  });
  ExpectAccounted(o, /*lossy=*/true);
  EXPECT_EQ(o.shed, o.records - 10);
}

TEST_F(SpillCorruptionTest, FlippedTypeNameShedsTheRemainder) {
  const Outcome o = Run("type_name", 300, [](std::string* run) {
    const RecordSpan r = Records(*run)[20];
    (*run)[r.payload + 4] ^= 0x20;  // "bid" -> "Bid": unknown type
  });
  ExpectAccounted(o, /*lossy=*/true);
  EXPECT_EQ(o.shed, o.records - 20);
}

TEST_F(SpillCorruptionTest, FlippedValueTagsNeverCrash) {
  // The first value tag follows the u32 name length, the name and the two
  // u64 metadata fields. Every byte value lands as either a different,
  // still-decodable value or a rejected record; both stay accounted.
  for (const uint8_t tag : {uint8_t{0x00}, uint8_t{0x03}, uint8_t{0x7f},
                            uint8_t{0xff}}) {
    const Outcome o =
        Run(StrFormat("tag%u", static_cast<unsigned>(tag)), 300,
            [tag](std::string* run) {
              for (const RecordSpan& r : Records(*run)) {
                if (r.header % 3 == 0) {
                  (*run)[r.payload + 4 + 3 + 16] = static_cast<char>(tag);
                }
              }
            });
    ExpectAccounted(o, /*lossy=*/o.shed > 0);
  }
}

TEST_F(SpillCorruptionTest, RandomPayloadFlipsNeverCrash) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Outcome o =
        Run(StrFormat("flips%llu", static_cast<unsigned long long>(seed)),
            300, [seed](std::string* run) {
              Rng rng(seed);
              const std::vector<RecordSpan> records = Records(*run);
              for (int f = 0; f < 6; ++f) {
                const RecordSpan& r =
                    records[rng.NextBelow(records.size())];
                if (r.len == 0) {
                  continue;
                }
                (*run)[r.payload + rng.NextBelow(r.len)] =
                    static_cast<char>(rng.NextBelow(256));
              }
            });
    ExpectAccounted(o, /*lossy=*/o.shed > 0);
  }
}

}  // namespace
}  // namespace scrub
