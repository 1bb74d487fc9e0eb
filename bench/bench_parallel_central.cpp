// Parallel central execution sweep: worker counts {1, 2, 4, 8} x shard
// counts {4, 8} over a fixed GROUP BY workload, emitted as machine-readable
// JSON (BENCH_scrub.json) for tools/bench_compare.py to gate regressions.
//
// Timing model. CI containers for this repo frequently pin a single core,
// where wall-clock parallel speedup is physically impossible. Following the
// precedent of BM_ShardedScaleOut (which reports the max per-shard CPU share
// as "the scale-out factor parallel hardware would realize"), the WorkerPool
// self-meters every ParallelFor region with CLOCK_THREAD_CPUTIME_ID: the
// region's critical path is the maximum per-worker busy time, and the
// modeled elapsed time of a run is
//
//     coordinator thread CPU  +  sum over regions of max worker busy
//
// i.e. the serial spine plus the parallel sections at their critical-path
// length. On a single core this equals what a multi-core box would see up
// to scheduler noise; on a real multi-core box it agrees with wall clock.
// Window-close latency is modeled the same way per OnTick call.
//
// Usage: bench_parallel_central [events_per_batch] > BENCH_scrub.json

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/worker_pool.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

constexpr int kHosts = 8;
constexpr int kTicks = 50;
constexpr TimeMicros kTickMicros = 500 * kMicrosPerMilli;

struct RunResult {
  size_t shards = 0;
  size_t workers = 0;
  uint64_t events = 0;
  double modeled_seconds = 0.0;
  double serial_seconds = 0.0;    // coordinator-thread CPU (the Amdahl spine)
  double critical_seconds = 0.0;  // sum of per-region max worker busy
  double busy_seconds = 0.0;      // total worker busy (all workers)
  double events_per_sec = 0.0;
  double p50_close_us = 0.0;
  double p99_close_us = 0.0;
  double speedup_vs_1w = 1.0;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

// Pre-generates the full batch schedule once; every (shards, workers)
// configuration ingests the identical byte stream.
struct Workload {
  SchemaRegistry registry;
  SchemaPtr schema;
  CentralPlan plan;
  std::vector<std::vector<EventBatch>> per_tick;
  uint64_t total_events = 0;

  explicit Workload(size_t events_per_batch) {
    schema = *EventSchema::Builder("bid")
                  .AddField("user_id", FieldType::kLong)
                  .AddField("price", FieldType::kDouble)
                  .Build();
    if (!registry.Register(schema).ok()) {
      std::abort();
    }
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(
        "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
        "FROM bid GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;",
        registry, options);
    if (!aq.ok()) {
      std::abort();
    }
    Result<QueryPlan> qp = PlanQuery(*aq, 1, 0);
    if (!qp.ok()) {
      std::abort();
    }
    plan = qp->central;
    plan.hosts_targeted = kHosts;
    plan.hosts_sampled = 0;  // hand-installed: no completeness accounting

    Rng rng(1234);
    uint64_t seq = 1;
    per_tick.resize(kTicks);
    for (int tick = 0; tick < kTicks; ++tick) {
      for (int host = 0; host < kHosts; ++host) {
        std::vector<Event> events;
        events.reserve(events_per_batch);
        for (size_t i = 0; i < events_per_batch; ++i) {
          Event e(schema, rng.NextUint64(),
                  tick * kTickMicros +
                      static_cast<TimeMicros>(rng.NextBelow(
                          static_cast<uint64_t>(kTickMicros))));
          e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(64))));
          e.SetField(1, Value(rng.NextDouble() * 5));
          events.push_back(std::move(e));
        }
        EventBatch batch;
        batch.query_id = 1;
        batch.host = static_cast<HostId>(host);
        batch.seq = seq++;
        batch.event_count = events.size();
        std::string encoded;
        batch.format = EncodeEvents(events, &encoded);
        batch.payload = BatchPayload(std::move(encoded));
        per_tick[static_cast<size_t>(tick)].push_back(std::move(batch));
        total_events += events.size();
      }
    }
  }
};

RunResult RunOne(const Workload& workload, size_t shards, size_t workers) {
  CentralConfig config;
  config.allowed_lateness = 0;  // close windows promptly per tick
  ShardedCentral central(&workload.registry, shards, config, workers);
  uint64_t rows = 0;
  if (!central
           .InstallQuery(workload.plan,
                         [&rows](const ResultRow&) { ++rows; })
           .ok()) {
    std::abort();
  }

  const WorkerPool& pool = central.pool();
  std::vector<double> close_us;
  const uint64_t cpu0 = WorkerPool::ThreadCpuNs();
  const uint64_t crit0 = pool.critical_ns();
  const uint64_t busy0 = pool.busy_ns();
  for (int tick = 0; tick < kTicks; ++tick) {
    const TimeMicros now = (tick + 1) * kTickMicros;
    if (!central.IngestBatches(workload.per_tick[static_cast<size_t>(tick)],
                               now)
             .ok()) {
      std::abort();
    }
    const uint64_t tick_cpu0 = WorkerPool::ThreadCpuNs();
    const uint64_t tick_crit0 = pool.critical_ns();
    central.OnTick(now);
    const double tick_ns =
        static_cast<double>(WorkerPool::ThreadCpuNs() - tick_cpu0) +
        static_cast<double>(pool.critical_ns() - tick_crit0);
    close_us.push_back(tick_ns / 1e3);
  }
  const double serial_ns =
      static_cast<double>(WorkerPool::ThreadCpuNs() - cpu0);
  const double critical_ns = static_cast<double>(pool.critical_ns() - crit0);
  const double modeled_ns = serial_ns + critical_ns;

  RunResult r;
  r.shards = shards;
  r.workers = workers;
  r.events = workload.total_events;
  r.modeled_seconds = modeled_ns / 1e9;
  r.serial_seconds = serial_ns / 1e9;
  r.critical_seconds = critical_ns / 1e9;
  r.busy_seconds = static_cast<double>(pool.busy_ns() - busy0) / 1e9;
  r.events_per_sec =
      static_cast<double>(workload.total_events) / (modeled_ns / 1e9);
  r.p50_close_us = Percentile(close_us, 0.50);
  r.p99_close_us = Percentile(close_us, 0.99);
  if (rows == 0) {
    std::abort();  // the sweep must actually compute something
  }
  return r;
}

int Main(int argc, char** argv) {
  const size_t events_per_batch =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 512;
  Workload workload(events_per_batch);

  std::vector<RunResult> results;
  for (const size_t shards : {4u, 8u}) {
    double base_eps = 0.0;
    for (const size_t workers : {1u, 2u, 4u, 8u}) {
      // Best of three: the modeled time is CPU-clock based, but cold caches
      // and CI neighbours still add one-sided noise; min is the estimator.
      RunResult r = RunOne(workload, shards, workers);
      for (int rep = 1; rep < 3; ++rep) {
        const RunResult again = RunOne(workload, shards, workers);
        if (again.modeled_seconds < r.modeled_seconds) {
          r = again;
        }
      }
      if (workers == 1) {
        base_eps = r.events_per_sec;
      }
      r.speedup_vs_1w = base_eps > 0 ? r.events_per_sec / base_eps : 1.0;
      results.push_back(r);
    }
  }

  std::string out = "{\n";
  out += "  \"bench\": \"parallel_central\",\n";
  out += StrFormat("  \"events_per_batch\": %zu,\n", events_per_batch);
  out += StrFormat("  \"hosts\": %d,\n", kHosts);
  out += StrFormat("  \"ticks\": %d,\n", kTicks);
  out +=
      "  \"timing\": \"modeled critical-path: coordinator CPU + per-region "
      "max worker CPU (single-core safe)\",\n";
  out += "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out += StrFormat(
        "    {\"shards\": %zu, \"workers\": %zu, \"events\": %llu, "
        "\"modeled_seconds\": %.6f, \"serial_seconds\": %.6f, "
        "\"critical_seconds\": %.6f, \"busy_seconds\": %.6f, "
        "\"events_per_sec\": %.0f, "
        "\"p50_window_close_us\": %.1f, \"p99_window_close_us\": %.1f, "
        "\"speedup_vs_1w\": %.3f}%s\n",
        r.shards, r.workers, static_cast<unsigned long long>(r.events),
        r.modeled_seconds, r.serial_seconds, r.critical_seconds,
        r.busy_seconds, r.events_per_sec, r.p50_close_us, r.p99_close_us,
        r.speedup_vs_1w, i + 1 < results.size() ? "," : "");
  }
  out += "  ]\n}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace scrub

int main(int argc, char** argv) { return scrub::Main(argc, argv); }
