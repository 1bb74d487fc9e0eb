// scrubbench: the end-to-end and per-layer benchmark of Scrub's data path.
//
// One process, one thread. Each round builds a default flat ScrubSystem
// (workers = 0, columnar data plane), submits the workload's queries through
// ScrubSystem::Submit, and then steps the flat data path itself, in the order
// ScrubSystem::PumpFlushes uses, timing every public call from outside with
// CLOCK_THREAD_CPUTIME_ID:
//
//   every flush interval t (one tick, 500 ms simulated):
//     scheduler().RunUntil(t_prev + quiet gap)   control-plane deliveries
//     agent(h)->LogEvent(e)                      each host's slice of the tick
//     scheduler().RunUntil(t)
//     agent(h)->Flush(t), Retransmits(t)         hosts in ascending id order
//     central().IngestBatch(b, t), OnAck         every batch, in that order
//     central().OnTick(t)                        window close + row emission
//
// Load is open loop in simulated time: events are generated from --seed on a
// fixed per-tick schedule (seeded jitter within each slot) in bidsim's own
// `bid` / `impression` schemas, and never wait on the system, so a slower
// program shows up as CPU per event, not as backlog. The first 100 ms of every
// tick carry no events: a query install (at most one cross-DC hop, 60 ms)
// therefore lands before any event it could match, which is what makes the
// stepped order equivalent to ScrubSystem::RunUntil. --check-driver proves
// the equivalence on every workload by comparing result transcripts.
//
// An oracle recomputes every query's answer per (window, group) from the
// generated stream and checks each delivered row.
//
// Usage:
//   scrubbench --workload fanout|join|churn [--seed N] [--seconds S]
//              [--trace 0|1] [--sim-seconds X] [--trace-dir DIR]
//   scrubbench --check-driver [--workload NAME] [--seed N]
//
// A run repeats rounds (fresh system, same seed) until --seconds of wall
// time are spent. Its CPU-time metrics come from the rounds' lower envelope
// (each call's least CPU over the rounds), scaled by a memory-latency probe
// read before each round (see Envelope, MemoryProbe and kEndToEnd). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones (from traced
// rounds interleaved with untraced ones, whose difference is the tracing
// overhead).

#include <sys/resource.h>
#include <time.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/bidsim/schemas.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/lint/lint.h"
#include "src/plan/physical.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

constexpr TimeMicros kTick = 500 * kMicrosPerMilli;  // SystemConfig default
constexpr TimeMicros kQuietGap = 100 * kMicrosPerMilli;
constexpr TimeMicros kWindow = kMicrosPerSecond;
constexpr TimeMicros kShortSpan = 3 * kMicrosPerSecond;  // churn queries
// ScrubSystem::Drain's flat grace: allowed lateness plus three flush rounds.
constexpr TimeMicros kDrain = 2 * kMicrosPerSecond + 3 * kTick;
constexpr uint64_t kUsers = 50'000;

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Measures the host's memory load latency: a chain of dependent loads, one
// per cache line, through a 64 MiB random cycle. The walk continues from call
// to call, so a load reaches a line last touched a million loads earlier,
// long evicted whatever the program did in between, and the lines start out
// flushed from the cache. Every load goes to memory, so the probe's time
// depends on the host (what other tenants do to its caches and memory), not
// on the program under test.
class MemoryProbe {
  struct alignas(64) Line {
    uint32_t next = 0;
  };

 public:
  static constexpr uint32_t kLines = 1u << 20;
  static constexpr size_t kBytes = size_t{kLines} * sizeof(Line);  // 64 MiB

  MemoryProbe() : lines_(kLines) {
    // Sattolo's shuffle: one cycle through every line.
    std::vector<uint32_t> order(kLines);
    for (uint32_t i = 0; i < kLines; ++i) {
      order[i] = i;
    }
    Rng rng(0x5c7b);
    for (uint32_t i = kLines - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i)]);
    }
    for (uint32_t i = 0; i < kLines; ++i) {
      lines_[order[i]].next = order[(i + 1) % kLines];
    }
#if defined(__SSE2__)
    for (const Line& line : lines_) {
      _mm_clflush(&line);
    }
    _mm_mfence();
#endif
  }

  // Thread CPU nanoseconds per load, over kLoads dependent loads.
  double NsPerLoad() {
    uint32_t at = at_;
    const uint64_t start = ThreadCpuNs();
    for (uint32_t i = 0; i < kLoads; ++i) {
      at = lines_[at].next;
    }
    // Keeps the loads between the two clock reads.
    asm volatile("" : "+r"(at) : : "memory");
    const uint64_t end = ThreadCpuNs();
    at_ = at;
    return static_cast<double>(end - start) / kLoads;
  }

 private:
  static constexpr uint32_t kLoads = 20'000;
  std::vector<Line> lines_;
  uint32_t at_ = 0;
};

// ---------------------------------------------------------------------------
// Spans and per-layer CPU.

enum Layer : uint8_t {
  kTickSpan,
  kSetupSpan,
  kLog,
  kControl,
  kFlush,
  kRetransmit,
  kIngest,
  kAck,
  kClose,
  kSubmit,
  kParse,
  kLint,
  kPlan,
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "bench.tick",
    "bench.setup",
    "agent.log",
    "cluster.control",
    "agent.flush",
    "agent.retransmit",
    "central.ingest",
    "agent.ack",
    "central.close",
    "server.submit",
    "query.parse_analyze",
    "lint",
    "plan",
};

struct Span {
  Layer layer = kTickSpan;
  int32_t parent = -1;
  int32_t host = -1;
  int64_t tick = 0;
  uint64_t start_ns = 0;  // thread CPU clock
  uint64_t end_ns = 0;
};

// One timed call, in the order a round made it.
struct Call {
  Layer layer;
  double ns;
};

// Times calls into the system. CPU per layer and per call always
// accumulates; span records are kept only in traced rounds. Spans nest under
// the enclosing span opened last (a tick, or the round's set-up).
class Meter {
 public:
  explicit Meter(bool traced) : traced_(traced) {}

  // Runs fn() as one span; returns its id (-1 when untraced).
  template <typename Fn>
  int Time(Layer layer, Fn&& fn, int host = -1, int parent = kEnclosing) {
    const uint64_t start = ThreadCpuNs();
    fn();
    const uint64_t end = ThreadCpuNs();
    const double d = static_cast<double>(end - start);
    ns[layer] += d;
    calls.push_back(Call{layer, d});
    return Record(layer, parent == kEnclosing ? open_ : parent, host, start,
                  end);
  }

  int Open(Layer layer, int64_t tick) {
    tick_ = tick;
    open_ = Record(layer, -1, -1, ThreadCpuNs(), 0);
    return open_;
  }
  void Close(int id) {
    if (id >= 0) {
      spans[static_cast<size_t>(id)].end_ns = ThreadCpuNs();
    }
    open_ = -1;
  }

  std::array<double, kLayerCount> ns{};
  std::vector<Call> calls;
  std::vector<Span> spans;

 private:
  static constexpr int kEnclosing = -2;

  int Record(Layer layer, int parent, int host, uint64_t start,
             uint64_t end) {
    if (!traced_) {
      return -1;
    }
    spans.push_back(Span{layer, parent, host, tick_, start, end});
    return static_cast<int>(spans.size()) - 1;
  }

  bool traced_;
  int64_t tick_ = 0;
  int open_ = -1;
};

// ---------------------------------------------------------------------------
// Generated load.

const char* const kCities[] = {"nyc", "sfo", "lon", "par",
                               "ber", "tok", "tor", "syd"};
const char* const kCountries[] = {"US", "CA", "GB", "DE", "FR", "JP"};
const char* const kOses[] = {"ios", "android", "windows", "macos"};
const char* const kBrowsers[] = {"chrome", "safari", "firefox"};

// One bid request as the generator drew it. A bid with `impression` set also
// produces a same-request, same-timestamp impression on PresentationServer
// `pres`, carrying the bid's targeting fields.
struct Bid {
  RequestId rid = 0;
  TimeMicros ts = 0;
  int64_t exchange_id = 0;
  int city = 0;
  int country = 0;  // index into kCountries; 0 is "US"
  double price = 0.0;
  int64_t line_item_id = 0;
  int64_t user_id = 0;
  int64_t publisher_id = 0;
  bool impression = false;
  int pres = 0;

  int64_t campaign_id() const { return line_item_id / 5; }
  double cost() const { return price / 1000.0; }  // CPM
};

class LoadGenerator {
 public:
  LoadGenerator(uint64_t seed, double bids_per_sec, double impression_share,
                size_t bid_servers, const ZipfGenerator* users)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x5c7b),
        per_host_(static_cast<size_t>(std::llround(
            bids_per_sec / static_cast<double>(bid_servers) *
            static_cast<double>(kTick) / kMicrosPerSecond))),
        impression_share_(impression_share),
        bid_servers_(bid_servers),
        users_(users) {}

  // The bids of [begin, end), per bid server, each server's in time order:
  // slot j of n starts at begin + j * (end - begin) / n and the bid lands at
  // a seeded offset inside its slot.
  void Tick(TimeMicros begin, TimeMicros end,
            std::vector<std::vector<Bid>>* out) {
    out->assign(bid_servers_, {});
    const double slot =
        static_cast<double>(end - begin) / static_cast<double>(per_host_);
    for (size_t s = 0; s < bid_servers_; ++s) {
      std::vector<Bid>& bids = (*out)[s];
      bids.reserve(per_host_);
      for (size_t j = 0; j < per_host_; ++j) {
        Bid b;
        b.rid = next_rid_++;
        b.ts = begin + static_cast<TimeMicros>(
                           (static_cast<double>(j) + rng_.NextDouble()) * slot);
        b.exchange_id = static_cast<int64_t>(rng_.NextBelow(8));
        b.city = static_cast<int>(rng_.NextBelow(8));
        b.country =
            rng_.NextBool(0.4) ? 0 : 1 + static_cast<int>(rng_.NextBelow(5));
        b.price = static_cast<double>(rng_.NextBelow(1000) + 1) / 100.0;
        b.line_item_id = static_cast<int64_t>(rng_.NextBelow(100));
        b.user_id = static_cast<int64_t>(users_->Next(rng_));
        b.publisher_id = static_cast<int64_t>(rng_.NextBelow(50));
        b.impression = rng_.NextBool(impression_share_);
        b.pres = static_cast<int>(rng_.NextBelow(2));
        bids.push_back(b);
      }
    }
  }

 private:
  Rng rng_;
  size_t per_host_;
  double impression_share_;
  size_t bid_servers_;
  const ZipfGenerator* users_;
  RequestId next_rid_ = 1;
};

Event MakeBidEvent(const SchemaPtr& schema, const Bid& b) {
  Event e(schema, b.rid, b.ts);
  e.SetField(0, Value(b.exchange_id));
  e.SetField(1, Value(kCities[b.city]));
  e.SetField(2, Value(kCountries[b.country]));
  e.SetField(3, Value(b.price));
  e.SetField(4, Value(b.campaign_id()));
  e.SetField(5, Value(b.line_item_id));
  e.SetField(6, Value(b.user_id));
  e.SetField(7, Value(b.publisher_id));
  NestedObject device;
  device.fields.emplace_back("os", Value(kOses[b.user_id % 4]));
  device.fields.emplace_back("browser", Value(kBrowsers[b.user_id % 3]));
  e.SetField(8, Value(std::move(device)));
  return e;
}

Event MakeImpressionEvent(const SchemaPtr& schema, const Bid& b) {
  Event e(schema, b.rid, b.ts);
  e.SetField(0, Value(b.line_item_id));
  e.SetField(1, Value(b.campaign_id()));
  e.SetField(2, Value(b.exchange_id));
  e.SetField(3, Value(b.publisher_id));
  e.SetField(4, Value(b.user_id));
  e.SetField(5, Value(b.cost()));
  e.SetField(6, Value(b.user_id % 2 == 0 ? "modelA" : "modelB"));
  return e;
}

// ---------------------------------------------------------------------------
// Queries and their oracle.

enum class Agg { kCount, kSum, kAvg };

// A ScrubQL query plus an independent description of its answer: which
// bids count (`where`; join queries see only bids with an impression), the
// group key (ungrouped when empty), the SUM/AVG argument, and the aggregate
// columns in select order after the key.
struct QuerySpec {
  std::string text;
  bool join = false;
  bool sampled = false;
  std::function<bool(const Bid&)> where;
  std::function<int64_t(const Bid&)> key;
  std::function<double(const Bid&)> arg;
  std::vector<Agg> aggs;
};

// "SELECT <select> FROM <from> [WHERE ..] [@[..]] [GROUP BY ..] WINDOW 1 s
// DURATION <span> [SAMPLE EVENTS 10%];" in the parser's clause order.
std::string QueryText(const std::string& select, const char* from,
                      const std::string& where, const char* target,
                      const char* group_by, TimeMicros span, bool sampled) {
  std::string text = "SELECT " + select + " FROM " + from;
  if (!where.empty()) {
    text += " WHERE " + where;
  }
  if (target[0] != '\0') {
    text += std::string(" ") + target;
  }
  if (group_by[0] != '\0') {
    text += std::string(" GROUP BY ") + group_by;
  }
  return text + StrFormat(" WINDOW 1 s DURATION %lld s%s;",
                          static_cast<long long>(span / kMicrosPerSecond),
                          sampled ? " SAMPLE EVENTS 10%" : "");
}

constexpr char kBidServers[] = "@[SERVICE IN BidServers]";
constexpr char kEveryHost[] = "";

std::vector<QuerySpec> FanoutQueries(TimeMicros span) {
  std::vector<QuerySpec> out;
  for (int64_t k = 1; k <= 4; ++k) {
    const bool sampled = k == 4;
    const long long kk = static_cast<long long>(k);
    QuerySpec count;
    count.text = QueryText("COUNT(*)", "bid",
                           StrFormat("bid.exchange_id = %lld", kk),
                           kBidServers, "", span, sampled);
    count.where = [k](const Bid& b) { return b.exchange_id == k; };
    count.aggs = {Agg::kCount};
    QuerySpec grouped;
    grouped.text = QueryText("bid.publisher_id, COUNT(*)", "bid",
                             StrFormat("bid.bid_price > %lld.5", kk),
                             kBidServers, "bid.publisher_id", span, sampled);
    grouped.where = [k](const Bid& b) {
      return b.price > static_cast<double>(k) + 0.5;
    };
    grouped.key = [](const Bid& b) { return b.publisher_id; };
    grouped.aggs = {Agg::kCount};
    QuerySpec avg;
    avg.text = QueryText(
        "AVG(bid.bid_price)", "bid",
        StrFormat("bid.country = 'US' AND bid.exchange_id != %lld", kk),
        kBidServers, "", span, sampled);
    avg.where = [k](const Bid& b) {
      return b.country == 0 && b.exchange_id != k;
    };
    avg.arg = [](const Bid& b) { return b.price; };
    avg.aggs = {Agg::kAvg};
    QuerySpec sum;
    sum.text = QueryText("bid.campaign_id, SUM(bid.bid_price)", "bid",
                         StrFormat("bid.line_item_id < %lld0", kk),
                         kBidServers, "bid.campaign_id", span, sampled);
    sum.where = [k](const Bid& b) { return b.line_item_id < 10 * k; };
    sum.key = [](const Bid& b) { return b.campaign_id(); };
    sum.arg = [](const Bid& b) { return b.price; };
    sum.aggs = {Agg::kSum};
    for (QuerySpec* q : {&count, &grouped, &avg, &sum}) {
      q->sampled = sampled;
      out.push_back(std::move(*q));
    }
  }
  return out;
}

std::vector<QuerySpec> JoinQueries(TimeMicros span) {
  QuerySpec users;
  users.text = QueryText("bid.user_id, COUNT(*)", "bid, impression", "",
                         kEveryHost, "bid.user_id", span, false);
  users.join = true;
  users.key = [](const Bid& b) { return b.user_id; };
  users.aggs = {Agg::kCount};
  QuerySpec items;
  items.text = QueryText(
      "impression.line_item_id, COUNT(*), SUM(impression.cost)",
      "bid, impression", "", kEveryHost, "impression.line_item_id", span,
      false);
  items.join = true;
  items.key = [](const Bid& b) { return b.line_item_id; };
  items.arg = [](const Bid& b) { return b.cost(); };
  items.aggs = {Agg::kCount, Agg::kSum};
  return {users, items};
}

QuerySpec ChurnLongQuery(TimeMicros span) {
  QuerySpec q;
  q.text = QueryText("COUNT(*)", "bid", "", kBidServers, "", span, false);
  q.aggs = {Agg::kCount};
  return q;
}

// The four short-lived submissions of one churn burst; `burst` rotates the
// constants so consecutive bursts are distinct queries.
std::vector<QuerySpec> ChurnBurst(int64_t burst) {
  const int64_t p = burst % 4 + 1;
  const long long pp = static_cast<long long>(p);
  QuerySpec grouped;
  grouped.text = QueryText("bid.exchange_id, COUNT(*)", "bid",
                           StrFormat("bid.bid_price > %lld.5", pp),
                           kBidServers, "bid.exchange_id", kShortSpan, false);
  grouped.where = [p](const Bid& b) {
    return b.price > static_cast<double>(p) + 0.5;
  };
  grouped.key = [](const Bid& b) { return b.exchange_id; };
  grouped.aggs = {Agg::kCount};
  QuerySpec avg;
  avg.text = QueryText(
      "AVG(bid.bid_price)", "bid",
      StrFormat("bid.country = 'US' AND bid.exchange_id = %lld", pp),
      kBidServers, "", kShortSpan, false);
  avg.where = [p](const Bid& b) {
    return b.country == 0 && b.exchange_id == p;
  };
  avg.arg = [](const Bid& b) { return b.price; };
  avg.aggs = {Agg::kAvg};
  QuerySpec join;
  join.text = QueryText("COUNT(*)", "bid, impression",
                        StrFormat("impression.cost > 0.00%lld", pp),
                        kEveryHost, "", kShortSpan, false);
  join.join = true;
  const double threshold = static_cast<double>(p) / 1000.0;
  join.where = [threshold](const Bid& b) { return b.cost() > threshold; };
  join.aggs = {Agg::kCount};
  QuerySpec sampled;
  sampled.text = QueryText("COUNT(*)", "bid", "", kBidServers, "",
                           kShortSpan, true);
  sampled.sampled = true;
  sampled.aggs = {Agg::kCount};
  return {grouped, avg, join, sampled};
}

// A workload's shape. It picks the queries and the mechanism floor a round
// checks: fanout's ship ratio, join's tuple count, churn's retirements.
enum class Kind { kFanout, kJoin, kChurn };

struct WorkloadDef {
  const char* name;
  double bids_per_sec;
  double impression_share;
  TimeMicros span;  // simulated seconds of load per round
  Kind kind;
};

const WorkloadDef kWorkloads[] = {
    {"fanout", 4'000, 0.0, 10 * kMicrosPerSecond, Kind::kFanout},
    {"join", 4'000, 2.0 / 3.0, 10 * kMicrosPerSecond, Kind::kJoin},
    {"churn", 2'000, 2.0 / 3.0, 12 * kMicrosPerSecond, Kind::kChurn},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<QuerySpec> InitialQueries(const WorkloadDef& w, TimeMicros span) {
  switch (w.kind) {
    case Kind::kFanout:
      return FanoutQueries(span);
    case Kind::kJoin:
      return JoinQueries(span);
    case Kind::kChurn:
      return {ChurnLongQuery(span)};
  }
  return {};
}

// ---------------------------------------------------------------------------
// One round.

struct Cell {
  uint64_t count = 0;
  double sum = 0.0;
  TimeMicros last_ts = 0;
};

struct LiveQuery {
  QuerySpec spec;
  QueryId id = 0;
  TimeMicros start = 0;
  TimeMicros end = 0;
  // Oracle cells by window start, then group key; a cell is erased once its
  // row has been checked, so what remains at the end was never delivered.
  std::map<TimeMicros, std::unordered_map<int64_t, Cell>> expected;
  std::vector<PhysicalOpKind> op_kinds;  // traced rounds only
};

struct Checks {
  uint64_t submits = 0;
  uint64_t rejected = 0;
  uint64_t rows_checked = 0;
  uint64_t rows_wrong = 0;     // wrong key, over-count, wrong value
  uint64_t rows_under = 0;     // count below the oracle
  uint64_t rows_missing = 0;   // oracle cell never delivered
  double count_expected = 0;   // unsampled COUNT(*) totals (event loss)
  double count_reported = 0;
  uint64_t floors_failed = 0;
  std::vector<std::string> errors;  // first few, for the report

  void Error(std::string message) {
    if (errors.size() < 8) {
      errors.push_back(std::move(message));
    }
  }
};

struct AgentTotals {
  uint64_t considered = 0, sampled_out = 0, filtered = 0, staged = 0,
           shipped = 0, dropped = 0, abandoned = 0, batches_sent = 0,
           batches_retransmitted = 0;
};

struct CentralTotals {
  uint64_t ingested = 0, tuples = 0, orphans = 0, late = 0, shed = 0,
           rows = 0, windows = 0, peak_state_bytes = 0;
  double completeness_min = 1.0;
  // Operator metrics summed by kind: cpu ns and rows in (windows for close).
  std::map<PhysicalOpKind, std::pair<uint64_t, uint64_t>> ops;
};

struct RoundResult {
  uint64_t events = 0;
  uint64_t impressions = 0;
  uint64_t wire_bytes = 0;
  uint64_t batches = 0;
  uint64_t modeled_ns = 0;
  double setup_s = 0.0;
  std::array<double, kLayerCount> ns{};
  std::vector<Call> calls;
  std::vector<double> submit_ns;
  std::vector<double> freshness_ms;
  std::vector<Span> spans;
  uint64_t transcript_hash = 0xcbf29ce484222325ULL;  // FNV-1a
  std::string transcript;  // kept only when asked for
  Checks checks;
  AgentTotals agent;
  CentralTotals central;
};

enum class Driver {
  kStepped,  // the benchmark: the flat data path stepped call by call
  kSystem,   // reference: ScrubSystem::RunUntil + Drain
};

class Round {
 public:
  Round(const WorkloadDef& w, uint64_t seed, TimeMicros span, Driver driver,
        bool traced, bool keep_transcript, const ZipfGenerator* users)
      : w_(w),
        span_(span),
        driver_(driver),
        traced_(traced),
        keep_transcript_(keep_transcript),
        seed_(seed),
        users_(users),
        meter_(traced) {}

  RoundResult Run() {
    wall0_ = std::chrono::steady_clock::now();
    const int setup = meter_.Open(kSetupSpan, 0);
    SystemConfig config;
    config.server.max_active_queries = 512;
    // State high-water marks are an observer; only traced rounds pay for
    // them (central.state.peak_bytes).
    config.central.track_state_bytes = traced_;
    sys_ = std::make_unique<ScrubSystem>(config);
    micros_per_byte_ = config.transport.micros_per_byte;
    bid_schema_ = *sys_->schemas().Get(kBidEvent);
    impression_schema_ = *sys_->schemas().Get(kImpressionEvent);
    const HostRegistry& registry = sys_->registry();
    for (size_t i = 0; i < registry.size(); ++i) {
      if (registry.Get(static_cast<HostId>(i)).monitorable) {
        agent_hosts_.push_back(static_cast<HostId>(i));
      }
    }
    host_events_.resize(registry.size());
    gen_.emplace(seed_, w_.bids_per_sec, w_.impression_share,
                 sys_->platform().bid_servers().size(), users_);
    for (const QuerySpec& spec : InitialQueries(w_, span_)) {
      Submit(spec);
    }
    meter_.Close(setup);

    for (int64_t k = 1;; ++k) {
      const TimeMicros t = k * kTick;
      const TimeMicros prev = t - kTick;
      if (driver_ == Driver::kStepped) {
        if (prev >= span_ + kDrain) {
          break;
        }
        StepTick(k, prev, t);
      } else {
        if (prev >= span_) {
          break;
        }
        SystemTick(prev, t);
      }
    }
    if (driver_ == Driver::kSystem) {
      sys_->Drain();
      CheckDelivered();
    }
    Finish();
    result_.ns = meter_.ns;
    result_.calls = std::move(meter_.calls);
    result_.spans = std::move(meter_.spans);
    return std::move(result_);
  }

 private:
  void Submit(const QuerySpec& spec) {
    std::vector<PhysicalOpKind> kinds;
    if (traced_) {
      // The admission path's stages, timed on the same text just before its
      // Submit (bench-side calls, not counted as system CPU).
      std::optional<Result<AnalyzedQuery>> analyzed;
      meter_.Time(kParse, [&] {
        analyzed.emplace(ParseAndAnalyze(spec.text, sys_->schemas()));
      });
      if (analyzed->ok()) {
        const LintOptions lint = sys_->LintConfig();
        meter_.Time(kLint, [&] { (void)LintQuery(**analyzed, lint); });
        std::optional<Result<QueryPlan>> plan;
        meter_.Time(kPlan, [&] {
          plan.emplace(PlanQuery(**analyzed, 0, sys_->Now()));
        });
        if (plan->ok()) {
          for (const PhysicalOp& op :
               CompilePhysical((*plan)->central,
                               PipelineRole::kSingleInstance)
                   .ops) {
            kinds.push_back(op.kind);
          }
        }
      }
    }
    std::optional<Result<SubmittedQuery>> submitted;
    const double before = meter_.ns[kSubmit];
    meter_.Time(kSubmit, [&] {
      submitted.emplace(sys_->Submit(
          spec.text, [this](const ResultRow& row) {
            delivered_.emplace_back(sys_->Now(), row);
          }));
    });
    result_.submit_ns.push_back(meter_.ns[kSubmit] - before);
    ++result_.checks.submits;
    if (!submitted->ok()) {
      ++result_.checks.rejected;
      result_.checks.Error("rejected: " + submitted->status().ToString() +
                           " :: " + spec.text);
      return;
    }
    LiveQuery q;
    q.spec = spec;
    q.id = (*submitted)->id;
    q.start = (*submitted)->start_time;
    q.end = (*submitted)->end_time;
    q.op_kinds = std::move(kinds);
    by_id_[q.id] = live_.size();
    live_.push_back(std::move(q));
  }

  // Churn: a burst of short queries at the end of every tick until their
  // spans would outlast the load.
  void SubmitBurst(TimeMicros t) {
    if (w_.kind != Kind::kChurn || t + kShortSpan > span_) {
      return;
    }
    for (const QuerySpec& spec : ChurnBurst(t / kTick)) {
      Submit(spec);
    }
  }

  // Draws the tick's bids, feeds the oracle and fills each host's event list
  // in time order.
  void GenerateTick(TimeMicros begin, TimeMicros end) {
    gen_->Tick(begin, end, &bids_);
    const auto& bid_hosts = sys_->platform().bid_servers();
    const auto& pres_hosts = sys_->platform().presentation_servers();
    for (size_t s = 0; s < bids_.size(); ++s) {
      std::vector<Event>& on_host = host_events_[bid_hosts[s]];
      for (const Bid& b : bids_[s]) {
        Observe(b);
        on_host.push_back(MakeBidEvent(bid_schema_, b));
        if (b.impression) {
          host_events_[pres_hosts[static_cast<size_t>(b.pres) %
                                  pres_hosts.size()]]
              .push_back(MakeImpressionEvent(impression_schema_, b));
          ++result_.impressions;
        }
      }
    }
    for (const HostId h : pres_hosts) {
      std::stable_sort(host_events_[h].begin(), host_events_[h].end(),
                       [](const Event& a, const Event& b) {
                         return a.timestamp() < b.timestamp();
                       });
    }
  }

  void Observe(const Bid& b) {
    for (LiveQuery& q : live_) {
      if (b.ts < q.start || b.ts >= q.end) {
        continue;
      }
      const QuerySpec& s = q.spec;
      if ((s.join && !b.impression) || (s.where && !s.where(b))) {
        continue;
      }
      const TimeMicros w = q.start + (b.ts - q.start) / kWindow * kWindow;
      Cell& cell = q.expected[w][s.key ? s.key(b) : 0];
      ++cell.count;
      if (s.arg) {
        cell.sum += s.arg(b);
      }
      cell.last_ts = std::max(cell.last_ts, b.ts);
    }
  }

  void StepTick(int64_t k, TimeMicros prev, TimeMicros t) {
    Scheduler& sched = sys_->scheduler();
    const int tick = meter_.Open(kTickSpan, k);
    meter_.Time(kControl, [&] { sched.RunUntil(prev + kQuietGap); });
    if (k == 1) {
      result_.setup_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0_)
                            .count();
    }
    if (prev < span_) {
      GenerateTick(prev + kQuietGap, t);
    }
    for (size_t h = 0; h < host_events_.size(); ++h) {
      std::vector<Event>& events = host_events_[h];
      if (events.empty()) {
        continue;
      }
      ScrubAgent* agent = sys_->agent(static_cast<HostId>(h));
      meter_.Time(
          kLog,
          [&] {
            for (Event& e : events) {
              agent->LogEvent(std::move(e));
            }
          },
          static_cast<int>(h));
      result_.events += events.size();
      events.clear();
    }
    meter_.Time(kControl, [&] { sched.RunUntil(t); });

    // Central folds batches in the order the transport would deliver them
    // (link latency plus the per-byte term, then send order), not host
    // order: SUM folds are order-sensitive in their last bits, and
    // --check-driver holds the transcript to ScrubSystem's byte for byte.
    const auto arrival = [&](HostId h, const EventBatch& b) {
      return t + sys_->transport().LatencyBetween(h, sys_->central_host()) +
             static_cast<TimeMicros>(micros_per_byte_ *
                                     static_cast<double>(b.WireSize()));
    };
    pending_.clear();
    for (const HostId h : agent_hosts_) {
      ScrubAgent* agent = sys_->agent(h);
      std::vector<EventBatch> flushed;
      std::vector<EventBatch> retries;
      const int flush =
          meter_.Time(kFlush, [&] { flushed = agent->Flush(t); }, h);
      const int retry =
          meter_.Time(kRetransmit, [&] { retries = agent->Retransmits(t); },
                      h);
      for (EventBatch& b : flushed) {
        pending_.push_back(Pending{h, flush, arrival(h, b), std::move(b)});
      }
      for (EventBatch& b : retries) {
        pending_.push_back(Pending{h, retry, arrival(h, b), std::move(b)});
      }
    }
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Pending& a, const Pending& b) {
                       return a.arrival < b.arrival;
                     });
    for (const Pending& p : pending_) {
      result_.wire_bytes += p.batch.WireSize();
      ++result_.batches;
      Status status;
      meter_.Time(
          kIngest,
          [&] { status = sys_->central().IngestBatch(p.batch, p.arrival); },
          p.host, p.parent);
      if (!status.ok()) {
        ++result_.checks.rows_wrong;
        result_.checks.Error("IngestBatch: " + status.ToString());
      }
      if (p.batch.seq != 0) {
        ScrubAgent* agent = sys_->agent(p.host);
        meter_.Time(
            kAck, [&] { agent->OnAck(p.batch.query_id, p.batch.seq); },
            p.host, p.parent);
      }
    }
    meter_.Time(kClose, [&] { sys_->central().OnTick(t); });
    SubmitBurst(t);
    meter_.Close(tick);
    CheckDelivered();
  }

  // Reference driver: the same events, scheduled at their timestamps, with
  // ScrubSystem::RunUntil doing the pumping.
  void SystemTick(TimeMicros prev, TimeMicros t) {
    GenerateTick(prev + kQuietGap, t);
    for (size_t h = 0; h < host_events_.size(); ++h) {
      ScrubAgent* agent = sys_->agent(static_cast<HostId>(h));
      for (Event& e : host_events_[h]) {
        const TimeMicros ts = e.timestamp();
        sys_->scheduler().ScheduleAt(
            ts, [agent, ev = std::move(e)]() mutable {
              agent->LogEvent(std::move(ev));
            });
        ++result_.events;
      }
      host_events_[h].clear();
    }
    sys_->RunUntil(t);
    SubmitBurst(t);
    CheckDelivered();
  }

  // Checks every row delivered since the last call against the oracle.
  void CheckDelivered() {
    Checks& c = result_.checks;
    for (const auto& [at, row] : delivered_) {
      const std::string line =
          StrFormat("%llu@%lld %s\n",
                    static_cast<unsigned long long>(row.query_id),
                    static_cast<long long>(at), row.ToString().c_str());
      for (const char ch : line) {
        result_.transcript_hash =
            (result_.transcript_hash ^ static_cast<uint8_t>(ch)) *
            0x100000001b3ULL;
      }
      if (keep_transcript_) {
        result_.transcript += line;
      }
      ++c.rows_checked;
      const auto qit = by_id_.find(row.query_id);
      if (qit == by_id_.end()) {
        ++c.rows_wrong;
        c.Error("row for an unknown query: " + line);
        continue;
      }
      LiveQuery& q = live_[qit->second];
      const QuerySpec& s = q.spec;
      size_t col = 0;
      int64_t key = 0;
      if (s.key) {
        if (row.values.empty() || !row.values[0].is_int()) {
          ++c.rows_wrong;
          c.Error("row without an integer group key: " + line);
          continue;
        }
        key = row.values[0].AsInt();
        col = 1;
      }
      const auto wit = q.expected.find(row.window_start);
      if (wit == q.expected.end() || wit->second.count(key) == 0) {
        ++c.rows_wrong;
        c.Error("row the oracle does not expect: " + line);
        continue;
      }
      const auto cit = wit->second.find(key);
      const Cell cell = cit->second;
      wit->second.erase(cit);
      if (wit->second.empty()) {
        q.expected.erase(wit);
      }
      if (row.values.size() != col + s.aggs.size()) {
        ++c.rows_wrong;
        c.Error("row with the wrong column count: " + line);
        continue;
      }
      bool wrong = false;
      bool under = false;
      for (size_t a = 0; a < s.aggs.size(); ++a, ++col) {
        const Value& v = row.values[col];
        if (!v.is_numeric()) {
          wrong = true;
          break;
        }
        const double got = v.AsNumber();
        const double count = static_cast<double>(cell.count);
        const double want = s.aggs[a] == Agg::kCount ? count
                            : s.aggs[a] == Agg::kSum ? cell.sum
                                                     : cell.sum / count;
        if (s.sampled) {
          // Sampled estimates are checked where Scrub reports a bound
          // (ungrouped COUNT/SUM, Eq. 2); elsewhere only the key is.
          const double bound =
              col < row.error_bounds.size() ? row.error_bounds[col] : 0.0;
          if (bound > 0.0 && std::fabs(got - want) > 2.5 * bound) {
            wrong = true;
          }
          continue;
        }
        if (s.aggs[a] == Agg::kCount) {
          c.count_expected += want;
          c.count_reported += got;
          if (got < want - 0.5) {
            under = true;
          } else if (got > want + 0.5) {
            wrong = true;
          }
        } else if (!under && std::fabs(got - want) >
                                 1e-9 * std::max(1.0, std::fabs(want))) {
          wrong = true;
        }
      }
      if (wrong) {
        ++c.rows_wrong;
        c.Error(StrFormat("wrong value (oracle count %llu sum %.17g): ",
                          static_cast<unsigned long long>(cell.count),
                          cell.sum) +
                line);
      } else if (under) {
        ++c.rows_under;
      }
      if (!s.sampled) {
        result_.freshness_ms.push_back(
            static_cast<double>(at - cell.last_ts) / kMicrosPerMilli);
      }
    }
    delivered_.clear();
  }

  // End of round: undelivered oracle cells, system counters, floors.
  void Finish() {
    Checks& c = result_.checks;
    bool shorts_retired = true;
    for (const LiveQuery& q : live_) {
      const bool counts = std::find(q.spec.aggs.begin(), q.spec.aggs.end(),
                                    Agg::kCount) != q.spec.aggs.end();
      if (!q.spec.sampled) {
        for (const auto& [w, cells] : q.expected) {
          for (const auto& [key, cell] : cells) {
            ++c.rows_missing;
            if (counts) {
              c.count_expected += static_cast<double>(cell.count);
            }
          }
        }
      }
      AgentTotals& a = result_.agent;
      bool on_agent = false;
      for (const HostId h : agent_hosts_) {
        ScrubAgent* agent = sys_->agent(h);
        on_agent = on_agent || agent->HasQuery(q.id);
        const AgentQueryStats* s = agent->StatsFor(q.id);
        if (s == nullptr) {
          continue;
        }
        a.considered += s->events_considered;
        a.sampled_out += s->events_sampled_out;
        a.filtered += s->events_filtered;
        a.staged += s->events_staged;
        a.shipped += s->events_shipped;
        a.dropped += s->events_dropped;
        a.abandoned += s->events_abandoned;
        a.batches_sent += s->batches_sent;
        a.batches_retransmitted += s->batches_retransmitted;
      }
      if (q.end - q.start == kShortSpan &&
          (on_agent || sys_->central().HasQuery(q.id))) {
        shorts_retired = false;
      }
      const CentralQueryStats* cs = sys_->central().StatsFor(q.id);
      if (cs == nullptr) {
        continue;
      }
      CentralTotals& ct = result_.central;
      ct.ingested += cs->events_ingested;
      ct.tuples += cs->tuples_joined;
      ct.orphans += cs->join_orphans;
      ct.late += cs->events_late;
      ct.shed += cs->events_shed;
      ct.rows += cs->rows_emitted;
      ct.windows += cs->windows_closed;
      ct.peak_state_bytes =
          std::max({ct.peak_state_bytes, cs->peak_state_bytes,
                    sys_->central().accountant().peak(q.id)});
      ct.completeness_min = std::min(ct.completeness_min, cs->completeness_min);
      for (size_t i = 0; i < q.op_kinds.size() && i < cs->op_metrics.size();
           ++i) {
        const OperatorMetrics& m = cs->op_metrics[i];
        // cpu_ns == 0 marks a fused stamp (the join op carries its fold).
        if (m.cpu_ns == 0) {
          continue;
        }
        auto& [cpu, units] = ct.ops[q.op_kinds[i]];
        cpu += m.cpu_ns;
        units += q.op_kinds[i] == PhysicalOpKind::kWindowClose ? m.batches
                                                                : m.rows_in;
      }
      if (w_.kind == Kind::kJoin && q.spec.join &&
          static_cast<double>(cs->tuples_joined) <
              0.6 * static_cast<double>(result_.impressions)) {
        ++c.floors_failed;
        c.Error(StrFormat("join floor: %llu tuples < 60%% of %llu impressions",
                          static_cast<unsigned long long>(cs->tuples_joined),
                          static_cast<unsigned long long>(
                              result_.impressions)));
      }
    }
    for (const HostId h : agent_hosts_) {
      result_.modeled_ns +=
          static_cast<uint64_t>(sys_->HostOverhead(h).scrub_ns);
    }
    if (w_.kind == Kind::kFanout) {
      const double ratio = static_cast<double>(result_.agent.shipped) /
                           static_cast<double>(
                               std::max<uint64_t>(1, result_.agent.considered));
      if (ratio < 0.05 || ratio > 0.95) {
        ++c.floors_failed;
        c.Error(StrFormat("fanout floor: ship ratio %.3f outside [0.05, 0.95]",
                          ratio));
      }
    }
    if (w_.kind == Kind::kChurn && !shorts_retired) {
      ++c.floors_failed;
      c.Error("churn floor: a short query is still installed at round end");
    }
  }

  struct Pending {
    HostId host;
    int parent;  // span of the Flush / Retransmits call that produced it
    TimeMicros arrival;  // when the transport would deliver it to central
    EventBatch batch;
  };

  const WorkloadDef& w_;
  TimeMicros span_;
  Driver driver_;
  bool traced_;
  bool keep_transcript_;
  uint64_t seed_;
  const ZipfGenerator* users_;
  Meter meter_;
  std::chrono::steady_clock::time_point wall0_;
  std::unique_ptr<ScrubSystem> sys_;
  std::optional<LoadGenerator> gen_;
  SchemaPtr bid_schema_;
  SchemaPtr impression_schema_;
  double micros_per_byte_ = 0.0;
  std::vector<HostId> agent_hosts_;
  std::vector<std::vector<Event>> host_events_;
  std::vector<std::vector<Bid>> bids_;
  std::vector<Pending> pending_;
  std::vector<std::pair<TimeMicros, ResultRow>> delivered_;
  std::vector<LiveQuery> live_;
  std::unordered_map<QueryId, size_t> by_id_;
  RoundResult result_;
};

// ---------------------------------------------------------------------------
// Metrics.

using Metrics = std::map<std::string, double>;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// CPU of the system's own calls (everything but bench-side timing of the
// admission stages), split the way the end-to-end metrics report it.
struct CpuSplit {
  double host = 0, central = 0, total = 0;
};

CpuSplit Split(const std::array<double, kLayerCount>& ns) {
  CpuSplit s;
  s.host = ns[kLog] + ns[kFlush] + ns[kRetransmit] + ns[kAck];
  s.central = ns[kIngest] + ns[kClose];
  s.total = s.host + s.central + ns[kControl] + ns[kSubmit];
  return s;
}

Metrics EndToEnd(const RoundResult& r) {
  const double events = static_cast<double>(r.events);
  const CpuSplit cpu = Split(r.ns);
  Metrics m;
  m["host_ns_per_event"] = Div(cpu.host, events);
  m["log_ns_per_event"] = Div(r.ns[kLog], events);
  m["central_ns_per_event"] = Div(cpu.central, events);
  m["events_per_cpu_s"] = Div(events, cpu.total / 1e9);
  m["wire_bytes_per_event"] = Div(static_cast<double>(r.wire_bytes), events);
  m["freshness_ms_p50"] = Percentile(r.freshness_ms, 0.50);
  m["freshness_ms_p99"] = Percentile(r.freshness_ms, 0.99);
  m["admit_us_p50"] = Percentile(r.submit_ns, 0.50) / 1e3;
  m["setup_s"] = r.setup_s;
  return m;
}

// Per-layer numbers of a traced round, computed from its spans.
Metrics PerLayer(const RoundResult& r) {
  std::array<double, kLayerCount> ns{};
  std::array<double, kLayerCount> calls{};
  std::array<std::vector<double>, kLayerCount> durations;
  double self_ns = 0;
  uint64_t ticks = 0;
  const Span* tick = nullptr;
  double children = 0;
  const auto close_tick = [&] {
    if (tick != nullptr) {
      self_ns += static_cast<double>(tick->end_ns - tick->start_ns) - children;
      ++ticks;
    }
  };
  for (const Span& s : r.spans) {
    if (s.layer == kTickSpan || s.layer == kSetupSpan) {
      close_tick();
      tick = s.layer == kTickSpan ? &s : nullptr;
      children = 0;
      continue;
    }
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    ns[s.layer] += d;
    calls[s.layer] += 1;
    durations[s.layer].push_back(d);
    children += d;
  }
  close_tick();

  const double events = static_cast<double>(r.events);
  const AgentTotals& a = r.agent;
  const CentralTotals& c = r.central;
  const CpuSplit cpu = Split(ns);
  const auto op = [&](PhysicalOpKind kind) {
    const auto it = c.ops.find(kind);
    return it == c.ops.end()
               ? 0.0
               : Div(static_cast<double>(it->second.first),
                     static_cast<double>(it->second.second));
  };
  Metrics m;
  m["agent.log.ns_per_event"] = Div(ns[kLog], events);
  m["agent.log.ns_per_event_query"] =
      Div(ns[kLog], static_cast<double>(a.considered));
  m["agent.flush.ns_per_call"] = Div(ns[kFlush], calls[kFlush]);
  m["agent.flush.ns_per_staged_event"] =
      Div(ns[kFlush], static_cast<double>(a.staged));
  m["agent.retransmit.ns_per_call"] =
      Div(ns[kRetransmit], calls[kRetransmit]);
  m["agent.ack.ns_per_call"] = Div(ns[kAck], calls[kAck]);
  m["agent.events_considered"] = static_cast<double>(a.considered);
  m["agent.events_sampled_out"] = static_cast<double>(a.sampled_out);
  m["agent.events_filtered"] = static_cast<double>(a.filtered);
  m["agent.events_staged"] = static_cast<double>(a.staged);
  m["agent.events_shipped"] = static_cast<double>(a.shipped);
  m["agent.events_dropped"] = static_cast<double>(a.dropped);
  m["agent.events_abandoned"] = static_cast<double>(a.abandoned);
  m["agent.ship_ratio"] = Div(static_cast<double>(a.shipped),
                              static_cast<double>(a.considered));
  m["agent.batches_sent"] = static_cast<double>(a.batches_sent);
  m["agent.batches_retransmitted"] =
      static_cast<double>(a.batches_retransmitted);
  m["agent.batch_fill"] =
      Div(static_cast<double>(a.shipped),
          static_cast<double>(a.batches_sent *
                              AgentConfig{}.max_batch_events));
  m["agent.modeled_ns_per_event"] =
      Div(static_cast<double>(r.modeled_ns), events);
  m["wire.bytes_per_shipped_event"] = Div(static_cast<double>(r.wire_bytes),
                                          static_cast<double>(a.shipped));
  m["wire.batches"] = static_cast<double>(r.batches);
  m["central.ingest.ns_per_call"] = Div(ns[kIngest], calls[kIngest]);
  m["central.ingest.ns_per_event"] =
      Div(ns[kIngest], static_cast<double>(c.ingested));
  m["central.close.ns_per_tick"] = Div(ns[kClose], calls[kClose]);
  m["central.close.ns_per_row"] =
      Div(ns[kClose], static_cast<double>(c.rows));
  m["central.op.decode.ns_per_row"] = op(PhysicalOpKind::kDecode);
  m["central.op.join.ns_per_row"] = op(PhysicalOpKind::kJoin);
  m["central.op.group_fold.ns_per_row"] = op(PhysicalOpKind::kGroupFold);
  m["central.op.finalize.ns_per_row"] = op(PhysicalOpKind::kFinalize);
  m["central.op.window_close.ns_per_window"] =
      op(PhysicalOpKind::kWindowClose);
  m["central.join.tuples"] = static_cast<double>(c.tuples);
  m["central.join.orphans"] = static_cast<double>(c.orphans);
  m["central.state.peak_bytes"] = static_cast<double>(c.peak_state_bytes);
  m["central.events_late"] = static_cast<double>(c.late);
  m["central.events_shed"] = static_cast<double>(c.shed);
  m["central.rows_emitted"] = static_cast<double>(c.rows);
  m["central.windows_closed"] = static_cast<double>(c.windows);
  m["central.completeness_min"] = c.completeness_min;
  m["server.submit.us_p95"] = Percentile(durations[kSubmit], 0.95) / 1e3;
  m["query.parse_analyze.us_p50"] = Percentile(durations[kParse], 0.5) / 1e3;
  m["lint.us_p50"] = Percentile(durations[kLint], 0.5) / 1e3;
  m["plan.us_p50"] = Percentile(durations[kPlan], 0.5) / 1e3;
  m["cluster.control.ns_per_tick"] =
      Div(ns[kControl], static_cast<double>(ticks));
  m["bench.self_ns_per_tick"] = Div(self_ns, static_cast<double>(ticks));
  m["trace.host_ns_per_event"] = Div(cpu.host, events);
  m["trace.central_ns_per_event"] = Div(cpu.central, events);
  m["oracle.event_loss_frac"] =
      1.0 - Div(r.checks.count_reported, r.checks.count_expected);
  return m;
}

// The lower envelope of a run's rounds. Rounds of one seed make the same
// calls, on the same input, in the same order, and CPU shared with other
// tenants only ever adds time to a call. So each call's least CPU over the
// rounds is its own cost with interference filtered out call by call, and
// the end-to-end CPU metrics are computed from these per-call minima.
class Envelope {
 public:
  // Folds in one round; false if its calls do not line up with the earlier
  // rounds' (which would mean the rounds did different work).
  bool Add(const std::vector<Call>& calls) {
    if (calls_.empty()) {
      calls_ = calls;
      return !calls.empty();
    }
    if (calls.size() != calls_.size()) {
      return false;
    }
    for (size_t i = 0; i < calls.size(); ++i) {
      if (calls[i].layer != calls_[i].layer) {
        return false;
      }
      calls_[i].ns = std::min(calls_[i].ns, calls[i].ns);
    }
    return true;
  }

  std::array<double, kLayerCount> Ns() const {
    std::array<double, kLayerCount> ns{};
    for (const Call& c : calls_) {
      ns[c.layer] += c.ns;
    }
    return ns;
  }

  std::vector<double> Of(Layer layer) const {
    std::vector<double> out;
    for (const Call& c : calls_) {
      if (c.layer == layer) {
        out.push_back(c.ns);
      }
    }
    return out;
  }

 private:
  std::vector<Call> calls_;
};

// An end-to-end metric. The CPU-time ones come from a run's envelope, scaled
// to kReferenceLoadNs; setup_s (wall time) is the median over its rounds;
// the rest are the same in every round of a seed.
struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"host_ns_per_event", "ns"},    {"log_ns_per_event", "ns"},
    {"central_ns_per_event", "ns"}, {"events_per_cpu_s", "events/s"},
    {"wire_bytes_per_event", "B"},  {"freshness_ms_p50", "ms"},
    {"freshness_ms_p99", "ms"},     {"admit_us_p50", "us"},
    {"max_rss_mb", "MiB"},          {"setup_s", "s"},
};

const char* LayerUnit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_frac") || ends("ratio") || ends("fill") || ends("_min")) {
    return "fraction";
  }
  if (ends("peak_bytes") || ends("bytes_per_shipped_event")) {
    return "B";
  }
  if (name.find("ns_per") != std::string::npos) {
    return "ns";
  }
  if (name.find("us_p") != std::string::npos) {
    return "us";
  }
  return "count";
}

// Peak RSS of the process, less the memory probe's table (all of it
// resident from the probe's construction on).
double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (static_cast<double>(usage.ru_maxrss) * 1024.0 -
          static_cast<double>(MemoryProbe::kBytes)) /
         (1024.0 * 1024.0);
}

// The median of each metric over a run's rounds.
Metrics OverRounds(const std::vector<Metrics>& rounds) {
  Metrics out;
  if (rounds.empty()) {
    return out;
  }
  for (const auto& [name, unused] : rounds.front()) {
    std::vector<double> v;
    for (const Metrics& m : rounds) {
      v.push_back(m.at(name));
    }
    out[name] = Percentile(v, 0.5);
  }
  return out;
}

// The memory load latency the CPU-time metrics are scaled to: about what the
// probe reads on the README's baseline host when that host is quiet.
constexpr double kReferenceLoadNs = 130.0;

// The end-to-end metrics of a run: its last round with each call's CPU
// replaced by the envelope's times `scale`, and set-up as the median over
// its rounds.
Metrics EnvelopeMetrics(RoundResult r, const Envelope& env,
                        const std::vector<Metrics>& rounds, double scale) {
  r.ns = env.Ns();
  r.submit_ns = env.Of(kSubmit);
  for (double& ns : r.ns) {
    ns *= scale;
  }
  for (double& ns : r.submit_ns) {
    ns *= scale;
  }
  Metrics m = EndToEnd(r);
  m["setup_s"] = OverRounds(rounds).at("setup_s");
  return m;
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Trace file (Chrome trace-event format).

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "scrubbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"tick\":%lld,\"host\":%d}}\n",
                 i == 0 ? "" : ",", kLayerNames[s.layer],
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<long long>(s.tick), s.host);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Entry points.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  double sim_seconds = 0.0;  // 0 = the workload's own span
  std::string trace_dir;
  bool check_driver = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: scrubbench --workload fanout|join|churn [--seed N] "
               "[--seconds S] [--trace 0|1] [--sim-seconds X] "
               "[--trace-dir DIR]\n"
               "       scrubbench --check-driver [--workload NAME] "
               "[--seed N]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check-driver") {
      o->check_driver = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o->trace = std::strtol(v, &end, 10) != 0;
    } else if (flag == "--sim-seconds") {
      o->sim_seconds = std::strtod(v, &end);
    } else if (flag == "--trace-dir") {
      o->trace_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return o->check_driver || !o->workload.empty();
}

void PrintErrors(const Checks& c) {
  for (const std::string& e : c.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
}

// --check-driver: the stepped driver and ScrubSystem::RunUntil + Drain must
// deliver byte-identical transcripts.
int CheckDriver(const Options& o, const ZipfGenerator* users) {
  bool ok = true;
  for (const WorkloadDef& w : kWorkloads) {
    if (!o.workload.empty() && o.workload != w.name) {
      continue;
    }
    const TimeMicros span = 10 * kMicrosPerSecond;
    RoundResult stepped =
        Round(w, o.seed, span, Driver::kStepped, false, true, users).Run();
    RoundResult system =
        Round(w, o.seed, span, Driver::kSystem, false, true, users).Run();
    const bool same = stepped.transcript == system.transcript;
    const bool clean = stepped.checks.rows_wrong == 0 &&
                       system.checks.rows_wrong == 0 &&
                       stepped.checks.rejected == 0;
    std::printf("check-driver %-7s %s: %llu rows, %zu transcript bytes\n",
                w.name, same && clean ? "identical" : "DIFFERENT",
                static_cast<unsigned long long>(stepped.checks.rows_checked),
                stepped.transcript.size());
    if (!same) {
      size_t i = 0;
      while (i < stepped.transcript.size() && i < system.transcript.size() &&
             stepped.transcript[i] == system.transcript[i]) {
        ++i;
      }
      const size_t line = stepped.transcript.rfind('\n', i);
      const size_t from = line == std::string::npos ? 0 : line + 1;
      std::printf("  stepped: %s\n  system:  %s\n",
                  stepped.transcript.substr(from, 160).c_str(),
                  system.transcript.substr(from, 160).c_str());
    }
    PrintErrors(stepped.checks);
    PrintErrors(system.checks);
    ok = ok && same && clean;
  }
  return ok ? 0 : 1;
}

int Run(const Options& o, const ZipfGenerator* users) {
  const WorkloadDef* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "scrubbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const TimeMicros span =
      o.sim_seconds > 0
          ? static_cast<TimeMicros>(o.sim_seconds) * kMicrosPerSecond
          : w->span;
  // Per-round metrics (set-up, per-layer) and the envelope of each kind of
  // round, with the last round of each kind as the template for the rest.
  std::vector<Metrics> untraced;
  std::vector<Metrics> traced_e2e;
  std::vector<Metrics> layers;
  Envelope untraced_env;
  Envelope traced_env;
  std::optional<RoundResult> last_untraced;
  std::optional<RoundResult> last_traced;
  std::vector<Span> last_spans;
  Checks total;
  bool deterministic = true;
  uint64_t hash = 0;
  MemoryProbe probe;
  std::vector<double> loads;  // the probe's reading before each round
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const bool need_traced = o.trace && layers.empty();
    if (i > 0 && elapsed >= o.seconds && !need_traced) {
      break;
    }
    loads.push_back(probe.NsPerLoad());
    // Traced runs alternate untraced and traced rounds.
    const bool traced = o.trace && i % 2 == 1;
    Round round(*w, o.seed, span, Driver::kStepped, traced, false, users);
    RoundResult r = round.Run();
    if (i == 0) {
      hash = r.transcript_hash;
    }
    deterministic = deterministic && r.transcript_hash == hash &&
                    (traced ? traced_env : untraced_env).Add(r.calls);
    const CpuSplit cpu = Split(r.ns);
    std::printf("  round %2d%s: host %8.1f ns/event, central %8.1f ns/event, "
                "set-up %6.2f ms, memory load %6.1f ns\n",
                i, traced ? " (traced)" : "",
                Div(cpu.host, static_cast<double>(r.events)),
                Div(cpu.central, static_cast<double>(r.events)),
                r.setup_s * 1e3, loads.back());
    const Checks& c = r.checks;
    total.submits += c.submits;
    total.rejected += c.rejected;
    total.rows_checked += c.rows_checked;
    total.rows_wrong += c.rows_wrong;
    total.rows_under += c.rows_under;
    total.rows_missing += c.rows_missing;
    total.count_expected += c.count_expected;
    total.count_reported += c.count_reported;
    total.floors_failed += c.floors_failed;
    for (const std::string& e : c.errors) {
      total.Error(e);
    }
    if (traced) {
      layers.push_back(PerLayer(r));
      traced_e2e.push_back(EndToEnd(r));
      last_spans = std::move(r.spans);
      last_traced = std::move(r);
    } else {
      untraced.push_back(EndToEnd(r));
      last_untraced = std::move(r);
    }
  }
  if (!deterministic) {
    total.Error("rounds of one seed differ in their result transcripts or "
                "in the calls they made (traced vs untraced, or run to run)");
  }
  // Tenants sharing the host slow the program's memory accesses and the
  // probe's together, over stretches of minutes that outlast a run. The
  // CPU-time metrics are therefore scaled from the load latency the probe
  // read to kReferenceLoadNs; the probe's lower decile, like the envelope,
  // is a figure from the quiet moments of the run.
  const double load_ns = Percentile(loads, 0.1);
  const double scale = kReferenceLoadNs / load_ns;
  const uint64_t events = last_untraced->events;
  const uint64_t modeled = last_untraced->modeled_ns;
  const Metrics unscaled =
      EnvelopeMetrics(*last_untraced, untraced_env, untraced, 1.0);
  Metrics e2e = EnvelopeMetrics(std::move(*last_untraced), untraced_env,
                                untraced, scale);
  e2e["max_rss_mb"] = MaxRssMb();
  std::printf("scrubbench workload=%s seed=%llu rounds=%zu untraced + %zu "
              "traced, %lld s simulated load per round, %llu events per "
              "round\n",
              w->name, static_cast<unsigned long long>(o.seed),
              untraced.size(), layers.size(),
              static_cast<long long>(span / kMicrosPerSecond),
              static_cast<unsigned long long>(events));
  for (const MetricDef& d : kEndToEnd) {
    std::printf("  %-22s %14.4f %s\n", d.name, e2e[d.name], d.unit);
  }
  std::printf("  CPU-time metrics above are scaled by %.0f / %.2f ns memory "
              "load latency; unscaled: host %.4f, log %.4f, central %.4f ns "
              "per event, %.2f events per CPU s, admit %.4f us\n",
              kReferenceLoadNs, load_ns, unscaled.at("host_ns_per_event"),
              unscaled.at("log_ns_per_event"),
              unscaled.at("central_ns_per_event"),
              unscaled.at("events_per_cpu_s"), unscaled.at("admit_us_p50"));
  // Modeled next to measured: the CostModel charge the agents book against
  // the agent CPU the clock saw, never one passed off as the other.
  const double modeled_per_event = Div(static_cast<double>(modeled),
                                       static_cast<double>(events));
  std::printf("  %-22s %14.4f ns  (modeled, CostModel constants; measured "
              "unscaled host_ns_per_event / modeled = %.2f)\n",
              "agent.modeled_ns_per_event", modeled_per_event,
              Div(unscaled.at("host_ns_per_event"), modeled_per_event));
  std::printf("  oracle: %llu rows checked, %llu wrong, %llu under-counted, "
              "%llu missing, %llu/%llu submissions rejected, event loss "
              "%.6f\n",
              static_cast<unsigned long long>(total.rows_checked),
              static_cast<unsigned long long>(total.rows_wrong),
              static_cast<unsigned long long>(total.rows_under),
              static_cast<unsigned long long>(total.rows_missing),
              static_cast<unsigned long long>(total.rejected),
              static_cast<unsigned long long>(total.submits),
              1.0 - Div(total.count_reported, total.count_expected));

  Metrics reported;
  if (o.trace) {
    reported = OverRounds(layers);
    reported["bench.memory.ns_per_load"] = load_ns;
    const Metrics t = EnvelopeMetrics(std::move(*last_traced), traced_env,
                                      traced_e2e, scale);
    const double traced_cpu = Div(1e9, t.at("events_per_cpu_s"));
    const double untraced_cpu = Div(1e9, e2e.at("events_per_cpu_s"));
    reported["trace.overhead_frac"] = Div(traced_cpu, untraced_cpu) - 1.0;
    std::printf("  traced rounds (end-to-end, for the overhead only):\n");
    for (const MetricDef& d : kEndToEnd) {
      if (t.count(d.name) > 0) {
        std::printf("    %-20s %14.4f %s\n", d.name, t.at(d.name), d.unit);
      }
    }
    std::printf("  per-layer (median of traced rounds):\n");
    for (const auto& [name, v] : reported) {
      std::printf("    %-40s %16.4f %s\n", name.c_str(), v,
                  LayerUnit(name));
    }
    if (!o.trace_dir.empty()) {
      const std::string path = o.trace_dir + "/trace-" + w->name + ".json";
      WriteTrace(path, last_spans);
      std::printf("  trace: %zu spans -> %s\n", last_spans.size(),
                  path.c_str());
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      reported[d.name] = e2e[d.name];
    }
  }
  PrintErrors(total);

  const bool correct = total.rows_wrong == 0 && total.rejected == 0 &&
                       total.floors_failed == 0 && deterministic;
  const uint64_t attempted =
      total.rows_checked + total.rows_missing + total.submits;
  const uint64_t failed =
      total.rows_under + total.rows_missing + total.rejected;
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, v] : reported) {
    const char* unit = LayerUnit(name);
    for (const MetricDef& d : kEndToEnd) {
      if (name == d.name) {
        unit = d.unit;
      }
    }
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), Number(v).c_str(),
                      unit);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace scrub

int main(int argc, char** argv) {
  scrub::Options options;
  if (!scrub::ParseOptions(argc, argv, &options)) {
    return scrub::Usage();
  }
  // Users are Zipf(1.0)-popular; the table is built once, outside every
  // timed interval and every round's set-up.
  const scrub::ZipfGenerator users(scrub::kUsers, 1.0);
  return options.check_driver ? scrub::CheckDriver(options, &users)
                              : scrub::Run(options, &users);
}
