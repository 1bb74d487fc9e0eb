// Unit tests for the physical-operator executor: one compiled pipeline
// interpreted against ColumnBatch selections. Folded chunks must agree with
// the naive reference executor (tests/reference_executor.h), and how events
// are cut into chunks must not change a single transcript byte — same
// values, same bounds, same emission order.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/executor.h"
#include "src/common/rng.h"
#include "src/common/spill.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/plan/physical.h"
#include "src/query/analyzer.h"
#include "tests/reference_executor.h"

namespace scrub {
namespace {

std::string RenderRow(const ResultRow& row) {
  std::string out = StrFormat("w%lld %s c=%.17g",
                              static_cast<long long>(row.window_start),
                              row.ToString().c_str(), row.completeness);
  for (const double b : row.error_bounds) {
    out += StrFormat(" b=%.17g", b);
  }
  return out;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    imp_schema_ = *EventSchema::Builder("impression")
                       .AddField("line_item_id", FieldType::kLong)
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
    EXPECT_TRUE(registry_.Register(imp_schema_).ok());
  }

  // QueryState wired the way ScrubCentral's InstallQuery wires it, with the
  // sink appending full-precision renderings to `transcript`.
  QueryState StateFor(std::string_view text, QueryId id,
                      std::vector<std::string>* transcript) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    QueryState q;
    q.plan = plan->central;
    q.plan.hosts_targeted = 1;
    q.plan.hosts_sampled = 1;
    q.pipeline = CompilePhysical(q.plan, PipelineRole::kSingleInstance);
    q.sink = [transcript](const ResultRow& row) {
      transcript->push_back(RenderRow(row));
    };
    return q;
  }

  std::vector<Event> RandomBids(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<Event> events;
    for (int i = 0; i < n; ++i) {
      Event e(bid_schema_, rng.NextUint64(),
              100 + static_cast<TimeMicros>(rng.NextBelow(3'000'000)));
      e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(6))));
      e.SetField(1, Value(rng.NextDouble() * 5));
      events.push_back(std::move(e));
    }
    return events;
  }

  static std::shared_ptr<const ColumnBatch> ToColumns(
      const SchemaPtr& schema, const std::vector<Event>& events) {
    auto batch = std::make_shared<ColumnBatch>(schema);
    batch->Reserve(events.size());
    for (const Event& e : events) {
      batch->AppendEvent(e);
    }
    return batch;
  }

  // Folds chunks into a fresh QueryState, closes every window in start
  // order, and returns the emitted rows.
  std::vector<ResultRow> RunRows(
      std::string_view text,
      const std::vector<std::pair<HostId, InputChunk>>& chunks) {
    std::vector<std::string> ignored;
    QueryState q = StateFor(text, 1, &ignored);
    std::vector<ResultRow> rows;
    q.sink = [&rows](const ResultRow& row) { rows.push_back(row); };
    Executor executor(&registry_, &config_, &meter_);
    // Open every window of the span, as agent heartbeat counters would, so
    // ungrouped queries emit a row per window like the reference does.
    for (TimeMicros ts = q.plan.start_time; ts < q.plan.end_time;
         ts += q.plan.window_micros) {
      executor.WindowsFor(q, ts);
    }
    for (const auto& [host, chunk] : chunks) {
      executor.Fold(q, host, chunk);
    }
    while (!q.windows.empty()) {
      auto it = q.windows.begin();
      executor.CloseWindow(q, &it->second);
      q.closed_through = it->first;
      q.windows.erase(it);
    }
    EXPECT_FALSE(rows.empty());
    return rows;
  }

  // RunRows rendered at full precision (values, completeness, bounds).
  std::vector<std::string> Run(
      std::string_view text,
      const std::vector<std::pair<HostId, InputChunk>>& chunks) {
    std::vector<std::string> transcript;
    for (const ResultRow& row : RunRows(text, chunks)) {
      transcript.push_back(RenderRow(row));
    }
    return transcript;
  }

  // Matches `rows` against the naive reference executor over `events`: rows
  // pair up by (window, group keys); exact columns compare by rendering,
  // SUM/AVG within a relative 1e-9 (the reference sums in its own order).
  void ExpectMatchesReference(std::string_view text,
                              const std::vector<Event>& events,
                              const std::vector<ResultRow>& rows) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    ASSERT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ReferenceExecutor reference(*aq, plan->central);
    for (const Event& e : events) {
      reference.Observe(e);
    }
    const std::vector<ColumnCheck> checks = reference.ColumnChecks();
    const std::vector<OutputColumn>& outputs = plan->central.outputs;
    const auto key_of = [&](const ResultRow& row) {
      std::string key = std::to_string(row.window_start);
      for (size_t i = 0; i < outputs.size(); ++i) {
        if (outputs[i].expr.kind == OutputKind::kGroupKey) {
          key += "|" + row.values[i].ToString();
        }
      }
      return key;
    };
    std::map<std::string, ResultRow> truth;
    for (ResultRow& row : reference.Execute()) {
      truth.emplace(key_of(row), std::move(row));
    }
    ASSERT_EQ(rows.size(), truth.size());
    for (const ResultRow& row : rows) {
      const auto it = truth.find(key_of(row));
      ASSERT_NE(it, truth.end()) << "unexpected row " << row.ToString();
      ASSERT_EQ(row.values.size(), it->second.values.size());
      for (size_t i = 0; i < row.values.size(); ++i) {
        const Value& want = it->second.values[i];
        if (checks[i] == ColumnCheck::kApproxDouble && !want.is_null()) {
          EXPECT_NEAR(row.values[i].AsNumber(), want.AsNumber(),
                      1e-9 * (1.0 + std::abs(want.AsNumber())))
              << row.ToString();
        } else {
          EXPECT_EQ(row.values[i].ToString(), want.ToString())
              << row.ToString();
        }
      }
    }
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr imp_schema_;
  CentralConfig config_;
  CostMeter meter_;
};

TEST_F(ExecutorTest, CompiledPipelineNamesItsOperators) {
  std::vector<std::string> sink;
  const QueryState agg = StateFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 1 s DURATION 4 s;",
      1, &sink);
  const std::string ops = agg.pipeline.ToString();
  EXPECT_NE(ops.find("Decode("), std::string::npos) << ops;
  EXPECT_NE(ops.find("GroupFold("), std::string::npos) << ops;
  EXPECT_NE(ops.find("WindowClose("), std::string::npos) << ops;
  EXPECT_NE(ops.find("Finalize("), std::string::npos) << ops;
  EXPECT_EQ(ops.find("Join("), std::string::npos) << ops;

  const QueryState join = StateFor(
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 1 s DURATION 4 s;",
      2, &sink);
  EXPECT_NE(join.pipeline.ToString().find("Join("), std::string::npos);

  const QueryState raw = StateFor(
      "SELECT bid.user_id, bid.price FROM bid WINDOW 1 s DURATION 4 s;", 3,
      &sink);
  EXPECT_NE(raw.pipeline.ToString().find("Project("), std::string::npos);
  EXPECT_EQ(raw.pipeline.ToString().find("GroupFold("), std::string::npos);
}

TEST_F(ExecutorTest, ColumnarChunksFoldLikeTheReference) {
  const char* query =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price), "
      "MIN(bid.price), MAX(bid.price) FROM bid GROUP BY bid.user_id "
      "WINDOW 1 s DURATION 4 s;";
  const std::vector<Event> events = RandomBids(500, 17);
  const auto batch = ToColumns(bid_schema_, events);
  ExpectMatchesReference(
      query, events,
      RunRows(query, {{HostId{0}, InputChunk::Columns(batch, nullptr, 0)}}));

  // Chunk boundaries carry no fold effects: the same rows cut into uneven
  // selections fold to the byte-identical transcript.
  std::vector<uint32_t> all(events.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<uint32_t>(i);
  }
  std::vector<std::pair<HostId, InputChunk>> pieces;
  for (size_t start = 0, len = 1; start < all.size(); start += len, len *= 3) {
    const size_t n = std::min(len, all.size() - start);
    pieces.emplace_back(HostId{0},
                        InputChunk::Columns(batch, all.data() + start, n));
  }
  EXPECT_EQ(Run(query, pieces),
            Run(query, {{HostId{0}, InputChunk::Columns(batch, nullptr, 0)}}));
}

TEST_F(ExecutorTest, ColumnarSelectionFoldsOnlySelectedRows) {
  const char* query =
      "SELECT COUNT(*), SUM(bid.price) FROM bid WINDOW 1 s DURATION 4 s;";
  const std::vector<Event> all = RandomBids(300, 23);
  std::vector<Event> evens;
  std::vector<uint32_t> selection;
  for (size_t i = 0; i < all.size(); i += 2) {
    evens.push_back(all[i]);
    selection.push_back(static_cast<uint32_t>(i));
  }

  const auto batch = ToColumns(bid_schema_, all);
  ExpectMatchesReference(
      query, evens,
      RunRows(query,
              {{HostId{0}, InputChunk::Columns(batch, selection.data(),
                                               selection.size())}}));
  // Folding the selected rows copied out into their own batch is the same
  // transcript, byte for byte.
  EXPECT_EQ(
      Run(query, {{HostId{0}, InputChunk::Columns(batch, selection.data(),
                                                  selection.size())}}),
      Run(query, {{HostId{0}, InputChunk::Columns(
                                  ToColumns(bid_schema_, evens), nullptr,
                                  0)}}));
}

TEST_F(ExecutorTest, JoinFoldsColumnarChunksLikeTheReference) {
  const char* query =
      "SELECT impression.line_item_id, COUNT(*), SUM(bid.price) "
      "FROM bid, impression GROUP BY impression.line_item_id "
      "WINDOW 1 s DURATION 4 s;";
  Rng rng(31);
  std::vector<Event> bids;
  std::vector<Event> imps;
  for (int i = 0; i < 200; ++i) {
    const RequestId rid = rng.NextUint64();
    const TimeMicros ts =
        100 + static_cast<TimeMicros>(rng.NextBelow(3'000'000));
    Event bid(bid_schema_, rid, ts);
    bid.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(6))));
    bid.SetField(1, Value(rng.NextDouble() * 5));
    bids.push_back(std::move(bid));
    // Two of three requests get a matching impression; the rest stay join
    // orphans that the fold must never materialize into Events.
    if (i % 3 != 0) {
      Event imp(imp_schema_, rid, ts);
      imp.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(4))));
      imp.SetField(1, Value(rng.NextDouble()));
      imps.push_back(std::move(imp));
    }
  }

  const auto bid_batch = ToColumns(bid_schema_, bids);
  const auto imp_batch = ToColumns(imp_schema_, imps);
  std::vector<Event> both = bids;
  both.insert(both.end(), imps.begin(), imps.end());
  ExpectMatchesReference(
      query, both,
      RunRows(query, {{HostId{0}, InputChunk::Columns(bid_batch, nullptr, 0)},
                      {HostId{1}, InputChunk::Columns(imp_batch, nullptr, 0)}}));
  // Impressions arriving first join the same tuples.
  ExpectMatchesReference(
      query, both,
      RunRows(query, {{HostId{1}, InputChunk::Columns(imp_batch, nullptr, 0)},
                      {HostId{0}, InputChunk::Columns(bid_batch, nullptr, 0)}}));
}

// ---------------------------------------------------------------------------
// The window-scoped join buffer (JoinBuffer): an open-addressing index over
// request ids, arrival-ordered per-source entry chains, batches pinned once
// per window. Every case checks exact counts and either the naive reference
// executor's answer or an explicitly computed arrival-order transcript.

class JoinBufferTest : public ExecutorTest {
 protected:
  Event Bid(RequestId rid, TimeMicros ts, int64_t user) const {
    Event e(bid_schema_, rid, ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(0.25 * static_cast<double>(user)));
    return e;
  }

  Event Imp(RequestId rid, TimeMicros ts, int64_t item) const {
    Event e(imp_schema_, rid, ts);
    e.SetField(0, Value(item));
    e.SetField(1, Value(0.5));
    return e;
  }

  // One kColumnarJoin wire batch carrying `arrival` (bids and impressions
  // in any interleave): one section per source plus the interleave.
  EventBatch JoinBatch(const std::vector<Event>& arrival) const {
    ColumnBatch bids(bid_schema_);
    ColumnBatch imps(imp_schema_);
    std::vector<uint8_t> order;
    for (const Event& e : arrival) {
      const bool is_bid = e.type_name() == "bid";
      (is_bid ? bids : imps).AppendEvent(e);
      order.push_back(is_bid ? 0 : 1);
    }
    EventBatch batch;
    batch.query_id = 1;
    batch.format = BatchFormat::kColumnarJoin;
    batch.event_count = arrival.size();
    EncodeColumnJoinBatch({ColumnJoinSection{&bids, nullptr, bids.rows()},
                           ColumnJoinSection{&imps, nullptr, imps.rows()}},
                          order, &batch.payload);
    return batch;
  }

  struct Outcome {
    std::vector<std::string> rows;  // ResultRow::ToString, emission order
    CentralQueryStats stats;
  };

  // Runs `feed` against a fresh QueryState, then closes every window in
  // start order.
  Outcome Execute(std::string_view text,
                  const std::function<void(Executor&, QueryState&)>& feed,
                  MemoryAccountant* accountant = nullptr,
                  SpillManager* spill = nullptr) {
    std::vector<std::string> ignored;
    QueryState q = StateFor(text, 1, &ignored);
    Outcome out;
    q.sink = [&out](const ResultRow& row) {
      out.rows.push_back(row.ToString());
    };
    Executor executor(&registry_, &config_, &meter_, accountant, spill);
    feed(executor, q);
    while (!q.windows.empty()) {
      auto it = q.windows.begin();
      executor.CloseWindow(q, &it->second);
      q.closed_through = it->first;
      q.windows.erase(it);
    }
    out.stats = q.stats;
    return out;
  }

  // Feeds `arrival` as kColumnarJoin batches of `per_batch` events from
  // alternating hosts.
  Outcome ExecuteBatches(std::string_view text,
                         const std::vector<Event>& arrival, size_t per_batch,
                         MemoryAccountant* accountant = nullptr,
                         SpillManager* spill = nullptr) {
    return Execute(
        text,
        [&](Executor& executor, QueryState& q) {
          for (size_t i = 0; i < arrival.size(); i += per_batch) {
            const std::vector<Event> slice(
                arrival.begin() + static_cast<std::ptrdiff_t>(i),
                arrival.begin() + static_cast<std::ptrdiff_t>(std::min(
                                      arrival.size(), i + per_batch)));
            const HostId host = static_cast<HostId>((i / per_batch) % 2);
            ASSERT_TRUE(
                executor.DecodeAndFold(q, host, JoinBatch(slice)).ok());
          }
        },
        accountant, spill);
  }

  // The naive oracle's rows for the same events, sorted (it emits groups in
  // its own order).
  std::vector<std::string> Reference(std::string_view text,
                                     const std::vector<Event>& events) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    ReferenceExecutor reference(*aq, plan->central);
    for (const Event& e : events) {
      reference.Observe(e);
    }
    std::vector<std::string> rows;
    for (const ResultRow& row : reference.Execute()) {
      rows.push_back(row.ToString());
    }
    return Sorted(std::move(rows));
  }

  static std::vector<std::string> Sorted(std::vector<std::string> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static constexpr const char* kGroupedJoin =
      "SELECT impression.line_item_id, COUNT(*), MAX(bid.user_id) "
      "FROM bid, impression GROUP BY impression.line_item_id "
      "WINDOW 10 s DURATION 10 s;";
};

TEST_F(JoinBufferTest, ManyRequestIdsGrowTheIndexAndMatchTheReference) {
  // 6,000 request ids in one window take the index from 16 slots through
  // ten doublings. Two of three get an impression, some of them before the
  // bid arrives.
  Rng rng(71);
  std::vector<Event> arrival;
  size_t imps = 0;
  for (int i = 0; i < 6000; ++i) {
    const RequestId rid = rng.NextUint64();
    const TimeMicros ts = 100 + static_cast<TimeMicros>(rng.NextBelow(9'000'000));
    Event bid = Bid(rid, ts, static_cast<int64_t>(rng.NextBelow(50)));
    if (i % 3 == 0) {
      arrival.push_back(std::move(bid));
      continue;
    }
    Event imp = Imp(rid, ts, static_cast<int64_t>(rng.NextBelow(7)));
    if (i % 3 == 1) {
      arrival.push_back(std::move(bid));
      arrival.push_back(std::move(imp));
    } else {
      arrival.push_back(std::move(imp));
      arrival.push_back(std::move(bid));
    }
    ++imps;
  }
  const Outcome got = ExecuteBatches(kGroupedJoin, arrival, 256);
  EXPECT_EQ(Sorted(got.rows), Reference(kGroupedJoin, arrival));
  EXPECT_EQ(got.stats.tuples_joined, imps);
  EXPECT_EQ(got.stats.join_orphans, 2000u);  // the bids with no impression
  EXPECT_EQ(got.stats.join_shed, 0u);
}

TEST_F(JoinBufferTest, StridedIdsCollidingInLowBitsStayDistinct) {
  // Request ids that differ only above bit 40 agree in every low bit, the
  // bits a mask-indexed table would see without the hash mix.
  std::vector<Event> arrival;
  for (uint64_t i = 1; i <= 3000; ++i) {
    const RequestId rid = i << 40;
    const TimeMicros ts = static_cast<TimeMicros>(i * 1000);
    arrival.push_back(Bid(rid, ts, static_cast<int64_t>(i % 11)));
    if (i % 2 == 0) {
      arrival.push_back(Imp(rid, ts + 1, static_cast<int64_t>(i % 5)));
    }
  }
  const Outcome got = ExecuteBatches(kGroupedJoin, arrival, 500);
  EXPECT_EQ(Sorted(got.rows), Reference(kGroupedJoin, arrival));
  EXPECT_EQ(got.stats.tuples_joined, 1500u);
  EXPECT_EQ(got.stats.join_orphans, 1500u);
}

TEST_F(JoinBufferTest, ExtremeRequestIdsAreOrdinaryKeys) {
  // 0 and UINT64_MAX are legal request ids: the index stores bucket + 1, so
  // no id value doubles as an empty-slot marker.
  constexpr RequestId kMax = std::numeric_limits<RequestId>::max();
  const std::vector<Event> arrival = {
      Bid(0, 100, 1),       Bid(kMax, 110, 2),    Imp(kMax, 120, 20),
      Imp(0, 130, 10),      Bid(0, 140, 3),       Bid(1, 150, 4),
      Imp(kMax - 1, 160, 30)};
  const Outcome got = ExecuteBatches(kGroupedJoin, arrival, 3);
  EXPECT_EQ(Sorted(got.rows), Reference(kGroupedJoin, arrival));
  EXPECT_EQ(Sorted(got.rows),
            (std::vector<std::string>{"[0, 10000000) 10 | 2 | 3",
                                      "[0, 10000000) 20 | 1 | 2"}));
  EXPECT_EQ(got.stats.tuples_joined, 3u);
  EXPECT_EQ(got.stats.join_orphans, 2u);  // rid 1's bid, rid kMax-1's imp
}

TEST_F(JoinBufferTest, CrossProductFollowsArrivalOrderAcrossSections) {
  // One request id, 4 bids x 3 impressions interleaved within and across
  // two kColumnarJoin batches. Raw rows emit as tuples form, so the
  // transcript is the probe order itself: each arrival pairs with every
  // earlier partner, oldest first.
  const char* query =
      "SELECT bid.user_id, impression.line_item_id FROM bid, impression "
      "WINDOW 10 s DURATION 10 s;";
  const std::vector<Event> arrival = {
      Bid(42, 100, 0),  Imp(42, 110, 100), Bid(42, 120, 1),
      Bid(42, 130, 2),  Imp(42, 140, 101), Imp(42, 150, 102),
      Bid(42, 160, 3)};
  std::vector<std::string> expected;
  std::vector<int64_t> bids_seen;
  std::vector<int64_t> imps_seen;
  for (const Event& e : arrival) {
    const int64_t v = e.field(0).AsInt();
    const bool is_bid = e.type_name() == "bid";
    for (const int64_t partner : is_bid ? imps_seen : bids_seen) {
      expected.push_back(StrFormat(
          "[0, 10000000) %lld | %lld", static_cast<long long>(is_bid ? v : partner),
          static_cast<long long>(is_bid ? partner : v)));
    }
    (is_bid ? bids_seen : imps_seen).push_back(v);
  }
  ASSERT_EQ(expected.size(), 12u);
  const Outcome got = ExecuteBatches(query, arrival, 4);
  EXPECT_EQ(got.rows, expected);
  EXPECT_EQ(got.stats.tuples_joined, 12u);
  EXPECT_EQ(got.stats.join_orphans, 0u);
  EXPECT_EQ(Sorted(got.rows), Reference(query, arrival));
}

TEST_F(JoinBufferTest, OrphanCountsAreExact) {
  const char* query =
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 1 s DURATION 4 s;";
  std::vector<Event> arrival;
  RequestId rid = 1;
  for (int i = 0; i < 10; ++i, ++rid) {  // complete pairs: no orphans
    arrival.push_back(Bid(rid, 1000 + i, 1));
    arrival.push_back(Imp(rid, 1001 + i, 1));
  }
  for (int i = 0; i < 7; ++i, ++rid) {  // lone bids: 7 orphans
    arrival.push_back(Bid(rid, 2000 + i, 1));
  }
  for (int i = 0; i < 5; ++i, ++rid) {  // 3 impressions, no bid: 15
    for (int k = 0; k < 3; ++k) {
      arrival.push_back(Imp(rid, 3000 + i, k));
    }
  }
  for (int i = 0; i < 4; ++i, ++rid) {  // 2 x 2: complete, 4 tuples each
    arrival.push_back(Imp(rid, 4000 + i, 2));
    arrival.push_back(Bid(rid, 4001 + i, 1));
    arrival.push_back(Bid(rid, 4002 + i, 2));
    arrival.push_back(Imp(rid, 4003 + i, 3));
  }
  for (int i = 0; i < 3; ++i, ++rid) {  // split across windows: 1 + 1 each
    arrival.push_back(Bid(rid, 900'000, 1));
    arrival.push_back(Imp(rid, 1'100'000, 1));
  }
  const Outcome got = ExecuteBatches(query, arrival, 16);
  EXPECT_EQ(Sorted(got.rows), Reference(query, arrival));
  EXPECT_EQ(got.stats.join_orphans, 7u + 15u + 6u);
  EXPECT_EQ(got.stats.tuples_joined, 10u + 16u);
}

TEST_F(JoinBufferTest, ShedsExactlyTheRequestIdsBeyondTheCap) {
  config_.max_join_requests_per_window = 64;
  // 100 bids on distinct ids: ids 65..100 find the buffer full. Their
  // impressions then arrive: 1..64 join, 65..100 are new ids and shed too.
  std::vector<Event> arrival;
  for (RequestId rid = 1; rid <= 100; ++rid) {
    arrival.push_back(Bid(rid, static_cast<TimeMicros>(rid), 1));
  }
  for (RequestId rid = 1; rid <= 100; ++rid) {
    arrival.push_back(Imp(rid, static_cast<TimeMicros>(200 + rid), 5));
  }
  const Outcome got = ExecuteBatches(kGroupedJoin, arrival, 50);
  EXPECT_EQ(got.stats.join_shed, 72u);
  EXPECT_EQ(got.stats.events_shed, 72u);
  EXPECT_EQ(got.stats.tuples_joined, 64u);
  EXPECT_EQ(got.stats.join_orphans, 0u);
  // 128 of 200 events folded: the row says so.
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0], "[0, 10000000) 5 | 64 | 1 [fidelity 0.64]");
}

TEST_F(JoinBufferTest, SlidingWindowsEachBufferTheSharedChunk) {
  // WINDOW 2 s SLIDE 1 s: every event lands in two windows, each with its
  // own buffer referencing (and pinning) the same decoded batch.
  const char* query =
      "SELECT impression.line_item_id, COUNT(*), MAX(bid.user_id) "
      "FROM bid, impression GROUP BY impression.line_item_id "
      "WINDOW 2 s SLIDE 1 s DURATION 6 s;";
  Rng rng(5);
  std::vector<Event> arrival;
  for (int i = 0; i < 400; ++i) {
    const RequestId rid = rng.NextBelow(150);  // repeats: small products
    const TimeMicros ts = static_cast<TimeMicros>(i) * 15'000;
    if (rng.NextBelow(2) == 0) {
      arrival.push_back(Bid(rid, ts, static_cast<int64_t>(rng.NextBelow(9))));
    } else {
      arrival.push_back(Imp(rid, ts, static_cast<int64_t>(rng.NextBelow(4))));
    }
  }
  const Outcome got = ExecuteBatches(query, arrival, 64);
  EXPECT_EQ(Sorted(got.rows), Reference(query, arrival));
  EXPECT_GT(got.stats.tuples_joined, 0u);
}

TEST_F(JoinBufferTest, SpilledEntriesReplayByteIdentically) {
  // Entries buffered before the window crosses its budget and entries
  // replayed from the spill run's decoded blocks at close share one buffer;
  // the transcript (float sums included) must match the unbounded run
  // exactly.
  const char* query =
      "SELECT impression.line_item_id, COUNT(*), SUM(bid.price), "
      "SUM(impression.cost) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 1 s DURATION 3 s;";
  Rng rng(13);
  std::vector<Event> arrival;
  for (int i = 0; i < 1500; ++i) {
    const RequestId rid = rng.NextBelow(500);
    const TimeMicros ts =
        static_cast<TimeMicros>(rng.NextBelow(3'000'000));
    if (i % 2 == 0) {
      arrival.push_back(Bid(rid, ts, static_cast<int64_t>(rng.NextBelow(97))));
    } else {
      arrival.push_back(Imp(rid, ts, static_cast<int64_t>(rng.NextBelow(6))));
    }
  }
  MemoryAccountant tracked;
  tracked.set_tracking(true);
  const Outcome unbounded = ExecuteBatches(query, arrival, 100, &tracked);
  ASSERT_GT(tracked.peak(1), 0u);
  EXPECT_EQ(unbounded.stats.events_spilled, 0u);

  MemoryAccountant budgeted;
  budgeted.set_budgets(tracked.peak(1) / 4, 0);
  SpillManager spill;
  spill.Configure(::testing::TempDir() + "scrub_join_buffer_spill", "central",
                  1, SpillFaultSpec{});
  const Outcome spilled =
      ExecuteBatches(query, arrival, 100, &budgeted, &spill);
  EXPECT_GT(spilled.stats.events_spilled, 0u);
  EXPECT_EQ(spilled.stats.events_shed, 0u);
  EXPECT_EQ(spilled.rows, unbounded.rows);
  EXPECT_EQ(spilled.stats.tuples_joined, unbounded.stats.tuples_joined);
  EXPECT_EQ(spilled.stats.join_orphans, unbounded.stats.join_orphans);
}

}  // namespace
}  // namespace scrub
