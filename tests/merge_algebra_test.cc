// Merge-algebra property tests: the hierarchical topology is correct only
// because WindowPartial merging (AbsorbPartial, AggAccumulator::Merge) is
// associative and commutative. These tests generate random event streams,
// split them into random partials (each folded by a real shard-role
// ScrubCentral), then merge the partials in shuffled flat orders and in
// random binary tree shapes — flat absorb == what ShardedCentral does,
// trees == what the regional combiner tier composes — and require the
// finalized rows to match a single-instance oracle:
//
//   COUNT / SUM / AVG / MIN / MAX   bit-identical finals in every order.
//   (Sums are exercised on dyadic-rational inputs, so double addition is
//   exact and association genuinely cannot change the bits.)
//   COUNT_DISTINCT                  identical across merge orders (HLL
//                                   register-max is truly associative) and
//                                   within the sketch envelope of truth.
//   TOPK                            tie-tolerant: the dominant key wins in
//                                   every order, reported count within the
//                                   summary's over-count slack.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/central.h"
#include "src/central/coordinator.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

class MergeAlgebraTest : public ::testing::Test {
 protected:
  MergeAlgebraTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  CentralPlan PlanFor(std::string_view text, QueryId id) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = 1;
    central.hosts_sampled = 1;
    return central;
  }

  // Random events with dyadic-rational prices (k/4, k < 1024): every price
  // and every partial sum is exactly representable, so SUM/AVG must come
  // back bit-identical no matter how the additions associate.
  std::vector<Event> RandomEvents(int n, uint64_t seed, int64_t users) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event e(schema_, rng.NextUint64(),
              100 + static_cast<TimeMicros>(rng.NextBelow(8'000'000)));
      e.SetField(0, Value(static_cast<int64_t>(
                        rng.NextBelow(static_cast<uint64_t>(users)))));
      e.SetField(1,
                 Value(static_cast<double>(rng.NextBelow(1024)) * 0.25));
      events.push_back(std::move(e));
    }
    return events;
  }

  static EventBatch Pack(QueryId qid, const std::vector<Event>& events) {
    EventBatch batch;
    batch.query_id = qid;
    batch.host = 0;
    batch.event_count = events.size();
    std::string encoded;
    batch.format = EncodeEvents(events, &encoded);
    batch.payload = BatchPayload(std::move(encoded));
    return batch;
  }

  // Single-instance oracle over the full stream.
  std::vector<ResultRow> Oracle(const CentralPlan& plan,
                                const std::vector<Event>& events) {
    ScrubCentral single(&registry_);
    std::vector<ResultRow> rows;
    EXPECT_TRUE(single
                    .InstallQuery(plan,
                                  [&](const ResultRow& row) {
                                    rows.push_back(row);
                                  })
                    .ok());
    EXPECT_TRUE(single.IngestBatch(Pack(plan.query_id, events), 0).ok());
    single.OnTick(60 * kMicrosPerSecond);
    return rows;
  }

  // Splits the stream into `parts` random slices, folds each through its
  // own shard-role central, and returns every emitted WindowPartial.
  std::vector<WindowPartial> SplitPartials(const CentralPlan& plan,
                                           const std::vector<Event>& events,
                                           size_t parts, uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<Event>> slices(parts);
    for (const Event& e : events) {
      slices[rng.NextBelow(parts)].push_back(e);
    }
    std::vector<WindowPartial> partials;
    for (std::vector<Event>& slice : slices) {
      ScrubCentral shard(&registry_);
      CentralPlan shard_plan = plan;
      shard_plan.hosts_sampled = 0;  // expected-set is a coordinator concern
      EXPECT_TRUE(shard
                      .InstallQueryPartial(shard_plan,
                                           [&](WindowPartial&& p) {
                                             partials.push_back(std::move(p));
                                           })
                      .ok());
      EXPECT_TRUE(
          shard.IngestBatch(Pack(plan.query_id, slice), 0).ok());
      shard.OnTick(60 * kMicrosPerSecond);
    }
    return partials;
  }

  // Finalizes `partials` through a PartialCoordinator, absorbing in the
  // given order. Clones, so a partial list can be replayed many times.
  std::vector<ResultRow> Finalize(const CentralPlan& plan,
                                  const std::vector<WindowPartial>& partials,
                                  const std::vector<size_t>& order) {
    PartialCoordinator coordinator;
    std::vector<ResultRow> rows;
    EXPECT_TRUE(coordinator
                    .InstallQuery(plan,
                                  [&](const ResultRow& row) {
                                    rows.push_back(row);
                                  })
                    .ok());
    for (const size_t i : order) {
      coordinator.AbsorbPartial(partials[i].Clone());
    }
    coordinator.OnTick(60 * kMicrosPerSecond);
    return rows;
  }

  // The combiner-tier merge step, reimplemented at the algebra level: two
  // same-window partials fuse into one via AggAccumulator::Merge. Only for
  // unsampled plans (no per-host readings to reconcile).
  static WindowPartial MergeTwo(WindowPartial a, WindowPartial b) {
    EXPECT_EQ(a.window_start, b.window_start);
    EXPECT_TRUE(a.group_readings.empty());
    EXPECT_TRUE(b.group_readings.empty());
    std::map<std::string, size_t> index;
    for (size_t i = 0; i < a.keys.size(); ++i) {
      index.emplace(RenderKey(a.keys[i]), i);
    }
    for (size_t i = 0; i < b.keys.size(); ++i) {
      const auto it = index.find(RenderKey(b.keys[i]));
      if (it == index.end()) {
        a.keys.push_back(std::move(b.keys[i]));
        a.key_hashes.push_back(b.key_hashes[i]);
        a.accumulators.push_back(std::move(b.accumulators[i]));
        continue;
      }
      std::vector<AggAccumulator>& into = a.accumulators[it->second];
      std::vector<AggAccumulator>& from = b.accumulators[i];
      if (into.size() != from.size()) {
        ADD_FAILURE() << "aggregate slot arity mismatch";
        return a;
      }
      for (size_t s = 0; s < into.size(); ++s) {
        into[s].Merge(std::move(from[s]));
      }
    }
    a.input_events += b.input_events;
    a.shed_events += b.shed_events;
    return a;
  }

  // Reduces each window's partials through a random binary merge tree.
  static std::vector<WindowPartial> TreeReduce(
      std::vector<WindowPartial> partials, Rng& rng) {
    std::map<TimeMicros, std::vector<WindowPartial>> by_window;
    for (WindowPartial& p : partials) {
      by_window[p.window_start].push_back(std::move(p));
    }
    std::vector<WindowPartial> roots;
    for (auto& [start, group] : by_window) {
      while (group.size() > 1) {
        // Pick two random nodes; their merge rejoins the worklist, so the
        // reduction walks a uniformly random unordered binary tree.
        const size_t i = rng.NextBelow(group.size());
        WindowPartial x = std::move(group[i]);
        group.erase(group.begin() + static_cast<long>(i));
        const size_t j = rng.NextBelow(group.size());
        WindowPartial y = std::move(group[j]);
        group.erase(group.begin() + static_cast<long>(j));
        group.push_back(MergeTwo(std::move(x), std::move(y)));
      }
      if (!group.empty()) {
        roots.push_back(std::move(group.front()));
      }
    }
    return roots;
  }

  static std::string RenderKey(const GroupKey& key) {
    std::string out;
    for (const Value& v : key) {
      out += v.ToString() + "|";
    }
    return out;
  }

  // Canonical row map keyed by (window, group key); values stay Values so
  // numeric comparisons can be bit-exact.
  static std::map<std::string, std::vector<Value>> Index(
      const std::vector<ResultRow>& rows, size_t key_columns) {
    std::map<std::string, std::vector<Value>> out;
    for (const ResultRow& row : rows) {
      std::string key =
          StrFormat("%lld|", static_cast<long long>(row.window_start));
      for (size_t i = 0; i < key_columns; ++i) {
        key += row.values[i].ToString() + "|";
      }
      out[key] = std::vector<Value>(row.values.begin() + key_columns,
                                    row.values.end());
    }
    return out;
  }

  // Bit-exact comparison: doubles compare by representation, not by
  // epsilon — the property under test is that merge order cannot perturb
  // even the last ulp for the exact aggregate kinds.
  static void ExpectBitIdentical(
      const std::map<std::string, std::vector<Value>>& got,
      const std::map<std::string, std::vector<Value>>& want,
      const char* label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (const auto& [key, want_values] : want) {
      const auto it = got.find(key);
      ASSERT_NE(it, got.end()) << label << ": missing row " << key;
      ASSERT_EQ(it->second.size(), want_values.size()) << label;
      for (size_t i = 0; i < want_values.size(); ++i) {
        const Value& g = it->second[i];
        const Value& w = want_values[i];
        if (g.is_numeric() && w.is_numeric()) {
          const double gd = g.AsNumber();
          const double wd = w.AsNumber();
          EXPECT_EQ(std::memcmp(&gd, &wd, sizeof(double)), 0)
              << label << ": row " << key << " column " << i << ": got "
              << gd << " want " << wd;
        } else {
          EXPECT_EQ(g.ToString(), w.ToString())
              << label << ": row " << key << " column " << i;
        }
      }
    }
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
};

TEST_F(MergeAlgebraTest, ExactAggregatesBitIdenticalAcrossShuffledOrders) {
  const char* query =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price), "
      "MIN(bid.price), MAX(bid.price) FROM bid GROUP BY bid.user_id "
      "WINDOW 2 s DURATION 10 s;";
  for (const uint64_t seed : {11u, 29u, 47u}) {
    const std::vector<Event> events =
        RandomEvents(4000, seed, /*users=*/25);
    const CentralPlan plan = PlanFor(query, 100 + seed);
    const auto oracle = Index(Oracle(plan, events), 1);
    ASSERT_FALSE(oracle.empty());
    for (const size_t parts : {2u, 5u, 8u}) {
      const std::vector<WindowPartial> partials =
          SplitPartials(plan, events, parts, seed * 31 + parts);
      std::vector<size_t> order(partials.size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      Rng shuffle_rng(seed * 101 + parts);
      for (int round = 0; round < 4; ++round) {
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[shuffle_rng.NextBelow(i)]);
        }
        const auto got = Index(Finalize(plan, partials, order), 1);
        ExpectBitIdentical(got, oracle, "shuffled flat merge");
      }
    }
  }
}

TEST_F(MergeAlgebraTest, ExactAggregatesBitIdenticalAcrossTreeShapes) {
  const char* query =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price), "
      "MIN(bid.price), MAX(bid.price) FROM bid GROUP BY bid.user_id "
      "WINDOW 2 s DURATION 10 s;";
  const std::vector<Event> events = RandomEvents(3000, 7, /*users=*/20);
  const CentralPlan plan = PlanFor(query, 7);
  const auto oracle = Index(Oracle(plan, events), 1);
  ASSERT_FALSE(oracle.empty());
  const std::vector<WindowPartial> partials =
      SplitPartials(plan, events, 8, 131);
  Rng tree_rng(977);
  for (int shape = 0; shape < 6; ++shape) {
    std::vector<WindowPartial> clones;
    clones.reserve(partials.size());
    for (const WindowPartial& p : partials) {
      clones.push_back(p.Clone());
    }
    const std::vector<WindowPartial> roots =
        TreeReduce(std::move(clones), tree_rng);
    std::vector<size_t> order(roots.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    const auto got = Index(Finalize(plan, roots, order), 1);
    ExpectBitIdentical(got, oracle, "tree-shaped merge");
  }
}

TEST_F(MergeAlgebraTest, CountDistinctOrderInvariantAndWithinEnvelope) {
  // HLL merge is register-wise max: truly associative and commutative, so
  // different orders must agree EXACTLY with each other, and the shared
  // estimate must sit within the sketch envelope of the truth.
  const char* query =
      "SELECT COUNT_DISTINCT(bid.user_id) FROM bid "
      "WINDOW 10 s DURATION 10 s;";
  const int kUsers = 3000;
  std::vector<Event> events;
  Rng rng(13);
  for (int64_t u = 0; u < kUsers; ++u) {
    for (int dup = 0; dup < 2; ++dup) {
      Event e(schema_, rng.NextUint64(),
              100 + static_cast<TimeMicros>(rng.NextBelow(8'000'000)));
      e.SetField(0, Value(u));
      e.SetField(1, Value(1.0));
      events.push_back(std::move(e));
    }
  }
  const CentralPlan plan = PlanFor(query, 44);
  const std::vector<WindowPartial> partials =
      SplitPartials(plan, events, 6, 997);
  std::vector<size_t> order(partials.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::vector<double> estimates;
  Rng shuffle_rng(5);
  for (int round = 0; round < 5; ++round) {
    const std::vector<ResultRow> rows = Finalize(plan, partials, order);
    ASSERT_EQ(rows.size(), 1u);
    estimates.push_back(rows[0].values[0].AsNumber());
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle_rng.NextBelow(i)]);
    }
  }
  for (const double e : estimates) {
    EXPECT_DOUBLE_EQ(e, estimates[0]);          // order cannot matter
    EXPECT_NEAR(e, static_cast<double>(kUsers),  // sketch envelope (~4%)
                0.04 * kUsers);
  }
}

TEST_F(MergeAlgebraTest, TopKDominantKeySurvivesEveryMergeOrder) {
  // SpaceSaving merge is tie-sensitive in the tail, never in a dominant
  // head: a key with more hits than the summary's total over-count slack
  // must surface first in every merge order, with its reported count in
  // [true, true + slack].
  const char* query =
      "SELECT TOPK(3, bid.user_id) FROM bid WINDOW 10 s DURATION 10 s;";
  std::vector<Event> events;
  Rng rng(89);
  const int kHeavyHits = 2500;
  for (int i = 0; i < kHeavyHits; ++i) {
    Event e(schema_, rng.NextUint64(),
            100 + static_cast<TimeMicros>(rng.NextBelow(8'000'000)));
    e.SetField(0, Value(int64_t{777777}));
    e.SetField(1, Value(1.0));
    events.push_back(std::move(e));
  }
  for (int i = 0; i < 2000; ++i) {  // long random tail
    Event e(schema_, rng.NextUint64(),
            100 + static_cast<TimeMicros>(rng.NextBelow(8'000'000)));
    e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(500))));
    e.SetField(1, Value(1.0));
    events.push_back(std::move(e));
  }
  const CentralPlan plan = PlanFor(query, 55);
  const std::vector<WindowPartial> partials =
      SplitPartials(plan, events, 5, 271);
  std::vector<size_t> order(partials.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Rng shuffle_rng(17);
  for (int round = 0; round < 5; ++round) {
    const std::vector<ResultRow> rows = Finalize(plan, partials, order);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_TRUE(rows[0].values[0].is_list());
    const std::vector<Value>& top = rows[0].values[0].AsList();
    ASSERT_FALSE(top.empty());
    const std::string head = top[0].AsString();
    EXPECT_EQ(head.find("777777:"), 0u) << "round " << round << ": " << head;
    // "key:count" — count must bracket the truth from above only.
    const long long reported = std::stoll(head.substr(head.find(':') + 1));
    EXPECT_GE(reported, kHeavyHits);
    EXPECT_LE(reported, kHeavyHits + 2000);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle_rng.NextBelow(i)]);
    }
  }
}

TEST_F(MergeAlgebraTest, MergeIsIdempotentUnderDedupButNotWithout) {
  // Guardrail for the at-least-once hop: absorbing the SAME partial twice
  // must double the counts (AbsorbPartial is a pure merge — dedup is the
  // envelope layer's job, and this is why it must exist).
  const char* query =
      "SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 10 s;";
  const std::vector<Event> events = RandomEvents(500, 3, 10);
  const CentralPlan plan = PlanFor(query, 66);
  const std::vector<WindowPartial> partials =
      SplitPartials(plan, events, 1, 5);
  ASSERT_EQ(partials.size(), 1u);
  const std::vector<ResultRow> once = Finalize(plan, partials, {0});
  const std::vector<ResultRow> twice = Finalize(plan, partials, {0, 0});
  ASSERT_EQ(once.size(), 1u);
  ASSERT_EQ(twice.size(), 1u);
  EXPECT_DOUBLE_EQ(once[0].values[0].AsNumber(), 500.0);
  EXPECT_DOUBLE_EQ(twice[0].values[0].AsNumber(), 1000.0);
}

}  // namespace
}  // namespace scrub
