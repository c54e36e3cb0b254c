// Regression tests for top-k halting on exhausted / unequal-length sources.
//
// The fuzzy convention (source.h) says an object absent from a list has
// grade 0 there, so a short list is semantically a long one whose tail is
// all zeros. Both TA and A0 used to ignore that: TA kept an exhausted
// list's stale last grade in the threshold, and A0's Phase 1 could never
// count an object as "seen on every list" once any list dried up — both
// degenerated into a full scan of the longer lists (and A0 could not even
// certify k matches that plainly existed). These tests pin the fixed
// behavior: identical answers to the naive ground truth, with strictly
// fewer accesses than a full scan.

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "middleware/combined.h"
#include "middleware/fagin.h"
#include "middleware/naive.h"
#include "middleware/nra.h"
#include "middleware/threshold.h"
#include "middleware/vector_source.h"
#include "sim/experiment.h"

namespace fuzzydb {
namespace {

// A long list: ids 1..n, grades strictly descending in (0, 1).
VectorSource LongSource(size_t n) {
  std::vector<GradedObject> items;
  items.reserve(n);
  for (size_t i = 1; i <= n; ++i) {
    items.push_back({static_cast<ObjectId>(i),
                     static_cast<double>(n + 1 - i) /
                         static_cast<double>(n + 1)});
  }
  Result<VectorSource> src = VectorSource::Create(std::move(items), "long");
  EXPECT_TRUE(src.ok());
  return std::move(src).value();
}

// A short list graded over a handful of ids buried deep in the long list,
// so Phase-1 matches cannot come from the top of the long list.
VectorSource ShortDeepSource(ObjectId first, size_t count) {
  std::vector<GradedObject> items;
  for (size_t i = 0; i < count; ++i) {
    items.push_back({first + i, 0.95 - 0.01 * static_cast<double>(i)});
  }
  Result<VectorSource> src = VectorSource::Create(std::move(items), "short");
  EXPECT_TRUE(src.ok());
  return std::move(src).value();
}

constexpr size_t kN = 1000;
constexpr size_t kK = 3;

TEST(ExhaustedSourcesTest, ThresholdHaltsEarlyOnUnequalLists) {
  VectorSource a = LongSource(kN);
  VectorSource b = ShortDeepSource(/*first=*/501, /*count=*/5);
  std::vector<GradedSource*> ptrs{&a, &b};
  ScoringRulePtr rule = MinRule();

  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());
  Result<TopKResult> ta = ThresholdTopK(ptrs, *rule, kK);
  ASSERT_TRUE(ta.ok());
  EXPECT_TRUE(IsValidTopK(ta->items, *truth, kK));

  // Once the short list is exhausted its threshold contribution is 0, and
  // under min the whole threshold collapses — TA must stop right there,
  // around depth 6, not at depth ~507 where the long list's grades fall
  // below the k-th best.
  const uint64_t full_scan = a.Size() + b.Size();
  EXPECT_LT(ta->cost.sorted, full_scan);
  EXPECT_LE(ta->cost.sorted, 30u);
}

TEST(ExhaustedSourcesTest, FaginHaltsEarlyOnUnequalLists) {
  VectorSource a = LongSource(kN);
  VectorSource b = ShortDeepSource(/*first=*/501, /*count=*/5);
  std::vector<GradedSource*> ptrs{&a, &b};
  ScoringRulePtr rule = MinRule();

  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());
  Result<TopKResult> fagin = FaginTopK(ptrs, *rule, kK);
  ASSERT_TRUE(fagin.ok());
  EXPECT_TRUE(IsValidTopK(fagin->items, *truth, kK));

  // A0 semantics: after the short list is exhausted, every object counts as
  // seen on it (grade 0). Phase 1 then certifies k matches within a few
  // rounds instead of draining the long list for objects the short one
  // will never deliver.
  const uint64_t full_scan = a.Size() + b.Size();
  EXPECT_LT(fagin->cost.sorted, full_scan);
  EXPECT_LE(fagin->cost.sorted, 30u);
}

TEST(ExhaustedSourcesTest, AllAlgorithmsAgreeOnUnequalLists) {
  VectorSource a1 = LongSource(kN);
  VectorSource b1 = ShortDeepSource(501, 5);
  std::vector<GradedSource*> ptrs{&a1, &b1};
  ScoringRulePtr rule = MinRule();
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());

  Result<TopKResult> naive = NaiveTopK(ptrs, *rule, kK);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(IsValidTopK(naive->items, *truth, kK));

  // NRA has no random access, so it must read the long list down to the
  // short list's ids — but it still terminates and certifies membership.
  Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *rule, kK);
  ASSERT_TRUE(nra.ok());
  ASSERT_EQ(nra->items.size(), kK);
  std::vector<GradedObject> expected = truth->TopK(kK);
  for (const GradedObject& g : nra->items) {
    EXPECT_GE(*truth->GradeOf(g.id), expected.back().grade - 1e-12);
  }
}

TEST(ExhaustedSourcesTest, GradeOnAnExhaustedListIsExact) {
  // An object missing from an exhausted list has grade exactly 0 there
  // (Fagin, Lotem and Naor, "Optimal Aggregation Algorithms for
  // Middleware"), so a winner known on every other list has an exact grade.
  // Object 2 is absent from B: under min its grade is exactly 0.
  for (size_t k : {2u, 3u}) {
    VectorSource a = *VectorSource::Create({{1, 0.9}, {2, 0.8}}, "A");
    VectorSource b = *VectorSource::Create({{1, 0.7}}, "B");
    std::vector<GradedSource*> ptrs{&a, &b};
    ScoringRulePtr rule = MinRule();
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
    ASSERT_TRUE(truth.ok());

    Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *rule, k);
    ASSERT_TRUE(nra.ok());
    a.RestartSorted();
    b.RestartSorted();
    Result<TopKResult> ca = CombinedTopK(ptrs, *rule, k, /*h=*/100);
    ASSERT_TRUE(ca.ok());
    for (const TopKResult* r : {&*nra, &*ca}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   (r == &*nra ? " NRA" : " CA"));
      EXPECT_TRUE(r->grades_exact);
      ASSERT_EQ(r->items.size(), 2u);
      for (const GradedObject& g : r->items) {
        EXPECT_EQ(g.grade, *truth->GradeOf(g.id)) << "object " << g.id;
      }
    }
  }
}

TEST(ExhaustedSourcesTest, RefusedListIsNotGradedZero) {
  // A governor refusal ends a stream without running it out: object 1's
  // grade on B is 0.95, not 0, so NRA and CA may report only the lower
  // bound 0 and must not call it exact. TA probes B and reports 0.9.
  VectorSource a = *VectorSource::Create({{1, .9}, {2, .8}, {3, .7}}, "A");
  VectorSource b = *VectorSource::Create({{1, .95}, {2, .6}, {3, .85}}, "B");
  std::vector<GradedSource*> ptrs{&a, &b};
  ScoringRulePtr rule = MinRule();

  AccessGovernor nra_gov(1);
  Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *rule, 1, &nra_gov);
  AccessGovernor ca_gov(1);
  Result<TopKResult> ca = CombinedTopK(ptrs, *rule, 1, /*h=*/1, &ca_gov);
  ASSERT_TRUE(nra.ok() && ca.ok());
  for (const TopKResult* r : {&*nra, &*ca}) {
    SCOPED_TRACE(r == &*nra ? "NRA" : "CA");
    ASSERT_EQ(r->items.size(), 1u);
    EXPECT_EQ(r->items[0].id, 1u);
    EXPECT_EQ(r->items[0].grade, 0.0);
    EXPECT_FALSE(r->grades_exact);
  }

  AccessGovernor ta_gov(1);
  Result<TopKResult> ta = ThresholdTopK(ptrs, *rule, 1, &ta_gov);
  ASSERT_TRUE(ta.ok());
  ASSERT_EQ(ta->items.size(), 1u);
  EXPECT_EQ(ta->items[0].id, 1u);
  EXPECT_EQ(ta->items[0].grade, 0.9);
  EXPECT_TRUE(ta->grades_exact);
}

// Per-source random-access counts of one run.
std::vector<uint64_t> RandomCounts(const TopKResult& r) {
  std::vector<uint64_t> out;
  for (const AccessCost& c : r.per_source) out.push_back(c.random);
  return out;
}

TEST(ExhaustedSourcesTest, ListThatRanOutIsNotProbed) {
  // B runs out in round 2. TA's probe of B for object 2 and A0's probes of
  // B for objects 1, 2 and 3 all come after that, so each grade is 0
  // without an access; only the probes on the live A remain.
  std::vector<GradedObject> a_items;
  for (ObjectId id = 1; id <= 6; ++id) {
    a_items.push_back({id, 1.0 - 0.1 * static_cast<double>(id)});
  }
  VectorSource a = *VectorSource::Create(a_items, "A");
  VectorSource b = *VectorSource::Create({{6, .95}}, "B");
  std::vector<GradedSource*> ptrs{&a, &b};
  ScoringRulePtr rule = ArithmeticMeanRule();
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());

  Result<TopKResult> ta = ThresholdTopK(ptrs, *rule, 3);
  ASSERT_TRUE(ta.ok());
  EXPECT_TRUE(IsValidTopK(ta->items, *truth, 3));
  EXPECT_EQ(RandomCounts(*ta), (std::vector<uint64_t>{1, 1}));

  Result<TopKResult> a0 = FaginTopK(ptrs, *rule, 3);
  ASSERT_TRUE(a0.ok());
  EXPECT_TRUE(IsValidTopK(a0->items, *truth, 3));
  EXPECT_EQ(RandomCounts(*a0), (std::vector<uint64_t>{1, 0}));
}

TEST(ExhaustedSourcesTest, RefusedListIsStillProbed) {
  // The same lists with B = {6: .95, 2: .5} and a budget of 3 sorted
  // accesses: B is refused in round 2, not run out, so object 2's grade
  // there (0.5) still comes from a probe and the partial answer keeps it.
  std::vector<GradedObject> a_items;
  for (ObjectId id = 1; id <= 6; ++id) {
    a_items.push_back({id, 1.0 - 0.1 * static_cast<double>(id)});
  }
  VectorSource a = *VectorSource::Create(a_items, "A");
  VectorSource b = *VectorSource::Create({{6, .95}, {2, .5}}, "B");
  std::vector<GradedSource*> ptrs{&a, &b};
  ScoringRulePtr rule = ArithmeticMeanRule();
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());

  AccessGovernor ta_gov(3);
  Result<TopKResult> ta = ThresholdTopK(ptrs, *rule, 3, &ta_gov);
  AccessGovernor a0_gov(3);
  Result<TopKResult> a0 = FaginTopK(ptrs, *rule, 3, &a0_gov);
  ASSERT_TRUE(ta.ok() && a0.ok());
  for (const TopKResult* r : {&*ta, &*a0}) {
    SCOPED_TRACE(r == &*ta ? "TA" : "A0");
    EXPECT_EQ(RandomCounts(*r), (std::vector<uint64_t>{1, 2}));
    ASSERT_EQ(r->items.size(), 3u);
    for (const GradedObject& g : r->items) {
      EXPECT_EQ(g.grade, *truth->GradeOf(g.id)) << "object " << g.id;
    }
  }
}

// Counts random accesses that arrive after the sorted stream ran out.
class LateProbeCounter final : public GradedSource {
 public:
  explicit LateProbeCounter(GradedSource* inner) : inner_(inner) {}
  size_t Size() const override { return inner_->Size(); }
  std::optional<GradedObject> NextSorted() override {
    std::optional<GradedObject> next = inner_->NextSorted();
    if (!next.has_value()) ran_out_ = true;
    return next;
  }
  void RestartSorted() override {
    ran_out_ = false;
    inner_->RestartSorted();
  }
  double RandomAccess(ObjectId id) override {
    if (ran_out_) ++late_;
    return inner_->RandomAccess(id);
  }
  std::vector<GradedObject> AtLeast(double threshold) override {
    return inner_->AtLeast(threshold);
  }
  size_t late() const { return late_; }

 private:
  GradedSource* inner_;
  bool ran_out_ = false;
  size_t late_ = 0;
};

TEST(ExhaustedSourcesTest, NoAlgorithmProbesAListThatRanOut) {
  // Short lists run out long before the long one; TA, A0 and CA must read
  // the grade 0 there without random access, and still answer exactly.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(1201 + seed);
    Workload w = IndependentUniform(&rng, 60, 3);
    Result<std::vector<VectorSource>> sources = MakeTruncatedSources(
        w, {60, 3 + seed % 6, 10 + seed % 20});
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> raw = SourcePtrs(*sources);
    std::vector<LateProbeCounter> counters(raw.begin(), raw.end());
    std::vector<GradedSource*> ptrs;
    for (LateProbeCounter& c : counters) ptrs.push_back(&c);
    ScoringRulePtr rule = ArithmeticMeanRule();
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
    ASSERT_TRUE(truth.ok());

    std::vector<std::pair<std::string, Result<TopKResult>>> runs;
    runs.emplace_back("TA", ThresholdTopK(ptrs, *rule, 3));
    runs.emplace_back("A0", FaginTopK(ptrs, *rule, 3));
    runs.emplace_back("CA", CombinedTopK(ptrs, *rule, 3, /*h=*/1));
    for (const auto& [name, r] : runs) {
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r->grades_exact || name == "CA");
      std::vector<GradedObject> at_truth;
      for (const GradedObject& g : r->items) {
        if (r->grades_exact) {
          EXPECT_EQ(g.grade, *truth->GradeOf(g.id));
        }
        at_truth.push_back({g.id, *truth->GradeOf(g.id)});
      }
      EXPECT_TRUE(IsValidTopK(at_truth, *truth, 3));
    }
    for (const LateProbeCounter& c : counters) EXPECT_EQ(c.late(), 0u);
  }
}

// Appends every access to one shared log, so a test can cut a run into
// CA's rounds: each round's sorted accesses, in ascending list order, then
// its random accesses.
struct Access {
  size_t list;
  bool sorted;
  std::optional<GradedObject> result;  // a sorted access's answer
  ObjectId id;                         // a random access's object
};

class LoggingSource final : public GradedSource {
 public:
  LoggingSource(GradedSource* inner, size_t list, std::vector<Access>* log)
      : inner_(inner), list_(list), log_(log) {}
  size_t Size() const override { return inner_->Size(); }
  std::optional<GradedObject> NextSorted() override {
    std::optional<GradedObject> next = inner_->NextSorted();
    log_->push_back({list_, true, next, 0});
    return next;
  }
  void RestartSorted() override { inner_->RestartSorted(); }
  double RandomAccess(ObjectId id) override {
    log_->push_back({list_, false, std::nullopt, id});
    return inner_->RandomAccess(id);
  }
  std::vector<GradedObject> AtLeast(double threshold) override {
    return inner_->AtLeast(threshold);
  }

 private:
  GradedSource* inner_;
  size_t list_;
  std::vector<Access>* log_;
};

// Rounds of a CA run (h = 1) that continued without a random access
// although some seen object still had an unknown grade on a list that had
// not run out: a resolution that made no access. A round may skip its
// resolution only while fewer than k objects are seen or when every seen
// object's grades are known or on lists that ran out.
size_t AccessFreeResolutions(const std::vector<Access>& log, size_t m,
                             size_t k) {
  std::vector<bool> ran_out(m, false);
  std::map<ObjectId, std::vector<bool>> known;
  size_t wasted = 0;
  bool random_seen = false;
  size_t last_sorted = m;  // list of this round's latest sorted access
  auto check_round = [&] {
    if (random_seen || known.size() < k) return;
    for (const auto& [id, lists] : known) {
      for (size_t j = 0; j < m; ++j) {
        if (!lists[j] && !ran_out[j]) {
          ++wasted;
          return;
        }
      }
    }
  };
  for (const Access& a : log) {
    if (a.sorted && (random_seen || (last_sorted < m && a.list <= last_sorted))) {
      check_round();  // a new round begins, so the previous one continued
      random_seen = false;
    }
    if (a.sorted) {
      last_sorted = a.list;
      if (!a.result.has_value()) {
        ran_out[a.list] = true;
        continue;
      }
      std::vector<bool>& lists = known[a.result->id];
      lists.resize(m, false);
      lists[a.list] = true;
    } else {
      random_seen = true;
      known[a.id][a.list] = true;
    }
  }
  return wasted;
}

TEST(ExhaustedSourcesTest, CombinedNeverResolvesWithoutAnAccess) {
  // Two short lists run out early; an object whose only unknown grades sit
  // on them already has its exact grade, so CA must resolve another one.
  constexpr size_t kLists = 3;
  constexpr size_t kTop = 8;
  size_t wasted = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(9001 + seed);
    Workload w = IndependentUniform(&rng, 40, kLists);
    const size_t first = 3 + rng.NextBounded(6);   // 3..8 items
    const size_t second = 5 + rng.NextBounded(7);  // 5..11 items
    Result<std::vector<VectorSource>> sources =
        MakeTruncatedSources(w, {first, second, 40});
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> raw = SourcePtrs(*sources);
    std::vector<Access> log;
    std::vector<LoggingSource> logged;
    logged.reserve(kLists);
    for (size_t j = 0; j < kLists; ++j) logged.emplace_back(raw[j], j, &log);
    std::vector<GradedSource*> ptrs;
    for (LoggingSource& l : logged) ptrs.push_back(&l);
    ScoringRulePtr rule = ArithmeticMeanRule();
    Result<GradedSet> truth = NaiveAllGrades(raw, *rule);
    ASSERT_TRUE(truth.ok());

    Result<TopKResult> ca = CombinedTopK(ptrs, *rule, kTop, /*h=*/1);
    ASSERT_TRUE(ca.ok());
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<GradedObject> at_truth;
    for (const GradedObject& g : ca->items) {
      if (ca->grades_exact) {
        EXPECT_EQ(g.grade, *truth->GradeOf(g.id));
      }
      at_truth.push_back({g.id, *truth->GradeOf(g.id)});
    }
    EXPECT_TRUE(IsValidTopK(at_truth, *truth, kTop));
    wasted += AccessFreeResolutions(log, kLists, kTop);
  }
  EXPECT_EQ(wasted, 0u);
}

TEST(ExhaustedSourcesTest, EmptySourceIsAllZeros) {
  VectorSource a = LongSource(kN);
  Result<VectorSource> empty = VectorSource::Create({}, "empty");
  ASSERT_TRUE(empty.ok());
  std::vector<GradedSource*> ptrs{&a, &*empty};
  ScoringRulePtr rule = MinRule();
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());

  // Under min every overall grade is 0; both algorithms must notice after a
  // couple of rounds instead of scanning all of the long list.
  Result<TopKResult> ta = ThresholdTopK(ptrs, *rule, 2);
  ASSERT_TRUE(ta.ok());
  EXPECT_TRUE(IsValidTopK(ta->items, *truth, 2));
  EXPECT_LE(ta->cost.sorted, 10u);

  Result<TopKResult> fagin = FaginTopK(ptrs, *rule, 2);
  ASSERT_TRUE(fagin.ok());
  EXPECT_TRUE(IsValidTopK(fagin->items, *truth, 2));
  EXPECT_LE(fagin->cost.sorted, 10u);
}

TEST(ExhaustedSourcesTest, AllSourcesEmptyYieldEmptyResult) {
  Result<VectorSource> e1 = VectorSource::Create({}, "e1");
  Result<VectorSource> e2 = VectorSource::Create({}, "e2");
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  std::vector<GradedSource*> ptrs{&*e1, &*e2};
  ScoringRulePtr rule = MinRule();

  Result<TopKResult> ta = ThresholdTopK(ptrs, *rule, 5);
  ASSERT_TRUE(ta.ok());
  EXPECT_TRUE(ta->items.empty());

  Result<TopKResult> fagin = FaginTopK(ptrs, *rule, 5);
  ASSERT_TRUE(fagin.ok());
  EXPECT_TRUE(fagin->items.empty());

  Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *rule, 5);
  ASSERT_TRUE(nra.ok());
  EXPECT_TRUE(nra->items.empty());
}

TEST(ExhaustedSourcesTest, FaginCursorBatchesAcrossExhaustion) {
  VectorSource a = LongSource(kN);
  VectorSource b = ShortDeepSource(501, 5);
  std::vector<GradedSource*> ptrs{&a, &b};
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());

  Result<FaginCursor> cursor = FaginCursor::Create(ptrs, MinRule());
  ASSERT_TRUE(cursor.ok());
  Result<TopKResult> first = cursor->NextBatch(2);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(IsValidTopK(first->items, *truth, 2));

  Result<TopKResult> second = cursor->NextBatch(2);
  ASSERT_TRUE(second.ok());
  std::vector<GradedObject> both = first->items;
  both.insert(both.end(), second->items.begin(), second->items.end());
  EXPECT_TRUE(IsValidTopK(both, *truth, 4));

  // The short list exhausted inside the first batch; the virtual credit
  // must carry into later batches so they stay cheap too.
  const uint64_t full_scan = a.Size() + b.Size();
  EXPECT_LT(cursor->cost().sorted, full_scan);
  EXPECT_LE(cursor->cost().sorted, 60u);
}

}  // namespace
}  // namespace fuzzydb
