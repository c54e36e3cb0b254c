// Tests for the A0-as-a-join operator (paper §4.2).

#include "middleware/join.h"

#include <gtest/gtest.h>

#include <set>

#include "middleware/cost.h"
#include "middleware/naive.h"
#include "middleware/threshold.h"
#include "sim/experiment.h"
#include "sim/workload.h"

namespace fuzzydb {
namespace {

TEST(TopKJoinTest, CreateValidates) {
  Result<VectorSource> a = VectorSource::Create({{1, 0.5}});
  Result<VectorSource> b = VectorSource::Create({{1, 0.6}, {2, 0.1}});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(TopKJoinSource::Create(nullptr, &*b).ok());
  EXPECT_FALSE(TopKJoinSource::Create(&*a, nullptr).ok());
  EXPECT_FALSE(TopKJoinSource::Create(&*a, &*b).ok());  // size mismatch
  ScoringRulePtr bad = UserDefinedRule(
      "antitone", [](std::span<const double> s) { return 1.0 - s[0]; },
      false, false);
  Result<VectorSource> a2 = VectorSource::Create({{1, 0.5}, {2, 0.2}});
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(TopKJoinSource::Create(&*a2, &*b, bad).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TopKJoinTest, StreamsTheExactOverallRanking) {
  Rng rng(881);
  Workload w = IndependentUniform(&rng, 250, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  std::vector<GradedObject> expected = truth->Sorted();

  Result<TopKJoinSource> join =
      TopKJoinSource::Create(ptrs[0], ptrs[1], MinRule());
  ASSERT_TRUE(join.ok());
  for (size_t i = 0; i < expected.size(); ++i) {
    std::optional<GradedObject> next = join->NextSorted();
    ASSERT_TRUE(next.has_value()) << "position " << i;
    EXPECT_EQ(next->id, expected[i].id) << "position " << i;
    EXPECT_NEAR(next->grade, expected[i].grade, 1e-12);
  }
  EXPECT_FALSE(join->NextSorted().has_value());
}

TEST(TopKJoinTest, LazyPullsTouchOnlyAPrefix) {
  // Asking for the top item must not stream the whole inputs.
  Rng rng(883);
  Workload w = IndependentUniform(&rng, 20000, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  AccessCost cost;
  CountingSource left(&(*sources)[0], &cost);
  CountingSource right(&(*sources)[1], &cost);
  Result<TopKJoinSource> join =
      TopKJoinSource::Create(&left, &right, MinRule());
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(join->NextSorted().has_value());
  EXPECT_LT(cost.total(), 4000u) << "joined lazily, not exhaustively";
}

TEST(TopKJoinTest, RandomAccessCombinesGrades) {
  Result<VectorSource> a = VectorSource::Create({{1, 0.5}, {2, 0.9}});
  Result<VectorSource> b = VectorSource::Create({{1, 0.7}, {2, 0.3}});
  ASSERT_TRUE(a.ok() && b.ok());
  Result<TopKJoinSource> join = TopKJoinSource::Create(&*a, &*b, MinRule());
  ASSERT_TRUE(join.ok());
  EXPECT_DOUBLE_EQ(join->RandomAccess(1), 0.5);
  EXPECT_DOUBLE_EQ(join->RandomAccess(2), 0.3);
  EXPECT_DOUBLE_EQ(join->RandomAccess(99), 0.0);
}

TEST(TopKJoinTest, RestartReplaysTheStream) {
  Rng rng(887);
  Workload w = IndependentUniform(&rng, 50, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<TopKJoinSource> join =
      TopKJoinSource::Create(ptrs[0], ptrs[1], MinRule());
  ASSERT_TRUE(join.ok());
  std::vector<ObjectId> first_pass;
  while (auto next = join->NextSorted()) first_pass.push_back(next->id);
  join->RestartSorted();
  std::vector<ObjectId> second_pass;
  while (auto next = join->NextSorted()) second_pass.push_back(next->id);
  EXPECT_EQ(first_pass, second_pass);
}

TEST(TopKJoinTest, AtLeastMatchesThresholdSemantics) {
  Rng rng(907);
  Workload w = IndependentUniform(&rng, 120, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<TopKJoinSource> join =
      TopKJoinSource::Create(ptrs[0], ptrs[1], MinRule());
  ASSERT_TRUE(join.ok());
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  std::vector<GradedObject> expected = truth->AtLeast(0.6);
  std::vector<GradedObject> got = join->AtLeast(0.6);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id);
  }
}

TEST(TopKJoinTest, JoinsComposeIntoPipelines) {
  // join(join(A, B), C) under min == 3-ary min over (A, B, C).
  Rng rng(911);
  Workload w = IndependentUniform(&rng, 200, 3);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);

  Result<TopKJoinSource> inner =
      TopKJoinSource::Create(ptrs[0], ptrs[1], MinRule(), "A*B");
  ASSERT_TRUE(inner.ok());
  Result<TopKJoinSource> outer =
      TopKJoinSource::Create(&*inner, ptrs[2], MinRule(), "(A*B)*C");
  ASSERT_TRUE(outer.ok());

  // Computing the ground truth streams the shared inputs to exhaustion, so
  // rewind the pipeline (RestartSorted cascades to the inputs).
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  outer->RestartSorted();
  std::vector<GradedObject> expected = truth->Sorted();
  for (size_t i = 0; i < 20; ++i) {
    std::optional<GradedObject> next = outer->NextSorted();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->id, expected[i].id) << "position " << i;
    EXPECT_NEAR(next->grade, expected[i].grade, 1e-12);
  }
}

// Serves only the first `limit` sorted items of `inner` but reports the
// full Size(): a subsystem whose sorted stream ends early, without
// violating the join's same-universe size check.
class ShortStreamSource final : public GradedSource {
 public:
  ShortStreamSource(GradedSource* inner, size_t limit)
      : inner_(inner), limit_(limit) {}
  size_t Size() const override { return inner_->Size(); }
  std::optional<GradedObject> NextSorted() override {
    if (served_ >= limit_) return std::nullopt;
    ++served_;
    return inner_->NextSorted();
  }
  void RestartSorted() override {
    served_ = 0;
    inner_->RestartSorted();
  }
  double RandomAccess(ObjectId id) override {
    return inner_->RandomAccess(id);
  }
  std::vector<GradedObject> AtLeast(double threshold) override {
    return inner_->AtLeast(threshold);
  }
  std::string name() const override { return "short-stream"; }

 private:
  GradedSource* inner_;
  const size_t limit_;
  size_t served_ = 0;
};

TEST(TopKJoinTest, TieStormAndTruncatedInputsStreamTheTrueGrades) {
  // Plateaus of duplicate grades exercise the heap tie-breaks; a truncated
  // sorted stream exercises exhaustion of one input mid-join. Either way
  // the emitted grades are the true overall ranking's, each emitted object
  // carries its exact grade, and a restart replays the stream bit for bit.
  Rng rng(20260815);
  Workload ties = QuantizedUniform(&rng, 150, 2, 3);
  Result<std::vector<VectorSource>> tie_sources = ties.MakeSources();
  ASSERT_TRUE(tie_sources.ok());
  Workload w = IndependentUniform(&rng, 150, 2);
  Result<std::vector<VectorSource>> full = w.MakeSources();
  ASSERT_TRUE(full.ok());
  ShortStreamSource short_right(&(*full)[1], 20);

  struct Pair {
    std::vector<GradedSource*> truth_inputs;
    GradedSource* left;
    GradedSource* right;
    const char* name;
  };
  const Pair pairs[] = {
      {SourcePtrs(*tie_sources), &(*tie_sources)[0], &(*tie_sources)[1],
       "tie-storm"},
      {SourcePtrs(*full), &(*full)[0], &short_right, "truncated"},
  };
  for (const Pair& p : pairs) {
    Result<GradedSet> truth = NaiveAllGrades(p.truth_inputs, *MinRule());
    ASSERT_TRUE(truth.ok()) << p.name;
    std::vector<GradedObject> expected = truth->Sorted();
    Result<TopKJoinSource> join =
        TopKJoinSource::Create(p.left, p.right, MinRule());
    ASSERT_TRUE(join.ok()) << p.name;

    std::vector<GradedObject> first_pass;
    std::set<ObjectId> emitted;
    for (size_t i = 0; i < 30; ++i) {
      std::optional<GradedObject> next = join->NextSorted();
      ASSERT_TRUE(next.has_value()) << p.name << " position " << i;
      EXPECT_EQ(next->grade, expected[i].grade) << p.name << " position " << i;
      EXPECT_EQ(next->grade, truth->GradeOf(next->id).value_or(-1.0))
          << p.name << " object " << next->id;
      EXPECT_TRUE(emitted.insert(next->id).second) << p.name;
      first_pass.push_back(*next);
    }
    join->RestartSorted();
    for (size_t i = 0; i < first_pass.size(); ++i) {
      std::optional<GradedObject> next = join->NextSorted();
      ASSERT_TRUE(next.has_value()) << p.name << " replay " << i;
      EXPECT_EQ(next->id, first_pass[i].id) << p.name << " replay " << i;
      EXPECT_EQ(next->grade, first_pass[i].grade) << p.name << " replay " << i;
    }
  }
}

TEST(TopKJoinTest, JoinFeedsOtherAlgorithmsAsAPlainSource) {
  // A join output can be one input of TA — operators all the way down.
  Rng rng(919);
  Workload w = IndependentUniform(&rng, 150, 3);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<TopKJoinSource> join =
      TopKJoinSource::Create(ptrs[0], ptrs[1], MinRule());
  ASSERT_TRUE(join.ok());
  join->RestartSorted();

  std::vector<GradedSource*> two{&*join, ptrs[2]};
  Result<TopKResult> top = ThresholdTopK(two, *MinRule(), 5);
  ASSERT_TRUE(top.ok());
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(IsValidTopK(top->items, *truth, 5));
}

}  // namespace
}  // namespace fuzzydb
