// Correctness and cost-accounting tests for all top-k algorithms, cross
// checked against the naive ground truth over randomized workloads.

#include <gtest/gtest.h>

#include "core/weights.h"
#include "middleware/disjunction.h"
#include "middleware/fagin.h"
#include "middleware/filtered.h"
#include "middleware/naive.h"
#include "middleware/nra.h"
#include "middleware/threshold.h"
#include "sim/experiment.h"
#include "sim/workload.h"

namespace fuzzydb {
namespace {

struct AlgoCase {
  std::string name;
  size_t m;
  size_t k;
  TNormKind rule_kind;
};

class TopKCorrectnessTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(TopKCorrectnessTest, AllAlgorithmsAgreeWithGroundTruth) {
  const AlgoCase& c = GetParam();
  Rng rng(211);
  Workload w = IndependentUniform(&rng, 400, c.m);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  ScoringRulePtr rule = TNormRule(c.rule_kind);

  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());

  Result<TopKResult> naive = NaiveTopK(ptrs, *rule, c.k);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(IsValidTopK(naive->items, *truth, c.k)) << "naive";

  Result<TopKResult> fagin = FaginTopK(ptrs, *rule, c.k);
  ASSERT_TRUE(fagin.ok());
  EXPECT_TRUE(IsValidTopK(fagin->items, *truth, c.k)) << "fagin";

  Result<TopKResult> ta = ThresholdTopK(ptrs, *rule, c.k);
  ASSERT_TRUE(ta.ok());
  EXPECT_TRUE(IsValidTopK(ta->items, *truth, c.k)) << "ta";

  Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *rule, c.k);
  ASSERT_TRUE(nra.ok());
  // NRA certifies the set; grades may be lower bounds, so check membership.
  std::vector<GradedObject> expected = truth->TopK(c.k);
  double kth = expected.back().grade;
  ASSERT_EQ(nra->items.size(), std::min(c.k, truth->size()));
  for (const GradedObject& g : nra->items) {
    EXPECT_GE(*truth->GradeOf(g.id), kth - 1e-12) << "nra member";
  }
  EXPECT_EQ(nra->cost.random, 0u) << "NRA must never use random access";

  Result<TopKResult> filtered = FilteredSimulationTopK(ptrs, *rule, c.k);
  ASSERT_TRUE(filtered.ok());
  EXPECT_TRUE(IsValidTopK(filtered->items, *truth, c.k)) << "filtered";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKCorrectnessTest,
    ::testing::Values(
        AlgoCase{"m2_k1_min", 2, 1, TNormKind::kMinimum},
        AlgoCase{"m2_k10_min", 2, 10, TNormKind::kMinimum},
        AlgoCase{"m3_k5_min", 3, 5, TNormKind::kMinimum},
        AlgoCase{"m4_k10_min", 4, 10, TNormKind::kMinimum},
        AlgoCase{"m2_k10_product", 2, 10, TNormKind::kProduct},
        AlgoCase{"m3_k10_lukasiewicz", 3, 10, TNormKind::kLukasiewicz},
        AlgoCase{"m2_k10_hamacher", 2, 10, TNormKind::kHamacher},
        AlgoCase{"m2_k400_everything", 2, 400, TNormKind::kMinimum},
        AlgoCase{"m2_k1000_oversized", 2, 1000, TNormKind::kMinimum}),
    [](const auto& info) { return info.param.name; });

TEST(TopKArgumentsTest, RejectBadInputs) {
  Rng rng(223);
  Workload w = IndependentUniform(&rng, 10, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  ScoringRulePtr min = MinRule();

  EXPECT_FALSE(FaginTopK({}, *min, 1).ok());
  EXPECT_FALSE(FaginTopK(ptrs, *min, 0).ok());

  // Unequal-length lists are legal: an object absent from a list has grade
  // 0 there, so a shorter list is just one that stopped delivering early.
  // (middleware_exhausted_test.cc covers the semantics in depth.)
  Result<VectorSource> small = VectorSource::Create({{1, 0.5}});
  ASSERT_TRUE(small.ok());
  std::vector<GradedSource*> unequal{ptrs[0], &*small};
  EXPECT_TRUE(FaginTopK(unequal, *min, 1).ok());
}

TEST(TopKArgumentsTest, MonotoneOnlyAlgorithmsRejectNonMonotoneRules) {
  Rng rng(227);
  Workload w = IndependentUniform(&rng, 10, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  ScoringRulePtr bad = UserDefinedRule(
      "antitone",
      [](std::span<const double> s) { return 1.0 - s[0]; },
      /*claims_monotone=*/false, /*claims_strict=*/false);

  EXPECT_EQ(FaginTopK(ptrs, *bad, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ThresholdTopK(ptrs, *bad, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(NoRandomAccessTopK(ptrs, *bad, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(FilteredSimulationTopK(ptrs, *bad, 1).status().code(),
            StatusCode::kFailedPrecondition);
  // Naive is correct for any rule.
  EXPECT_TRUE(NaiveTopK(ptrs, *bad, 1).ok());
}

TEST(CostAccountingTest, NaiveCostsExactlyMTimesN) {
  Rng rng(229);
  const size_t n = 500, m = 3;
  Workload w = IndependentUniform(&rng, n, m);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<TopKResult> r = NaiveTopK(ptrs, *MinRule(), 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cost.sorted, m * n);
  EXPECT_EQ(r->cost.random, 0u);
}

TEST(CostAccountingTest, DisjunctionCostsExactlyMTimesK) {
  // Paper §4.1: for max the cost is mk, independent of N.
  Rng rng(233);
  for (size_t n : {100u, 1000u, 5000u}) {
    Workload w = IndependentUniform(&rng, n, 2);
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<TopKResult> r = DisjunctionTopK(ptrs, 10);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->cost.sorted, 20u) << "n=" << n;
    EXPECT_EQ(r->cost.random, 0u);
  }
}

TEST(CostAccountingTest, FaginBeatsNaiveOnLargeIndependentInputs) {
  Rng rng(239);
  const size_t n = 20000;
  Workload w = IndependentUniform(&rng, n, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<TopKResult> fagin = FaginTopK(ptrs, *MinRule(), 10);
  ASSERT_TRUE(fagin.ok());
  // Theory: ~ sqrt(kN) ≈ 450 sorted accesses per list; naive is 40000.
  EXPECT_LT(fagin->cost.total(), 2u * n / 2);
  Result<TopKResult> ta = ThresholdTopK(ptrs, *MinRule(), 10);
  ASSERT_TRUE(ta.ok());
  EXPECT_LE(ta->cost.total(), fagin->cost.total() * 3);
}

TEST(DisjunctionTest, MatchesNaiveUnderMaxRule) {
  Rng rng(241);
  Workload w = IndependentUniform(&rng, 300, 3);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MaxRule());
  ASSERT_TRUE(truth.ok());
  for (size_t k : {1u, 5u, 20u}) {
    Result<TopKResult> r = DisjunctionTopK(ptrs, k);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(IsValidTopK(r->items, *truth, k)) << "k=" << k;
  }
}

TEST(ThresholdTest, NeverReadsDeeperThanFagin) {
  // TA stops at or before A0's depth on every instance (it is instance
  // optimal); compare total sorted accesses on a batch of random workloads.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(300 + seed);
    Workload w = IndependentUniform(&rng, 2000, 3);
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<TopKResult> fagin = FaginTopK(ptrs, *MinRule(), 5);
    Result<TopKResult> ta = ThresholdTopK(ptrs, *MinRule(), 5);
    ASSERT_TRUE(fagin.ok());
    ASSERT_TRUE(ta.ok());
    EXPECT_LE(ta->cost.sorted, fagin->cost.sorted) << "seed " << seed;
  }
}

TEST(NraTest, ReportsBoundsWhenGradesUnresolved) {
  Rng rng(251);
  Workload w = IndependentUniform(&rng, 500, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<TopKResult> r = NoRandomAccessTopK(ptrs, *MinRule(), 3);
  ASSERT_TRUE(r.ok());
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  // Reported grades never exceed the true grade (they are lower bounds).
  for (const GradedObject& g : r->items) {
    EXPECT_LE(g.grade, *truth->GradeOf(g.id) + 1e-12);
  }
}

TEST(FilteredTest, ReportsRoundsAndShrinks) {
  Rng rng(257);
  Workload w = IndependentUniform(&rng, 2000, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  FilteredOptions options;
  options.initial_alpha = 0.999;  // deliberately too aggressive
  options.shrink = 0.7;
  FilteredStats stats;
  Result<TopKResult> r =
      FilteredSimulationTopK(ptrs, *MinRule(), 10, options, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.rounds, 1u);
  EXPECT_LT(stats.final_alpha, 0.999);
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(IsValidTopK(r->items, *truth, 10));
  FilteredOptions bad;
  bad.initial_alpha = 1.5;
  EXPECT_FALSE(FilteredSimulationTopK(ptrs, *MinRule(), 10, bad).ok());
}

TEST(FilteredTest, UniformEstimateStrategyIsNearOptimal) {
  Rng rng(259);
  Workload w = IndependentUniform(&rng, 20000, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  Result<TopKResult> a0 = FaginTopK(ptrs, *MinRule(), 10);
  ASSERT_TRUE(a0.ok());

  FilteredOptions options;
  options.strategy = AlphaStrategy::kUniformEstimate;
  options.safety = 2.0;
  FilteredStats stats;
  Result<TopKResult> r =
      FilteredSimulationTopK(ptrs, *MinRule(), 10, options, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsValidTopK(r->items, *truth, 10));
  EXPECT_LE(stats.rounds, 3u);
  // Within a small factor of true A0 on uniform data.
  EXPECT_LT(r->cost.total(), 5u * a0->cost.total());
  FilteredOptions bad;
  bad.safety = 0.5;
  EXPECT_FALSE(FilteredSimulationTopK(ptrs, *MinRule(), 10, bad).ok());
}

TEST(WeightedAlgorithmsTest, FaginStaysCorrectWithWeightedRules) {
  // Paper §5: A0 continues to be correct in the weighted case.
  Rng rng(263);
  Workload w = IndependentUniform(&rng, 600, 3);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<Weighting> theta = Weighting::Create({0.5, 0.3, 0.2});
  ASSERT_TRUE(theta.ok());
  ScoringRulePtr rule = WeightedRule(MinRule(), *theta);
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());
  using SerialRunner = Result<TopKResult> (*)(std::span<GradedSource* const>,
                                              const ScoringRule&, size_t,
                                              AccessGovernor*);
  for (SerialRunner run : {&FaginTopK, &ThresholdTopK}) {
    Result<TopKResult> r = run(ptrs, *rule, 10, nullptr);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(IsValidTopK(r->items, *truth, 10));
  }
}

TEST(PathologicalTest, ForcesLinearCostForFaginAndTA) {
  // Paper §6: "there is a provable linear lower bound" on some instances.
  const size_t n = 4000;
  Workload w = PathologicalMiddle(n);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());

  Result<TopKResult> fagin = FaginTopK(ptrs, *MinRule(), 1);
  ASSERT_TRUE(fagin.ok());
  EXPECT_TRUE(IsValidTopK(fagin->items, *truth, 1));
  EXPECT_GE(fagin->cost.sorted, n / 2);  // ~n/2 deep on both lists

  Result<TopKResult> ta = ThresholdTopK(ptrs, *MinRule(), 1);
  ASSERT_TRUE(ta.ok());
  EXPECT_TRUE(IsValidTopK(ta->items, *truth, 1));
  EXPECT_GE(ta->cost.sorted, n / 2);
}

}  // namespace
}  // namespace fuzzydb
