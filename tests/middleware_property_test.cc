// Cross-algorithm property sweep: for MANY random workloads, rules (t-norms,
// means, weighted rules, OWA, composite query trees), and k values, every
// algorithm must produce a valid top-k answer and respect its cost
// contract. This is the repo's broadest consistency net.

#include <gtest/gtest.h>

#include "core/equivalence.h"
#include "core/weights.h"
#include "middleware/composite_rule.h"
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

// The top-k entry points, called with no access governor.
using SerialRunner = Result<TopKResult> (*)(std::span<GradedSource* const>,
                                            const ScoringRule&, size_t,
                                            AccessGovernor*);

struct SweepCase {
  std::string name;
  ScoringRulePtr rule;
  size_t m;
};

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  cases.push_back({"min_m2", MinRule(), 2});
  cases.push_back({"min_m4", MinRule(), 4});
  cases.push_back({"product_m3", TNormRule(TNormKind::kProduct), 3});
  cases.push_back({"einstein_m2", TNormRule(TNormKind::kEinstein), 2});
  cases.push_back({"avg_m3", ArithmeticMeanRule(), 3});
  cases.push_back({"geomean_m2", GeometricMeanRule(), 2});
  cases.push_back({"median_m3", MedianRule(), 3});
  cases.push_back(
      {"weighted_min_m3",
       WeightedRule(MinRule(), *Weighting::Create({0.5, 0.3, 0.2})), 3});
  cases.push_back(
      {"weighted_avg_m2",
       WeightedRule(ArithmeticMeanRule(), *Weighting::Create({0.8, 0.2})),
       2});
  cases.push_back({"owa_m3", OwaRule(*Weighting::Create({0.2, 0.3, 0.5})),
                   3});
  return cases;
}

class AlgorithmSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AlgorithmSweepTest, EveryAlgorithmProducesAValidTopK) {
  const SweepCase& c = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(9000 + seed);
    Workload w = IndependentUniform(&rng, 300, c.m);
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *c.rule);
    ASSERT_TRUE(truth.ok());
    for (size_t k : {1u, 7u, 50u}) {
      Result<TopKResult> naive = NaiveTopK(ptrs, *c.rule, k);
      ASSERT_TRUE(naive.ok());
      EXPECT_TRUE(IsValidTopK(naive->items, *truth, k))
          << c.name << " naive k=" << k;

      Result<TopKResult> fagin = FaginTopK(ptrs, *c.rule, k);
      ASSERT_TRUE(fagin.ok());
      EXPECT_TRUE(IsValidTopK(fagin->items, *truth, k))
          << c.name << " fagin k=" << k;

      Result<TopKResult> ta = ThresholdTopK(ptrs, *c.rule, k);
      ASSERT_TRUE(ta.ok());
      EXPECT_TRUE(IsValidTopK(ta->items, *truth, k))
          << c.name << " ta k=" << k;
      EXPECT_LE(ta->cost.sorted, fagin->cost.sorted)
          << c.name << " ta depth k=" << k;

      Result<TopKResult> filtered = FilteredSimulationTopK(ptrs, *c.rule, k);
      ASSERT_TRUE(filtered.ok());
      EXPECT_TRUE(IsValidTopK(filtered->items, *truth, k))
          << c.name << " filtered k=" << k;

      Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *c.rule, k);
      ASSERT_TRUE(nra.ok());
      EXPECT_EQ(nra->cost.random, 0u) << c.name;
      // NRA certifies set membership: every winner's true grade must be at
      // least the (k)th true grade.
      std::vector<GradedObject> expected = truth->TopK(k);
      ASSERT_EQ(nra->items.size(), expected.size()) << c.name;
      if (!expected.empty()) {
        double kth = expected.back().grade;
        for (const GradedObject& g : nra->items) {
          EXPECT_GE(*truth->GradeOf(g.id), kth - 1e-12)
              << c.name << " nra k=" << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rules, AlgorithmSweepTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const auto& info) { return info.param.name; });

TEST(CompositeTreeSweepTest, RandomMonotoneTreesAgreeAcrossAlgorithms) {
  // Random nested AND/OR trees evaluated as one composite rule: A0/TA must
  // agree with naive on every tree.
  Rng tree_rng(777);
  for (int trial = 0; trial < 15; ++trial) {
    QueryPtr tree = RandomMonotoneQuery(&tree_rng, {"A", "B", "C"}, 2);
    size_t m = tree->NumAtoms();
    if (m < 2) continue;
    ScoringRulePtr rule = CompositeQueryRule(tree);

    Rng rng(800 + trial);
    Workload w = IndependentUniform(&rng, 200, m);
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
    ASSERT_TRUE(truth.ok());
    for (SerialRunner run : {&FaginTopK, &ThresholdTopK}) {
      Result<TopKResult> r = run(ptrs, *rule, 5, nullptr);
      ASSERT_TRUE(r.ok()) << tree->ToString();
      EXPECT_TRUE(IsValidTopK(r->items, *truth, 5)) << tree->ToString();
    }
  }
}

TEST(CorrelatedWorkloadSweepTest, AlgorithmsStayCorrectOffTheIidPath) {
  // Theorem 4.1's COST bound needs independence; CORRECTNESS must not.
  for (double rho : {0.5, 1.0}) {
    Rng rng(850 + static_cast<uint64_t>(rho * 10));
    Workload w = Correlated(&rng, 300, 2, rho);
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
    ASSERT_TRUE(truth.ok());
    for (SerialRunner run : {&FaginTopK, &ThresholdTopK}) {
      Result<TopKResult> r = run(ptrs, *MinRule(), 10, nullptr);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(IsValidTopK(r->items, *truth, 10)) << "rho=" << rho;
    }
  }
  // Anti-correlated and adversarial instances.
  Rng rng(860);
  for (Workload w :
       {AntiCorrelated(&rng, 300, 0.05), PathologicalMiddle(300)}) {
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
    ASSERT_TRUE(truth.ok());
    for (SerialRunner run : {&FaginTopK, &ThresholdTopK, &NoRandomAccessTopK}) {
      Result<TopKResult> r = run(ptrs, *MinRule(), 10, nullptr);
      ASSERT_TRUE(r.ok());
      // NRA grades may be bounds; check set membership only.
      std::vector<GradedObject> expected = truth->TopK(10);
      double kth = expected.back().grade;
      for (const GradedObject& g : r->items) {
        EXPECT_GE(*truth->GradeOf(g.id), kth - 1e-12);
      }
    }
  }
}

TEST(ZeroOneRelationalSweepTest, MixedCrispAndGradedLists) {
  // The running-example shape: one 0/1 relational list joined with a graded
  // one, across selectivities.
  for (double selectivity : {0.01, 0.1, 0.5}) {
    Rng rng(870 + static_cast<uint64_t>(selectivity * 100));
    const size_t n = 500;
    Workload w = IndependentUniform(&rng, n, 1);
    w.columns.push_back(ZeroOneColumn(&rng, n, selectivity));
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
    ASSERT_TRUE(truth.ok());
    for (SerialRunner run : {&FaginTopK, &ThresholdTopK}) {
      Result<TopKResult> r = run(ptrs, *MinRule(), 5, nullptr);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(IsValidTopK(r->items, *truth, 5))
          << "selectivity " << selectivity;
    }
  }
}

}  // namespace
}  // namespace fuzzydb
