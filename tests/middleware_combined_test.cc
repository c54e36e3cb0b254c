#include "middleware/combined.h"

#include <cstdint>
#include <functional>

#include <gtest/gtest.h>

#include "middleware/naive.h"
#include "middleware/nra.h"
#include "middleware/threshold.h"
#include "sim/experiment.h"
#include "sim/workload.h"

namespace fuzzydb {
namespace {

TEST(CombinedTest, ValidatesArguments) {
  Rng rng(1103);
  Workload w = IndependentUniform(&rng, 50, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  EXPECT_FALSE(CombinedTopK(ptrs, *MinRule(), 5, 0).ok());
  EXPECT_FALSE(CombinedTopK(ptrs, *MinRule(), 0, 1).ok());
  ScoringRulePtr bad = UserDefinedRule(
      "antitone", [](std::span<const double> s) { return 1.0 - s[0]; },
      false, false);
  EXPECT_EQ(CombinedTopK(ptrs, *bad, 5, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

class CombinedPeriodTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CombinedPeriodTest, CorrectTopKSetAtEveryPeriod) {
  const size_t h = GetParam();
  for (uint64_t seed : {1u, 2u}) {
    Rng rng(1109 + seed);
    Workload w = IndependentUniform(&rng, 400, 2);
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
    ASSERT_TRUE(truth.ok());
    Result<TopKResult> r = CombinedTopK(ptrs, *MinRule(), 10, h);
    ASSERT_TRUE(r.ok());
    std::vector<GradedObject> expected = truth->TopK(10);
    ASSERT_EQ(r->items.size(), expected.size());
    double kth = expected.back().grade;
    for (const GradedObject& g : r->items) {
      EXPECT_GE(*truth->GradeOf(g.id), kth - 1e-12)
          << "h=" << h << " seed=" << seed;
      // Reported grades never exceed the truth (lower bounds or exact).
      EXPECT_LE(g.grade, *truth->GradeOf(g.id) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, CombinedPeriodTest,
                         ::testing::Values(1, 2, 8, 64, 100000),
                         [](const auto& info) {
                           // Built via append rather than operator+(const
                           // char*, string&&): gcc 12's -Wrestrict misfires
                           // on the inlined insert path of the latter.
                           std::string name = "h";
                           name += std::to_string(info.param);
                           return name;
                         });

// CA whose random-access period is never reached is NRA (Fagin, Lotem and
// Naor, "Optimal Aggregation Algorithms for Middleware"): the same items and
// grades, the same `grades_exact`, and the same accesses on every source.
void ExpectSameRun(const TopKResult& ca, const TopKResult& nra) {
  ASSERT_EQ(ca.items.size(), nra.items.size());
  for (size_t i = 0; i < ca.items.size(); ++i) {
    EXPECT_EQ(ca.items[i].id, nra.items[i].id) << "rank " << i;
    EXPECT_EQ(ca.items[i].grade, nra.items[i].grade) << "rank " << i;
  }
  EXPECT_EQ(ca.grades_exact, nra.grades_exact);
  ASSERT_EQ(ca.per_source.size(), nra.per_source.size());
  for (size_t j = 0; j < ca.per_source.size(); ++j) {
    EXPECT_EQ(ca.per_source[j].sorted, nra.per_source[j].sorted)
        << "list " << j;
    EXPECT_EQ(ca.per_source[j].random, nra.per_source[j].random)
        << "list " << j;
  }
}

constexpr size_t kNeverReached = SIZE_MAX;

TEST(CombinedTest, RandomAccessDecreasesWithPeriod) {
  Rng rng(1117);
  Workload w = IndependentUniform(&rng, 5000, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  uint64_t prev_random = UINT64_MAX;
  for (size_t h : {1u, 8u, 64u, 1000000u}) {
    Result<TopKResult> r = CombinedTopK(ptrs, *MinRule(), 10, h);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->cost.random, prev_random) << "h=" << h;
    prev_random = r->cost.random;
  }
  Result<TopKResult> ca_inf =
      CombinedTopK(ptrs, *MinRule(), 10, kNeverReached);
  Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *MinRule(), 10);
  ASSERT_TRUE(ca_inf.ok() && nra.ok());
  EXPECT_EQ(ca_inf->cost.random, 0u);
  ExpectSameRun(*ca_inf, *nra);
}

TEST(CombinedTest, NeverReachedPeriodIsNraUnderRulesAndBudgets) {
  struct Case {
    std::string name;
    std::function<Workload(Rng*)> make;
  };
  const std::vector<Case> workloads{
      {"uniform_m2", [](Rng* r) { return IndependentUniform(r, 600, 2); }},
      {"correlated_m3", [](Rng* r) { return Correlated(r, 600, 3, 0.5); }},
      {"quantized_m3", [](Rng* r) { return QuantizedUniform(r, 600, 3, 4); }},
      {"uniform_m4", [](Rng* r) { return IndependentUniform(r, 300, 4); }},
  };
  const std::vector<ScoringRulePtr> rules{MinRule(), ArithmeticMeanRule(),
                                          GeometricMeanRule()};
  for (const Case& c : workloads) {
    Rng rng(1151);
    Workload w = c.make(&rng);
    Result<std::vector<VectorSource>> sources = w.MakeSources();
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    for (const ScoringRulePtr& rule : rules) {
      for (size_t k : {1u, 5u, 20u}) {
        for (uint64_t budget : {0u, 7u, 40u}) {
          SCOPED_TRACE(c.name + " " + rule->name() + " k=" +
                       std::to_string(k) + " budget=" +
                       std::to_string(budget));
          AccessGovernor ca_gov(budget);
          AccessGovernor nra_gov(budget);
          Result<TopKResult> ca =
              CombinedTopK(ptrs, *rule, k, kNeverReached, &ca_gov);
          Result<TopKResult> nra =
              NoRandomAccessTopK(ptrs, *rule, k, &nra_gov);
          ASSERT_TRUE(ca.ok() && nra.ok());
          ExpectSameRun(*ca, *nra);
          EXPECT_EQ(ca_gov.spent(), nra_gov.spent());
        }
      }
    }
  }
}

TEST(CombinedTest, TruncatedAndEmptySourcesGetVirtualCredit) {
  // Exhausted lists contribute last_seen = 0 to the upper bounds (the
  // Fagin virtual-credit rule TA and NRA already apply), so CA halts
  // instead of spinning, and still certifies a correct top-k of whatever
  // objects exist — including the all-but-one-empty and all-empty cases.
  Rng rng(1129);
  Workload w = IndependentUniform(&rng, 200, 3);
  for (const std::vector<size_t>& lengths :
       {std::vector<size_t>{200, 30, 0}, std::vector<size_t>{200, 0, 0},
        std::vector<size_t>{0, 0, 0}}) {
    Result<std::vector<VectorSource>> sources =
        MakeTruncatedSources(w, lengths);
    ASSERT_TRUE(sources.ok());
    std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
    Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
    ASSERT_TRUE(truth.ok());
    for (size_t h : {1u, 2u, 64u}) {
      Result<TopKResult> r = CombinedTopK(ptrs, *MinRule(), 10, h);
      ASSERT_TRUE(r.ok()) << "h=" << h;
      std::vector<GradedObject> expected = truth->TopK(10);
      ASSERT_EQ(r->items.size(), expected.size()) << "h=" << h;
      if (!expected.empty()) {
        double kth = expected.back().grade;
        for (const GradedObject& g : r->items) {
          EXPECT_GE(*truth->GradeOf(g.id), kth - 1e-12) << "h=" << h;
        }
      }
    }
  }
}

TEST(CombinedTest, SmallPeriodCanTerminateEarlierThanNRA) {
  // Resolving blockers with random access lets CA stop at a shallower
  // sorted depth than pure NRA on at least some instances.
  Rng rng(1123);
  Workload w = AntiCorrelated(&rng, 3000, 0.05);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<TopKResult> ca = CombinedTopK(ptrs, *MinRule(), 10, 1);
  Result<TopKResult> nra = NoRandomAccessTopK(ptrs, *MinRule(), 10);
  ASSERT_TRUE(ca.ok() && nra.ok());
  EXPECT_LE(ca->cost.sorted, nra->cost.sorted);
}

}  // namespace
}  // namespace fuzzydb
