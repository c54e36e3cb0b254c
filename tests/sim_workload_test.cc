#include "sim/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "common/stats.h"
#include "middleware/naive.h"
#include "middleware/nra.h"
#include "sim/experiment.h"

namespace fuzzydb {
namespace {

TEST(WorkloadTest, IndependentUniformShape) {
  Rng rng(601);
  Workload w = IndependentUniform(&rng, 1000, 3);
  EXPECT_EQ(w.n(), 1000u);
  EXPECT_EQ(w.m(), 3u);
  for (const auto& col : w.columns) {
    EXPECT_NEAR(Mean(col), 0.5, 0.05);
    for (double g : col) {
      EXPECT_GE(g, 0.0);
      EXPECT_LT(g, 1.0);
    }
  }
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ(sources->size(), 3u);
  EXPECT_EQ((*sources)[0].Size(), 1000u);
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double ma = Mean(a), mb = Mean(b);
  double num = 0, da = 0, db = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  return num / std::sqrt(da * db);
}

TEST(WorkloadTest, CorrelatedColumnsActuallyCorrelate) {
  Rng rng(607);
  Workload independent = Correlated(&rng, 3000, 2, 0.0);
  Workload strong = Correlated(&rng, 3000, 2, 0.9);
  double r_ind =
      PearsonCorrelation(independent.columns[0], independent.columns[1]);
  double r_strong = PearsonCorrelation(strong.columns[0], strong.columns[1]);
  EXPECT_NEAR(r_ind, 0.0, 0.1);
  EXPECT_GT(r_strong, 0.8);
}

TEST(WorkloadTest, AntiCorrelatedColumnsOppose) {
  Rng rng(613);
  Workload w = AntiCorrelated(&rng, 3000, 0.02);
  EXPECT_EQ(w.m(), 2u);
  double r = PearsonCorrelation(w.columns[0], w.columns[1]);
  EXPECT_LT(r, -0.9);
  for (size_t j = 0; j < 2; ++j) {
    for (double g : w.columns[j]) {
      EXPECT_GE(g, 0.0);
      EXPECT_LE(g, 1.0);
    }
  }
}

TEST(WorkloadTest, PathologicalInstanceStructure) {
  Workload w = PathologicalMiddle(1000);
  // All grades distinct and in (0.5, 1]; the best min-object sits in the
  // middle of the object order.
  size_t best = 0;
  double best_min = 0.0;
  for (size_t i = 0; i < w.n(); ++i) {
    double lo = std::min(w.columns[0][i], w.columns[1][i]);
    if (lo > best_min) {
      best_min = lo;
      best = i;
    }
  }
  EXPECT_GT(best, w.n() / 4);
  EXPECT_LT(best, 3 * w.n() / 4);
  // List orders oppose: column 0 descends with i, column 1 ascends.
  EXPECT_GT(w.columns[0][0], w.columns[0][999]);
  EXPECT_LT(w.columns[1][0], w.columns[1][999]);
}

TEST(WorkloadTest, ZeroOneColumnSelectivity) {
  Rng rng(617);
  std::vector<double> col = ZeroOneColumn(&rng, 1000, 0.1);
  size_t ones = 0;
  for (double g : col) {
    EXPECT_TRUE(g == 0.0 || g == 1.0);
    ones += g == 1.0;
  }
  EXPECT_EQ(ones, 100u);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"n", "cost"});
  table.AddRow({"100", "42"});
  table.AddRow({"100000", "123456"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("123456"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(TablePrinter::Num(3.14159, 3), "3.14");
}

TEST(SweepCostTest, RunsAndAverages) {
  WorkloadFactory factory = [](Rng* rng, size_t n) {
    return IndependentUniform(rng, n, 2);
  };
  AlgorithmRunner runner = [](std::span<GradedSource* const> sources,
                              const ScoringRule& rule, size_t k) {
    return NaiveTopK(sources, rule, k);
  };
  Result<std::vector<CostPoint>> points =
      SweepCost(factory, runner, *MinRule(), {100, 200}, 2, 5, 3, 42);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 2u);
  EXPECT_EQ((*points)[0].cost.total(), 200u);  // naive = m*n
  EXPECT_EQ((*points)[1].cost.total(), 400u);
  Result<LinearFit> fit = FitCostExponent(*points);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 1.0, 1e-9);  // naive is linear in N
  EXPECT_FALSE(
      SweepCost(factory, runner, *MinRule(), {100}, 2, 5, 0, 42).ok());
}

TEST(SweepCostTest, ChecksEveryAnswer) {
  WorkloadFactory factory = [](Rng* rng, size_t n) {
    return IndependentUniform(rng, n, 3);
  };
  auto sweep = [&](const AlgorithmRunner& runner) {
    return SweepCost(factory, runner, *ArithmeticMeanRule(), {200}, 3, 5, 2,
                     42);
  };
  // NRA's grades are lower bounds when grades_exact is false; its set is
  // still checked.
  EXPECT_TRUE(sweep([](std::span<GradedSource* const> s,
                       const ScoringRule& rule, size_t k) {
                return NoRandomAccessTopK(s, rule, k);
              }).ok());

  // A runner that drops the best object, one that misreports an exact
  // grade, and one that answers under another rule all fail the sweep.
  auto naive_then = [](std::function<void(TopKResult*)> spoil) {
    return [spoil](std::span<GradedSource* const> s, const ScoringRule& rule,
                   size_t k) -> Result<TopKResult> {
      Result<TopKResult> r = NaiveTopK(s, rule, k + 1);
      if (r.ok()) spoil(&*r);
      return r;
    };
  };
  const std::vector<AlgorithmRunner> wrong{
      naive_then([](TopKResult* r) { r->items.erase(r->items.begin()); }),
      naive_then([](TopKResult* r) {
        r->items.pop_back();
        r->items[0].grade -= 0.01;
      }),
      [](std::span<GradedSource* const> s, const ScoringRule&, size_t k) {
        return NaiveTopK(s, *MinRule(), k);
      },
  };
  for (const AlgorithmRunner& runner : wrong) {
    Result<std::vector<CostPoint>> r = sweep(runner);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }

  // The same misreported grade passes as a lower bound.
  EXPECT_TRUE(sweep(naive_then([](TopKResult* r) {
                r->items.pop_back();
                r->items[0].grade -= 0.01;
                r->grades_exact = false;
              })).ok());
}

}  // namespace
}  // namespace fuzzydb
