// E11 (ablation) — does the cost-based optimizer pick the right plan?
// For each (N, random-access price) cell we run *every* applicable
// algorithm, measure its true charged cost, and compare the optimizer's
// choice against the measured winner. This closes the loop on the paper's
// §4.2 "cost modeling issues": the Theorem-4.1 estimates are good enough to
// plan with.

#include <cmath>

#include "bench_util.h"
#include "middleware/combined.h"
#include "middleware/fagin.h"
#include "middleware/naive.h"
#include "middleware/nra.h"
#include "middleware/optimizer.h"
#include "middleware/threshold.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;
constexpr size_t kK = 10;

struct Measured {
  std::string name;
  double charged;
};

void PrintTables() {
  Banner("E11: optimizer plan choice vs measured winner (m=2, k=10)");
  TablePrinter table({"N", "rand-price", "chosen", "est-cost",
                      "measured-winner", "winner-cost", "chosen-cost",
                      "regret"});
  // E11b closes the loop for CA specifically: the considered-plan list now
  // carries "ca(h=N)" with the price-derived period, and its estimate must
  // sit in the same accuracy band as TA's and NRA's against measured cost.
  TablePrinter etable({"N", "rand-price", "plan", "est-cost",
                       "measured-cost", "est/measured"});
  QueryPtr query =
      Query::And({Query::Atomic("A", "x"), Query::Atomic("B", "y")});

  for (size_t n : {2000u, 50000u}) {
    Rng rng(kSeed + n);
    Workload w = IndependentUniform(&rng, n, 2);
    std::vector<VectorSource> sources =
        CheckedValue(w.MakeSources(), "E11 sources");
    std::vector<GradedSource*> ptrs = SourcePtrs(sources);
    ScoringRulePtr min = MinRule();

    AccessCost naive = CheckedValue(NaiveTopK(ptrs, *min, kK), "naive").cost;
    AccessCost a0 = CheckedValue(FaginTopK(ptrs, *min, kK), "a0").cost;
    AccessCost ta = CheckedValue(ThresholdTopK(ptrs, *min, kK), "ta").cost;
    TopKResult nra_run =
        CheckedValue(NoRandomAccessTopK(ptrs, *min, kK), "nra");
    CheckOk(CheckTopK(nra_run, ptrs, *min, kK), "E11 nra answer");
    AccessCost nra = nra_run.cost;

    for (double price : {0.1, 1.0, 10.0, 100.0}) {
      // CA's period follows the price ratio, so it is re-run per price.
      size_t h = static_cast<size_t>(std::max(1.0, price));
      TopKResult ca_run =
          CheckedValue(CombinedTopK(ptrs, *min, kK, h), "ca");
      CheckOk(CheckTopK(ca_run, ptrs, *min, kK), "E11 ca answer");
      AccessCost ca = ca_run.cost;
      std::vector<Measured> measured{
          {"naive", naive.Charged(price)},
          {"fagin-a0", a0.Charged(price)},
          {"ta", ta.Charged(price)},
          {"nra", nra.Charged(price)},
          {"ca", ca.Charged(price)},
      };
      const Measured* winner = &measured[0];
      for (const Measured& m : measured) {
        if (m.charged < winner->charged) winner = &m;
      }
      CostModel model;
      model.random_unit = price;
      PlanChoice choice =
          CheckedValue(ChoosePlan(*query, n, kK, model), "E11 plan");
      double chosen_cost = 0.0;
      for (const Measured& m : measured) {
        if (m.name == AlgorithmName(choice.algorithm)) {
          chosen_cost = m.charged;
        }
      }
      table.AddRow(
          {std::to_string(n), TablePrinter::Num(price, 4),
           AlgorithmName(choice.algorithm),
           TablePrinter::Num(choice.estimated_cost, 5), winner->name,
           TablePrinter::Num(winner->charged, 5),
           TablePrinter::Num(chosen_cost, 5),
           TablePrinter::Num(chosen_cost / winner->charged, 3)});

      // Estimate-vs-measured, read back off the considered list so the
      // "ca(h=N)" label is exercised the same way EXPLAIN consumes it.
      auto considered_estimate = [&](const std::string& base) {
        for (const auto& [label, est] : choice.considered) {
          if (ConsideredBaseName(label) == base) return est;
        }
        return std::nan("");
      };
      auto add_estimate_row = [&](const std::string& base, double charged) {
        etable.AddRow({std::to_string(n), TablePrinter::Num(price, 4), base,
                       TablePrinter::Num(considered_estimate(base), 5),
                       TablePrinter::Num(charged, 5),
                       TablePrinter::Num(considered_estimate(base) / charged,
                                         3)});
      };
      add_estimate_row("ta", ta.Charged(price));
      add_estimate_row("nra", nra.Charged(price));
      add_estimate_row("ca", ca.Charged(price));
    }
  }
  table.Print();
  Banner("E11b: estimate vs measured charged cost (CA accuracy band)");
  etable.Print();
  std::cout << "Expectation: the optimizer switches away from random-access "
               "plans as the price climbs, and regret (chosen/winner charged "
               "cost) stays below 2 in every cell. NRA's estimate is "
               "deliberately conservative (its stopping depth depends on how "
               "fast the rule's lower bounds converge — fast for min, slow "
               "in general), so at cheap random access the optimizer "
               "prefers A0/TA and pays at most the 2x modeling margin.\n"
               "E11b expectation: CA's est/measured ratio stays inside the "
               "band spanned by TA's and NRA's ratios in the same cell — the "
               "period-h formula is no worse a predictor than the Theorem "
               "4.1 formulas it interpolates.\n";
}

void BM_PlanChoice(benchmark::State& state) {
  QueryPtr query =
      Query::And({Query::Atomic("A", "x"), Query::Atomic("B", "y")});
  CostModel model;
  for (auto _ : state) {
    PlanChoice c =
        CheckedValue(ChoosePlan(*query, 100000, kK, model), "bench plan");
    benchmark::DoNotOptimize(c.estimated_cost);
  }
}
BENCHMARK(BM_PlanChoice);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
