// E8 — the independence assumption (Theorems 4.1/4.2 assume independent
// subqueries) and its failure modes: positively correlated lists make A0
// cheaper (matches surface immediately), anti-correlated lists make it far
// more expensive, and the adversarial middle-crossing instance forces the
// provable linear lower bound the paper mentions in §6.

#include "bench_util.h"
#include "middleware/fagin.h"
#include "middleware/threshold.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;
constexpr size_t kN = 50000;
constexpr size_t kK = 10;

void PrintTables() {
  Banner("E8: correlation vs A0/TA cost (m=2, N=50000, k=10)");
  TablePrinter table({"workload", "a0-cost", "ta-cost", "a0/2N"});
  auto run_both = [&](const std::string& name, const WorkloadFactory& make) {
    CostPoint a0 = CheckedValue(
        SweepCost(make,
                  [](std::span<GradedSource* const> s,
                     const ScoringRule& rule,
                     size_t k) { return FaginTopK(s, rule, k); },
                  *MinRule(), {kN}, 2, kK, 3, kSeed),
        "E8 a0")[0];
    CostPoint ta = CheckedValue(
        SweepCost(make,
                  [](std::span<GradedSource* const> s,
                     const ScoringRule& rule,
                     size_t k) { return ThresholdTopK(s, rule, k); },
                  *MinRule(), {kN}, 2, kK, 3, kSeed),
        "E8 ta")[0];
    table.AddRow({name, std::to_string(a0.cost.total()),
                  std::to_string(ta.cost.total()),
                  TablePrinter::Num(static_cast<double>(a0.cost.total()) /
                                        (2.0 * kN),
                                    3)});
  };

  for (double rho : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    run_both("correlated rho=" + TablePrinter::Num(rho, 2),
             [rho](Rng* rng, size_t n) { return Correlated(rng, n, 2, rho); });
  }
  run_both("anti-correlated", [](Rng* rng, size_t n) {
    return AntiCorrelated(rng, n, 0.05);
  });
  run_both("pathological-middle",
           [](Rng*, size_t n) { return PathologicalMiddle(n); });
  table.Print();
  std::cout << "Expectation: cost falls monotonically as rho rises (rho=1 "
               "costs ~k per list); anti-correlation pushes cost toward "
               "linear; the pathological instance hits a0/2N ~ 1 — the "
               "provable linear lower bound.\n";
}

void BM_FaginByCorrelation(benchmark::State& state) {
  double rho = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(kSeed);
  Workload w = Correlated(&rng, kN, 2, rho);
  std::vector<VectorSource> sources =
      CheckedValue(w.MakeSources(), "bench sources");
  std::vector<GradedSource*> ptrs = SourcePtrs(sources);
  ScoringRulePtr min = MinRule();
  for (auto _ : state) {
    TopKResult r = CheckedValue(FaginTopK(ptrs, *min, kK), "bench run");
    benchmark::DoNotOptimize(r.items.data());
  }
}
BENCHMARK(BM_FaginByCorrelation)->Arg(0)->Arg(50)->Arg(90);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
