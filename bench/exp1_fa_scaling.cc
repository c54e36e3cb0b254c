// E1 — Theorem 4.1/4.2: A0's database access cost over m independent lists
// grows as N^((m-1)/m) * k^(1/m). We sweep N for m in {2,3,4} and k in
// {1,10,100}, fit the log-log slope, and compare with the predicted
// exponent (m-1)/m. The k-dependence is probed at fixed N.

#include <cmath>

#include "bench_util.h"
#include "middleware/fagin.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;

void PrintTables() {
  Banner("E1: A0 cost scaling vs Theorem 4.1/4.2 (cost ~ N^((m-1)/m) k^(1/m))");
  const std::vector<size_t> ns{1000, 3162, 10000, 31623, 100000};

  TablePrinter table(
      {"m", "k", "N=1e3", "N=10^3.5", "N=1e4", "N=10^4.5", "N=1e5",
       "fitted-exp", "theory-exp"});
  for (size_t m : {2u, 3u, 4u}) {
    for (size_t k : {1u, 10u, 100u}) {
      Result<std::vector<CostPoint>> points = SweepCost(
          [m](Rng* rng, size_t n) { return IndependentUniform(rng, n, m); },
          [](std::span<GradedSource* const> sources,
             const ScoringRule& rule,
             size_t kk) { return FaginTopK(sources, rule, kk); },
          *MinRule(), ns, m, k, /*trials=*/3, kSeed);
      std::vector<CostPoint> pts =
          CheckedValue(std::move(points), "E1 sweep");
      LinearFit fit = CheckedValue(FitCostExponent(pts), "E1 fit");
      std::vector<std::string> row{std::to_string(m), std::to_string(k)};
      for (const CostPoint& p : pts) {
        row.push_back(std::to_string(p.cost.total()));
      }
      row.push_back(TablePrinter::Num(fit.slope, 3));
      row.push_back(TablePrinter::Num(
          static_cast<double>(m - 1) / static_cast<double>(m), 3));
      table.AddRow(std::move(row));
    }
  }
  table.Print();

  Banner("E1b: k-dependence at N=1e5, m=2 (theory: cost ~ sqrt(k))");
  TablePrinter ktable({"k", "cost", "cost/sqrt(kN)"});
  for (size_t k : {1u, 4u, 16u, 64u, 256u}) {
    std::vector<CostPoint> pts = CheckedValue(
        SweepCost(
            [](Rng* rng, size_t n) { return IndependentUniform(rng, n, 2); },
            [](std::span<GradedSource* const> sources,
               const ScoringRule& rule,
               size_t kk) { return FaginTopK(sources, rule, kk); },
            *MinRule(), {100000}, 2, k, 3, kSeed),
        "E1b sweep");
    double cost = static_cast<double>(pts[0].cost.total());
    ktable.AddRow({std::to_string(k), TablePrinter::Num(cost, 6),
                   TablePrinter::Num(
                       cost / std::sqrt(static_cast<double>(k) * 100000.0),
                       3)});
  }
  ktable.Print();
}

void BM_FaginTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  Rng rng(kSeed);
  Workload w = IndependentUniform(&rng, n, m);
  std::vector<VectorSource> sources =
      CheckedValue(w.MakeSources(), "bench sources");
  std::vector<GradedSource*> ptrs = SourcePtrs(sources);
  ScoringRulePtr min = MinRule();
  uint64_t cost = 0;
  for (auto _ : state) {
    TopKResult r = CheckedValue(FaginTopK(ptrs, *min, 10), "bench run");
    cost = r.cost.total();
    benchmark::DoNotOptimize(r.items.data());
  }
  state.counters["access_cost"] = static_cast<double>(cost);
}
BENCHMARK(BM_FaginTopK)
    ->Args({10000, 2})
    ->Args({100000, 2})
    ->Args({100000, 3})
    ->Args({100000, 4});

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
