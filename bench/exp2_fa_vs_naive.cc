// E2 — A0 vs the naive algorithm (paper §4.1): naive costs m·N; A0 costs
// ~sqrt(kN) at m=2, so the advantage grows without bound as N grows. The
// table reports both costs and the speedup factor.

#include "bench_util.h"
#include "middleware/fagin.h"
#include "middleware/naive.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;

void PrintTables() {
  Banner("E2: A0 vs naive, m=2, k=10 (naive = 2N; A0 ~ sqrt(kN))");
  TablePrinter table({"N", "naive", "fagin-a0", "a0-sorted", "a0-random",
                      "speedup"});
  for (size_t n : {1000u, 10000u, 100000u, 300000u}) {
    std::vector<CostPoint> naive = CheckedValue(
        SweepCost(
            [](Rng* rng, size_t nn) {
              return IndependentUniform(rng, nn, 2);
            },
            [](std::span<GradedSource* const> s, const ScoringRule& rule,
               size_t k) { return NaiveTopK(s, rule, k); },
            *MinRule(), {n}, 2, 10, 3, kSeed),
        "E2 naive");
    std::vector<CostPoint> fagin = CheckedValue(
        SweepCost(
            [](Rng* rng, size_t nn) {
              return IndependentUniform(rng, nn, 2);
            },
            [](std::span<GradedSource* const> s, const ScoringRule& rule,
               size_t k) { return FaginTopK(s, rule, k); },
            *MinRule(), {n}, 2, 10, 3, kSeed),
        "E2 fagin");
    double ratio = static_cast<double>(naive[0].cost.total()) /
                   static_cast<double>(fagin[0].cost.total());
    table.AddRow({std::to_string(n), std::to_string(naive[0].cost.total()),
                  std::to_string(fagin[0].cost.total()),
                  std::to_string(fagin[0].cost.sorted),
                  std::to_string(fagin[0].cost.random),
                  TablePrinter::Num(ratio, 4)});
  }
  table.Print();
  std::cout << "Expectation: speedup ~ 2N / (c*sqrt(10N)) grows like "
               "sqrt(N); A0 wins everywhere, by ~100x at N=3e5.\n";
}

void BM_NaiveVsFagin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool use_fagin = state.range(1) != 0;
  Rng rng(kSeed);
  Workload w = IndependentUniform(&rng, n, 2);
  std::vector<VectorSource> sources =
      CheckedValue(w.MakeSources(), "bench sources");
  std::vector<GradedSource*> ptrs = SourcePtrs(sources);
  ScoringRulePtr min = MinRule();
  for (auto _ : state) {
    TopKResult r = CheckedValue(
        use_fagin ? FaginTopK(ptrs, *min, 10) : NaiveTopK(ptrs, *min, 10),
        "bench run");
    benchmark::DoNotOptimize(r.items.data());
  }
}
BENCHMARK(BM_NaiveVsFagin)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->ArgNames({"N", "fagin"});

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
