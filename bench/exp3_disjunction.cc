// E3 — the disjunction shortcut (paper §4.1): for the standard fuzzy
// disjunction (max), top-k costs exactly m·k accesses, independent of the
// database size N — because max is monotone but not strict, the Θ(N^...)
// lower bound of Theorem 4.2 does not apply.

#include "bench_util.h"
#include "middleware/disjunction.h"
#include "middleware/threshold.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;

void PrintTables() {
  Banner("E3: max-disjunction shortcut, cost m*k independent of N");
  TablePrinter table({"N", "m", "k", "shortcut-cost", "m*k", "ta-cost"});
  for (size_t n : {1000u, 10000u, 100000u, 300000u}) {
    for (size_t m : {2u, 4u}) {
      for (size_t k : {10u, 100u}) {
        std::vector<CostPoint> shortcut = CheckedValue(
            SweepCost(
                [m](Rng* rng, size_t nn) {
                  return IndependentUniform(rng, nn, m);
                },
                [](std::span<GradedSource* const> s, const ScoringRule&,
                   size_t kk) { return DisjunctionTopK(s, kk); },
                *MaxRule(), {n}, m, k, 3, kSeed),
            "E3 shortcut");
        // TA is correct for max too (monotone), but pays random accesses.
        std::vector<CostPoint> ta = CheckedValue(
            SweepCost(
                [m](Rng* rng, size_t nn) {
                  return IndependentUniform(rng, nn, m);
                },
                [](std::span<GradedSource* const> s, const ScoringRule& rule,
                   size_t kk) { return ThresholdTopK(s, rule, kk); },
                *MaxRule(), {n}, m, k, 3, kSeed),
            "E3 ta");
        table.AddRow({std::to_string(n), std::to_string(m),
                      std::to_string(k),
                      std::to_string(shortcut[0].cost.total()),
                      std::to_string(m * k),
                      std::to_string(ta[0].cost.total())});
      }
    }
  }
  table.Print();
  std::cout << "Expectation: shortcut-cost == m*k in every row, flat in N; "
               "TA pays extra random accesses.\n";
}

void BM_DisjunctionShortcut(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  Workload w = IndependentUniform(&rng, n, 3);
  std::vector<VectorSource> sources =
      CheckedValue(w.MakeSources(), "bench sources");
  std::vector<GradedSource*> ptrs = SourcePtrs(sources);
  for (auto _ : state) {
    TopKResult r = CheckedValue(DisjunctionTopK(ptrs, 10), "bench run");
    benchmark::DoNotOptimize(r.items.data());
  }
}
BENCHMARK(BM_DisjunctionShortcut)->Arg(10000)->Arg(300000);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
