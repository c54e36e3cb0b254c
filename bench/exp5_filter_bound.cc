// E5 — the distance-bounding filter (paper §2.1, [HSE+95]): a short summary
// vector x̂ with d(x,y) >= d̂(x̂,ŷ) lets a top-k color search skip most full
// quadratic-form evaluations with zero false dismissals. We sweep histogram
// bins (the paper's typical 64/100/256) and filter dimension (the paper's
// summary is dimension 3). The filter runs as EmbeddingStore::CascadeKnn
// with {.prefix_dim = s, .use_quantized = false}: an s-dim
// bound for every object, then full-distance refinement in ascending bound
// order until the bound passes the k-th best.

#include <chrono>
#include <cmath>
#include <numeric>

#include "bench_util.h"
#include "common/squared_distance.h"
#include "image/embedding_store.h"
#include "image/indexed_search.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;
constexpr size_t kDatabase = 2000;
constexpr size_t kK = 10;
constexpr int kQueries = 10;

struct Setup {
  Palette palette;
  QuadraticFormDistance qfd;
  std::vector<Histogram> db;
  EmbeddingStore embeddings;
};

Setup MakeSetup(size_t bins) {
  Rng rng(kSeed + bins);
  Setup s;
  s.palette = Palette::Uniform(bins, &rng);
  s.qfd = CheckedValue(QuadraticFormDistance::Create(s.palette), "E5 qfd");
  s.db.reserve(kDatabase);
  for (size_t i = 0; i < kDatabase; ++i) {
    s.db.push_back(RandomHistogram(&rng, bins));
  }
  s.embeddings =
      CheckedValue(EmbeddingStore::Build(s.qfd, s.db), "E5 embeddings");
  return s;
}

// The paper's two-level filter over an s-dim summary.
CascadeOptions TwoLevelFilter(size_t summary_dim) {
  return {.prefix_dim = summary_dim, .use_quantized = false};
}

// Σ_{j<dim} λ_j / Σ_j λ_j: the share of the eigenmass the summary keeps.
double CapturedEnergy(const QuadraticFormDistance& qfd, size_t dim) {
  const std::vector<double>& lambda = qfd.eigenvalues();
  dim = std::min(dim, lambda.size());
  double total = std::accumulate(lambda.begin(), lambda.end(), 0.0);
  double kept = std::accumulate(lambda.begin(),
                                lambda.begin() + static_cast<long>(dim), 0.0);
  return total > 0.0 ? kept / total : 1.0;
}

void PrintTables() {
  Banner("E5: distance-bounding filter (top-10 of 2000 images)");
  JsonReport json;
  json.Set("bench", std::string("exp5_filter_bound"));
  json.Set("config.database", kDatabase);
  json.Set("config.k", kK);
  json.Set("config.queries", static_cast<size_t>(kQueries));
  TablePrinter table({"bins", "filter-dim", "energy", "full-dist-evals",
                      "of-N", "false-dismissals"});
  size_t total_dismissals = 0;
  for (size_t bins : {64u, 100u, 256u}) {
    Setup s = MakeSetup(bins);
    Rng qrng(kSeed * 7 + bins);
    for (size_t dim : {1u, 3u, 8u}) {
      const CascadeOptions filter = TwoLevelFilter(dim);
      const double energy = CapturedEnergy(s.qfd, dim);
      size_t total_full = 0;
      std::vector<Histogram> targets;
      for (int q = 0; q < kQueries; ++q) {
        targets.push_back(RandomHistogram(&qrng, bins));
      }
      auto t0 = std::chrono::steady_clock::now();
      for (const Histogram& target : targets) {
        CascadeStats stats;
        auto filtered =
            s.embeddings.CascadeKnn(s.qfd.Embed(target), kK, filter, &stats);
        benchmark::DoNotOptimize(filtered.data());
        total_full += stats.full_distance_computations;
      }
      auto t1 = std::chrono::steady_clock::now();
      size_t dismissals = 0;
      for (const Histogram& target : targets) {
        auto filtered =
            s.embeddings.CascadeKnn(s.qfd.Embed(target), kK, filter);
        auto exact = ExactKnn(s.qfd, s.db, target, kK);
        for (size_t i = 0; i < exact.size(); ++i) {
          if (filtered[i].first != exact[i].first) ++dismissals;
        }
      }
      total_dismissals += dismissals;
      double avg_full =
          static_cast<double>(total_full) / static_cast<double>(kQueries);
      double us_per_query =
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count() /
          1000.0 / static_cast<double>(kQueries);
      const std::string prefix =
          "filtered.bins" + std::to_string(bins) + ".dim" +
          std::to_string(dim);
      json.Set(prefix + ".captured_energy", energy);
      json.Set(prefix + ".full_evals_per_query", avg_full);
      json.Set(prefix + ".us_per_query", us_per_query);
      json.Set(prefix + ".ops_per_sec", 1e6 / us_per_query);
      json.Set(prefix + ".false_dismissals", dismissals);
      table.AddRow({std::to_string(bins), std::to_string(dim),
                    TablePrinter::Num(energy, 3),
                    TablePrinter::Num(avg_full, 4),
                    TablePrinter::Num(avg_full / kDatabase * 100.0, 3) + "%",
                    std::to_string(dismissals)});
    }
  }
  table.Print();
  std::cout << "Expectation: false-dismissals == 0 everywhere (formula (2)); "
               "a dimension-3 summary already skips the vast majority of "
               "full quadratic-form evaluations.\n";

  // E5b: indexing the summaries (paper §2.1's "multidimensional index on
  // short color vectors") — the GEMINI pipeline vs the flat filter.
  Banner("E5b: flat filter vs R-tree-indexed summaries (64 bins, dim 3)");
  Setup s = MakeSetup(64);
  const CascadeOptions filter = TwoLevelFilter(3);
  GeminiIndex gemini =
      CheckedValue(GeminiIndex::Build(&s.qfd, 3, &s.db), "gemini");
  Rng qrng(kSeed * 11);
  size_t flat_bounds = 0, flat_full = 0, gem_bounds = 0, gem_full = 0;
  size_t mismatches = 0;
  for (int q = 0; q < kQueries; ++q) {
    Histogram target = RandomHistogram(&qrng, 64);
    CascadeStats fs, gs;
    auto flat = s.embeddings.CascadeKnn(s.qfd.Embed(target), kK, filter, &fs);
    auto via_index = CheckedValue(gemini.Knn(target, kK, &gs), "gemini knn");
    for (size_t i = 0; i < flat.size(); ++i) {
      if (flat[i].first != via_index[i].first) ++mismatches;
    }
    flat_bounds += fs.bound_computations;
    flat_full += fs.full_distance_computations;
    gem_bounds += gs.bound_computations;
    gem_full += gs.full_distance_computations;
  }
  TablePrinter gtable({"pipeline", "summary-evals/query", "full-evals/query",
                       "mismatches"});
  gtable.AddRow({"flat filter",
                 TablePrinter::Num(
                     static_cast<double>(flat_bounds) / kQueries, 4),
                 TablePrinter::Num(
                     static_cast<double>(flat_full) / kQueries, 4),
                 "0"});
  gtable.AddRow({"gemini (rtree)",
                 TablePrinter::Num(
                     static_cast<double>(gem_bounds) / kQueries, 4),
                 TablePrinter::Num(
                     static_cast<double>(gem_full) / kQueries, 4),
                 std::to_string(mismatches)});
  gtable.Print();
  std::cout << "Expectation: identical answers (mismatches == 0); the "
               "R-tree inspects a fraction of the summaries the flat filter "
               "must score, and its early-exit refinement carries fewer "
               "candidates to full depth.\n";

  json.Set("gemini.flat_bound_evals_per_query",
           static_cast<double>(flat_bounds) / kQueries);
  json.Set("gemini.flat_full_evals_per_query",
           static_cast<double>(flat_full) / kQueries);
  json.Set("gemini.rtree_bound_evals_per_query",
           static_cast<double>(gem_bounds) / kQueries);
  json.Set("gemini.rtree_full_evals_per_query",
           static_cast<double>(gem_full) / kQueries);
  json.Set("gemini.mismatches", mismatches);
  CheckZero(total_dismissals, "E5 false dismissals against the exact scan");
  CheckZero(mismatches, "E5b flat filter vs R-tree mismatches");
  json.WriteFile("BENCH_filter_bound.json");
}

void BM_FullDistance(benchmark::State& state) {
  Setup s = MakeSetup(static_cast<size_t>(state.range(0)));
  Rng rng(kSeed);
  Histogram target = RandomHistogram(&rng, s.palette.size());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.qfd.Distance(s.db[i++ % s.db.size()], target));
  }
}
BENCHMARK(BM_FullDistance)->Arg(64)->Arg(256);

void BM_BoundDistance(benchmark::State& state) {
  Setup s = MakeSetup(static_cast<size_t>(state.range(0)));
  Rng rng(kSeed);
  Histogram target = RandomHistogram(&rng, s.palette.size());
  std::vector<double> t = s.qfd.Embed(target);
  size_t i = 0;
  for (auto _ : state) {
    // d̂ over the 3-dim summary: the first three embedding coordinates.
    SquaredDistanceAccumulator acc;
    s.embeddings.AccumulateRow(i++ % s.embeddings.size(), t.data(), 0, 3,
                               &acc);
    benchmark::DoNotOptimize(std::sqrt(acc.Total()));
  }
}
BENCHMARK(BM_BoundDistance)->Arg(64)->Arg(256);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
