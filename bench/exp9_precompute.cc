// E9 — precomputed pairwise distances (paper §2.1): for a small,
// rarely-updated collection ("a few thousand images"), caching all pairwise
// color distances removes quadratic-form evaluations from query time
// entirely. We compare three ways to answer "10 images most similar to
// image #i": full distance per candidate, the eigen-filter search (the
// store's embeddings through CascadeKnn with {.prefix_dim = 3,
// .use_quantized = false}, the paper's two-level filter), and the
// precomputed cache.

#include "bench_util.h"

#include <chrono>

#include "image/precompute.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260706;
constexpr size_t kImages = 2000;
constexpr size_t kK = 10;
constexpr int kQueries = 20;

struct Setup {
  ImageStore store;
  std::vector<Histogram> histograms;
};

// The paper's two-level filter: a 3-dim summary bound for every image, full
// distances for the candidates in ascending bound order.
constexpr CascadeOptions kTwoLevelFilter{.prefix_dim = 3,
                                         .use_quantized = false};

std::vector<std::pair<size_t, double>> FilterSearch(const Setup& s,
                                                   size_t probe,
                                                   CascadeStats* stats) {
  const QuadraticFormDistance& qfd = s.store.color_distance();
  return s.store.embeddings().CascadeKnn(qfd.Embed(s.histograms[probe]), kK,
                                         kTwoLevelFilter, stats);
}

Setup MakeSetup() {
  ImageStoreOptions options;
  options.num_images = kImages;
  options.palette_size = 64;
  options.seed = kSeed;
  Setup s{CheckedValue(ImageStore::Generate(options), "E9 store"), {}};
  for (const ImageRecord& rec : s.store.images()) {
    s.histograms.push_back(rec.histogram);
  }
  return s;
}

void PrintTables() {
  Banner("E9: precomputed distances (2000 images, 64-bin histograms, k=10)");
  Setup s = MakeSetup();
  const QuadraticFormDistance& qfd = s.store.color_distance();

  auto now = [] { return std::chrono::steady_clock::now(); };
  auto us = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
               .count() /
           static_cast<double>(kQueries);
  };
  auto probe = [](int q) { return static_cast<size_t>(q) * 97 % kImages; };

  // Strategy 1: full distance to every candidate. Its answers are the
  // reference for the other two.
  std::vector<std::vector<std::pair<size_t, double>>> exact;
  auto t0 = now();
  for (int q = 0; q < kQueries; ++q) {
    exact.push_back(ExactKnn(qfd, s.histograms, s.histograms[probe(q)], kK));
  }
  auto t1 = now();

  // Strategy 2: eigen-filtered search.
  size_t full_evals = 0;
  std::vector<std::vector<std::pair<size_t, double>>> filtered;
  for (int q = 0; q < kQueries; ++q) {
    CascadeStats stats;
    filtered.push_back(FilterSearch(s, probe(q), &stats));
    full_evals += stats.full_distance_computations;
  }
  auto t2 = now();

  // Strategy 3: precomputed cache (build once, then O(N) scalar scans).
  auto tb0 = now();
  PairwiseDistanceCache cache =
      CheckedValue(PairwiseDistanceCache::Build(s.store), "E9 cache");
  auto tb1 = now();
  std::vector<std::vector<std::pair<size_t, double>>> cached;
  for (int q = 0; q < kQueries; ++q) {
    cached.push_back(cache.Nearest(probe(q), kK));
  }
  auto t3 = now();

  // The filter must return the exact answer. The cache leaves the probe
  // itself out, so it must return the exact top-(k+1) minus the probe.
  size_t filter_mismatches = 0;
  size_t cache_mismatches = 0;
  for (int q = 0; q < kQueries; ++q) {
    for (size_t i = 0; i < kK; ++i) {
      if (filtered[q][i].first != exact[q][i].first) ++filter_mismatches;
    }
    std::vector<std::pair<size_t, double>> others =
        ExactKnn(qfd, s.histograms, s.histograms[probe(q)], kK + 1);
    std::erase_if(others, [&](const auto& p) { return p.first == probe(q); });
    for (size_t i = 0; i < kK; ++i) {
      if (cached[q][i].first != others[i].first) ++cache_mismatches;
    }
  }

  TablePrinter table({"strategy", "per-query-us", "dist-evals/query"});
  table.AddRow({"full-distance scan", TablePrinter::Num(us(t0, t1), 4),
                std::to_string(kImages)});
  table.AddRow({"eigen-filter (dim 3)", TablePrinter::Num(us(t1, t2), 4),
                TablePrinter::Num(
                    static_cast<double>(full_evals) / kQueries, 4)});
  table.AddRow({"precomputed cache", TablePrinter::Num(us(tb1, t3), 4),
                "0"});
  table.Print();
  CheckZero(filter_mismatches, "E9 filtered answers against the full scan");
  CheckZero(cache_mismatches, "E9 cache answers against the full scan");
  std::cout << "One-time cache build: "
            << std::chrono::duration_cast<std::chrono::milliseconds>(tb1 -
                                                                     tb0)
                   .count()
            << " ms for " << kImages * (kImages - 1) / 2 << " pairs.\n"
            << "Expectation: cache answers with zero distance evaluations; "
               "the filter sits in between; both beat the full scan.\n";
}

void BM_QueryStrategy(benchmark::State& state) {
  static Setup s = MakeSetup();
  static PairwiseDistanceCache cache =
      CheckedValue(PairwiseDistanceCache::Build(s.store), "bench cache");
  const int which = static_cast<int>(state.range(0));
  size_t q = 0;
  for (auto _ : state) {
    size_t probe = (q++ * 97) % kImages;
    switch (which) {
      case 0: {
        auto r = ExactKnn(s.store.color_distance(), s.histograms,
                          s.histograms[probe], kK);
        benchmark::DoNotOptimize(r.data());
        break;
      }
      case 1: {
        auto r = FilterSearch(s, probe, nullptr);
        benchmark::DoNotOptimize(r.data());
        break;
      }
      default: {
        auto r = cache.Nearest(probe, kK);
        benchmark::DoNotOptimize(r.data());
        break;
      }
    }
  }
  state.SetLabel(which == 0 ? "full" : which == 1 ? "filtered" : "cache");
}
BENCHMARK(BM_QueryStrategy)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
