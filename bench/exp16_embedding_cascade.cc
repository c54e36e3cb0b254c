// E16 — the eigen-space embedding layer end to end: exact kNN through the
// O(k)-per-pair batched kernel vs the seed O(k^2)-per-pair quadratic-form
// scan, and the int8 cascade vs the two-level distance-bounding filter of
// E5 (CascadeKnn with {.prefix_dim = 3, .use_quantized = false}). Both
// refine every candidate they visit to full depth; they differ in the bound
// that orders the walk. Every strategy is exact (recall
// 1.0, no false dismissals); the contest is purely how much full-precision
// work each avoids. Results also land in BENCH_embedding.json for the perf
// trajectory.

#include <chrono>
#include <cmath>
#include <thread>

#include "bench_util.h"
#include "common/simd_dispatch.h"
#include "image/embedding_store.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260805;
constexpr size_t kDatabase = 2000;
constexpr size_t kBins = 64;
constexpr size_t kK = 10;
constexpr int kQueries = 20;

struct Setup {
  Palette palette;
  QuadraticFormDistance qfd;
  std::vector<Histogram> db;
  EmbeddingStore embeddings;
  std::vector<Histogram> targets;
};

Setup MakeSetup() {
  Rng rng(kSeed);
  Setup s;
  s.palette = Palette::Uniform(kBins, &rng);
  s.qfd = CheckedValue(QuadraticFormDistance::Create(s.palette), "E16 qfd");
  s.db.reserve(kDatabase);
  for (size_t i = 0; i < kDatabase; ++i) {
    s.db.push_back(RandomHistogram(&rng, kBins));
  }
  s.embeddings =
      CheckedValue(EmbeddingStore::Build(s.qfd, s.db), "E16 embeddings");
  for (int q = 0; q < kQueries; ++q) {
    s.targets.push_back(RandomHistogram(&rng, kBins));
  }
  return s;
}

double MicrosPerQuery(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         1000.0 / static_cast<double>(kQueries);
}

// The seed kernel before this layer existed: one left-to-right scalar
// accumulator per row, reading the row's column-group lines in dim order. A
// single FP accumulator is a loop-carried dependency the compiler cannot
// vectorize (FP addition is not associative), so this is the honest
// baseline for the lane-blocked kernel's speedup.
void SeedScalarBatch(const EmbeddingStore& store, std::span<const double> t,
                     std::span<double> out) {
  constexpr size_t kLine = EmbeddingStore::kGroupDim;
  for (size_t i = 0; i < store.size(); ++i) {
    double acc = 0.0;
    for (size_t g = 0; g < store.groups(); ++g) {
      const double* line = store.Line(i, g);
      const size_t width = std::min(kLine, store.dim() - g * kLine);
      for (size_t l = 0; l < width; ++l) {
        const double d = line[l] - t[g * kLine + l];
        acc += d * d;
      }
    }
    out[i] = std::sqrt(acc);
  }
}

void PrintTables() {
  Banner("E16: embedding kernel & cascaded filter (top-10 of 2000 images, "
         "64 bins)");
  Setup s = MakeSetup();
  auto now = [] { return std::chrono::steady_clock::now(); };

  // Reference answers: the seed path (full quadratic form per candidate).
  std::vector<std::vector<std::pair<size_t, double>>> reference;
  auto t0 = now();
  for (const Histogram& target : s.targets) {
    reference.push_back(ExactKnn(s.qfd, s.db, target, kK));
  }
  auto t1 = now();
  double us_seed = MicrosPerQuery(t0, t1);

  // Embedded exact: one O(k^2) target projection + the batched O(k) kernel.
  size_t exact_mismatches = 0;
  t0 = now();
  for (const Histogram& target : s.targets) {
    benchmark::DoNotOptimize(
        s.embeddings.ExactKnn(s.qfd.Embed(target), kK));
  }
  t1 = now();
  double us_embedded = MicrosPerQuery(t0, t1);
  for (int q = 0; q < kQueries; ++q) {
    auto got = s.embeddings.ExactKnn(s.qfd.Embed(s.targets[q]), kK);
    for (size_t i = 0; i < kK; ++i) {
      if (got[i].first != reference[q][i].first) ++exact_mismatches;
    }
  }

  // Two-level filter (E5's strategy: a 3-dim bound for every object, then
  // each candidate refined straight to full depth).
  const CascadeOptions two_level{.prefix_dim = 3, .use_quantized = false};
  size_t filtered_full = 0, filtered_mismatches = 0;
  t0 = now();
  for (int q = 0; q < kQueries; ++q) {
    CascadeStats stats;
    auto got = s.embeddings.CascadeKnn(s.qfd.Embed(s.targets[q]), kK,
                                       two_level, &stats);
    filtered_full += stats.full_distance_computations;
    for (size_t i = 0; i < kK; ++i) {
      if (got[i].first != reference[q][i].first) ++filtered_mismatches;
    }
  }
  t1 = now();
  double us_filtered = MicrosPerQuery(t0, t1);

  // The int8 cascade over the embeddings.
  CascadeStats cascade_stats;
  size_t cascade_mismatches = 0;
  t0 = now();
  for (int q = 0; q < kQueries; ++q) {
    auto got =
        s.embeddings.CascadeKnn(s.qfd.Embed(s.targets[q]), kK, {},
                                &cascade_stats);
    for (size_t i = 0; i < kK; ++i) {
      if (got[i].first != reference[q][i].first) ++cascade_mismatches;
    }
  }
  t1 = now();
  double us_cascade = MicrosPerQuery(t0, t1);

  auto per_query = [](size_t total) {
    return static_cast<double>(total) / static_cast<double>(kQueries);
  };
  TablePrinter table({"strategy", "us/query", "ops/sec", "full-evals/query",
                      "speedup-vs-seed", "mismatches"});
  auto add = [&](const std::string& name, double us, double full,
                 size_t mismatches) {
    table.AddRow({name, TablePrinter::Num(us, 4),
                  TablePrinter::Num(1e6 / us, 4), TablePrinter::Num(full, 4),
                  TablePrinter::Num(us_seed / us, 3),
                  std::to_string(mismatches)});
  };
  add("seed exact (O(k^2)/pair)", us_seed, kDatabase, 0);
  add("embedded exact (batch O(k))", us_embedded, kDatabase,
      exact_mismatches);
  add("two-level filter (dim 3)", us_filtered, per_query(filtered_full),
      filtered_mismatches);
  add("cascade (int8 level -1)", us_cascade,
      per_query(cascade_stats.full_distance_computations),
      cascade_mismatches);
  table.Print();
  std::cout << "Expectation: zero mismatches everywhere (all strategies are "
               "exact); the batched embedded scan beats the seed exact scan "
               "by >= 5x, and the cascade carries fewer candidates to full "
               "precision than the two-level filter refines.\n";
  std::cout << "cascade refinement detail: "
            << per_query(cascade_stats.candidates_refined)
            << " candidates/query refined to full depth (two-level filter: "
            << per_query(filtered_full) << " full evals/query).\n";

  // --- Batch-kernel detail: scalar seed loop vs the lane-blocked kernel,
  // then the same kernel sharded across thread pools of growing size. The
  // sharded scan must be *bit-identical* to the serial scan (the kernel's
  // lane split depends only on absolute dimension indices, and rows are
  // independent), so mismatches are counted bitwise, not with a tolerance.
  Banner("E16b: batch kernel — scalar baseline, vectorized serial, "
         "thread sweep");
  constexpr int kBatchReps = 50;
  std::vector<std::vector<double>> embedded;
  embedded.reserve(s.targets.size());
  for (const Histogram& target : s.targets) {
    embedded.push_back(s.qfd.Embed(target));
  }
  std::vector<double> out(s.embeddings.size());
  std::vector<double> serial_out(s.embeddings.size());
  auto time_batch = [&](auto&& fn) {
    auto a = now();
    for (int r = 0; r < kBatchReps; ++r) {
      for (const std::vector<double>& t : embedded) {
        fn(t);
        benchmark::DoNotOptimize(out.data());
      }
    }
    auto b = now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
               .count() /
           1000.0 / static_cast<double>(kBatchReps * embedded.size());
  };

  double us_scalar = time_batch(
      [&](const std::vector<double>& t) { SeedScalarBatch(s.embeddings, t, out); });
  double us_vector = time_batch(
      [&](const std::vector<double>& t) { s.embeddings.BatchDistances(t, out); });
  s.embeddings.BatchDistances(embedded[0], serial_out);

  const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  struct ThreadPoint {
    size_t threads;
    double us;
    size_t bitwise_mismatches;  // sharded BatchDistances vs serial
    size_t knn_mismatches;      // sharded Exact/CascadeKnn vs serial
  };
  std::vector<ThreadPoint> sweep;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    ThreadPoint p{threads, 0.0, 0, 0};
    p.us = time_batch([&](const std::vector<double>& t) {
      s.embeddings.BatchDistances(t, out, &pool);
    });
    s.embeddings.BatchDistances(embedded[0], out, &pool);
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i] != serial_out[i]) ++p.bitwise_mismatches;
    }
    for (int q = 0; q < kQueries; ++q) {
      CascadeStats unused;
      if (s.embeddings.ExactKnn(embedded[q], kK) !=
              s.embeddings.ExactKnn(embedded[q], kK, &pool) ||
          s.embeddings.CascadeKnn(embedded[q], kK) !=
              s.embeddings.CascadeKnn(embedded[q], kK, {}, &unused, &pool)) {
        ++p.knn_mismatches;
      }
    }
    sweep.push_back(p);
  }

  TablePrinter ktable({"kernel", "us/pass", "Mrows/sec", "speedup-vs-scalar",
                       "bitwise-mismatches"});
  auto mrows = [](double us) {
    return static_cast<double>(kDatabase) / us;  // rows/us == Mrows/sec
  };
  ktable.AddRow({"seed scalar loop", TablePrinter::Num(us_scalar, 4),
                 TablePrinter::Num(mrows(us_scalar), 3), "1.000", "-"});
  ktable.AddRow({"lane-blocked serial", TablePrinter::Num(us_vector, 4),
                 TablePrinter::Num(mrows(us_vector), 3),
                 TablePrinter::Num(us_scalar / us_vector, 3), "-"});
  for (const ThreadPoint& p : sweep) {
    ktable.AddRow({"lane-blocked, pool " + std::to_string(p.threads),
                   TablePrinter::Num(p.us, 4), TablePrinter::Num(mrows(p.us), 3),
                   TablePrinter::Num(us_scalar / p.us, 3),
                   std::to_string(p.bitwise_mismatches)});
  }
  ktable.Print();
  std::cout << "hardware_concurrency = " << hw
            << "; pools wider than that add scheduling overhead, not "
               "speed. Sharded BatchDistances / ExactKnn / CascadeKnn are "
               "checked bit-identical against the serial kernels.\n";

  // --- Quantized tier: the identical cascade with the int8 level -1 off vs
  // on. Answers are bit-identical by construction (the quantized bound is
  // admissible — DESIGN §3g); the contest is bytes read per level, counted
  // by the store itself rather than modeled.
  Banner("E16d: quantized int8 tier — bytes scanned per cascade level");
  auto run_cascade = [&](bool use_quantized, CascadeStats* stats,
                         size_t* mismatches) {
    CascadeOptions options;
    options.use_quantized = use_quantized;
    auto a = now();
    for (int q = 0; q < kQueries; ++q) {
      auto got = s.embeddings.CascadeKnn(embedded[q], kK, options, stats);
      for (size_t i = 0; i < kK; ++i) {
        if (got[i].first != reference[q][i].first) ++*mismatches;
      }
    }
    auto b = now();
    return MicrosPerQuery(a, b);
  };
  CascadeStats float_stats, int8_stats;
  size_t float_mm = 0, int8_mm = 0;
  double us_float_cascade = run_cascade(false, &float_stats, &float_mm);
  double us_int8_cascade = run_cascade(true, &int8_stats, &int8_mm);
  // The level-0 baseline the tier replaces: a full-dimension float scan
  // touches every byte of every row.
  const double float_scan_bytes =
      static_cast<double>(kDatabase) * static_cast<double>(kBins) *
      static_cast<double>(sizeof(double));
  const double int8_level_bytes = per_query(int8_stats.bytes_scanned_quantized);
  const double bytes_reduction = float_scan_bytes / int8_level_bytes;

  TablePrinter qtable({"config", "us/query", "int8 B/query", "prefix B/query",
                       "refine B/query", "mismatches"});
  qtable.AddRow({"cascade, float levels only",
                 TablePrinter::Num(us_float_cascade, 4), "0",
                 TablePrinter::Num(per_query(float_stats.bytes_scanned_prefix), 1),
                 TablePrinter::Num(per_query(float_stats.bytes_scanned_refine), 1),
                 std::to_string(float_mm)});
  qtable.AddRow({"cascade, int8 level -1 on",
                 TablePrinter::Num(us_int8_cascade, 4),
                 TablePrinter::Num(int8_level_bytes, 1),
                 TablePrinter::Num(per_query(int8_stats.bytes_scanned_prefix), 1),
                 TablePrinter::Num(per_query(int8_stats.bytes_scanned_refine), 1),
                 std::to_string(int8_mm)});
  qtable.Print();
  std::cout << "kernel dispatch: " << simd::Name(simd::Active())
            << "; full-object ordering scan reads "
            << TablePrinter::Num(int8_level_bytes, 0)
            << " int8 B/query vs " << TablePrinter::Num(float_scan_bytes, 0)
            << " B/query for a full float scan — a "
            << TablePrinter::Num(bytes_reduction, 2)
            << "x reduction (must stay >= 3x); both variants return the "
               "reference answers bit-identically.\n";

  // Every strategy above is exact, so any mismatch is a bug: fail loudly
  // before a report is written.
  size_t mismatches = exact_mismatches + filtered_mismatches +
                      cascade_mismatches + float_mm + int8_mm;
  for (const ThreadPoint& p : sweep) {
    mismatches += p.bitwise_mismatches + p.knn_mismatches;
  }
  CheckZero(mismatches, "E16 mismatches against the reference answers");

  JsonReport json;
  json.Set("bench", std::string("exp16_embedding_cascade"));
  json.Set("config.database", kDatabase);
  json.Set("config.bins", kBins);
  json.Set("config.k", kK);
  json.Set("config.queries", static_cast<size_t>(kQueries));
  json.Set("seed_exact.us_per_query", us_seed);
  json.Set("seed_exact.ops_per_sec", 1e6 / us_seed);
  json.Set("seed_exact.full_evals_per_query", static_cast<double>(kDatabase));
  json.Set("embedded_exact.us_per_query", us_embedded);
  json.Set("embedded_exact.ops_per_sec", 1e6 / us_embedded);
  json.Set("embedded_exact.speedup_vs_seed", us_seed / us_embedded);
  json.Set("embedded_exact.mismatches", exact_mismatches);
  json.Set("filtered.us_per_query", us_filtered);
  json.Set("filtered.ops_per_sec", 1e6 / us_filtered);
  json.Set("filtered.full_evals_per_query", per_query(filtered_full));
  json.Set("filtered.mismatches", filtered_mismatches);
  json.Set("cascade.us_per_query", us_cascade);
  json.Set("cascade.ops_per_sec", 1e6 / us_cascade);
  json.Set("cascade.speedup_vs_seed", us_seed / us_cascade);
  json.Set("cascade.full_evals_per_query",
           per_query(cascade_stats.full_distance_computations));
  json.Set("cascade.candidates_refined_per_query",
           per_query(cascade_stats.candidates_refined));
  json.Set("cascade.mismatches", cascade_mismatches);
  json.SetHostParallelism(hw);
  json.Set("batch.scalar_us_per_pass", us_scalar);
  json.Set("batch.serial_us_per_pass", us_vector);
  json.Set("batch.serial_speedup_vs_scalar", us_scalar / us_vector);
  for (const ThreadPoint& p : sweep) {
    const std::string prefix = "batch.threads_" + std::to_string(p.threads);
    json.Set(prefix + ".us_per_pass", p.us);
    json.Set(prefix + ".speedup_vs_scalar", us_scalar / p.us);
    json.Set(prefix + ".speedup_vs_serial", us_vector / p.us);
    json.Set(prefix + ".bitwise_mismatches", p.bitwise_mismatches);
    json.Set(prefix + ".knn_mismatches", p.knn_mismatches);
  }
  json.SetKernelDispatch(std::string(simd::Name(simd::Active())));
  json.Set("cascade_float.us_per_query", us_float_cascade);
  json.Set("cascade_float.bytes_prefix_per_query",
           per_query(float_stats.bytes_scanned_prefix));
  json.Set("cascade_float.bytes_refine_per_query",
           per_query(float_stats.bytes_scanned_refine));
  json.Set("cascade_float.mismatches", float_mm);
  json.Set("qcascade.us_per_query", us_int8_cascade);
  json.Set("qcascade.bytes_quantized_per_query", int8_level_bytes);
  json.Set("qcascade.bytes_prefix_per_query",
           per_query(int8_stats.bytes_scanned_prefix));
  json.Set("qcascade.bytes_refine_per_query",
           per_query(int8_stats.bytes_scanned_refine));
  json.Set("qcascade.bound_computations_per_query",
           per_query(int8_stats.quantized_bound_computations));
  json.Set("qcascade.float_bounds_per_query",
           per_query(int8_stats.bound_computations));
  json.Set("qcascade.mismatches", int8_mm);
  // Storage-tier counters (DESIGN §3k): this experiment runs over the
  // RAM-resident store, so they must all be zero — the nonzero story is
  // E23's (BENCH_storage.json). Stamped here so the trajectory shows the
  // RAM baseline explicitly.
  json.Set("qcascade.bytes_read_disk_per_query",
           per_query(int8_stats.bytes_read_disk));
  json.Set("qcascade.buffer_pool_hits_per_query",
           per_query(int8_stats.buffer_pool_hits));
  json.Set("qcascade.buffer_pool_misses_per_query",
           per_query(int8_stats.buffer_pool_misses));
  json.Set("qcascade.buffer_pool_evictions_per_query",
           per_query(int8_stats.buffer_pool_evictions));
  json.Set("float_scan.bytes_per_query", float_scan_bytes);
  json.Set("qcascade.bytes_reduction_vs_float_scan", bytes_reduction);
  json.WriteFileGuarded("BENCH_embedding.json");
}

void BM_SeedExactKnn(benchmark::State& state) {
  Setup s = MakeSetup();
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExactKnn(s.qfd, s.db, s.targets[q++ % s.targets.size()], kK));
  }
}
BENCHMARK(BM_SeedExactKnn)->Unit(benchmark::kMicrosecond);

void BM_EmbeddedExactKnn(benchmark::State& state) {
  Setup s = MakeSetup();
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.embeddings.ExactKnn(
        s.qfd.Embed(s.targets[q++ % s.targets.size()]), kK));
  }
}
BENCHMARK(BM_EmbeddedExactKnn)->Unit(benchmark::kMicrosecond);

void BM_CascadeKnn(benchmark::State& state) {
  Setup s = MakeSetup();
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.embeddings.CascadeKnn(
        s.qfd.Embed(s.targets[q++ % s.targets.size()]), kK));
  }
}
BENCHMARK(BM_CascadeKnn)->Unit(benchmark::kMicrosecond);

void BM_BatchDistances(benchmark::State& state) {
  Setup s = MakeSetup();
  std::vector<double> target = s.qfd.Embed(s.targets[0]);
  std::vector<double> out(s.embeddings.size());
  for (auto _ : state) {
    s.embeddings.BatchDistances(target, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BatchDistances)->Unit(benchmark::kMicrosecond);

void BM_BatchDistancesScalar(benchmark::State& state) {
  Setup s = MakeSetup();
  std::vector<double> target = s.qfd.Embed(s.targets[0]);
  std::vector<double> out(s.embeddings.size());
  for (auto _ : state) {
    SeedScalarBatch(s.embeddings, target, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BatchDistancesScalar)->Unit(benchmark::kMicrosecond);

void BM_BatchDistancesSharded(benchmark::State& state) {
  Setup s = MakeSetup();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  std::vector<double> target = s.qfd.Embed(s.targets[0]);
  std::vector<double> out(s.embeddings.size());
  for (auto _ : state) {
    s.embeddings.BatchDistances(target, out, &pool);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BatchDistancesSharded)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
