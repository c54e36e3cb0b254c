// Shared scaffolding for the experiment binaries: every bench prints its
// paper-style result tables first (deterministic, recorded in
// EXPERIMENTS.md), then runs its google-benchmark timing section.

#ifndef FUZZYDB_BENCH_BENCH_UTIL_H_
#define FUZZYDB_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "json_report.h"
#include "sim/experiment.h"

namespace fuzzydb {

/// Prints a section banner.
inline void Banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Aborts the bench loudly if a Status is not OK (benches have no gtest).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << what << ": " << status.ToString() << "\n";
    std::abort();
  }
}

/// Aborts the bench loudly if a count that must be zero (mismatches
/// against a reference answer) is not.
inline void CheckZero(size_t count, const char* what) {
  if (count != 0) {
    std::cerr << what << ": " << count << " (expected 0)\n";
    std::abort();
  }
}

template <typename T>
T CheckedValue(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << ": " << result.status().ToString() << "\n";
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace fuzzydb

/// Defines main(): tables first, then benchmarks.
#define FUZZYDB_BENCH_MAIN(print_tables_fn)          \
  int main(int argc, char** argv) {                  \
    print_tables_fn();                               \
    ::benchmark::Initialize(&argc, argv);            \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();           \
    ::benchmark::Shutdown();                         \
    return 0;                                        \
  }

#endif  // FUZZYDB_BENCH_BENCH_UTIL_H_
