// Auto-tuning of CascadeOptions per palette spectrum (ROADMAP follow-on to
// the embedding layer).
//
// How selective a prefix bound is depends entirely on the eigenvalue
// spectrum of B = P A P: a steep spectrum packs most of the distance into a
// few leading dimensions (short prefixes filter nearly everything), a flat
// one spreads it evenly (deep prefixes are pure overhead). Rather than
// modeling that analytically, the tuner *measures* it: it replays a small
// calibration sample of queries through CascadeKnn over a grid of
// (prefix_dim, step) configurations — prefix candidates are chosen from the
// spectrum itself as the shortest prefixes capturing fixed fractions of the
// total eigenmass — and scores each configuration with the CascadeStats
// cost model. Because CascadeKnn returns bit-identical answers for every
// configuration, tuning can never change results, only costs.

#ifndef FUZZYDB_IMAGE_CASCADE_TUNER_H_
#define FUZZYDB_IMAGE_CASCADE_TUNER_H_

#include <span>
#include <vector>

#include "image/embedding_store.h"

namespace fuzzydb {

/// One evaluated configuration of the tuning sweep.
struct CascadeCandidate {
  CascadeOptions options;
  /// Shard count this configuration was measured at (1 = unsharded).
  size_t shards = 1;
  /// Counters summed over the calibration sample.
  CascadeStats stats;
  /// Modeled refinement cost per calibration query, in dimension
  /// accumulations (see CascadeTuner::Cost), divided by the effective
  /// parallelism and charged for per-shard bookkeeping when shards > 1.
  double cost = 0.0;
};

/// The tuning result: the winning configuration plus the full sweep for
/// diagnostics/benchmarks.
struct TunedCascade {
  CascadeOptions options;
  /// Winning shard count, to pass to the sharded CascadeKnn overload.
  size_t shards = 1;
  double cost = 0.0;
  std::vector<CascadeCandidate> sweep;
};

/// Knobs for the tuning sweep.
struct CascadeTunerOptions {
  /// Top-k the production workload will ask for.
  size_t k = 10;
  /// Candidate prefix depths. Empty: derived from the eigenvalue spectrum
  /// as the shortest prefixes capturing {25, 50, 75, 90}% of the eigenmass.
  std::vector<size_t> prefix_grid;
  /// Candidate refinement step sizes.
  std::vector<size_t> step_grid = {4, 8, 16, 32};
  /// Modeled bookkeeping cost of admitting one candidate into refinement,
  /// expressed in dimension accumulations.
  double candidate_overhead = 4.0;
  /// Candidate shard counts (DESIGN §3c). Empty: {1}, widened to {1, 2,
  /// executors} when `pool` offers real parallelism. Sharding never changes
  /// answers (CascadeKnn is bit-identical at any shard count) but shifts
  /// work: shard-local pruning does more refinements, spread over more
  /// executors — the sweep measures that trade instead of modeling it.
  std::vector<size_t> shard_grid;
  /// Pool the production workload will run on; also used to measure the
  /// sharded sweep points. Null: shards > 1 are charged full serial cost
  /// (they can only lose, and the sweep shows by how much).
  ThreadPool* pool = nullptr;
  /// Modeled per-query cost of each extra shard (merge + duplicated
  /// level-0 bookkeeping), in dimension accumulations. Keeps a 1-executor
  /// host from "winning" with shards it cannot actually run concurrently.
  double shard_overhead = 64.0;
};

class CascadeTuner {
 public:
  /// Modeled cost of one int8 dimension relative to one float dimension
  /// accumulation. The int8 scan moves 1 byte/dim against the float path's
  /// 8 and decodes with one integer multiply-add: on a bandwidth-bound scan
  /// it is worth ~1/8, on a compute-bound one ~1/2; 1/4 is the deliberate
  /// middle that keeps the tuner from over-favoring the tier on hosts where
  /// the scan fits in cache.
  static constexpr double kQuantizedDimCost = 0.25;

  /// Scores one configuration from its summed calibration stats: level −1
  /// work (quantized rows scanned, at kQuantizedDimCost per dimension of
  /// `dim`) plus level-0 work (one prefix_dim-deep accumulation per float
  /// bound) plus refinement work (dims_accumulated) plus per-candidate
  /// overhead, averaged per query. Deterministic — no wall clock.
  static double Cost(const CascadeStats& stats, size_t prefix_dim, size_t dim,
                     double candidate_overhead, size_t queries);

  /// Prefix depths derived from a spectrum (descending eigenvalues): the
  /// shortest prefixes capturing the given cumulative-energy fractions,
  /// deduplicated and clamped to [1, spectrum size].
  static std::vector<size_t> SpectrumPrefixes(
      std::span<const double> eigenvalues,
      std::span<const double> energy_fractions);

  /// Sweeps the grid over `calibration` (already-embedded query targets,
  /// each of store.dim() entries) and returns the cheapest configuration;
  /// ties break toward the smaller prefix, then the smaller step, then the
  /// unquantized variant. When the store carries its int8 companion, every
  /// grid point is measured with the quantized level −1 off and on — the
  /// sweep decides whether the tier pays for itself on this spectrum rather
  /// than assuming it. The store is only read; answers are never affected
  /// (CascadeKnn is exact for every configuration).
  static TunedCascade Tune(const EmbeddingStore& store,
                           std::span<const double> eigenvalues,
                           const std::vector<std::vector<double>>& calibration,
                           const CascadeTunerOptions& options = {});
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_CASCADE_TUNER_H_
