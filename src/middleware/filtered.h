// Chaudhuri–Gravano simulation of A0 with filter conditions (paper §4.1,
// [CG96]): some repositories cannot do incremental sorted access, only
// filter retrievals such as "all objects whose color score is at least 0.2".
// The simulation guesses a cutoff α, retrieves {µ >= α} from every list
// (each returned object charged as one sorted access), and checks the A0
// stopping condition (k objects present in all retrieved sets). If the guess
// was too high it shrinks α and retries — re-fetching from scratch, which is
// exactly the restart overhead the paper alludes to.

#ifndef FUZZYDB_MIDDLEWARE_FILTERED_H_
#define FUZZYDB_MIDDLEWARE_FILTERED_H_

#include "middleware/topk.h"

namespace fuzzydb {

/// How the next cutoff is chosen.
enum class AlphaStrategy {
  /// alpha' = shrink * alpha after each failed round.
  kGeometricShrink,
  /// Model-based: assuming roughly uniform grades, the match count is about
  /// N * (1 - alpha)^m, so the cutoff that yields ~safety*k matches is
  /// alpha* = 1 - (safety * k / N)^(1/m). Failed rounds double the safety.
  /// Lands within a small factor of A0 in one round on uniform-ish data.
  kUniformEstimate,
};

/// Tuning knobs for the filter-condition simulation.
struct FilteredOptions {
  AlphaStrategy strategy = AlphaStrategy::kGeometricShrink;
  /// kGeometricShrink: first cutoff guess.
  double initial_alpha = 0.5;
  /// kGeometricShrink: multiplies alpha on each unsuccessful round; in
  /// (0, 1).
  double shrink = 0.5;
  /// kUniformEstimate: initial over-fetch factor (>= 1).
  double safety = 4.0;
  /// Below this, the cutoff is treated as 0 (full retrieval) so the
  /// simulation always terminates.
  double min_alpha = 1e-6;
};

/// Per-run diagnostics for the simulation.
struct FilteredStats {
  /// Number of filter rounds executed (1 = first guess sufficed).
  size_t rounds = 0;
  /// The final cutoff used.
  double final_alpha = 0.0;
};

/// Top-k via filter-condition simulation of A0. Requires a monotone rule.
/// `stats`, if non-null, receives round diagnostics.
Result<TopKResult> FilteredSimulationTopK(
    std::span<GradedSource* const> sources, const ScoringRule& rule, size_t k,
    const FilteredOptions& options = {}, FilteredStats* stats = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_FILTERED_H_
