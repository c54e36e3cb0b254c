// Auditors for the cascade filter's admissibility contract ([HSE+95],
// paper formula (2) generalized): a filter level with cheap distance d̂ is
// free of false dismissals iff d̂(x,y) <= d(x,y) for every pair. The
// embedding cascade gets this from the spectral structure (every prefix of
// the eigen-space embedding lower-bounds the full distance); user-supplied
// levels must be vetted before they are trusted, or every CascadeKnn top-k
// claim silently voids.

#ifndef FUZZYDB_ANALYSIS_CASCADE_AUDIT_H_
#define FUZZYDB_ANALYSIS_CASCADE_AUDIT_H_

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/audit.h"
#include "image/embedding_store.h"
#include "image/quadratic_distance.h"

namespace fuzzydb {

/// Knobs for the cascade auditors.
struct CascadeAuditOptions {
  /// Random histogram pairs audited per level.
  size_t pairs = 128;
  /// Slack allowed before declaring a bound inadmissible. 0 by default:
  /// prefix sums of non-negative terms are exactly monotone in floating
  /// point, so the embedding cascade needs none.
  double tol = 0.0;
  /// PRNG seed — audits are deterministic given options.
  uint64_t seed = 0xca5cade5ULL;
};

/// A candidate filter level: a cheap distance claimed to lower-bound the
/// exact one.
using HistogramDistanceFn =
    std::function<double(const Histogram&, const Histogram&)>;

/// Audits one claimed lower bound against the exact distance on random
/// histogram pairs of the given bin count. Witnesses carry the pair index,
/// both distances, and the margin by which the bound overshoots.
AuditReport AuditFilterLowerBound(std::string_view subject,
                                  const HistogramDistanceFn& cheap,
                                  const HistogramDistanceFn& exact,
                                  size_t bins,
                                  const CascadeAuditOptions& options = {});

/// Audits the embedding cascade itself: for random histogram pairs, every
/// prefix level in `levels` (empty: {1, 2, 3, dim/4, dim/2, dim}) must
/// lower-bound the exact quadratic-form distance, and deeper prefixes must
/// dominate shallower ones (the cascade's refinement monotonicity).
AuditReport AuditCascadeLevels(const QuadraticFormDistance& qfd,
                               std::vector<size_t> levels = {},
                               const CascadeAuditOptions& options = {});

/// End-to-end equivalence audit: CascadeKnn must return exactly ExactKnn's
/// answer (same indices, same order, bit-identical distances) for random
/// query targets against `store`, across float prefixes {the given one's,
/// 1, dim}, each with the int8 level −1 on and off. This is the Theorem-4.1-style
/// "the filter changed costs, never answers" contract for the kernel layer.
AuditReport AuditCascadeEquivalence(const EmbeddingStore& store, size_t k,
                                    const CascadeOptions& production_options,
                                    const CascadeAuditOptions& options = {});

/// Audits the int8 quantized tier (the cascade's level −1, DESIGN §3g)
/// directly against its admissibility claim: for random query targets —
/// perturbed stored rows, plus deliberately far-out-of-range targets that
/// force query-side code clamping — QuantizedStore::LowerBound2 must never
/// exceed the exact squared embedding distance, for every stored row, with
/// zero tolerance (the bound's safety margin is its own responsibility). A
/// store without the companion fails its precondition check rather than
/// vacuously passing.
AuditReport AuditQuantizedLowerBound(const EmbeddingStore& store,
                                     const CascadeAuditOptions& options = {});

}  // namespace fuzzydb

#endif  // FUZZYDB_ANALYSIS_CASCADE_AUDIT_H_
