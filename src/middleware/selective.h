// The selective-conjunct strategy — paper §4.1's first worked example:
// "Under the reasonable assumption that there are not many objects that
// satisfy the first conjunct Artist='Beatles', a good way to evaluate this
// query would be to first determine all objects that satisfy the first
// conjunct (call this set of objects S), and then to obtain grades from
// QBIC (using random access) for the second conjunct for all objects in S."
//
// Correct whenever the rule annihilates zero (t(..., 0, ...) = 0 — true for
// every t-norm, false for means): non-members of S score 0 overall, so the
// top answers live inside S (padded with grade-0 objects when |S| < k).
// Cost: |S| sorted + |S|·(m-1) random — unbeatable when the selective list
// is a low-selectivity 0/1 predicate.

#ifndef FUZZYDB_MIDDLEWARE_SELECTIVE_H_
#define FUZZYDB_MIDDLEWARE_SELECTIVE_H_

#include "middleware/topk.h"

namespace fuzzydb {

/// Empirically checks zero-annihilation at arity `m`: Apply of any tuple
/// with a zero component must be 0. Can only refute, never prove.
bool CheckZeroAnnihilation(const ScoringRule& rule, size_t m, size_t samples,
                           Rng* rng, double tol = 1e-12);

/// Top-k via the selective-conjunct plan. `selective` is the conjunct whose
/// match set is small (its grade-0 tail marks non-matches); `others` are
/// the remaining m-1 conjuncts, probed by random access. The rule's scores
/// are applied in the order [selective, others...]. Rejects rules that fail
/// the zero-annihilation spot check (e.g. avg — the paper's strategy is
/// specific to conjunctions that conserve falsity).
Result<TopKResult> SelectiveProbeTopK(GradedSource* selective,
                                      std::span<GradedSource* const> others,
                                      const ScoringRule& rule, size_t k);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_SELECTIVE_H_
