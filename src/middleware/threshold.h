// The Threshold Algorithm (TA). The paper notes (§4.1) that "various
// improvements can be made to algorithm A0"; TA — from the follow-up line of
// work by Fagin, Lotem and Naor — is the canonical one, and is instance
// optimal rather than optimal only with high probability.
//
//   Do sorted access in parallel; for every newly seen object immediately
//   resolve all its remaining grades by random access; maintain the best k
//   overall grades; stop as soon as the k-th best is at least the threshold
//   τ = rule(g1,...,gm), where gj is the last grade seen under sorted access
//   on list j.

#ifndef FUZZYDB_MIDDLEWARE_THRESHOLD_H_
#define FUZZYDB_MIDDLEWARE_THRESHOLD_H_

#include "middleware/topk.h"

namespace fuzzydb {

/// Runs TA. Requires a monotone rule. `governor`, when set, gates every
/// sorted access (middleware/budget.h).
Result<TopKResult> ThresholdTopK(std::span<GradedSource* const> sources,
                                 const ScoringRule& rule, size_t k,
                                 AccessGovernor* governor = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_THRESHOLD_H_
