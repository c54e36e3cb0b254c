// The disjunction shortcut (paper §4.1): when the scoring function is max —
// the standard fuzzy disjunction A1 ∨ ... ∨ Am — the top k answers can be
// found with database access cost exactly m·k, *independent of N*: take the
// top k of each list under sorted access; the overall top k are among those
// m·k candidates, and each candidate's max over the lists where it appeared
// is its true overall grade for at least one valid top-k answer.
//
// max is monotone but not strict, which is why this beats the Θ(N^((m-1)/m))
// lower bound of Theorem 4.2 (the lower bound needs strictness).

#ifndef FUZZYDB_MIDDLEWARE_DISJUNCTION_H_
#define FUZZYDB_MIDDLEWARE_DISJUNCTION_H_

#include "middleware/topk.h"

namespace fuzzydb {

/// Top-k under the max rule with cost m·min(k, N) and no random accesses.
/// `governor`, when set, gates every sorted access (middleware/budget.h).
Result<TopKResult> DisjunctionTopK(std::span<GradedSource* const> sources,
                                   size_t k,
                                   AccessGovernor* governor = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_DISJUNCTION_H_
