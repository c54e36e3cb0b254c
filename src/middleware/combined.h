// CA — the Combined Algorithm. The paper's §4 cost discussion ("a single
// sorted access is probably much more expensive than a single random
// access" — or the reverse) implies neither TA (random access per new
// object) nor NRA (none at all) is right for every price; the follow-up
// middleware work resolves this with an algorithm parameterized by the
// price ratio h = cost(random) / cost(sorted): run NRA-style rounds, but
// every h rounds spend one random-access batch resolving the most promising
// unresolved candidate. h -> 0 behaves like TA; h -> infinity degenerates
// to NRA.

#ifndef FUZZYDB_MIDDLEWARE_COMBINED_H_
#define FUZZYDB_MIDDLEWARE_COMBINED_H_

#include "middleware/topk.h"

namespace fuzzydb {

/// Runs CA with random-access period `h` (>= 1): one candidate is fully
/// resolved by random access every h parallel sorted rounds. Requires a
/// monotone rule. Returned grades are exact for resolved winners and
/// certified lower bounds otherwise (`grades_exact` reports which). As in
/// NRA, only a list that ran out counts as grading its unstreamed objects
/// 0, and resolution reads that 0 without an access; a list the governor
/// refused is still probed. `governor`, when set, gates every sorted access
/// (middleware/budget.h).
Result<TopKResult> CombinedTopK(std::span<GradedSource* const> sources,
                                const ScoringRule& rule, size_t k,
                                size_t h = 1,
                                AccessGovernor* governor = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_COMBINED_H_
