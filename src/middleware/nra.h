// NRA — No Random Access. Some repositories (paper §4: "it may be possible
// to obtain data from some multimedia repositories in only limited ways")
// support sorted access only. NRA answers top-k using sorted access alone by
// maintaining, for every seen object, a certified interval
// [lower, upper] for its overall grade:
//   lower = rule(known grades, missing -> 0)
//   upper = rule(known grades, missing -> last grade seen on that list)
// and stopping when k objects' lower bounds dominate every other object's
// upper bound (including the bound for entirely unseen objects). NRA is CA
// (middleware/combined.h) with a random-access period no run reaches, and
// runs CA's loop.

#ifndef FUZZYDB_MIDDLEWARE_NRA_H_
#define FUZZYDB_MIDDLEWARE_NRA_H_

#include "middleware/topk.h"

namespace fuzzydb {

/// Runs NRA. Requires a monotone rule. The returned items are a correct
/// top-k *set*; `grades_exact` is false when some winner still has unknown
/// per-list grades, in which case its reported grade is the certified lower
/// bound. A list that ran out grades every object it never streamed 0; a
/// list the governor refused does not, so its missing grades stay unknown.
/// `governor`, when set, gates every sorted access (middleware/budget.h).
Result<TopKResult> NoRandomAccessTopK(std::span<GradedSource* const> sources,
                                      const ScoringRule& rule, size_t k,
                                      AccessGovernor* governor = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_NRA_H_
