// Shared types for the top-k query-evaluation algorithms (paper §4.1).

#ifndef FUZZYDB_MIDDLEWARE_TOPK_H_
#define FUZZYDB_MIDDLEWARE_TOPK_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/graded_set.h"
#include "core/scoring.h"
#include "middleware/cost.h"
#include "middleware/source.h"

namespace fuzzydb {

/// The answer to a top-k query plus what it cost to compute.
struct TopKResult {
  /// The top-k graded objects, grade-descending. May be shorter than k when
  /// the database holds fewer than k objects.
  std::vector<GradedObject> items;

  /// Database access cost incurred (paper §4), summed over all subsystems.
  AccessCost cost;

  /// Per-subsystem breakdown of `cost`, indexed like the sources span.
  /// Populated by A0/TA/NRA/CA, the disjunction shortcut, and the filter and
  /// selective plans; the naive scan leaves it empty.
  std::vector<AccessCost> per_source;

  /// True when `items[i].grade` is the exact overall grade. NRA (which never
  /// does random access) may report only a certified lower bound.
  bool grades_exact = true;
};

/// Validates common argument errors shared by all algorithms: at least one
/// source, no null sources, rule non-null, k >= 1. Sources may have unequal
/// sorted-list lengths: an object absent from a list has grade 0 there (the
/// fuzzy convention every RandomAccess implementation already follows).
Status ValidateTopKArgs(std::span<GradedSource* const> sources,
                        const ScoringRule* rule, size_t k);

/// A0's resolution and ranking phases (paper §4.1), shared with the filter
/// simulation: every object of `seen` (in its iteration order) gets the
/// grades missing from `known[j]` by random access on set->counted(j),
/// source by source — or 0 without an access when list j ran out, since
/// `known[j]` then holds everything it streamed; returns the k best overall
/// grades, grade-descending.
std::vector<GradedObject> ResolveAndRank(
    SourceSet* set,
    std::span<const std::unordered_map<ObjectId, double>> known,
    const std::unordered_map<ObjectId, size_t>& seen, const ScoringRule& rule,
    size_t k);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_TOPK_H_
