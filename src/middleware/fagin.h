// Fagin's Algorithm A0 (paper §4.1, [Fa96]).
//
// Three phases:
//   1. Sorted access to all m lists in parallel (round-robin) until at least
//      k objects have been seen on *every* list.
//   2. Random access to fetch every seen object's missing grades.
//   3. Compute overall grades; output the k best.
// Correct for every monotone scoring rule; for monotone *strict* rules over
// independent lists the database access cost is Θ(N^((m-1)/m) k^(1/m)) with
// arbitrarily high probability (Theorems 4.1/4.2).

#ifndef FUZZYDB_MIDDLEWARE_FAGIN_H_
#define FUZZYDB_MIDDLEWARE_FAGIN_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "middleware/topk.h"

namespace fuzzydb {

/// Runs A0. Requires a monotone rule (returns FailedPrecondition otherwise —
/// the Garlic lesson from paper §4.2: the system, not the user, must
/// guarantee monotonicity). `governor`, when set, gates every sorted access
/// (middleware/budget.h).
Result<TopKResult> FaginTopK(std::span<GradedSource* const> sources,
                             const ScoringRule& rule, size_t k,
                             AccessGovernor* governor = nullptr);

/// Resumable variant: after finding the top k, "continue where we left off"
/// to get the next batch (paper §4.1 notes A0 supports this). Each call to
/// NextBatch(k) returns the next k best objects not yet emitted.
class FaginCursor {
 public:
  /// Sources must outlive the cursor; rule must be monotone.
  static Result<FaginCursor> Create(std::vector<GradedSource*> sources,
                                    ScoringRulePtr rule);

  /// The next `k` best un-emitted objects (fewer at the end of the
  /// database). Sorted access resumes where the previous batch stopped, and
  /// random accesses are never repeated for an object already graded.
  Result<TopKResult> NextBatch(size_t k);

  /// Total cost incurred so far across all batches.
  const AccessCost& cost() const { return cost_; }

 private:
  FaginCursor() = default;

  std::vector<GradedSource*> sources_;
  ScoringRulePtr rule_;
  AccessCost cost_;
  // Per-list grades seen under sorted access.
  std::vector<std::unordered_map<ObjectId, double>> seen_;
  // id -> number of lists it has appeared on (exhausted lists count for
  // every object: anything they never delivered has grade 0 there);
  // matches_ counts ids seen on all lists.
  std::unordered_map<ObjectId, size_t> seen_count_;
  size_t matches_ = 0;
  // Overall grades of every object seen so far (filled per batch).
  std::unordered_map<ObjectId, double> graded_;
  std::unordered_set<ObjectId> emitted_;
  std::vector<bool> exhausted_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_FAGIN_H_
