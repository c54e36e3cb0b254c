#include "middleware/threshold.h"

#include <algorithm>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/contract.h"

namespace fuzzydb {

namespace {

// Min-heap on GradeDescending order: top() is the worst of the kept k.
struct WorstFirst {
  bool operator()(const GradedObject& a, const GradedObject& b) const {
    return GradeDescending(a, b);
  }
};

}  // namespace

Result<TopKResult> ThresholdTopK(std::span<GradedSource* const> sources,
                                 const ScoringRule& rule, size_t k,
                                 AccessGovernor* governor) {
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, &rule, k));
  if (!rule.monotone()) {
    return Status::FailedPrecondition(
        "TA requires a monotone scoring rule: " + rule.name());
  }

  const size_t m = sources.size();
  TopKResult result;
  SourceSet set(sources, governor);

  std::priority_queue<GradedObject, std::vector<GradedObject>, WorstFirst>
      best;  // holds at most k items; top() is the current k-th best
  std::unordered_set<ObjectId> processed;
  double prev_threshold = 1.0;

  // Round-local scratch, reused across rounds.
  struct Fresh {
    ObjectId id = 0;
    size_t list = 0;   // the list that streamed it first this round
    double grade = 0;  // its streamed grade there
  };
  std::vector<Fresh> fresh;
  std::vector<std::vector<double>> rows;  // rows[r][l]: grade of fresh[r]

  while (!set.all_ended()) {
    // 1) One sorted access per live list.
    fresh.clear();
    for (size_t j = 0; j < m; ++j) {
      if (set.ended(j)) continue;
      std::optional<GradedObject> next = set.NextSorted(j);
      if (!next.has_value()) continue;
      if (processed.insert(next->id).second) {
        fresh.push_back({next->id, j, next->grade});
      }
    }
    // 2) The round's missing-grade probes, source by source; each source's
    //    probes follow discovery order. A list that ran out has streamed
    //    every object it grades, so a fresh object's grade there is 0.
    if (rows.size() < fresh.size()) rows.resize(fresh.size());
    for (size_t r = 0; r < fresh.size(); ++r) {
      rows[r].assign(m, 0.0);
      rows[r][fresh[r].list] = fresh[r].grade;
    }
    for (size_t l = 0; l < m; ++l) {
      if (set.ran_out(l)) continue;
      for (size_t r = 0; r < fresh.size(); ++r) {
        if (l != fresh[r].list) {
          rows[r][l] = set.counted(l).RandomAccess(fresh[r].id);
        }
      }
    }
    // 3) Heap updates in discovery order.
    for (size_t r = 0; r < fresh.size(); ++r) {
      GradedObject overall{fresh[r].id, rule.Apply(rows[r])};
      if (best.size() < k) {
        best.push(overall);
      } else if (GradeDescending(overall, best.top())) {
        best.pop();
        best.push(overall);
      }
    }
    // Threshold check once per round of parallel sorted accesses.
    const double threshold = rule.Apply(set.last_grades());
    // Theorem 4.1's halting argument needs the threshold to only ever fall:
    // the last grades are pointwise non-increasing (sorted access; ended
    // lists drop to 0) and the rule is monotone, so a rise means a broken
    // source or a mis-declared rule.
    FUZZYDB_INVARIANT(threshold <= prev_threshold + 1e-12,
                      "TA halting threshold rose from " +
                          std::to_string(prev_threshold) + " to " +
                          std::to_string(threshold) +
                          " under rule " + rule.name());
    prev_threshold = threshold;
    if (best.size() >= k && best.top().grade >= threshold) break;
  }

  result.items.resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    result.items[i] = best.top();
    best.pop();
  }
  set.Finalize(&result);
  return result;
}

}  // namespace fuzzydb
