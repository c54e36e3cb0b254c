#include "middleware/disjunction.h"

#include <algorithm>
#include <unordered_map>

namespace fuzzydb {

Result<TopKResult> DisjunctionTopK(std::span<GradedSource* const> sources,
                                   size_t k, AccessGovernor* governor) {
  ScoringRulePtr max_rule = MaxRule();
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, max_rule.get(), k));

  const size_t m = sources.size();
  TopKResult result;
  SourceSet set(sources, governor);

  // Each list's top-k prefix, merged in source order.
  std::unordered_map<ObjectId, double> best;
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < k; ++i) {
      std::optional<GradedObject> next = set.counted(j).NextSorted();
      if (!next.has_value()) break;
      auto [it, inserted] = best.try_emplace(next->id, next->grade);
      if (!inserted) it->second = std::max(it->second, next->grade);
    }
  }

  result.items.reserve(best.size());
  for (const auto& [id, grade] : best) result.items.push_back({id, grade});
  k = std::min(k, result.items.size());
  std::partial_sort(result.items.begin(),
                    result.items.begin() + static_cast<long>(k),
                    result.items.end(), GradeDescending);
  result.items.resize(k);
  set.Finalize(&result);
  return result;
}

}  // namespace fuzzydb
