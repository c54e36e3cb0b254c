#include "middleware/topk.h"

#include <algorithm>

namespace fuzzydb {

Status ValidateTopKArgs(std::span<GradedSource* const> sources,
                        const ScoringRule* rule, size_t k) {
  if (sources.empty()) {
    return Status::InvalidArgument("need at least one source");
  }
  for (GradedSource* s : sources) {
    if (s == nullptr) return Status::InvalidArgument("null source");
  }
  if (rule == nullptr) return Status::InvalidArgument("null scoring rule");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  return Status::OK();
}

std::vector<GradedObject> ResolveAndRank(
    SourceSet* set,
    std::span<const std::unordered_map<ObjectId, double>> known,
    const std::unordered_map<ObjectId, size_t>& seen, const ScoringRule& rule,
    size_t k) {
  const size_t m = known.size();
  std::vector<ObjectId> order;
  order.reserve(seen.size());
  std::vector<std::vector<double>> rows(seen.size());
  std::vector<std::vector<size_t>> missing(m);  // rows to probe, per source
  for (const auto& [id, count] : seen) {
    const size_t r = order.size();
    rows[r].assign(m, 0.0);
    for (size_t j = 0; j < m; ++j) {
      auto it = known[j].find(id);
      if (it != known[j].end()) {
        rows[r][j] = it->second;
      } else {
        missing[j].push_back(r);
      }
    }
    order.push_back(id);
  }
  for (size_t j = 0; j < m; ++j) {
    if (set->ran_out(j)) continue;  // every object it grades is known
    for (size_t r : missing[j]) {
      rows[r][j] = set->counted(j).RandomAccess(order[r]);
    }
  }

  std::vector<GradedObject> candidates;
  candidates.reserve(order.size());
  for (size_t r = 0; r < order.size(); ++r) {
    candidates.push_back({order[r], rule.Apply(rows[r])});
  }
  k = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<long>(k),
                    candidates.end(), GradeDescending);
  candidates.resize(k);
  return candidates;
}

void SourceSet::Finalize(TopKResult* result) {
  result->cost = AccessCost{};
  for (const AccessCost& c : per_source_) result->cost += c;
  result->per_source = std::move(per_source_);
}

}  // namespace fuzzydb
