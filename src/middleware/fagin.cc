#include "middleware/fagin.h"

#include <algorithm>

namespace fuzzydb {

Result<TopKResult> FaginTopK(std::span<GradedSource* const> sources,
                             const ScoringRule& rule, size_t k,
                             AccessGovernor* governor) {
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, &rule, k));
  if (!rule.monotone()) {
    return Status::FailedPrecondition(
        "A0 requires a monotone scoring rule: " + rule.name());
  }

  const size_t m = sources.size();
  TopKResult result;
  SourceSet set(sources, governor);

  // Phase 1: parallel sorted access until >= k objects seen on every list.
  std::vector<std::unordered_map<ObjectId, double>> seen(m);
  std::unordered_map<ObjectId, size_t> seen_count;
  size_t matches = 0;
  while (matches < k && !set.all_ended()) {
    for (size_t j = 0; j < m; ++j) {
      if (set.ended(j)) continue;
      std::optional<GradedObject> next = set.NextSorted(j);
      if (!next.has_value()) {
        // Every object an ended list never delivered counts as seen on it:
        // a list that ran out grades them 0 (absent means grade 0), and a
        // refused one ends the consumed prefix. Without this credit Phase
        // 1 can never reach k matches and degenerates into a full scan of
        // the longer lists.
        for (auto& [id, count] : seen_count) {
          if (!seen[j].count(id) && ++count == m) ++matches;
        }
        continue;
      }
      seen[j].emplace(next->id, next->grade);
      // A fresh object starts with one virtual credit per already-ended
      // list (those lists grade it 0, which counts as "seen" under A0).
      auto it = seen_count.try_emplace(next->id, set.num_ended()).first;
      if (++it->second == m) ++matches;
    }
  }

  // Phases 2 and 3: random access for every seen object's missing grades,
  // then the k best overall grades.
  result.items = ResolveAndRank(&set, seen, seen_count, rule, k);
  set.Finalize(&result);
  return result;
}

Result<FaginCursor> FaginCursor::Create(std::vector<GradedSource*> sources,
                                        ScoringRulePtr rule) {
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, rule.get(), /*k=*/1));
  if (!rule->monotone()) {
    return Status::FailedPrecondition(
        "A0 requires a monotone scoring rule: " + rule->name());
  }
  FaginCursor cursor;
  cursor.sources_ = std::move(sources);
  cursor.rule_ = std::move(rule);
  cursor.seen_.resize(cursor.sources_.size());
  cursor.exhausted_.assign(cursor.sources_.size(), false);
  for (GradedSource* s : cursor.sources_) s->RestartSorted();
  return cursor;
}

Result<TopKResult> FaginCursor::NextBatch(size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  const size_t m = sources_.size();
  std::vector<CountingSource> counted;
  counted.reserve(m);
  for (GradedSource* s : sources_) counted.emplace_back(s, &cost_);

  // Continue sorted access until enough matches to certify the next k
  // un-emitted objects: emitted + k total matches.
  const size_t target = emitted_.size() + k;
  size_t num_exhausted = 0;
  for (bool d : exhausted_) num_exhausted += d ? 1 : 0;
  while (matches_ < target && num_exhausted < m) {
    for (size_t j = 0; j < m; ++j) {
      if (exhausted_[j]) continue;
      std::optional<GradedObject> next = counted[j].NextSorted();
      if (!next.has_value()) {
        exhausted_[j] = true;
        ++num_exhausted;
        // Same virtual credit as FaginTopK: an exhausted list grades every
        // undelivered object 0, so they all count as seen on it.
        for (auto& [id, count] : seen_count_) {
          if (!seen_[j].count(id) && ++count == m) ++matches_;
        }
        continue;
      }
      seen_[j].emplace(next->id, next->grade);
      auto it = seen_count_.try_emplace(next->id, num_exhausted).first;
      if (++it->second == m) ++matches_;
    }
  }

  // Random access (only for objects not graded in a previous batch).
  std::vector<double> scores(m);
  for (const auto& [id, count] : seen_count_) {
    if (graded_.count(id)) continue;
    for (size_t j = 0; j < m; ++j) {
      auto it = seen_[j].find(id);
      scores[j] = (it != seen_[j].end()) ? it->second
                                         : counted[j].RandomAccess(id);
    }
    graded_.emplace(id, rule_->Apply(scores));
  }

  // Select the k best not yet emitted.
  std::vector<GradedObject> pool;
  pool.reserve(graded_.size() - emitted_.size());
  for (const auto& [id, grade] : graded_) {
    if (!emitted_.count(id)) pool.push_back({id, grade});
  }
  k = std::min(k, pool.size());
  std::partial_sort(pool.begin(), pool.begin() + static_cast<long>(k),
                    pool.end(), GradeDescending);
  pool.resize(k);
  for (const GradedObject& g : pool) emitted_.insert(g.id);

  TopKResult result;
  result.items = std::move(pool);
  result.cost = cost_;
  return result;
}

}  // namespace fuzzydb
