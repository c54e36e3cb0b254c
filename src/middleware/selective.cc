#include "middleware/selective.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace fuzzydb {

bool CheckZeroAnnihilation(const ScoringRule& rule, size_t m, size_t samples,
                           Rng* rng, double tol) {
  std::vector<double> x(m);
  for (size_t s = 0; s < samples; ++s) {
    for (size_t i = 0; i < m; ++i) {
      x[i] = rng->NextBernoulli(0.3) ? 1.0 : rng->NextDouble();
    }
    x[rng->NextBounded(m)] = 0.0;
    if (std::fabs(rule.Apply(x)) > tol) return false;
  }
  return true;
}

Result<TopKResult> SelectiveProbeTopK(GradedSource* selective,
                                      std::span<GradedSource* const> others,
                                      const ScoringRule& rule, size_t k) {
  if (selective == nullptr) {
    return Status::InvalidArgument("null selective source");
  }
  std::vector<GradedSource*> all{selective};
  all.insert(all.end(), others.begin(), others.end());
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(all, &rule, k));
  if (!rule.monotone()) {
    return Status::FailedPrecondition(
        "the selective-conjunct plan requires a monotone rule: " +
        rule.name());
  }
  Rng rng(0x5e1ec71fULL);
  if (!CheckZeroAnnihilation(rule, all.size(), 64, &rng)) {
    return Status::FailedPrecondition(
        "the selective-conjunct plan requires a zero-annihilating rule "
        "(every t-norm qualifies; means do not): " + rule.name());
  }

  const size_t m = all.size();
  TopKResult result;
  SourceSet set(all);

  // Phase 1: stream the selective list's support S (grades > 0).
  std::vector<GradedObject> matches;
  std::vector<GradedObject> zero_fill;  // ids for padding when |S| < k
  while (std::optional<GradedObject> next = set.counted(0).NextSorted()) {
    if (next->grade > 0.0) {
      matches.push_back(*next);
    } else {
      // Non-match: overall grade 0 by annihilation. Only needed as filler.
      if (matches.size() + zero_fill.size() < k) {
        zero_fill.push_back({next->id, 0.0});
      } else {
        break;  // enough material; stop streaming
      }
    }
  }

  // Phase 2: random-probe the other conjuncts for every member of S, source
  // by source, each in match order.
  std::vector<std::vector<double>> rows(matches.size(),
                                        std::vector<double>(m, 0.0));
  for (size_t i = 0; i < matches.size(); ++i) rows[i][0] = matches[i].grade;
  for (size_t j = 1; j < m; ++j) {
    for (size_t i = 0; i < matches.size(); ++i) {
      rows[i][j] = set.counted(j).RandomAccess(matches[i].id);
    }
  }
  std::vector<GradedObject> candidates;
  candidates.reserve(matches.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    candidates.push_back({matches[i].id, rule.Apply(rows[i])});
  }

  // Phase 3: top-k over S, padded with grade-0 non-matches if needed.
  std::sort(candidates.begin(), candidates.end(), GradeDescending);
  if (candidates.size() > k) candidates.resize(k);
  for (const GradedObject& filler : zero_fill) {
    if (candidates.size() >= k) break;
    candidates.push_back(filler);
  }
  result.items = std::move(candidates);
  set.Finalize(&result);
  return result;
}

}  // namespace fuzzydb
