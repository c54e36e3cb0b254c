#include "middleware/filtered.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace fuzzydb {

Result<TopKResult> FilteredSimulationTopK(
    std::span<GradedSource* const> sources, const ScoringRule& rule, size_t k,
    const FilteredOptions& options, FilteredStats* stats) {
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, &rule, k));
  if (!rule.monotone()) {
    return Status::FailedPrecondition(
        "filter simulation requires a monotone scoring rule: " + rule.name());
  }
  if (options.initial_alpha <= 0.0 || options.initial_alpha > 1.0 ||
      options.shrink <= 0.0 || options.shrink >= 1.0 ||
      options.safety < 1.0) {
    return Status::InvalidArgument("bad filter options");
  }

  const size_t m = sources.size();
  const size_t n = sources[0]->Size();
  TopKResult result;
  // Filter access is never gated: the budget governor covers sorted
  // streams only.
  SourceSet set(sources);

  double safety = options.safety;
  auto estimate_alpha = [&]() {
    double fraction = std::pow(
        safety * static_cast<double>(std::min(k, n)) / static_cast<double>(n),
        1.0 / static_cast<double>(m));
    return std::max(0.0, 1.0 - fraction);
  };
  double alpha = options.strategy == AlphaStrategy::kUniformEstimate
                     ? estimate_alpha()
                     : options.initial_alpha;
  size_t rounds = 0;
  for (;;) {
    ++rounds;
    if (alpha < options.min_alpha) alpha = 0.0;

    // Retrieve {grade >= alpha} from every list; each returned object costs
    // one sorted access (charged inside CountingSource::AtLeast).
    std::vector<std::unordered_map<ObjectId, double>> fetched(m);
    std::unordered_map<ObjectId, size_t> appearance;
    size_t matches = 0;
    for (size_t j = 0; j < m; ++j) {
      for (const GradedObject& g : set.counted(j).AtLeast(alpha)) {
        fetched[j].emplace(g.id, g.grade);
        if (++appearance[g.id] == m) ++matches;
      }
    }

    // A0 stopping condition: k objects present in every retrieved set (or
    // the cutoff already hit the bottom — everything was retrieved).
    if (matches >= std::min(k, n) || alpha == 0.0) {
      result.items = ResolveAndRank(&set, fetched, appearance, rule, k);
      set.Finalize(&result);
      if (stats != nullptr) {
        stats->rounds = rounds;
        stats->final_alpha = alpha;
      }
      return result;
    }
    if (options.strategy == AlphaStrategy::kUniformEstimate) {
      safety *= 2.0;
      alpha = estimate_alpha();
    } else {
      alpha *= options.shrink;
    }
  }
}

}  // namespace fuzzydb
