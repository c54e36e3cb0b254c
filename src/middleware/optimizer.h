// Cost-based plan choice — the paper's open problem made concrete.
//
// §4 concedes the flat access count "is somewhat controversial. After all,
// a single sorted access is probably much more expensive than a single
// random access ... there are situations (such as in the case of a query
// optimizer) where we want a more realistic cost measure", and §4.2 lists
// "cost modeling issues" among the Garlic lessons. This module estimates
// each algorithm's charged cost under a per-subsystem price model and picks
// the cheapest correct plan:
//   naive     ~ m*N sorted accesses, no random;
//   A0 / TA   ~ m*(kN^(m-1))^(1/m) sorted + about as many random (Thm 4.1);
//   NRA       ~ the same sorted term (a constant deeper), zero random;
//   shortcut  = m*k sorted (pure max-disjunctions only).
// Estimates are the theorems' expectations for independent grades; the
// experiment E11 (bench/exp11_optimizer) validates the choices against
// measured charged costs.

#ifndef FUZZYDB_MIDDLEWARE_OPTIMIZER_H_
#define FUZZYDB_MIDDLEWARE_OPTIMIZER_H_

#include "middleware/executor.h"

namespace fuzzydb {

// CostModel lives in middleware/cost.h (next to AccessCost) so the executor
// can consume prices without depending on the planner.

/// What the optimizer decided and why.
struct PlanChoice {
  Algorithm algorithm = Algorithm::kNaive;
  /// Estimated charged cost of the chosen plan.
  double estimated_cost = 0.0;
  /// CA's random-access period implied by the price model (meaningful for
  /// every plan, used when the chosen algorithm is kCombined).
  size_t combined_period = 1;
  /// True when the winning estimate assumed the calibrated R-tree driver
  /// (CostModel::index_driver) serves one of the sorted streams — the
  /// executor should swap RtreeKnnSource in for that list's batch source.
  bool use_index_driver = false;
  /// Estimated charged cost of each considered alternative, keyed by
  /// AlgorithmName() — except CA, listed as "ca(h=N)", and the index-driven
  /// TA variant, listed as "rtree(dim=D)", so EXPLAIN output shows the
  /// parameters each estimate assumed.
  std::vector<std::pair<std::string, double>> considered;
};

/// Expected *counts* of each access mode — the estimate behind EstimateCost,
/// exposed separately so the index-driver variant can reprice one list's
/// sorted accesses without re-deriving the formulas.
struct AccessMix {
  double sorted = 0.0;
  double random = 0.0;
};

/// Expected access counts of running `algorithm` for a top-k query over m
/// lists of n objects. CA's split depends on `model` (its period h is the
/// price ratio); every other algorithm's counts are price-independent.
/// InvalidArgument for kAuto or inapplicable algorithms at these parameters.
Result<AccessMix> EstimateAccessMix(Algorithm algorithm, size_t n, size_t m,
                                    size_t k, const CostModel& model);

/// Estimated charged cost of running `algorithm` for a top-k query over m
/// lists of n objects under `model`: the AccessMix priced per access.
/// Estimates assume independent grades (Theorem 4.1's setting);
/// InvalidArgument for kAuto or inapplicable algorithms at these parameters.
Result<double> EstimateCost(Algorithm algorithm, size_t n, size_t m, size_t k,
                            const CostModel& model);

/// Strips a considered-plan label back to its AlgorithmName(): "ca(h=4)" →
/// "ca", anything without parameters unchanged. For matching considered
/// entries against a chosen algorithm in EXPLAIN output and benches.
inline std::string ConsideredBaseName(const std::string& label) {
  return label.substr(0, label.find('('));
}

/// Picks the cheapest estimated plan that is *correct* for `query`:
/// non-monotone queries only consider naive; flat max-disjunctions also
/// consider the m*k shortcut; monotone queries consider naive, A0, TA and
/// NRA.
Result<PlanChoice> ChoosePlan(const Query& query, size_t n, size_t k,
                              const CostModel& model);

/// Convenience: ChoosePlan then ExecuteTopK with the chosen algorithm and
/// the plan's CA period.
Result<ExecutionResult> ExecuteOptimized(QueryPtr query,
                                         const SourceResolver& resolver,
                                         size_t k, const CostModel& model,
                                         PlanChoice* choice = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_OPTIMIZER_H_
