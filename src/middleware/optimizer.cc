#include "middleware/optimizer.h"

#include <algorithm>
#include <cmath>

namespace fuzzydb {

namespace {

// Expected sorted-access depth per list for A0 on independent grades:
// the theorem's (k * N^(m-1))^(1/m), i.e. total sorted ~ m * depth.
double ExpectedDepth(size_t n, size_t m, size_t k) {
  double nd = static_cast<double>(n);
  double depth = std::pow(static_cast<double>(k) * std::pow(nd,
                              static_cast<double>(m - 1)),
                          1.0 / static_cast<double>(m));
  return std::min(depth, nd);
}

bool IsPureMaxDisjunction(const Query& query) {
  if (query.kind() != Query::Kind::kOr) return false;
  if (query.weights().has_value()) return false;
  if (query.rule() == nullptr || query.rule()->name() != "max") return false;
  for (const QueryPtr& c : query.children()) {
    if (c->kind() != Query::Kind::kAtomic) return false;
  }
  return true;
}

}  // namespace

Result<AccessMix> EstimateAccessMix(Algorithm algorithm, size_t n, size_t m,
                                    size_t k, const CostModel& model) {
  if (n == 0 || m == 0 || k == 0) {
    return Status::InvalidArgument("n, m, k must all be positive");
  }
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(m);
  const double kd = static_cast<double>(std::min(k, n));
  const double depth = ExpectedDepth(n, m, k);
  switch (algorithm) {
    case Algorithm::kNaive:
      return AccessMix{md * nd, 0.0};
    case Algorithm::kFagin:
    case Algorithm::kThreshold:
      // ~m*depth sorted accesses; each distinct object seen (≈ m*depth for
      // small depth/N) needs its missing grades via random access: about
      // (m-1) random probes per seen object.
      return AccessMix{md * depth, md * depth * (md - 1.0)};
    case Algorithm::kNoRandomAccess:
      // NRA reads somewhat deeper (constant factor ~2 observed in E7) but
      // performs no random access at all.
      return AccessMix{2.0 * md * depth, 0.0};
    case Algorithm::kDisjunctionShortcut:
      return AccessMix{md * kd, 0.0};
    case Algorithm::kFilteredSimulation:
      // One successful round fetches ~m*depth objects; budget one restart.
      return AccessMix{2.0 * md * depth, md * depth * (md - 1.0)};
    case Algorithm::kCombined: {
      // NRA-style sorted work, with one (m-1)-probe resolution every
      // h = max(1, random/sorted) rounds.
      double h = std::max(1.0, model.random_unit /
                                   std::max(model.sorted_unit, 1e-9));
      return AccessMix{1.5 * md * depth, (md * depth / h) * (md - 1.0)};
    }
    case Algorithm::kAuto:
      return Status::InvalidArgument("kAuto has no cost of its own");
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<double> EstimateCost(Algorithm algorithm, size_t n, size_t m, size_t k,
                            const CostModel& model) {
  Result<AccessMix> mix = EstimateAccessMix(algorithm, n, m, k, model);
  if (!mix.ok()) return mix.status();
  return mix->sorted * model.sorted_unit + mix->random * model.random_unit;
}

Result<PlanChoice> ChoosePlan(const Query& query, size_t n, size_t k,
                              const CostModel& model) {
  if (n == 0 || k == 0) {
    return Status::InvalidArgument("n and k must be positive");
  }
  const size_t m = std::max<size_t>(query.NumAtoms(), 1);

  std::vector<Algorithm> candidates{Algorithm::kNaive};
  if (query.IsMonotone()) {
    candidates.push_back(Algorithm::kFagin);
    candidates.push_back(Algorithm::kThreshold);
    candidates.push_back(Algorithm::kNoRandomAccess);
    candidates.push_back(Algorithm::kCombined);
    if (IsPureMaxDisjunction(query)) {
      candidates.push_back(Algorithm::kDisjunctionShortcut);
    }
  }

  PlanChoice choice;
  choice.combined_period = DefaultCombinedPeriod(model);
  double best = 0.0;
  bool first = true;
  for (Algorithm algo : candidates) {
    Result<double> est = EstimateCost(algo, n, m, k, model);
    if (!est.ok()) return est.status();
    // (built up with += to dodge a GCC-12 -Wrestrict false positive on
    // `const char* + std::string&&`)
    std::string label = AlgorithmName(algo);
    if (algo == Algorithm::kCombined) {
      label += "(h=";
      label += std::to_string(choice.combined_period);
      label += ")";
    }
    choice.considered.emplace_back(std::move(label), *est);
    if (first || *est < best) {
      best = *est;
      choice.algorithm = algo;
      first = false;
    }
  }
  // The index-driven variant: TA's access mix with one list's sorted
  // accesses served by the calibrated R-tree driver instead of a
  // precomputed sorted list. Correctness is unchanged (the driver streams
  // the identical graded set, DESIGN §3h), so this competes purely on
  // price: cheap when the tree's per-emit work is small (low dim), ruled
  // out by its own calibration numbers once the dimensionality curse makes
  // node expansions per release explode.
  if (query.IsMonotone() && model.index_driver.has_value()) {
    const IndexDriverCalibration& driver = *model.index_driver;
    Result<AccessMix> mix =
        EstimateAccessMix(Algorithm::kThreshold, n, m, k, model);
    if (!mix.ok()) return mix.status();
    const double per_list = mix->sorted / static_cast<double>(m);
    const double est = per_list * driver.EmitUnit() +
                       (mix->sorted - per_list) * model.sorted_unit +
                       mix->random * model.random_unit;
    std::string label = "rtree(dim=";
    label += std::to_string(driver.dim);
    label += ")";
    choice.considered.emplace_back(std::move(label), est);
    if (first || est < best) {
      best = est;
      choice.algorithm = Algorithm::kThreshold;
      choice.use_index_driver = true;
      first = false;
    }
  }
  choice.estimated_cost = best;
  return choice;
}

Result<ExecutionResult> ExecuteOptimized(QueryPtr query,
                                         const SourceResolver& resolver,
                                         size_t k, const CostModel& model,
                                         PlanChoice* choice) {
  if (query == nullptr) return Status::InvalidArgument("null query");

  // Need N: resolve the first atom and ask its source.
  std::vector<const Query*> atoms;
  query->CollectAtoms(&atoms);
  if (atoms.empty()) return Status::InvalidArgument("query has no atoms");
  Result<GradedSource*> first = resolver(*atoms[0]);
  if (!first.ok()) return first.status();
  size_t n = (*first)->Size();
  if (n == 0) return Status::FailedPrecondition("empty database");

  Result<PlanChoice> plan = ChoosePlan(*query, n, k, model);
  if (!plan.ok()) return plan.status();
  if (choice != nullptr) *choice = *plan;

  ExecutorOptions options;
  options.algorithm = plan->algorithm;
  options.combined_period = plan->combined_period;
  return ExecuteTopK(std::move(query), resolver, k, options);
}

}  // namespace fuzzydb
