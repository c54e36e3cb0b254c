#include "middleware/executor.h"

#include "common/random.h"
#include "middleware/combined.h"
#include "middleware/composite_rule.h"
#include "middleware/disjunction.h"
#include "middleware/fagin.h"
#include "middleware/filtered.h"
#include "middleware/naive.h"
#include "middleware/nra.h"
#include "middleware/threshold.h"

namespace fuzzydb {

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAuto:
      return "auto";
    case Algorithm::kNaive:
      return "naive";
    case Algorithm::kFagin:
      return "fagin-a0";
    case Algorithm::kThreshold:
      return "ta";
    case Algorithm::kNoRandomAccess:
      return "nra";
    case Algorithm::kFilteredSimulation:
      return "filtered";
    case Algorithm::kDisjunctionShortcut:
      return "max-shortcut";
    case Algorithm::kCombined:
      return "ca";
  }
  return "unknown";
}

namespace {

// The empirical monotonicity check's sample count and seed.
constexpr size_t kVerifySamples = 512;
constexpr uint64_t kVerifySeed = 42;

// A flat, unweighted OR of atoms under the standard max rule qualifies for
// the m·k disjunction shortcut.
bool IsPureMaxDisjunction(const Query& query) {
  if (query.kind() != Query::Kind::kOr) return false;
  if (query.weights().has_value()) return false;
  if (query.rule()->name() != "max") return false;
  for (const QueryPtr& c : query.children()) {
    if (c->kind() != Query::Kind::kAtomic) return false;
  }
  return true;
}

}  // namespace

Result<ExecutionResult> ExecuteTopK(QueryPtr query,
                                    const SourceResolver& resolver, size_t k,
                                    const ExecutorOptions& options) {
  if (query == nullptr) return Status::InvalidArgument("null query");

  std::vector<const Query*> atoms;
  query->CollectAtoms(&atoms);
  if (atoms.empty()) return Status::InvalidArgument("query has no atoms");

  std::vector<GradedSource*> sources;
  sources.reserve(atoms.size());
  for (const Query* atom : atoms) {
    Result<GradedSource*> src = resolver(*atom);
    if (!src.ok()) return src.status();
    sources.push_back(*src);
  }

  ScoringRulePtr rule = (query->kind() == Query::Kind::kAtomic)
                            ? MinRule()  // identity on a single score
                            : CompositeQueryRule(query);

  bool monotone = rule->monotone();
  if (monotone && options.verify_rule_claims) {
    Rng rng(kVerifySeed);
    if (!CheckMonotoneEmpirically(*rule, atoms.size(), kVerifySamples, &rng)) {
      return Status::FailedPrecondition(
          "scoring rule '" + rule->name() +
          "' claims monotonicity but an empirical check refuted it; "
          "refusing to run A0/TA (Garlic rule-vetting, paper §4.2). Run "
          "AuditScoringRule from src/analysis for a witness.");
    }
  }

  Algorithm algo = options.algorithm;
  if (algo == Algorithm::kAuto) {
    if (IsPureMaxDisjunction(*query)) {
      algo = Algorithm::kDisjunctionShortcut;
    } else {
      algo = monotone ? Algorithm::kThreshold : Algorithm::kNaive;
    }
  }
  if (algo == Algorithm::kDisjunctionShortcut &&
      !IsPureMaxDisjunction(*query)) {
    return Status::FailedPrecondition(
        "the m*k shortcut is only correct for a flat, unweighted "
        "max-disjunction of atoms");
  }

  if (!monotone && algo != Algorithm::kNaive) {
    return Status::FailedPrecondition(
        "query is not monotone (e.g. contains NOT); only the naive "
        "algorithm is correct");
  }

  AccessGovernor* governor = options.governor.get();

  ExecutionResult out;
  out.algorithm_used = algo;
  Result<TopKResult> r = Status::Internal("unreachable");
  switch (algo) {
    case Algorithm::kNaive:
      r = NaiveTopK(sources, *rule, k);
      break;
    case Algorithm::kFagin:
      r = FaginTopK(sources, *rule, k, governor);
      break;
    case Algorithm::kThreshold:
      r = ThresholdTopK(sources, *rule, k, governor);
      break;
    case Algorithm::kNoRandomAccess:
      r = NoRandomAccessTopK(sources, *rule, k, governor);
      break;
    case Algorithm::kFilteredSimulation:
      r = FilteredSimulationTopK(sources, *rule, k);
      break;
    case Algorithm::kDisjunctionShortcut:
      r = DisjunctionTopK(sources, k, governor);
      break;
    case Algorithm::kCombined:
      r = CombinedTopK(sources, *rule, k, options.combined_period, governor);
      break;
    case Algorithm::kAuto:
      return Status::Internal("auto algorithm not resolved");
  }
  if (!r.ok()) return r.status();
  out.topk = std::move(r).value();
  if (governor != nullptr) out.completion = governor->CompletionStatus();
  return out;
}

}  // namespace fuzzydb
