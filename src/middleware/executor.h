// The query executor: plans and runs a top-k fuzzy query end to end.
//
// Mirrors the Garlic decisions discussed in paper §4.2: arbitrary
// user-defined scoring functions are allowed, so the executor (not the user)
// verifies monotonicity claims before trusting A0/TA with them, and falls
// back to the always-correct naive plan when a query is not monotone.

#ifndef FUZZYDB_MIDDLEWARE_EXECUTOR_H_
#define FUZZYDB_MIDDLEWARE_EXECUTOR_H_

#include <functional>
#include <memory>

#include "core/query.h"
#include "middleware/budget.h"
#include "middleware/topk.h"

namespace fuzzydb {

/// Which top-k algorithm to run.
enum class Algorithm {
  kAuto,       ///< max-disjunction shortcut, else TA if monotone, else naive.
  kNaive,      ///< full scan; any rule.
  kFagin,      ///< A0; monotone rules only.
  kThreshold,  ///< TA; monotone rules only.
  kNoRandomAccess,       ///< NRA; monotone rules only; grades may be bounds.
  kFilteredSimulation,   ///< Chaudhuri–Gravano filter simulation of A0.
  kDisjunctionShortcut,  ///< m·k max shortcut; flat max-disjunctions only.
  kCombined,             ///< CA; monotone rules; random access every h rounds.
};

/// Human-readable algorithm name ("fagin-a0", "ta", ...).
std::string AlgorithmName(Algorithm algorithm);

/// Maps an atomic query to the subsystem source answering it. Returning an
/// error aborts execution (e.g. unknown attribute).
using SourceResolver =
    std::function<Result<GradedSource*>(const Query& atom)>;

/// Execution knobs.
struct ExecutorOptions {
  Algorithm algorithm = Algorithm::kAuto;
  /// When true, empirically spot-check monotonicity/strictness claims of the
  /// composite rule before using an algorithm that relies on them (the
  /// Garlic "system must guarantee monotonicity" issue, paper §4.2).
  bool verify_rule_claims = false;
  /// CA's random-access period h (used when algorithm == kCombined);
  /// typically the random/sorted price ratio, as ChoosePlan derives it in
  /// PlanChoice::combined_period.
  size_t combined_period = 1;
  /// Budgeted / cancellable execution (DESIGN §3j): when set, the governor
  /// gates the run and the caller keeps a handle for Cancel. Interruption
  /// ends every sorted stream — the algorithms halt with the top-k of the
  /// consumed prefix — and ExecutionResult::completion carries the
  /// documented partial-result Status (Cancelled / DeadlineExceeded /
  /// ResourceExhausted). Budgets apply to the algorithms that stream
  /// through CountingSource (A0/TA/NRA/CA, the disjunction shortcut); the
  /// naive scan and the filter simulation's AtLeast calls are not gated.
  std::shared_ptr<AccessGovernor> governor;
};

/// Chosen plan plus the result.
struct ExecutionResult {
  TopKResult topk;
  Algorithm algorithm_used = Algorithm::kNaive;
  /// OK for a run that reached its halting condition. An interrupted run
  /// (budget / cancel / deadline, see ExecutorOptions) returns a normal
  /// Result with `topk` holding the top-k of the consumed prefix and this
  /// Status saying why the run stopped early — partial is a property of the
  /// answer, not a failure of the call.
  Status completion;
};

/// Plans and executes `query` for the top-k answers.
Result<ExecutionResult> ExecuteTopK(QueryPtr query,
                                    const SourceResolver& resolver, size_t k,
                                    const ExecutorOptions& options = {});

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_EXECUTOR_H_
