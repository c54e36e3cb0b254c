// Experiment harness shared by the bench binaries: cost sweeps over
// workloads, power-law exponent fitting against the paper's predictions, and
// fixed-width table printing for the paper-style output rows recorded in
// EXPERIMENTS.md.

#ifndef FUZZYDB_SIM_EXPERIMENT_H_
#define FUZZYDB_SIM_EXPERIMENT_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.h"
#include "middleware/topk.h"
#include "sim/workload.h"

namespace fuzzydb {

/// Fixed-width console table.
class TablePrinter {
 public:
  /// Column headers; widths adapt to the widest cell.
  explicit TablePrinter(std::vector<std::string> header);

  /// Adds a row (stringified cells; must match the header arity).
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` significant digits.
  static std::string Num(double v, int precision = 4);

  /// Renders the table with a header rule.
  void Print(std::ostream& os) const;
  /// Renders to stdout (keeps <iostream> out of this header).
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;  // rows_[0] is the header
};

/// One measured point of a cost sweep.
struct CostPoint {
  size_t n = 0;
  size_t m = 0;
  size_t k = 0;
  AccessCost cost;
};

/// Runs `runner` under `rule` over freshly generated workloads for every n
/// in `ns`, averaging access cost over `trials` seeds. Every trial's answer
/// is checked with CheckTopK; a wrong one returns Internal.
using WorkloadFactory = std::function<Workload(Rng*, size_t n)>;
using AlgorithmRunner = std::function<Result<TopKResult>(
    std::span<GradedSource* const>, const ScoringRule& rule, size_t k)>;

Result<std::vector<CostPoint>> SweepCost(const WorkloadFactory& factory,
                                         const AlgorithmRunner& runner,
                                         const ScoringRule& rule,
                                         const std::vector<size_t>& ns,
                                         size_t m, size_t k, size_t trials,
                                         uint64_t seed);

/// OK when `result` answers the top-k query `rule` over `sources` against
/// the NaiveAllGrades ground truth: the returned set is a correct top k,
/// and when `grades_exact` is set every grade is the true one (otherwise
/// the grades are lower bounds and only the set is checked). Internal when
/// it does not.
Status CheckTopK(const TopKResult& result,
                 std::span<GradedSource* const> sources,
                 const ScoringRule& rule, size_t k);

/// Fits cost ~ N^slope over a sweep (log-log least squares).
Result<LinearFit> FitCostExponent(const std::vector<CostPoint>& points);

/// Borrows raw pointers from a vector of sources (the span the algorithms
/// take).
std::vector<GradedSource*> SourcePtrs(std::vector<VectorSource>& sources);

}  // namespace fuzzydb

#endif  // FUZZYDB_SIM_EXPERIMENT_H_
