// Database access cost (paper §4): sorted accesses + random accesses, with a
// charged variant for the "more realistic cost measure" discussion — the
// paper notes a single sorted access is probably much more expensive than a
// single random access, and that the results are robust to the choice.

#ifndef FUZZYDB_MIDDLEWARE_COST_H_
#define FUZZYDB_MIDDLEWARE_COST_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/contract.h"
#include "middleware/budget.h"
#include "middleware/source.h"

namespace fuzzydb {

/// Measured per-emit costs of an index-driven sorted-access backend
/// (image/rtree_source.h), calibrated from KnnStats / RtreeSourceStats on a
/// probe query: what one released stream item costs the R-tree driver,
/// priced in the same units as CostModel. The dimensionality curse lives in
/// the per-emit counts — high-dimensional trees expand many nodes per
/// release, and the calibrated numbers carry that into the plan choice
/// instead of a closed-form guess.
struct IndexDriverCalibration {
  /// Eigen-prefix dimensionality of the tree the numbers were measured on.
  size_t dim = 0;
  /// R-tree nodes expanded per released stream item.
  double node_accesses_per_emit = 1.0;
  /// Exact full-embedding refinements per released stream item.
  double refinements_per_emit = 1.0;
  /// Price of one node expansion (relative to sorted_unit = one precomputed
  /// sorted access).
  double node_unit = 1.0;
  /// Price of one exact refinement.
  double refine_unit = 1.0;

  /// The charged price of one sorted access served by the driver.
  double EmitUnit() const {
    return node_accesses_per_emit * node_unit +
           refinements_per_emit * refine_unit;
  }
};

/// Per-access prices, in arbitrary cost units. Consumed by the optimizer's
/// estimates and by CA's default random-access period.
struct CostModel {
  /// Cost of one sorted access.
  double sorted_unit = 1.0;
  /// Cost of one random access. Paper §4: in real systems this is usually
  /// cheaper than a sorted access for an indexed subsystem, or far more
  /// expensive when the subsystem must recompute a similarity score.
  double random_unit = 1.0;
  /// When set, one of the query's sorted streams can be served by the
  /// incremental R-tree driver at these calibrated prices, and ChoosePlan
  /// weighs "rtree(dim=D)" against the precomputed-list plans.
  std::optional<IndexDriverCalibration> index_driver;
};

/// CA's random-access period h derived from the price ratio: spend one
/// random-access resolution every h ≈ random_unit/sorted_unit sorted rounds,
/// so the random budget tracks the sorted budget in charged cost. Never
/// below 1 (h→0 is TA's regime, which CA reaches at h = 1 already).
inline size_t DefaultCombinedPeriod(const CostModel& model) {
  return static_cast<size_t>(std::max(
      1.0, model.random_unit / std::max(model.sorted_unit, 1e-9)));
}

/// Counts of the two access modes.
struct AccessCost {
  uint64_t sorted = 0;
  uint64_t random = 0;

  /// The paper's database access cost: sorted + random.
  uint64_t total() const { return sorted + random; }

  /// Charged cost with a per-random-access unit price relative to one
  /// sorted access costing 1 (paper §4's "more realistic cost measure").
  double Charged(double random_unit_cost) const {
    return static_cast<double>(sorted) +
           random_unit_cost * static_cast<double>(random);
  }

  AccessCost& operator+=(const AccessCost& other) {
    sorted += other.sorted;
    random += other.random;
    return *this;
  }
};

/// Decorator that charges every access on an underlying source to an
/// AccessCost tally. Filter access (AtLeast) is charged one sorted access
/// per returned object, matching the Chaudhuri–Gravano cost model.
///
/// When a shared AccessGovernor is attached (middleware/budget.h), every
/// sorted access is admitted through it first; a refusal makes this stream
/// report exhausted from then on, which the algorithms already handle as an
/// all-zeros tail — the budget/cancellation truncation point. Random and
/// filter access stay ungated: grades for already-discovered objects must
/// remain exact or the partial top-k would be wrong, not just short.
class CountingSource final : public GradedSource {
 public:
  /// `inner` and `cost` must outlive this wrapper.
  CountingSource(GradedSource* inner, AccessCost* cost)
      : inner_(inner), cost_(cost) {}

  /// Attaches the per-query budget/cancellation gate (null detaches). The
  /// governor is shared across the query's sources and must outlive them.
  void set_governor(AccessGovernor* governor) { governor_ = governor; }

  size_t Size() const override { return inner_->Size(); }

  std::optional<GradedObject> NextSorted() override {
    if (governor_ != nullptr && !governor_->AdmitSorted()) {
      return std::nullopt;  // budget/cancel/deadline: stream ends here
    }
    std::optional<GradedObject> next = inner_->NextSorted();
    if (next.has_value()) {
      ++cost_->sorted;
      FUZZYDB_DCHECK(
          next->grade >= 0.0 && next->grade <= 1.0,
          "source '" + inner_->name() + "' streamed grade outside [0,1]");
      // Every middleware algorithm routes sorted access through this
      // wrapper, so one check covers A0/TA/NRA/CA alike: the stream must be
      // grade-descending with ties by id ascending (paper §4) or the
      // halting thresholds below are meaningless.
      FUZZYDB_INVARIANT(
          !prev_streamed_.has_value() ||
              !GradeDescending(*next, *prev_streamed_),
          "source '" + inner_->name() +
              "' violated sorted-access order: object " +
              std::to_string(next->id) + " (grade " +
              std::to_string(next->grade) + ") after object " +
              std::to_string(prev_streamed_->id) + " (grade " +
              std::to_string(prev_streamed_->grade) + ")");
      prev_streamed_ = *next;
    }
    return next;
  }

  void RestartSorted() override {
    prev_streamed_.reset();
    inner_->RestartSorted();
  }

  double RandomAccess(ObjectId id) override {
    ++cost_->random;
    return inner_->RandomAccess(id);
  }

  std::vector<GradedObject> AtLeast(double threshold) override {
    std::vector<GradedObject> out = inner_->AtLeast(threshold);
    cost_->sorted += out.size();
    return out;
  }

  std::string name() const override { return inner_->name(); }

 private:
  GradedSource* inner_;
  AccessCost* cost_;
  AccessGovernor* governor_ = nullptr;
  // Last streamed object, for the sorted-order contract check.
  std::optional<GradedObject> prev_streamed_;
};

struct TopKResult;

/// Per-run source scaffolding shared by every top-k plan but the naive scan:
/// wraps each raw source in a CountingSource charging its own AccessCost,
/// installs the query's governor (null: unbudgeted), restarts the sorted
/// cursors, and on Finalize() folds the per-source tallies into the result.
class SourceSet {
 public:
  SourceSet(std::span<GradedSource* const> sources,
            AccessGovernor* governor = nullptr)
      : per_source_(sources.size()) {
    counted_.reserve(sources.size());
    for (size_t j = 0; j < sources.size(); ++j) {
      counted_.emplace_back(sources[j], &per_source_[j]);
      counted_[j].set_governor(governor);
      counted_[j].RestartSorted();
    }
  }
  SourceSet(const SourceSet&) = delete;
  SourceSet& operator=(const SourceSet&) = delete;

  CountingSource& counted(size_t j) { return counted_[j]; }

  /// Fills result->per_source and result->cost (defined in topk.cc).
  void Finalize(TopKResult* result);

 private:
  std::vector<AccessCost> per_source_;
  std::vector<CountingSource> counted_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_COST_H_
