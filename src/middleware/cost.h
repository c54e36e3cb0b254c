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
/// sorted access is admitted through it first; a refusal ends this stream —
/// the budget/cancellation truncation point. The wrapper records why its
/// stream ended: a list that ran out grades every object it never streamed
/// 0, while a refused list says nothing about them. Random and filter access
/// stay ungated: grades for already-discovered objects must remain exact or
/// the partial top-k would be wrong, not just short.
class CountingSource final : public GradedSource {
 public:
  /// Why the sorted stream ended, if it has.
  enum class StreamEnd { kLive, kRanOut, kRefused };

  /// `inner` and `cost` must outlive this wrapper.
  CountingSource(GradedSource* inner, AccessCost* cost)
      : inner_(inner), cost_(cost) {}

  /// Attaches the per-query budget/cancellation gate (null detaches). The
  /// governor is shared across the query's sources and must outlive them.
  void set_governor(AccessGovernor* governor) { governor_ = governor; }

  size_t Size() const override { return inner_->Size(); }

  std::optional<GradedObject> NextSorted() override {
    if (governor_ != nullptr && !governor_->AdmitSorted()) {
      end_ = StreamEnd::kRefused;  // budget/cancel/deadline
      return std::nullopt;
    }
    std::optional<GradedObject> next = inner_->NextSorted();
    if (!next.has_value()) {
      end_ = StreamEnd::kRanOut;
    } else {
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
    end_ = StreamEnd::kLive;
    inner_->RestartSorted();
  }

  StreamEnd stream_end() const { return end_; }

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
  StreamEnd end_ = StreamEnd::kLive;
};

struct TopKResult;

/// Per-run source scaffolding shared by every top-k plan but the naive scan:
/// wraps each raw source in a CountingSource charging its own AccessCost,
/// installs the query's governor (null: unbudgeted), restarts the sorted
/// cursors, and on Finalize() folds the per-source tallies into the result.
///
/// It also keeps the one copy of the rules for a list's sorted stream that
/// TA, NRA, CA and A0 share (paper §4: an object absent from a list has
/// grade 0 there). Each list's last streamed grade caps what any object not
/// yet streamed there can score on it; once the list ends the cap is 0, so
/// the halting thresholds fall and a short list stops holding the run open.
/// A list ends by running out, or by a governor refusal: a refused run
/// answers for the consumed prefix, but only a list that ran out has truly
/// graded its unstreamed objects 0 — a refused one still knows their grades,
/// by random access.
class SourceSet {
 public:
  SourceSet(std::span<GradedSource* const> sources,
            AccessGovernor* governor = nullptr)
      : per_source_(sources.size()), last_(sources.size(), 1.0) {
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

  /// One sorted access on list j, which must not have ended; nullopt when
  /// the list ends here.
  std::optional<GradedObject> NextSorted(size_t j) {
    FUZZYDB_DCHECK(!ended(j), "sorted access on an ended list");
    std::optional<GradedObject> next = counted_[j].NextSorted();
    if (next.has_value()) {
      last_[j] = next->grade;
    } else {
      last_[j] = 0.0;
      ++num_ended_;
    }
    return next;
  }

  /// True once list j's sorted stream ran out or was refused.
  bool ended(size_t j) const {
    return counted_[j].stream_end() != CountingSource::StreamEnd::kLive;
  }
  /// True once list j ran out: every object it never streamed has grade 0.
  bool ran_out(size_t j) const {
    return counted_[j].stream_end() == CountingSource::StreamEnd::kRanOut;
  }
  size_t num_ended() const { return num_ended_; }
  bool all_ended() const { return num_ended_ == counted_.size(); }

  /// Per list: 1 before the first sorted access, then the last streamed
  /// grade, and 0 once the list ended.
  std::span<const double> last_grades() const { return last_; }

  /// Fills result->per_source and result->cost (defined in topk.cc).
  void Finalize(TopKResult* result);

 private:
  std::vector<AccessCost> per_source_;
  std::vector<CountingSource> counted_;
  std::vector<double> last_;
  size_t num_ended_ = 0;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_COST_H_
