// The fuzzy merge as a *join operator* (paper §4.2): the Garlic implementers
// "decided to treat A0 as a join ... it was easier to teach the Garlic code
// about ordering requirements in the join phase rather than teaching the
// ordering code about multiple input streams."
//
// TopKJoinSource is that operator: it combines two graded inputs under a
// monotone rule and is itself a GradedSource, emitting the joined objects
// in overall-grade order *lazily* — it performs only as much sorted/random
// access on its inputs as certifying the next output requires (an
// incremental threshold argument). Because the output speaks the same
// interface, joins compose: join(join(A, B), C) evaluates a three-way
// conjunction as a pipeline, exactly how a query plan would.

#ifndef FUZZYDB_MIDDLEWARE_JOIN_H_
#define FUZZYDB_MIDDLEWARE_JOIN_H_

#include <queue>
#include <unordered_set>
#include <vector>

#include "core/scoring.h"
#include "middleware/source.h"

namespace fuzzydb {

/// Lazy binary top-k join of two graded sources.
class TopKJoinSource final : public GradedSource {
 public:
  /// `left` and `right` must grade the same object universe and outlive the
  /// join; `rule` must be monotone (2-ary application).
  static Result<TopKJoinSource> Create(GradedSource* left,
                                       GradedSource* right,
                                       ScoringRulePtr rule = MinRule(),
                                       std::string label = "join");

  size_t Size() const override { return left_->Size(); }

  /// The next object in overall-grade order. Pulls just enough from the
  /// inputs to certify it (threshold argument: once the best unemitted
  /// computed grade is at least rule(last_left, last_right), no unseen
  /// object can beat it).
  std::optional<GradedObject> NextSorted() override;

  /// Restarts this join AND its inputs' sorted cursors.
  void RestartSorted() override;

  /// rule(left grade, right grade) by random access to both inputs.
  double RandomAccess(ObjectId id) override;

  /// All joined objects with grade >= threshold. Restarts the sorted
  /// cursor (inputs cannot save/restore positions across scans).
  std::vector<GradedObject> AtLeast(double threshold) override;

  std::string name() const override { return label_; }

 private:
  TopKJoinSource() = default;

  // Performs one parallel round of sorted access; returns false when both
  // inputs are exhausted.
  bool PullRound();
  // Current certification threshold.
  double Threshold() const;

  GradedSource* left_ = nullptr;
  GradedSource* right_ = nullptr;
  ScoringRulePtr rule_;
  std::string label_;

  struct WorstLast {
    bool operator()(const GradedObject& a, const GradedObject& b) const {
      return GradeDescending(b, a);  // max-heap in GradeDescending order
    }
  };
  std::priority_queue<GradedObject, std::vector<GradedObject>, WorstLast>
      candidates_;
  std::unordered_set<ObjectId> seen_;
  double last_left_ = 1.0;
  double last_right_ = 1.0;
  bool left_done_ = false;
  bool right_done_ = false;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_JOIN_H_
