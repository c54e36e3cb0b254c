#include "middleware/join.h"

#include <array>

namespace fuzzydb {

Result<TopKJoinSource> TopKJoinSource::Create(GradedSource* left,
                                              GradedSource* right,
                                              ScoringRulePtr rule,
                                              std::string label) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("null join input");
  }
  if (left->Size() != right->Size()) {
    return Status::InvalidArgument(
        "join inputs must grade the same object universe");
  }
  if (rule == nullptr) return Status::InvalidArgument("null rule");
  if (!rule->monotone()) {
    return Status::FailedPrecondition(
        "the top-k join requires a monotone rule: " + rule->name());
  }
  TopKJoinSource join;
  join.left_ = left;
  join.right_ = right;
  join.rule_ = std::move(rule);
  join.label_ = std::move(label);
  join.RestartSorted();
  return join;
}

void TopKJoinSource::RestartSorted() {
  left_->RestartSorted();
  right_->RestartSorted();
  candidates_ = {};
  seen_.clear();
  last_left_ = 1.0;
  last_right_ = 1.0;
  left_done_ = false;
  right_done_ = false;
}

double TopKJoinSource::Threshold() const {
  if (left_done_ && right_done_) return 0.0;  // nothing unseen remains
  std::array<double, 2> bounds{last_left_, last_right_};
  return rule_->Apply(bounds);
}

bool TopKJoinSource::PullRound() {
  if (left_done_ && right_done_) return false;
  // Pull both heads, then resolve the round's cross-probes. Candidates are
  // pushed left-then-right, in discovery order.
  std::optional<GradedObject> l;
  std::optional<GradedObject> r;
  if (!left_done_) {
    l = left_->NextSorted();
    if (l.has_value()) {
      last_left_ = l->grade;
    } else {
      left_done_ = true;
    }
  }
  if (!right_done_) {
    r = right_->NextSorted();
    if (r.has_value()) {
      last_right_ = r->grade;
    } else {
      right_done_ = true;
    }
  }
  // Dedup in discovery order (left head first): if both heads name the
  // same object, only the left probe survives.
  const bool probe_left = l.has_value() && seen_.insert(l->id).second;
  const bool probe_right = r.has_value() && seen_.insert(r->id).second;
  if (probe_left) {
    std::array<double, 2> scores{l->grade, right_->RandomAccess(l->id)};
    candidates_.push({l->id, rule_->Apply(scores)});
  }
  if (probe_right) {
    std::array<double, 2> scores{left_->RandomAccess(r->id), r->grade};
    candidates_.push({r->id, rule_->Apply(scores)});
  }
  return true;
}

std::optional<GradedObject> TopKJoinSource::NextSorted() {
  for (;;) {
    if (!candidates_.empty() &&
        candidates_.top().grade >= Threshold()) {
      GradedObject out = candidates_.top();
      candidates_.pop();
      return out;
    }
    if (!PullRound()) {
      // Inputs exhausted: everything left in the heap is certified.
      if (candidates_.empty()) return std::nullopt;
      GradedObject out = candidates_.top();
      candidates_.pop();
      return out;
    }
  }
}

double TopKJoinSource::RandomAccess(ObjectId id) {
  std::array<double, 2> scores{left_->RandomAccess(id),
                               right_->RandomAccess(id)};
  return rule_->Apply(scores);
}

std::vector<GradedObject> TopKJoinSource::AtLeast(double threshold) {
  RestartSorted();
  std::vector<GradedObject> out;
  while (std::optional<GradedObject> next = NextSorted()) {
    if (next->grade < threshold) break;
    out.push_back(*next);
  }
  RestartSorted();
  return out;
}

}  // namespace fuzzydb
