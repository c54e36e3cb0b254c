#include "middleware/materialized_source.h"

#include <algorithm>

namespace fuzzydb {

void MaterializedSource::Materialize(std::string label, ObjectId first_id,
                                     std::vector<double> grades) {
  label_ = std::move(label);
  first_id_ = first_id;
  sorted_.resize(grades.size());
  for (size_t i = 0; i < grades.size(); ++i) {
    sorted_[i] = {first_id + i, grades[i]};
  }
  std::sort(sorted_.begin(), sorted_.end(), GradeDescending);
  dense_ = std::move(grades);
}

bool MaterializedSource::Materialize(std::string label,
                                     std::vector<GradedObject> items) {
  label_ = std::move(label);
  bool distinct = true;
  by_id_.reserve(items.size());
  for (const GradedObject& g : items) {
    distinct &= by_id_.emplace(g.id, g.grade).second;
  }
  sorted_ = std::move(items);
  std::sort(sorted_.begin(), sorted_.end(), GradeDescending);
  return distinct;
}

std::optional<GradedObject> MaterializedSource::NextSorted() {
  if (cursor_ >= sorted_.size()) return std::nullopt;
  return sorted_[cursor_++];
}

double MaterializedSource::RandomAccess(ObjectId id) {
  if (by_id_.empty()) {
    return id >= first_id_ && id - first_id_ < dense_.size()
               ? dense_[id - first_id_]
               : 0.0;
  }
  auto it = by_id_.find(id);
  return it == by_id_.end() ? 0.0 : it->second;
}

std::vector<GradedObject> MaterializedSource::AtLeast(double threshold) {
  // The list is grade-descending, so the qualifying objects are exactly the
  // prefix before the partition point, found by binary search.
  auto end = std::partition_point(
      sorted_.begin(), sorted_.end(),
      [threshold](const GradedObject& g) { return g.grade >= threshold; });
  return {sorted_.begin(), end};
}

}  // namespace fuzzydb
