// The graded answer of a subsystem that grades every object up front: the
// QBIC color, texture and shape adapters (image/qbic_source.h), the paged
// color source (storage/paged_source.h) and the explicit grade lists of
// tests and synthetic workloads (vector_source.h). Each grades the whole
// collection at construction, the subsystem's own query evaluation, and then
// serves the middleware's accesses from RAM.

#ifndef FUZZYDB_MIDDLEWARE_MATERIALIZED_SOURCE_H_
#define FUZZYDB_MIDDLEWARE_MATERIALIZED_SOURCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "middleware/source.h"

namespace fuzzydb {

/// A fully graded list. Sorted access walks a GradeDescending copy with a
/// cursor. Random access indexes a dense array by `id - first_id` when the
/// ids are contiguous, and hashes otherwise; unknown ids grade 0.0.
class MaterializedSource : public GradedSource {
 public:
  size_t Size() const override { return sorted_.size(); }
  std::optional<GradedObject> NextSorted() override;
  void RestartSorted() override { cursor_ = 0; }
  double RandomAccess(ObjectId id) override;
  std::vector<GradedObject> AtLeast(double threshold) override;
  std::string name() const override { return label_; }

 protected:
  MaterializedSource() = default;

  /// Contiguous ids: `grades[i]` is the grade of object `first_id + i`.
  void Materialize(std::string label, ObjectId first_id,
                   std::vector<double> grades);
  /// Arbitrary ids. Returns false when an id repeats; random access then
  /// answers the first of its grades.
  bool Materialize(std::string label, std::vector<GradedObject> items);

 private:
  std::vector<GradedObject> sorted_;
  ObjectId first_id_ = 0;
  std::vector<double> dense_;                   // contiguous ids
  std::unordered_map<ObjectId, double> by_id_;  // arbitrary ids
  size_t cursor_ = 0;
  std::string label_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_MATERIALIZED_SOURCE_H_
