// In-memory GradedSource backed by an explicit grade list. The workhorse for
// synthetic workloads and tests; subsystems with real feature data provide
// their own adapters (see image/qbic_source.h, relational/relational_source.h).

#ifndef FUZZYDB_MIDDLEWARE_VECTOR_SOURCE_H_
#define FUZZYDB_MIDDLEWARE_VECTOR_SOURCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "middleware/materialized_source.h"

namespace fuzzydb {

/// A graded source materialized from (id, grade) pairs.
class VectorSource final : public MaterializedSource {
 public:
  /// Validates grades in [0,1] and id uniqueness, then pre-sorts for
  /// sorted access.
  static Result<VectorSource> Create(std::vector<GradedObject> items,
                                     std::string name = "source");

 private:
  VectorSource() = default;
};

/// Builds one VectorSource per grade column: `columns[j][i]` is the grade of
/// object `ids[i]` under subquery j.
Result<std::vector<VectorSource>> MakeSources(
    const std::vector<ObjectId>& ids,
    const std::vector<std::vector<double>>& columns);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_VECTOR_SOURCE_H_
