// A color-similarity GradedSource over the paged embedding store — the
// middleware's view of an out-of-core collection (DESIGN §3k).
//
// Honest accounting of what pages and what does not: grades are 8 bytes
// per object and are materialized at construction, exactly like
// QbicColorSource — it is the embedding *rows* (stride * 8 bytes each,
// ~64x larger) that stay on disk and stream through the buffer pool during
// the one grading pass. After construction the source serves sorted and
// random access from RAM, so middleware runs (TA/NRA/CA) over a paged
// collection cost what they cost over a RAM collection; the disk was paid
// once, sequentially, at source-build time.
//
// Grade arithmetic is shared with QbicColorSource (GradeFromDistance over
// BatchDistances output), so a paged source over the same rows produces
// identical grades and identical middleware answers — asserted by the
// equivalence tests, not assumed.

#ifndef FUZZYDB_STORAGE_PAGED_SOURCE_H_
#define FUZZYDB_STORAGE_PAGED_SOURCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "middleware/materialized_source.h"
#include "storage/paged_store.h"

namespace fuzzydb {
namespace storage {

/// Color-similarity source backed by a PagedEmbeddingStore:
/// grade(x) = 1 - d(x, target)/d_max, d the eigen-space (= quadratic-form)
/// distance.
class PagedColorSource final : public MaterializedSource {
 public:
  /// Grades every row of `store` against `target_embedding` (a full-dim
  /// embedding from QuadraticFormDistance::Embed) in one sequential paged
  /// pass. `ids` maps row -> ObjectId; empty means identity (row i is
  /// object i), which also keeps random access a flat array lookup instead
  /// of a hash map — the only choice that scales to out-of-core N.
  /// `store` must outlive the source.
  static Result<PagedColorSource> Create(const PagedEmbeddingStore* store,
                                         std::span<const double>
                                             target_embedding,
                                         double max_distance,
                                         std::string label = "Color(paged)",
                                         std::vector<ObjectId> ids = {});

 private:
  PagedColorSource() = default;
};

}  // namespace storage
}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_PAGED_SOURCE_H_
