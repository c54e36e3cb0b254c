#include "storage/paged_source.h"

#include "image/image_store.h"

namespace fuzzydb {
namespace storage {

Result<PagedColorSource> PagedColorSource::Create(
    const PagedEmbeddingStore* store, std::span<const double> target_embedding,
    double max_distance, std::string label, std::vector<ObjectId> ids) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (target_embedding.size() != store->dim()) {
    return Status::InvalidArgument("target embedding has wrong dimension");
  }
  if (!(max_distance > 0.0)) {
    return Status::InvalidArgument("max_distance must be positive");
  }
  if (!ids.empty() && ids.size() != store->size()) {
    return Status::InvalidArgument("ids size disagrees with store size");
  }

  // One sequential paged pass over the rows (the only disk the source ever
  // costs), on the store's default path.
  std::vector<double> grades(store->size());
  FUZZYDB_RETURN_NOT_OK(store->BatchDistances(target_embedding, grades));
  for (double& g : grades) g = GradeFromDistance(g, max_distance);
  PagedColorSource src;
  if (ids.empty()) {
    src.Materialize(std::move(label), 0, std::move(grades));
  } else {
    std::vector<GradedObject> items(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) items[i] = {ids[i], grades[i]};
    src.Materialize(std::move(label), std::move(items));
  }
  return src;
}

}  // namespace storage
}  // namespace fuzzydb
