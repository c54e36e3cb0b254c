#include "middleware/vector_source.h"

namespace fuzzydb {

Result<VectorSource> VectorSource::Create(std::vector<GradedObject> items,
                                          std::string name) {
  for (const GradedObject& g : items) {
    if (!(g.grade >= 0.0 && g.grade <= 1.0)) {
      return Status::InvalidArgument("grade must be in [0,1]");
    }
  }
  VectorSource src;
  if (!src.Materialize(std::move(name), std::move(items))) {
    return Status::AlreadyExists("duplicate object id in source");
  }
  return src;
}

Result<std::vector<VectorSource>> MakeSources(
    const std::vector<ObjectId>& ids,
    const std::vector<std::vector<double>>& columns) {
  std::vector<VectorSource> out;
  out.reserve(columns.size());
  for (size_t j = 0; j < columns.size(); ++j) {
    if (columns[j].size() != ids.size()) {
      return Status::InvalidArgument("grade column size mismatch");
    }
    std::vector<GradedObject> items(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      items[i] = {ids[i], columns[j][i]};
    }
    Result<VectorSource> src =
        VectorSource::Create(std::move(items), "list" + std::to_string(j));
    if (!src.ok()) return src.status();
    out.push_back(std::move(src).value());
  }
  return out;
}

}  // namespace fuzzydb
