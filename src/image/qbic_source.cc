#include "image/qbic_source.h"

#include <cmath>
#include <optional>
#include <vector>

namespace fuzzydb {

namespace {

// Ids are assigned contiguously from the first image's (ImageStore::Find),
// so grades index densely by position.
ObjectId FirstId(const ImageStore& store) {
  return store.size() == 0 ? 0 : store.image(0).id;
}

}  // namespace

Result<QbicColorSource> QbicColorSource::Create(const ImageStore* store,
                                                Histogram target,
                                                std::string label) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  FUZZYDB_RETURN_NOT_OK(ValidateHistogram(target));
  if (target.size() != store->palette().size()) {
    return Status::InvalidArgument("target histogram has wrong bin count");
  }
  // Grade through the embedding layer: one O(bins^2) projection of the
  // target, then one serial O(bins)-per-image pass over the store's
  // contiguous embedding buffer. At 1,000 images the pass takes tens of
  // microseconds, less than a fan-out to the shared pool costs.
  std::vector<double> target_embedding = store->color_distance().Embed(target);
  std::vector<double> grades(store->size());
  store->embeddings().BatchDistances(target_embedding, grades);
  for (double& g : grades) g = store->ColorGradeFromDistance(g);
  QbicColorSource src;
  src.Materialize(std::move(label), FirstId(*store), std::move(grades));
  return src;
}

Result<QbicTextureSource> QbicTextureSource::Create(
    const ImageStore* store, const TextureFeatures& target,
    std::string label) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (!std::isfinite(target.coarseness) || !std::isfinite(target.contrast) ||
      !std::isfinite(target.directionality)) {
    return Status::InvalidArgument("texture target is not finite");
  }
  std::vector<double> grades(store->size());
  for (size_t i = 0; i < store->size(); ++i) {
    const double d = TextureDistance(store->image(i).texture, target);
    // A NaN grade would make the grade sort undefined.
    if (std::isnan(d)) {
      return Status::InvalidArgument("texture distance to the target is NaN");
    }
    grades[i] = TextureGradeFromDistance(d);
  }
  QbicTextureSource src;
  src.Materialize(std::move(label), FirstId(*store), std::move(grades));
  return src;
}

Result<QbicShapeSource> QbicShapeSource::Create(
    const ImageStore* store, const Polygon& target, std::string label,
    size_t turning_samples, ShapeMethod method) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (turning_samples < 4) {
    return Status::InvalidArgument("turning_samples must be >= 4");
  }
  // Scaled() and Translated() build polygons without Polygon::Create's
  // check, so a non-finite target can reach here.
  FUZZYDB_RETURN_NOT_OK(ValidateFinite(target.vertices()));

  // The target's half of each comparison is computed once per query: its
  // centred, doubled turning function, or its Hu moments. The images' half
  // of a turning comparison comes from the store's table of centred
  // functions, or from a table of this query's own when it asks for another
  // sample count.
  std::optional<TurningTarget> target_turning;
  std::optional<TurningTable> local_table;
  const TurningTable* table = &store->turning_table();
  std::vector<double> row;
  HuMoments target_hu{};
  if (method == ShapeMethod::kTurningFunction) {
    target_turning.emplace(TurningFunction(target, turning_samples));
    if (table->samples() != turning_samples) {
      local_table.emplace(turning_samples);
      for (const ImageRecord& rec : store->images()) {
        local_table->Add(rec.shape);
      }
      table = &*local_table;
    }
    row.resize(turning_samples);
  } else if (method == ShapeMethod::kHuMoments) {
    target_hu = ComputeHuMoments(target);
  }
  std::vector<double> grades(store->size());
  for (size_t i = 0; i < store->size(); ++i) {
    const Polygon& shape = store->image(i).shape;
    double d = 0.0;
    switch (method) {
      case ShapeMethod::kTurningFunction:
        table->Expand(i, row.data());
        d = target_turning->DistanceFromCentred(row.data());
        break;
      case ShapeMethod::kHuMoments:
        d = HuMomentDistance(ComputeHuMoments(shape), target_hu);
        break;
      case ShapeMethod::kHausdorff:
        d = HausdorffShapeDistance(shape, target, turning_samples);
        break;
    }
    // Finite but huge coordinates overflow the Hu moments to NaN, which
    // would make the grade sort undefined.
    if (std::isnan(d)) {
      return Status::InvalidArgument("shape distance to the target is NaN");
    }
    grades[i] = ShapeGradeFromDistance(d);
  }
  QbicShapeSource src;
  src.Materialize(std::move(label), FirstId(*store), std::move(grades));
  return src;
}

}  // namespace fuzzydb
