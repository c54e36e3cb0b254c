// Graded-source adapters for the image substrate: the "QBIC side" of the
// paper's running example. Each adapter answers one atomic similarity query
// (Color ~ target, Shape ~ target) through the middleware's sorted/random
// access interface.

#ifndef FUZZYDB_IMAGE_QBIC_SOURCE_H_
#define FUZZYDB_IMAGE_QBIC_SOURCE_H_

#include <string>

#include "image/image_store.h"
#include "middleware/materialized_source.h"

namespace fuzzydb {

/// Color-similarity source: grade(x) = 1 - d(x, target)/d_max under the
/// quadratic-form distance of the store's palette.
class QbicColorSource final : public MaterializedSource {
 public:
  /// `store` must outlive the source. Grades for all images are computed at
  /// construction (the subsystem's own query evaluation); middleware access
  /// costs are counted per NextSorted/RandomAccess call, as in the paper's
  /// model.
  static Result<QbicColorSource> Create(const ImageStore* store,
                                        Histogram target,
                                        std::string label = "Color");

 private:
  QbicColorSource() = default;
};

/// Texture-similarity source: grade(x) = 1 / (1 + feature-space distance to
/// the target texture).
class QbicTextureSource final : public MaterializedSource {
 public:
  static Result<QbicTextureSource> Create(const ImageStore* store,
                                          const TextureFeatures& target,
                                          std::string label = "Texture");

 private:
  QbicTextureSource() = default;
};

/// Which of the paper's cited shape-closeness methods (§2) the shape
/// source grades with.
enum class ShapeMethod {
  kTurningFunction,  ///< [ACH+90]: rotation- and scale-invariant.
  kHuMoments,        ///< [KK97, TC91]: full similarity-transform invariance.
  kHausdorff,        ///< [HRK92]: translation-invariant only.
};

/// Shape-similarity source: grade(x) = 1 / (1 + shape distance to the
/// target shape) under the chosen method.
class QbicShapeSource final : public MaterializedSource {
 public:
  static Result<QbicShapeSource> Create(
      const ImageStore* store, const Polygon& target,
      std::string label = "Shape", size_t turning_samples = 64,
      ShapeMethod method = ShapeMethod::kTurningFunction);

 private:
  QbicShapeSource() = default;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_QBIC_SOURCE_H_
