// A synthetic image repository — the QBIC-shaped substrate. The paper's
// experiments ran over real image collections; we generate images with the
// same feature structure (color histograms over a palette + polygonal
// shapes), which exercises identical code paths (see DESIGN.md,
// Substitutions).

#ifndef FUZZYDB_IMAGE_IMAGE_STORE_H_
#define FUZZYDB_IMAGE_IMAGE_STORE_H_

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/graded_set.h"
#include "image/color.h"
#include "image/embedding_store.h"
#include "image/quadratic_distance.h"
#include "image/shape.h"
#include "image/texture.h"

namespace fuzzydb {

/// The QBIC color grade map: 1 - distance / max_distance, clamped to [0,1].
/// A free function so every color source — batch-graded (qbic_source) or
/// index-driven (rtree_source) — applies the *identical* arithmetic and
/// equal distances always map to bit-equal grades.
inline double GradeFromDistance(double distance, double max_distance) {
  double g = 1.0 - distance / max_distance;
  return std::clamp(g, 0.0, 1.0);
}

/// One synthetic image: its extracted features.
struct ImageRecord {
  ObjectId id = 0;
  Histogram histogram;
  Polygon shape = Polygon::Regular(3);
  TextureFeatures texture;
};

/// Generation knobs for a synthetic collection.
struct ImageStoreOptions {
  size_t num_images = 1000;
  size_t palette_size = 64;
  size_t histogram_peaks = 3;
  double histogram_noise = 0.1;
  size_t min_shape_vertices = 3;
  size_t max_shape_vertices = 12;
  /// Side of the procedural texture patch features are extracted from.
  size_t texture_patch_side = 32;
  uint64_t seed = 7;
  ObjectId first_id = 1;
};

/// The palette-level machinery of a streamed generation run: everything
/// about the collection that is not per-image state. Callers keep this to
/// embed query targets against the streamed rows later.
struct StreamedCollection {
  Palette palette;
  QuadraticFormDistance qfd;
  size_t count = 0;
};

/// An immutable collection of synthetic images plus the distance machinery
/// for its palette.
class ImageStore {
 public:
  /// Generates the collection deterministically from `options.seed`.
  static Result<ImageStore> Generate(const ImageStoreOptions& options);

  /// The streaming generate-embed path: produces the same records and
  /// embeddings as Generate() (same seed, same rng call order, bit-equal
  /// rows), but hands each (record, embedding) to `emit` one at a time and
  /// keeps nothing — peak memory is one record plus one embedding row, for
  /// any collection size. Both backends ride this: Generate() emits into
  /// the RAM store, the column-file ingester (src/storage) emits straight
  /// to disk. A non-OK status from `emit` aborts generation and is
  /// returned. The embedding span is only valid during the call.
  static Result<StreamedCollection> GenerateStreaming(
      const ImageStoreOptions& options,
      const std::function<Status(const ImageRecord& record,
                                 std::span<const double> embedding)>& emit);

  size_t size() const { return images_.size(); }
  const std::vector<ImageRecord>& images() const { return images_; }
  const ImageRecord& image(size_t i) const { return images_[i]; }

  /// The image with the given id, or NotFound.
  Result<const ImageRecord*> Find(ObjectId id) const;

  const Palette& palette() const { return palette_; }
  const QuadraticFormDistance& color_distance() const { return qfd_; }

  /// The eigen-space embeddings of all image histograms, projected once at
  /// generation time (row i embeds image(i).histogram). Batched and
  /// cascaded color searches run over this buffer in O(bins) per pair.
  const EmbeddingStore& embeddings() const { return embeddings_; }

  /// The centred turning functions of all image shapes at 64 samples, the
  /// default of QbicShapeSource, built once at generation time (entry i is
  /// image(i).shape's).
  const TurningTable& turning_table() const { return turning_table_; }

  /// Color grade in [0,1] of histogram `x` against a target histogram:
  /// 1 - d(x, t) / MaxDistance().
  double ColorGrade(const Histogram& x, const Histogram& target) const;

  /// The same grade map applied to an already-computed color distance
  /// (e.g. from the embedding kernels).
  double ColorGradeFromDistance(double distance) const;

 private:
  ImageStore() = default;
  std::vector<ImageRecord> images_;
  Palette palette_;
  QuadraticFormDistance qfd_;
  EmbeddingStore embeddings_;
  TurningTable turning_table_{64};
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_IMAGE_STORE_H_
