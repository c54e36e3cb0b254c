#include "image/image_store.h"

#include <algorithm>

namespace fuzzydb {

Result<StreamedCollection> ImageStore::GenerateStreaming(
    const ImageStoreOptions& options,
    const std::function<Status(const ImageRecord& record,
                               std::span<const double> embedding)>& emit) {
  if (options.num_images == 0) {
    return Status::InvalidArgument("need at least one image");
  }
  if (options.palette_size < 2) {
    return Status::InvalidArgument("palette needs >= 2 colors");
  }
  if (options.min_shape_vertices < 3 ||
      options.max_shape_vertices < options.min_shape_vertices) {
    return Status::InvalidArgument("bad shape vertex bounds");
  }

  StreamedCollection out;
  Rng rng(options.seed);
  out.palette = Palette::Uniform(options.palette_size, &rng);
  Result<QuadraticFormDistance> qfd = QuadraticFormDistance::Create(out.palette);
  if (!qfd.ok()) return qfd.status();
  out.qfd = std::move(qfd).value();

  // One record and one embedding row of state, reused every iteration —
  // generation memory is O(1) in the collection size. Embedding a record
  // consumes no rng draws, so interleaving embed with generation leaves
  // the rng call order (and thus every record) identical to the old
  // generate-all-then-embed-all path.
  std::vector<double> row(options.palette_size);
  for (size_t i = 0; i < options.num_images; ++i) {
    ImageRecord rec;
    rec.id = options.first_id + i;
    rec.histogram = RandomHistogram(&rng, options.palette_size,
                                    options.histogram_peaks,
                                    options.histogram_noise);
    size_t vertices = static_cast<size_t>(
        rng.NextInt(static_cast<int64_t>(options.min_shape_vertices),
                    static_cast<int64_t>(options.max_shape_vertices)));
    rec.shape = Polygon::RandomStar(&rng, vertices);
    Result<TexturePatch> patch = SynthesizeTexture(
        RandomTextureParams(&rng), options.texture_patch_side, &rng);
    if (!patch.ok()) return patch.status();
    Result<TextureFeatures> features = ComputeTextureFeatures(*patch);
    if (!features.ok()) return features.status();
    rec.texture = *features;
    // Ingest-time embedding: O(bins^2) once per image, so every later
    // color distance against this collection is O(bins).
    out.qfd.EmbedInto(rec.histogram, row);
    FUZZYDB_RETURN_NOT_OK(emit(rec, row));
    ++out.count;
  }
  return out;
}

Result<ImageStore> ImageStore::Generate(const ImageStoreOptions& options) {
  ImageStore store;
  store.images_.reserve(options.num_images);
  store.embeddings_ = EmbeddingStore(options.num_images, options.palette_size);
  Result<StreamedCollection> streamed = GenerateStreaming(
      options, [&store](const ImageRecord& rec,
                        std::span<const double> embedding) {
        const size_t i = store.images_.size();
        store.images_.push_back(rec);
        store.turning_table_.Add(rec.shape);
        store.embeddings_.SetRow(i, embedding);
        return Status::OK();
      });
  if (!streamed.ok()) return streamed.status();
  store.palette_ = std::move(streamed->palette);
  store.qfd_ = std::move(streamed->qfd);
  store.turning_table_.ShrinkToFit();
  // The int8 level −1 companion (DESIGN §3g), built once per collection so
  // every cascade over these rows can order its walk by the 1-byte codes.
  store.embeddings_.BuildQuantized();
  return store;
}

Result<const ImageRecord*> ImageStore::Find(ObjectId id) const {
  // Ids are assigned contiguously from first_id.
  if (images_.empty()) return Status::NotFound("empty store");
  ObjectId first = images_.front().id;
  if (id < first || id >= first + images_.size()) {
    return Status::NotFound("no image with that id");
  }
  return &images_[id - first];
}

double ImageStore::ColorGrade(const Histogram& x,
                              const Histogram& target) const {
  return ColorGradeFromDistance(qfd_.Distance(x, target));
}

double ImageStore::ColorGradeFromDistance(double distance) const {
  return GradeFromDistance(distance, qfd_.MaxDistance());
}

}  // namespace fuzzydb
