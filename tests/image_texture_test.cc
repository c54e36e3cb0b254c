#include "image/texture.h"

#include <gtest/gtest.h>

#include <limits>
#include <numbers>

#include "image/image_store.h"
#include "image/qbic_source.h"

namespace fuzzydb {
namespace {

TexturePatch Make(const TextureParams& params, uint64_t seed = 900) {
  Rng rng(seed);
  Result<TexturePatch> p = SynthesizeTexture(params, 32, &rng);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(SynthesizeTextureTest, ValidatesAndStaysInRange) {
  Rng rng(901);
  EXPECT_FALSE(SynthesizeTexture(TextureParams{}, 4, &rng).ok());
  EXPECT_FALSE(SynthesizeTexture(TextureParams{}, 32, nullptr).ok());
  TexturePatch p = Make(TextureParams{});
  EXPECT_EQ(p.pixels.size(), 32u * 32u);
  for (double v : p.pixels) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(ComputeTextureFeaturesTest, ValidatesInput) {
  TexturePatch bad;
  bad.side = 32;
  bad.pixels.resize(10);
  EXPECT_FALSE(ComputeTextureFeatures(bad).ok());
  bad.side = 4;
  bad.pixels.resize(16);
  EXPECT_FALSE(ComputeTextureFeatures(bad).ok());
}

TEST(ComputeTextureFeaturesTest, FeaturesInUnitRange) {
  Rng rng(907);
  for (int i = 0; i < 20; ++i) {
    TexturePatch p = Make(RandomTextureParams(&rng), 907 + i);
    Result<TextureFeatures> f = ComputeTextureFeatures(p);
    ASSERT_TRUE(f.ok());
    EXPECT_GE(f->coarseness, 0.0);
    EXPECT_LE(f->coarseness, 1.0);
    EXPECT_GE(f->contrast, 0.0);
    EXPECT_LE(f->contrast, 1.0);
    EXPECT_GE(f->directionality, 0.0);
    EXPECT_LE(f->directionality, 1.0);
  }
}

TEST(ComputeTextureFeaturesTest, ContrastTracksAmplitude) {
  TextureParams lo, hi;
  lo.amplitude = 0.1;
  hi.amplitude = 0.9;
  lo.noise = hi.noise = 0.0;
  TextureFeatures flo = *ComputeTextureFeatures(Make(lo));
  TextureFeatures fhi = *ComputeTextureFeatures(Make(hi));
  EXPECT_GT(fhi.contrast, flo.contrast + 0.1);
}

TEST(ComputeTextureFeaturesTest, CoarsenessTracksFrequency) {
  TextureParams coarse, fine;
  coarse.frequency = 1.5;
  fine.frequency = 14.0;
  coarse.noise = fine.noise = 0.0;
  TextureFeatures fc = *ComputeTextureFeatures(Make(coarse));
  TextureFeatures ff = *ComputeTextureFeatures(Make(fine));
  EXPECT_GT(fc.coarseness, ff.coarseness);
}

TEST(ComputeTextureFeaturesTest, NoiseDestroysDirectionality) {
  TextureParams clean, noisy;
  clean.noise = 0.0;
  noisy.noise = 1.0;
  noisy.amplitude = 0.05;  // barely any grating left
  TextureFeatures f_clean = *ComputeTextureFeatures(Make(clean));
  TextureFeatures f_noisy = *ComputeTextureFeatures(Make(noisy));
  EXPECT_GT(f_clean.directionality, 0.5);
  EXPECT_LT(f_noisy.directionality, f_clean.directionality);
}

TEST(ComputeTextureFeaturesTest, FlatPatchIsFeaturelessAndSafe) {
  TexturePatch flat;
  flat.side = 16;
  flat.pixels.assign(256, 0.5);
  Result<TextureFeatures> f = ComputeTextureFeatures(flat);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->contrast, 0.0);
  EXPECT_DOUBLE_EQ(f->directionality, 0.0);
}

TEST(TextureDistanceTest, MetricBasics) {
  Rng rng(911);
  TextureFeatures a = *ComputeTextureFeatures(Make(RandomTextureParams(&rng)));
  TextureFeatures b =
      *ComputeTextureFeatures(Make(RandomTextureParams(&rng), 912));
  EXPECT_DOUBLE_EQ(TextureDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(TextureDistance(a, b), TextureDistance(b, a));
  EXPECT_GE(TextureDistance(a, b), 0.0);
  EXPECT_DOUBLE_EQ(TextureGradeFromDistance(0.0), 1.0);
  EXPECT_LT(TextureGradeFromDistance(1.0), 1.0);
}

TEST(QbicTextureSourceTest, GradesSortedAndConsistent) {
  ImageStoreOptions options;
  options.num_images = 50;
  options.palette_size = 8;
  options.seed = 33;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  TextureFeatures target = store->image(7).texture;
  Result<QbicTextureSource> src =
      QbicTextureSource::Create(&*store, target, "Texture~probe");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src->Size(), 50u);

  // The probe image itself must rank first with grade 1.
  std::optional<GradedObject> top = src->NextSorted();
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->id, store->image(7).id);
  EXPECT_DOUBLE_EQ(top->grade, 1.0);

  double prev = 1.1;
  src->RestartSorted();
  while (auto next = src->NextSorted()) {
    EXPECT_LE(next->grade, prev + 1e-12);
    EXPECT_DOUBLE_EQ(src->RandomAccess(next->id), next->grade);
    prev = next->grade;
  }
  EXPECT_FALSE(QbicTextureSource::Create(nullptr, target).ok());
}

TEST(QbicTextureSourceTest, RejectsNonFiniteTargets) {
  // A non-finite feature would give NaN grades, which make the grade sort
  // undefined.
  ImageStoreOptions options;
  options.num_images = 20;
  options.palette_size = 8;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (int field = 0; field < 3; ++field) {
      TextureFeatures target = store->image(3).texture;
      double* slots[] = {&target.coarseness, &target.contrast,
                         &target.directionality};
      *slots[field] = bad;
      Result<QbicTextureSource> src =
          QbicTextureSource::Create(&*store, target);
      ASSERT_FALSE(src.ok()) << bad << ", field " << field;
      EXPECT_EQ(src.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(QbicTextureSourceTest, StoreGeneratesDiverseTextures) {
  ImageStoreOptions options;
  options.num_images = 40;
  options.palette_size = 8;
  options.seed = 37;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  // Features must not all be identical across images.
  bool diverse = false;
  for (size_t i = 1; i < store->size(); ++i) {
    if (TextureDistance(store->image(0).texture, store->image(i).texture) >
        0.05) {
      diverse = true;
      break;
    }
  }
  EXPECT_TRUE(diverse);
}

}  // namespace
}  // namespace fuzzydb
