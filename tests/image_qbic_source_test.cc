#include "image/qbic_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "middleware/fagin.h"
#include "middleware/naive.h"
#include "tests/shape_reference.h"

namespace fuzzydb {
namespace {

class QbicSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImageStoreOptions options;
    options.num_images = 80;
    options.palette_size = 27;
    options.seed = 7;
    Result<ImageStore> store = ImageStore::Generate(options);
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<ImageStore>(std::move(*store));
  }

  std::unique_ptr<ImageStore> store_;
};

TEST_F(QbicSourceTest, ColorSourceSortedOrderMatchesGrades) {
  Histogram target = TargetHistogram(store_->palette(), {1.0, 0.1, 0.1});
  Result<QbicColorSource> src =
      QbicColorSource::Create(store_.get(), target, "Color~red");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src->Size(), 80u);
  EXPECT_EQ(src->name(), "Color~red");

  double prev = 1.1;
  size_t count = 0;
  while (auto next = src->NextSorted()) {
    EXPECT_LE(next->grade, prev + 1e-12);
    EXPECT_DOUBLE_EQ(src->RandomAccess(next->id), next->grade);
    prev = next->grade;
    ++count;
  }
  EXPECT_EQ(count, 80u);
}

TEST_F(QbicSourceTest, ColorSourceValidatesTarget) {
  EXPECT_FALSE(QbicColorSource::Create(nullptr, Histogram{1.0}).ok());
  EXPECT_FALSE(
      QbicColorSource::Create(store_.get(), Histogram{0.5, 0.5}).ok());
  Histogram bad(27, 0.0);  // zero mass
  EXPECT_FALSE(QbicColorSource::Create(store_.get(), bad).ok());
  // A NaN bin passes both the sign and the mass comparison, and NaN grades
  // would make the grade sort undefined.
  Histogram nan_bin(27, 0.0);
  nan_bin[0] = 1.0;
  nan_bin[5] = std::numeric_limits<double>::quiet_NaN();
  Result<QbicColorSource> src = QbicColorSource::Create(store_.get(), nan_bin);
  ASSERT_FALSE(src.ok());
  EXPECT_EQ(src.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QbicSourceTest, SelfQueryRanksTheQueryImageFirst) {
  const ImageRecord& probe = store_->image(13);
  Result<QbicColorSource> src =
      QbicColorSource::Create(store_.get(), probe.histogram);
  ASSERT_TRUE(src.ok());
  std::optional<GradedObject> top = src->NextSorted();
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->id, probe.id);
  EXPECT_NEAR(top->grade, 1.0, 1e-9);
}

TEST_F(QbicSourceTest, ShapeSourceGradesByTurningDistance) {
  Polygon target = Polygon::Regular(6);
  Result<QbicShapeSource> src =
      QbicShapeSource::Create(store_.get(), target, "Shape~hex");
  ASSERT_TRUE(src.ok());
  double prev = 1.1;
  while (auto next = src->NextSorted()) {
    EXPECT_LE(next->grade, prev + 1e-12);
    EXPECT_GT(next->grade, 0.0);
    EXPECT_LE(next->grade, 1.0);
    prev = next->grade;
  }
  EXPECT_FALSE(QbicShapeSource::Create(nullptr, target).ok());
  EXPECT_FALSE(QbicShapeSource::Create(store_.get(), target, "x", 2).ok());
}

TEST_F(QbicSourceTest, ShapeMethodsProduceDistinctValidRankings) {
  Polygon target = Polygon::Regular(5);
  for (ShapeMethod method :
       {ShapeMethod::kTurningFunction, ShapeMethod::kHuMoments,
        ShapeMethod::kHausdorff}) {
    Result<QbicShapeSource> src = QbicShapeSource::Create(
        store_.get(), target, "Shape", 64, method);
    ASSERT_TRUE(src.ok());
    double prev = 1.1;
    size_t count = 0;
    while (auto next = src->NextSorted()) {
      EXPECT_LE(next->grade, prev + 1e-12);
      EXPECT_GT(next->grade, 0.0);
      prev = next->grade;
      ++count;
    }
    EXPECT_EQ(count, store_->size());
  }
  // The three methods rank differently in general (they are invariant to
  // different transform groups), so at least two top answers must differ
  // across methods for a generic target.
  Result<QbicShapeSource> turning = QbicShapeSource::Create(
      store_.get(), target, "t", 64, ShapeMethod::kTurningFunction);
  Result<QbicShapeSource> hausdorff = QbicShapeSource::Create(
      store_.get(), target, "h", 64, ShapeMethod::kHausdorff);
  ASSERT_TRUE(turning.ok() && hausdorff.ok());
  EXPECT_NE(turning->NextSorted()->id, hausdorff->NextSorted()->id);
}

TEST_F(QbicSourceTest, ShapeSourceRejectsNonFiniteTargets) {
  // Scaled and Translated skip Polygon::Create's check, so the source checks
  // the target itself, under every method.
  const Polygon square = *Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  const double inf = std::numeric_limits<double>::infinity();
  const Polygon nan_target =
      square.Scaled(std::numeric_limits<double>::quiet_NaN());
  const Polygon pos_inf_target = square.Translated(inf, 0.0);
  const Polygon neg_inf_target = square.Translated(0.0, -inf);
  for (const Polygon* target : {&nan_target, &pos_inf_target,
                                &neg_inf_target}) {
    for (ShapeMethod method :
         {ShapeMethod::kTurningFunction, ShapeMethod::kHuMoments,
          ShapeMethod::kHausdorff}) {
      Result<QbicShapeSource> src =
          QbicShapeSource::Create(store_.get(), *target, "x", 64, method);
      ASSERT_FALSE(src.ok());
      EXPECT_EQ(src.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(QbicSourceTest, ShapeSourceRejectsTargetsWhoseDistanceIsNaN) {
  // Finite coordinates this large overflow the Hu moments to NaN. The
  // turning function is scale-invariant and still grades the target.
  const Polygon huge =
      Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}})->Scaled(1e100);
  Result<QbicShapeSource> hu = QbicShapeSource::Create(
      store_.get(), huge, "x", 64, ShapeMethod::kHuMoments);
  ASSERT_FALSE(hu.ok());
  EXPECT_EQ(hu.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(QbicShapeSource::Create(store_.get(), huge).ok());
}

TEST_F(QbicSourceTest, ColorAndShapeConjunctionViaFagin) {
  // The paper's (Color='red') AND (Shape='round') example on real adapters.
  Histogram red = TargetHistogram(store_->palette(), {1.0, 0.1, 0.1});
  Polygon round = Polygon::Regular(24);  // "round" = many-sided
  Result<QbicColorSource> color =
      QbicColorSource::Create(store_.get(), red, "Color~red");
  Result<QbicShapeSource> shape =
      QbicShapeSource::Create(store_.get(), round, "Shape~round");
  ASSERT_TRUE(color.ok() && shape.ok());
  std::vector<GradedSource*> sources{&*color, &*shape};
  ScoringRulePtr min = MinRule();
  Result<GradedSet> truth = NaiveAllGrades(sources, *min);
  ASSERT_TRUE(truth.ok());
  Result<TopKResult> top = FaginTopK(sources, *min, 10);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(IsValidTopK(top->items, *truth, 10));
  EXPECT_LT(top->cost.total(), 2u * 80u);  // beats streaming everything
}

TEST(QbicShapeGoldenTest, ThousandImageGradesEqualTheReference) {
  // Every grade of a 1,000-image store, and the sorted order, equal the
  // grades the pre-rewrite turning-function code gives, bit for bit.
  ImageStoreOptions options;
  options.num_images = 1000;
  options.palette_size = 27;
  options.seed = 11;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  Rng rng(61);
  for (const Polygon& target :
       {Polygon::Regular(6), Polygon::RandomStar(&rng, 9),
        store->image(17).shape.Rotated(1.3)}) {
    Result<QbicShapeSource> src = QbicShapeSource::Create(&*store, target);
    ASSERT_TRUE(src.ok());
    const std::vector<double> target_tf =
        shape_reference::RefTurningFunction(target, 64);
    std::vector<GradedObject> expected;
    for (const ImageRecord& rec : store->images()) {
      const double grade =
          ShapeGradeFromDistance(shape_reference::RefTurningDistance(
              shape_reference::RefTurningFunction(rec.shape, 64), target_tf));
      ASSERT_TRUE(shape_reference::SameBits(src->RandomAccess(rec.id), grade))
          << "image " << rec.id;
      expected.push_back({rec.id, grade});
    }
    std::sort(expected.begin(), expected.end(), GradeDescending);
    for (const GradedObject& want : expected) {
      std::optional<GradedObject> got = src->NextSorted();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->id, want.id);
      EXPECT_TRUE(shape_reference::SameBits(got->grade, want.grade));
    }
    EXPECT_FALSE(src->NextSorted().has_value());
    EXPECT_EQ(src->RandomAccess(0), 0.0);  // below first_id
    EXPECT_EQ(src->RandomAccess(options.first_id + 1000), 0.0);
  }
}

TEST(QbicShapeGoldenTest, OtherSampleCountsMatchTheReference) {
  // The store's table holds 64 samples, so these grade from a table built
  // for the query.
  ImageStoreOptions options;
  options.num_images = 200;
  options.palette_size = 27;
  options.seed = 13;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store->turning_table().samples(), 64u);
  Rng rng(67);
  for (size_t samples : {48u, 65u}) {
    for (const Polygon& target :
         {Polygon::Regular(5), Polygon::RandomStar(&rng, 7)}) {
      Result<QbicShapeSource> src =
          QbicShapeSource::Create(&*store, target, "Shape", samples);
      ASSERT_TRUE(src.ok());
      const std::vector<double> target_tf =
          shape_reference::RefTurningFunction(target, samples);
      for (const ImageRecord& rec : store->images()) {
        const double grade =
            ShapeGradeFromDistance(shape_reference::RefTurningDistance(
                shape_reference::RefTurningFunction(rec.shape, samples),
                target_tf));
        ASSERT_TRUE(
            shape_reference::SameBits(src->RandomAccess(rec.id), grade))
            << "samples " << samples << ", image " << rec.id;
      }
    }
  }
}

}  // namespace
}  // namespace fuzzydb
