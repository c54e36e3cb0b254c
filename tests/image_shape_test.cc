#include "image/shape.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "tests/shape_reference.h"

namespace fuzzydb {
namespace {

using shape_reference::RefTurningDistance;
using shape_reference::RefTurningFunction;
using shape_reference::SameBits;

TEST(PolygonTest, CreateValidatesAndNormalizesOrientation) {
  EXPECT_FALSE(Polygon::Create({{0, 0}, {1, 0}}).ok());
  EXPECT_FALSE(Polygon::Create({{0, 0}, {1, 0}, {2, 0}}).ok());  // collinear
  // Clockwise input is reversed to CCW (positive area).
  Result<Polygon> cw = Polygon::Create({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
  ASSERT_TRUE(cw.ok());
  EXPECT_GT(cw->Area(), 0.0);
}

TEST(PolygonTest, CreateRejectsNonFiniteVertices) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Result<Polygon> x = Polygon::Create({{0, 0}, {bad, 0}, {1, 1}});
    ASSERT_FALSE(x.ok()) << bad;
    EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
    Result<Polygon> y = Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, bad}});
    ASSERT_FALSE(y.ok()) << bad;
    EXPECT_EQ(y.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PolygonTest, SquareGeometry) {
  Polygon sq = *Polygon::Create({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_DOUBLE_EQ(sq.Area(), 4.0);
  EXPECT_DOUBLE_EQ(sq.PerimeterLength(), 8.0);
  Point2 c = sq.Centroid();
  EXPECT_NEAR(c.x, 1.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0, 1e-12);
}

TEST(PolygonTest, RegularPolygonAreaConvergesToCircle) {
  // Area of a regular n-gon with circumradius 1 -> pi as n grows.
  Polygon p = Polygon::Regular(256);
  EXPECT_NEAR(p.Area(), std::numbers::pi, 1e-2);
  EXPECT_NEAR(p.PerimeterLength(), 2.0 * std::numbers::pi, 1e-2);
}

TEST(PolygonTest, TransformsBehave) {
  Polygon sq = *Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_NEAR(sq.Translated(5, -2).Area(), sq.Area(), 1e-12);
  EXPECT_NEAR(sq.Scaled(3.0).Area(), 9.0 * sq.Area(), 1e-12);
  EXPECT_NEAR(sq.Rotated(0.7).Area(), sq.Area(), 1e-12);
  Point2 c = sq.Translated(5, -2).Centroid();
  EXPECT_NEAR(c.x, 5.5, 1e-12);
  EXPECT_NEAR(c.y, -1.5, 1e-12);
}

TEST(PolygonTest, RandomStarIsValidAndBounded) {
  Rng rng(479);
  for (int i = 0; i < 30; ++i) {
    Polygon star = Polygon::RandomStar(&rng, 3 + i % 10, 0.5, 1.5);
    EXPECT_GT(star.Area(), 0.0);
    for (const Point2& v : star.vertices()) {
      EXPECT_LE(std::hypot(v.x, v.y), 1.5 + 1e-12);
      EXPECT_GE(std::hypot(v.x, v.y), 0.5 - 1e-12);
    }
  }
}

TEST(HuMomentsTest, InvariantUnderTranslationRotationAndScale) {
  Rng rng(487);
  for (int trial = 0; trial < 10; ++trial) {
    Polygon shape = Polygon::RandomStar(&rng, 9);
    HuMoments base = ComputeHuMoments(shape);
    HuMoments translated = ComputeHuMoments(shape.Translated(3.7, -1.2));
    HuMoments rotated = ComputeHuMoments(shape.Rotated(1.1));
    HuMoments scaled = ComputeHuMoments(shape.Scaled(2.5));
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_NEAR(translated[i], base[i], 1e-8) << "translate, moment " << i;
      EXPECT_NEAR(rotated[i], base[i], 1e-8) << "rotate, moment " << i;
      EXPECT_NEAR(scaled[i], base[i], 1e-8) << "scale, moment " << i;
    }
  }
}

TEST(HuMomentsTest, FirstMomentOfKnownShapes) {
  // For a disk, I1 = η20 + η02 = 1/(2π) ≈ 0.159; the 64-gon approximates it.
  HuMoments disk = ComputeHuMoments(Polygon::Regular(64));
  EXPECT_NEAR(disk[0], 1.0 / (2.0 * std::numbers::pi), 1e-3);
  // For a square, I1 = 1/6.
  HuMoments square =
      ComputeHuMoments(*Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}}));
  EXPECT_NEAR(square[0], 1.0 / 6.0, 1e-12);
}

TEST(HuMomentDistanceTest, DiscriminatesShapes) {
  HuMoments square =
      ComputeHuMoments(*Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}}));
  HuMoments thin_rect =
      ComputeHuMoments(*Polygon::Create({{0, 0}, {8, 0}, {8, 1}, {0, 1}}));
  HuMoments rotated_square = ComputeHuMoments(
      Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}})->Rotated(0.9));
  EXPECT_LT(HuMomentDistance(square, rotated_square), 1e-6);
  EXPECT_GT(HuMomentDistance(square, thin_rect), 0.1);
}

TEST(TurningFunctionTest, SquareHasQuarterTurns) {
  Polygon sq = *Polygon::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  std::vector<double> tf = TurningFunction(sq, 64);
  ASSERT_EQ(tf.size(), 64u);
  // Values must be multiples of pi/2 and non-decreasing for a convex CCW
  // polygon.
  for (size_t i = 0; i < tf.size(); ++i) {
    double quarter = tf[i] / (std::numbers::pi / 2.0);
    EXPECT_NEAR(quarter, std::round(quarter), 1e-9);
    if (i > 0) {
      EXPECT_GE(tf[i], tf[i - 1] - 1e-12);
    }
  }
  // Total turning over the traversed samples spans 3 quarter turns (the
  // final quarter closes the loop after the last sample).
  EXPECT_NEAR(tf.back() - tf.front(), 3.0 * std::numbers::pi / 2.0, 1e-9);
}

TEST(TurningDistanceTest, InvariantUnderRotationAndScale) {
  Rng rng(491);
  for (int trial = 0; trial < 10; ++trial) {
    Polygon shape = Polygon::RandomStar(&rng, 8);
    std::vector<double> base = TurningFunction(shape, 64);
    std::vector<double> rotated = TurningFunction(shape.Rotated(0.8), 64);
    std::vector<double> scaled = TurningFunction(shape.Scaled(3.0), 64);
    EXPECT_NEAR(TurningDistance(base, rotated), 0.0, 1e-9);
    EXPECT_NEAR(TurningDistance(base, scaled), 0.0, 1e-9);
  }
}

TEST(TurningDistanceTest, DiscriminatesShapeFamilies) {
  std::vector<double> tri = TurningFunction(Polygon::Regular(3), 64);
  std::vector<double> hex = TurningFunction(Polygon::Regular(6), 64);
  std::vector<double> tri2 =
      TurningFunction(Polygon::Regular(3, 2.5).Rotated(1.0), 64);
  EXPECT_LT(TurningDistance(tri, tri2), 1e-9);
  EXPECT_GT(TurningDistance(tri, hex), 0.1);
}

// Goldens: the one-atan2-per-edge TurningFunction and the centred,
// wrap-free, early-abandoning shift search equal the reference routines of
// shape_reference.h bit for bit.

TEST(TurningGoldenTest, RandomStarsMatchReferenceBitForBit) {
  Rng rng(2027);
  std::vector<Polygon> shapes;
  for (size_t i = 0; i < 2000; ++i) {
    shapes.push_back(Polygon::RandomStar(&rng, 3 + i % 10));
  }
  for (size_t samples : {4u, 5u, 64u, 101u}) {
    std::vector<std::vector<double>> functions;
    for (const Polygon& shape : shapes) {
      std::vector<double> tf = TurningFunction(shape, samples);
      ASSERT_TRUE(SameBits(tf, RefTurningFunction(shape, samples)))
          << "samples " << samples << ", " << shape.size() << " vertices";
      functions.push_back(std::move(tf));
    }
    const TurningTarget target(functions[0]);
    for (size_t i = 1; i < functions.size(); ++i) {
      const std::vector<double>& a = functions[i];
      const std::vector<double>& b = functions[i - 1];
      ASSERT_TRUE(
          SameBits(TurningDistance(a, b), RefTurningDistance(a, b)))
          << "samples " << samples << ", pair " << i;
      ASSERT_TRUE(SameBits(target.DistanceFrom(a),
                           RefTurningDistance(a, functions[0])))
          << "samples " << samples << ", target vs " << i;
    }
  }
}

TEST(TurningGoldenTest, IdenticalShapesAbandonEveryLaterShift) {
  // Shift 0 sums to exactly 0, so every later shift stops at its first term.
  Rng rng(2029);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> tf =
        TurningFunction(Polygon::RandomStar(&rng, 3 + trial % 10), 64);
    EXPECT_TRUE(SameBits(TurningDistance(tf, tf), RefTurningDistance(tf, tf)));
    EXPECT_TRUE(SameBits(TurningDistance(tf, tf), 0.0));
  }
}

TEST(TurningGoldenTest, RotatedAndScaledCopiesMatchReference) {
  Rng rng(2039);
  for (int trial = 0; trial < 50; ++trial) {
    Polygon shape = Polygon::RandomStar(&rng, 3 + trial % 10);
    for (const Polygon& copy :
         {shape.Rotated(0.3 * trial), shape.Scaled(0.5 + trial),
          shape.Translated(trial, -trial)}) {
      for (size_t samples : {5u, 64u}) {
        std::vector<double> a = TurningFunction(shape, samples);
        std::vector<double> b = TurningFunction(copy, samples);
        ASSERT_TRUE(SameBits(b, RefTurningFunction(copy, samples)));
        EXPECT_TRUE(
            SameBits(TurningDistance(a, b), RefTurningDistance(a, b)));
        EXPECT_TRUE(
            SameBits(TurningDistance(b, a), RefTurningDistance(b, a)));
      }
    }
  }
}

TEST(TurningGoldenTest, RegularPolygonsWithManyTiedShiftsMatchReference) {
  for (size_t n = 3; n <= 24; ++n) {
    const Polygon regular = Polygon::Regular(n, 1.0 + 0.1 * n);
    for (size_t samples : {4u, 5u, 64u, 101u}) {
      std::vector<double> tf = TurningFunction(regular, samples);
      ASSERT_TRUE(SameBits(tf, RefTurningFunction(regular, samples)));
      std::vector<double> other =
          TurningFunction(Polygon::Regular(n + 1).Rotated(0.2), samples);
      EXPECT_TRUE(SameBits(TurningDistance(tf, other),
                           RefTurningDistance(tf, other)));
      EXPECT_TRUE(
          SameBits(TurningDistance(tf, tf), RefTurningDistance(tf, tf)));
    }
  }
}

TEST(TurningGoldenTest, RepeatedVertexMatchesReference) {
  // A repeated vertex is a zero-length edge: atan2(0, 0) gives its
  // direction, and it never holds a sample.
  const Polygon repeated =
      *Polygon::Create({{0, 0}, {2, 0}, {2, 0}, {2, 1}, {1, 2}, {0, 1}});
  const Polygon plain =
      *Polygon::Create({{0, 0}, {2, 0}, {2, 1}, {1, 2}, {0, 1}});
  for (size_t samples : {4u, 5u, 64u, 101u}) {
    std::vector<double> a = TurningFunction(repeated, samples);
    std::vector<double> b = TurningFunction(plain, samples);
    ASSERT_TRUE(SameBits(a, RefTurningFunction(repeated, samples)));
    EXPECT_TRUE(SameBits(TurningDistance(a, b), RefTurningDistance(a, b)));
    EXPECT_TRUE(SameBits(TurningDistance(b, a), RefTurningDistance(b, a)));
  }
}

// The paired shift search over a centred operand equals the reference at
// sample counts that exercise a last shift paired with itself (odd n) and a
// tail of terms after the 4-term blocks (n % 4 != 0).
TEST(TurningGoldenTest, DistanceFromCentredMatchesReference) {
  Rng rng(2053);
  for (size_t n : {4u, 5u, 6u, 7u, 63u, 64u, 65u}) {
    std::vector<Polygon> shapes;
    for (size_t i = 0; i < 200; ++i) {
      shapes.push_back(Polygon::RandomStar(&rng, 3 + i % 10));
    }
    for (size_t v = 3; v <= 12; ++v) {
      shapes.push_back(Polygon::Regular(v, 1.0 + 0.1 * v));
    }
    for (size_t t = 0; t < shapes.size(); t += 23) {
      const std::vector<double> b = TurningFunction(shapes[t], n);
      const TurningTarget target(b);
      for (const Polygon& shape : shapes) {
        const std::vector<double> a = TurningFunction(shape, n);
        std::vector<double> centred = a;
        Centre(centred);
        ASSERT_TRUE(SameBits(target.DistanceFromCentred(centred.data()),
                             RefTurningDistance(a, b)))
            << "n " << n << ", target " << t;
      }
    }
    // A noisy copy of b rotated by r samples is closest at shift r, so
    // every shift wins once: the first and second of a pair, and the last
    // one of an odd n.
    std::vector<double> b(n);
    for (double& x : b) x = 6.0 * rng.NextDouble();
    const TurningTarget target(b);
    for (size_t r = 0; r < n; ++r) {
      std::vector<double> a(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = b[(i + r) % n] + 1e-3 * rng.NextDouble();
      }
      std::vector<double> centred = a;
      Centre(centred);
      ASSERT_TRUE(SameBits(target.DistanceFromCentred(centred.data()),
                           RefTurningDistance(a, b)))
          << "n " << n << ", rotation " << r;
    }
  }
}

TEST(TurningTableTest, ExpandMatchesCentredTurningFunction) {
  Rng rng(2063);
  std::vector<Polygon> shapes;
  for (size_t i = 0; i < 300; ++i) {
    shapes.push_back(Polygon::RandomStar(&rng, 3 + i % 10));
  }
  for (size_t v = 3; v <= 24; ++v) shapes.push_back(Polygon::Regular(v));
  // A zero-length edge never holds a sample.
  shapes.push_back(
      *Polygon::Create({{0, 0}, {2, 0}, {2, 0}, {2, 1}, {1, 2}, {0, 1}}));
  for (size_t samples : {4u, 5u, 64u, 101u}) {
    TurningTable table(samples);
    for (const Polygon& shape : shapes) table.Add(shape);
    ASSERT_EQ(table.size(), shapes.size());
    EXPECT_EQ(table.samples(), samples);
    std::vector<double> out(samples);
    for (size_t i = 0; i < shapes.size(); ++i) {
      std::vector<double> want = TurningFunction(shapes[i], samples);
      Centre(want);
      table.Expand(i, out.data());
      ASSERT_TRUE(SameBits(out, want)) << "samples " << samples << ", " << i;
    }
    // A polygon of v vertices has at most v distinct turning values.
    EXPECT_LE(table.runs(), 24 * shapes.size());
  }
}

TEST(TurningTableTest, RunsSplitOnBitsAndLength) {
  // -0.0 == 0.0, but a run holds one bit pattern, so they stay apart.
  TurningTable table(6);
  const std::vector<double> zeros = {0.0, -0.0, -0.0, 0.0, 0.0, 1.5};
  table.AddCentred(zeros);
  EXPECT_EQ(table.runs(), 4u);
  std::vector<double> out(6);
  table.Expand(0, out.data());
  EXPECT_TRUE(SameBits(out, zeros));

  // A run longer than 16 bits can count is stored as several.
  const size_t long_n = 70000;
  TurningTable long_table(long_n);
  std::vector<double> flat(long_n, 0.25);
  flat.back() = -0.25;
  long_table.AddCentred(flat);
  long_table.AddCentred(std::vector<double>(long_n, 0.5));
  EXPECT_EQ(long_table.runs(), 5u);
  std::vector<double> long_out(long_n);
  long_table.Expand(0, long_out.data());
  EXPECT_TRUE(SameBits(long_out, flat));
  long_table.Expand(1, long_out.data());
  EXPECT_TRUE(SameBits(long_out, std::vector<double>(long_n, 0.5)));
}

TEST(SampleBoundaryTest, PointsLieOnThePolygonBoundary) {
  Polygon sq = *Polygon::Create({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  std::vector<Point2> pts = SampleBoundary(sq, 40);
  ASSERT_EQ(pts.size(), 40u);
  for (const Point2& p : pts) {
    // On the unit square's boundary: one coordinate is 0 or 2.
    bool on_edge = std::fabs(p.x) < 1e-9 || std::fabs(p.x - 2.0) < 1e-9 ||
                   std::fabs(p.y) < 1e-9 || std::fabs(p.y - 2.0) < 1e-9;
    EXPECT_TRUE(on_edge) << "(" << p.x << "," << p.y << ")";
  }
  // Equal arc spacing: 10 points per side of the square.
  EXPECT_NEAR(pts[0].x, 0.0, 1e-12);
  EXPECT_NEAR(pts[0].y, 0.0, 1e-12);
}

TEST(HausdorffTest, MetricBasicsOnPointSets) {
  std::vector<Point2> a{{0, 0}, {1, 0}};
  std::vector<Point2> b{{0, 0}, {1, 0}, {0, 3}};
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, b), HausdorffDistance(b, a));
  // The far point {0,3} dominates: its nearest in `a` is {0,0} at 3.
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, b), 3.0);
}

TEST(HausdorffShapeDistanceTest, TranslationInvariantOnly) {
  Rng rng(1409);
  Polygon shape = Polygon::RandomStar(&rng, 8);
  EXPECT_NEAR(HausdorffShapeDistance(shape, shape.Translated(7, -3)), 0.0,
              1e-9);
  // Scaling changes it (unlike turning functions).
  EXPECT_GT(HausdorffShapeDistance(shape, shape.Scaled(2.0)), 0.1);
  // Similar shapes are closer than dissimilar ones.
  Polygon near_copy = shape.Translated(0.01, 0.0);
  Polygon other = Polygon::RandomStar(&rng, 8);
  EXPECT_LE(HausdorffShapeDistance(shape, near_copy),
            HausdorffShapeDistance(shape, other));
}

TEST(ShapeGradeTest, MapsDistanceToUnitInterval) {
  EXPECT_DOUBLE_EQ(ShapeGradeFromDistance(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ShapeGradeFromDistance(1.0), 0.5);
  EXPECT_GT(ShapeGradeFromDistance(0.1), ShapeGradeFromDistance(0.2));
  EXPECT_GT(ShapeGradeFromDistance(100.0), 0.0);
}

}  // namespace
}  // namespace fuzzydb
