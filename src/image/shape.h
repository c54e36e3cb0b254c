// Shape features (paper §2): the paper cites moment invariants [KK97, TC91]
// and turning functions [ACH+90] as shape-closeness methods. We implement
// both, computed exactly on polygons:
//   - Hu's seven moment invariants from area moments obtained with Green's
//     theorem (translation-, scale- and rotation-invariant);
//   - the turning function (cumulative tangent angle vs. normalized arc
//     length) with an L2 distance minimized over starting points.

#ifndef FUZZYDB_IMAGE_SHAPE_H_
#define FUZZYDB_IMAGE_SHAPE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace fuzzydb {

/// A 2-d point.
struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

/// A simple polygon given by its vertices in counter-clockwise order.
class Polygon {
 public:
  /// Validates >= 3 vertices, finite coordinates and nonzero area; reverses
  /// the vertex order when given clockwise so that stored polygons are
  /// always CCW.
  static Result<Polygon> Create(std::vector<Point2> vertices);

  /// A regular n-gon of circumradius `radius` centred at `center`.
  static Polygon Regular(size_t n, double radius = 1.0,
                         Point2 center = {0.0, 0.0});

  /// A star-like random polygon: `n` vertices at angles 2πi/n with radii
  /// jittered in [min_r, max_r] — the synthetic stand-in for segmented image
  /// shapes.
  static Polygon RandomStar(Rng* rng, size_t n, double min_r = 0.5,
                            double max_r = 1.5);

  const std::vector<Point2>& vertices() const { return vertices_; }
  size_t size() const { return vertices_.size(); }

  double Area() const;
  double PerimeterLength() const;
  Point2 Centroid() const;

  /// Rigid/scale transforms (returning new polygons) for invariance tests.
  Polygon Translated(double dx, double dy) const;
  Polygon Scaled(double factor) const;
  Polygon Rotated(double radians) const;

 private:
  explicit Polygon(std::vector<Point2> vertices)
      : vertices_(std::move(vertices)) {}
  std::vector<Point2> vertices_;
};

/// InvalidArgument unless every coordinate is finite. Polygon::Create
/// applies it; the transforms (Translated, Scaled, Rotated) do not, so a
/// boundary that takes an already built Polygon checks it again.
Status ValidateFinite(const std::vector<Point2>& vertices);

/// Hu's seven moment invariants of a polygon's area.
using HuMoments = std::array<double, 7>;

/// Exact area moments up to order 3 via Green's theorem, then the Hu set.
HuMoments ComputeHuMoments(const Polygon& polygon);

/// Log-scaled moment distance (the OpenCV "match shapes" style metric):
/// Σ_i | m_i(a) - m_i(b) | with m_i = -sign(I_i)·log10|I_i|; invariant
/// moments that vanish are skipped.
double HuMomentDistance(const HuMoments& a, const HuMoments& b);

/// The turning function sampled at `samples` equally spaced arc-length
/// positions: value j is the cumulative exterior angle after arc length
/// (j+0.5)/samples of the (unit-normalized) perimeter.
std::vector<double> TurningFunction(const Polygon& polygon,
                                    size_t samples = 64);

/// Subtracts the mean of `f` from every entry, the mean summed in index
/// order: the rotation normalization of TurningDistance.
void Centre(std::vector<double>& f);

/// L2 distance between turning functions, minimized over all cyclic shifts
/// of the starting point and with means subtracted (rotation invariance),
/// per [ACH+90]. Equal to TurningTarget(b).DistanceFrom(a), bit for bit.
double TurningDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

/// The second operand of TurningDistance, prepared once for many
/// comparisons: centred, and laid out twice so that every cyclic shift reads
/// one contiguous slice.
class TurningTarget {
 public:
  explicit TurningTarget(const std::vector<double>& turning);

  /// TurningDistance(a, turning), bit for bit. Takes `a` by value to centre
  /// it in place.
  double DistanceFrom(std::vector<double> a) const;

  /// The same distance from an already centred `a` of samples() values.
  /// Shifts are searched two at a time, sharing the loads of `a`. A pair is
  /// skipped when the sums of both shifts' last 4 terms reach the best full
  /// sum so far, and otherwise stops once both partial sums reach it,
  /// checked every 4 terms. That is exact: every term is >= 0 and rounded
  /// addition is monotone, so the sum of any subsequence of a shift's
  /// terms, in index order, is at most its full sum. A shift that is
  /// skipped, stops, or runs on past `best` could not have won; each full
  /// sum is accumulated term by term in index order, so it is the same
  /// double as in a one-shift search; and the minimum does not depend on
  /// the order of shifts.
  double DistanceFromCentred(const double* a) const;

  size_t samples() const { return twice_.size() / 2; }

 private:
  std::vector<double> twice_;  // centred target, then the same n again
};

/// The centred turning functions, Centre(TurningFunction(p, samples)), of
/// many polygons at one sample count, stored as runs of bitwise-equal values
/// in flat arrays: a turning function is a step function, so a polygon of v
/// vertices needs about v runs instead of `samples` doubles.
class TurningTable {
 public:
  explicit TurningTable(size_t samples) : samples_(samples) {}

  /// Appends Centre(TurningFunction(polygon, samples())).
  void Add(const Polygon& polygon);
  /// Appends samples() already centred values as they are.
  void AddCentred(const std::vector<double>& centred);
  /// Releases the spare capacity of the arrays once the table is complete.
  void ShrinkToFit();

  /// Writes entry i's samples() values to `out`, bit for bit as added.
  void Expand(size_t i, double* out) const;

  size_t size() const { return first_run_.size() - 1; }
  size_t samples() const { return samples_; }
  size_t runs() const { return run_values_.size(); }

 private:
  size_t samples_;
  std::vector<double> run_values_;
  // Run lengths, 16 bits each: a run longer than 65,535 samples is stored as
  // several.
  std::vector<uint16_t> run_lengths_;
  std::vector<size_t> first_run_ = {0};  // entry i owns [first_run_[i], [i+1])
};

/// Boundary points sampled at `samples` equally spaced arc-length positions
/// (the discrete contour used by the Hausdorff comparison).
std::vector<Point2> SampleBoundary(const Polygon& polygon,
                                   size_t samples = 64);

/// Symmetric discrete Hausdorff distance between two point sets:
/// max( max_a min_b |a-b| , max_b min_a |a-b| ). [HRK92] compares images
/// under translation; translation invariance here comes from centering both
/// boundaries on their centroids first (see HausdorffShapeDistance).
double HausdorffDistance(const std::vector<Point2>& a,
                         const std::vector<Point2>& b);

/// Translation-invariant Hausdorff shape distance: boundaries sampled,
/// centred on their polygon centroids, then compared. NOT scale- or
/// rotation-invariant (matching [HRK92], which handles translation only).
double HausdorffShapeDistance(const Polygon& a, const Polygon& b,
                              size_t samples = 64);

/// Converts a nonnegative shape distance to a grade in (0, 1]:
/// grade = 1 / (1 + distance).
double ShapeGradeFromDistance(double distance);

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_SHAPE_H_
