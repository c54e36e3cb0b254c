// Color features for the QBIC-like subsystem (paper §2): each image carries
// a k-bin color histogram; bins are palette colors (points in the RGB cube),
// and histogram distance is the quadratic form of quadratic_distance.h.

#ifndef FUZZYDB_IMAGE_COLOR_H_
#define FUZZYDB_IMAGE_COLOR_H_

#include <array>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace fuzzydb {

/// An RGB point in [0,1]^3.
using Rgb = std::array<double, 3>;

/// Euclidean distance in RGB space.
double RgbDistance(const Rgb& a, const Rgb& b);

/// A palette: the k bin colors of a histogram space. Typical k in the paper:
/// 64, 100, or 256.
class Palette {
 public:
  /// A deterministic palette of `k` colors spread over the RGB cube
  /// (lattice positions, jittered by `rng` if provided).
  static Palette Uniform(size_t k, Rng* rng = nullptr);

  /// A palette with exactly the given colors (e.g. degenerate or
  /// adversarial geometries in tests). Fails on an empty list.
  static Result<Palette> FromColors(std::vector<Rgb> colors);

  size_t size() const { return colors_.size(); }
  const Rgb& color(size_t i) const { return colors_[i]; }

  /// Index of the palette color nearest to `rgb`.
  size_t Nearest(const Rgb& rgb) const;

 private:
  std::vector<Rgb> colors_;
};

/// A normalized k-bin color histogram (entries >= 0 summing to 1).
using Histogram = std::vector<double>;

/// Validates finite bins, non-negativity and unit mass.
Status ValidateHistogram(const Histogram& h, double tol = 1e-9);

/// Renormalizes to unit mass; fails on negative entries or zero mass.
Result<Histogram> NormalizeHistogram(Histogram h);

/// The average color µ(h) = Σ h_i * palette_i — the classic 3-d summary
/// vector of the distance-bounding strategy [HSE+95].
Rgb AverageColor(const Palette& palette, const Histogram& h);

/// A random histogram concentrated around `peaks` randomly chosen palette
/// colors with `noise` mass spread uniformly — synthetic stand-in for real
/// image histograms (same code path, controllable structure).
Histogram RandomHistogram(Rng* rng, size_t k, size_t peaks = 3,
                          double noise = 0.1);

/// A histogram fully concentrated on the bin nearest to `rgb` with
/// `spread` mass diffused to nearby bins — used to build query targets like
/// "red".
Histogram TargetHistogram(const Palette& palette, const Rgb& rgb,
                          double spread = 0.2);

/// Bin-wise L1 distance Σ|x_i - y_i| in [0, 2]. Cheap but blind to
/// cross-bin color similarity — mass moving to a *nearby* color costs as
/// much as moving to an opposite one, the defect the quadratic form
/// (paper formula (1)) fixes.
double HistogramL1Distance(const Histogram& x, const Histogram& y);

/// Swain–Ballard histogram intersection Σ min(x_i, y_i) in [0, 1]
/// (1 = identical); equals 1 - L1/2 for unit-mass histograms.
double HistogramIntersection(const Histogram& x, const Histogram& y);

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_COLOR_H_
