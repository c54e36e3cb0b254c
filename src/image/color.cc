#include "image/color.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fuzzydb {

double RgbDistance(const Rgb& a, const Rgb& b) {
  double s = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

Palette Palette::Uniform(size_t k, Rng* rng) {
  assert(k >= 1);
  Palette p;
  p.colors_.reserve(k);
  // Lay colors on the smallest cubic lattice with >= k cells, then keep the
  // first k in scan order; jitter within a cell keeps colors distinct.
  size_t side = 1;
  while (side * side * side < k) ++side;
  const double cell = 1.0 / static_cast<double>(side);
  for (size_t r = 0; r < side && p.colors_.size() < k; ++r) {
    for (size_t g = 0; g < side && p.colors_.size() < k; ++g) {
      for (size_t b = 0; b < side && p.colors_.size() < k; ++b) {
        Rgb c = {(static_cast<double>(r) + 0.5) * cell,
                 (static_cast<double>(g) + 0.5) * cell,
                 (static_cast<double>(b) + 0.5) * cell};
        if (rng != nullptr) {
          for (double& ch : c) {
            ch = std::clamp(ch + (rng->NextDouble() - 0.5) * cell * 0.5, 0.0,
                            1.0);
          }
        }
        p.colors_.push_back(c);
      }
    }
  }
  return p;
}

Result<Palette> Palette::FromColors(std::vector<Rgb> colors) {
  if (colors.empty()) return Status::InvalidArgument("empty palette");
  Palette p;
  p.colors_ = std::move(colors);
  return p;
}

size_t Palette::Nearest(const Rgb& rgb) const {
  size_t best = 0;
  double best_d = RgbDistance(colors_[0], rgb);
  for (size_t i = 1; i < colors_.size(); ++i) {
    double d = RgbDistance(colors_[i], rgb);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

Status ValidateHistogram(const Histogram& h, double tol) {
  if (h.empty()) return Status::InvalidArgument("empty histogram");
  double sum = 0.0;
  for (double x : h) {
    // NaN passes both comparisons below, so it is rejected here.
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("histogram bin is not finite");
    }
    if (x < -tol) return Status::InvalidArgument("negative histogram bin");
    sum += x;
  }
  if (std::fabs(sum - 1.0) > tol) {
    return Status::InvalidArgument("histogram mass must be 1");
  }
  return Status::OK();
}

Result<Histogram> NormalizeHistogram(Histogram h) {
  if (h.empty()) return Status::InvalidArgument("empty histogram");
  double sum = 0.0;
  for (double x : h) {
    if (x < 0.0) return Status::InvalidArgument("negative histogram bin");
    sum += x;
  }
  if (sum <= 0.0) return Status::InvalidArgument("zero-mass histogram");
  for (double& x : h) x /= sum;
  return h;
}

Rgb AverageColor(const Palette& palette, const Histogram& h) {
  assert(h.size() == palette.size());
  Rgb avg = {0.0, 0.0, 0.0};
  for (size_t i = 0; i < h.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) avg[c] += h[i] * palette.color(i)[c];
  }
  return avg;
}

Histogram RandomHistogram(Rng* rng, size_t k, size_t peaks, double noise) {
  assert(k >= 1);
  peaks = std::max<size_t>(1, std::min(peaks, k));
  noise = std::clamp(noise, 0.0, 1.0);
  Histogram h(k, noise / static_cast<double>(k));
  double peak_mass = 1.0 - noise;
  // Random peak weights (normalized exponentials keep them comparable).
  std::vector<double> w(peaks);
  double wsum = 0.0;
  for (double& x : w) {
    x = -std::log(1.0 - rng->NextDouble());
    wsum += x;
  }
  for (size_t p = 0; p < peaks; ++p) {
    h[rng->NextBounded(k)] += peak_mass * w[p] / wsum;
  }
  return h;
}

double HistogramL1Distance(const Histogram& x, const Histogram& y) {
  assert(x.size() == y.size());
  double d = 0.0;
  for (size_t i = 0; i < x.size(); ++i) d += std::fabs(x[i] - y[i]);
  return d;
}

double HistogramIntersection(const Histogram& x, const Histogram& y) {
  assert(x.size() == y.size());
  double s = 0.0;
  for (size_t i = 0; i < x.size(); ++i) s += std::min(x[i], y[i]);
  return s;
}

Histogram TargetHistogram(const Palette& palette, const Rgb& rgb,
                          double spread) {
  const size_t k = palette.size();
  spread = std::clamp(spread, 0.0, 1.0);
  Histogram h(k, 0.0);
  size_t center = palette.Nearest(rgb);
  h[center] = 1.0 - spread;
  if (spread > 0.0) {
    // Diffuse the rest inversely proportional to RGB distance to the target.
    double total = 0.0;
    std::vector<double> inv(k, 0.0);
    for (size_t i = 0; i < k; ++i) {
      if (i == center) continue;
      inv[i] = 1.0 / (0.05 + RgbDistance(palette.color(i), rgb));
      total += inv[i];
    }
    for (size_t i = 0; i < k; ++i) {
      if (i != center) h[i] = spread * inv[i] / total;
    }
  }
  return h;
}

}  // namespace fuzzydb
