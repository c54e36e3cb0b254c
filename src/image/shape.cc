#include "image/shape.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

namespace fuzzydb {

namespace {

double SignedArea(const std::vector<Point2>& v) {
  double a = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    const Point2& p = v[i];
    const Point2& q = v[(i + 1) % v.size()];
    a += p.x * q.y - q.x * p.y;
  }
  return 0.5 * a;
}

}  // namespace

Status ValidateFinite(const std::vector<Point2>& vertices) {
  for (const Point2& p : vertices) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument("polygon vertex is not finite");
    }
  }
  return Status::OK();
}

Result<Polygon> Polygon::Create(std::vector<Point2> vertices) {
  if (vertices.size() < 3) {
    return Status::InvalidArgument("polygon needs >= 3 vertices");
  }
  FUZZYDB_RETURN_NOT_OK(ValidateFinite(vertices));
  double area = SignedArea(vertices);
  if (std::fabs(area) < 1e-12) {
    return Status::InvalidArgument("degenerate polygon (zero area)");
  }
  if (area < 0.0) std::reverse(vertices.begin(), vertices.end());
  return Polygon(std::move(vertices));
}

Polygon Polygon::Regular(size_t n, double radius, Point2 center) {
  assert(n >= 3);
  std::vector<Point2> v(n);
  for (size_t i = 0; i < n; ++i) {
    double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                   static_cast<double>(n);
    v[i] = {center.x + radius * std::cos(angle),
            center.y + radius * std::sin(angle)};
  }
  return Polygon(std::move(v));
}

Polygon Polygon::RandomStar(Rng* rng, size_t n, double min_r, double max_r) {
  assert(n >= 3);
  std::vector<Point2> v(n);
  for (size_t i = 0; i < n; ++i) {
    double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                   static_cast<double>(n);
    double r = min_r + (max_r - min_r) * rng->NextDouble();
    v[i] = {r * std::cos(angle), r * std::sin(angle)};
  }
  return Polygon(std::move(v));
}

double Polygon::Area() const { return SignedArea(vertices_); }

double Polygon::PerimeterLength() const {
  double len = 0.0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Point2& p = vertices_[i];
    const Point2& q = vertices_[(i + 1) % vertices_.size()];
    len += std::hypot(q.x - p.x, q.y - p.y);
  }
  return len;
}

Point2 Polygon::Centroid() const {
  double cx = 0.0, cy = 0.0;
  const double a = Area();
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Point2& p = vertices_[i];
    const Point2& q = vertices_[(i + 1) % vertices_.size()];
    double cross = p.x * q.y - q.x * p.y;
    cx += (p.x + q.x) * cross;
    cy += (p.y + q.y) * cross;
  }
  return {cx / (6.0 * a), cy / (6.0 * a)};
}

Polygon Polygon::Translated(double dx, double dy) const {
  std::vector<Point2> v = vertices_;
  for (Point2& p : v) {
    p.x += dx;
    p.y += dy;
  }
  return Polygon(std::move(v));
}

Polygon Polygon::Scaled(double factor) const {
  std::vector<Point2> v = vertices_;
  for (Point2& p : v) {
    p.x *= factor;
    p.y *= factor;
  }
  return Polygon(std::move(v));
}

Polygon Polygon::Rotated(double radians) const {
  const double c = std::cos(radians), s = std::sin(radians);
  std::vector<Point2> v = vertices_;
  for (Point2& p : v) {
    double x = c * p.x - s * p.y;
    double y = s * p.x + c * p.y;
    p.x = x;
    p.y = y;
  }
  return Polygon(std::move(v));
}

HuMoments ComputeHuMoments(const Polygon& polygon) {
  // Raw area moments m_pq = ∬ x^p y^q dA via Green's theorem.
  const std::vector<Point2>& v = polygon.vertices();
  double m00 = 0, m10 = 0, m01 = 0, m20 = 0, m11 = 0, m02 = 0;
  double m30 = 0, m21 = 0, m12 = 0, m03 = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double x0 = v[i].x, y0 = v[i].y;
    const double x1 = v[(i + 1) % v.size()].x, y1 = v[(i + 1) % v.size()].y;
    const double cr = x0 * y1 - x1 * y0;
    m00 += cr;
    m10 += (x0 + x1) * cr;
    m01 += (y0 + y1) * cr;
    m20 += (x0 * x0 + x0 * x1 + x1 * x1) * cr;
    m02 += (y0 * y0 + y0 * y1 + y1 * y1) * cr;
    m11 += (x0 * y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1 * y0) * cr;
    m30 += (x0 * x0 * x0 + x0 * x0 * x1 + x0 * x1 * x1 + x1 * x1 * x1) * cr;
    m03 += (y0 * y0 * y0 + y0 * y0 * y1 + y0 * y1 * y1 + y1 * y1 * y1) * cr;
    m21 += (x0 * x0 * (3.0 * y0 + y1) + 2.0 * x0 * x1 * (y0 + y1) +
            x1 * x1 * (y0 + 3.0 * y1)) *
           cr;
    m12 += (y0 * y0 * (3.0 * x0 + x1) + 2.0 * y0 * y1 * (x0 + x1) +
            y1 * y1 * (x0 + 3.0 * x1)) *
           cr;
  }
  m00 /= 2.0;
  m10 /= 6.0;
  m01 /= 6.0;
  m20 /= 12.0;
  m02 /= 12.0;
  m11 /= 24.0;
  m30 /= 20.0;
  m03 /= 20.0;
  m21 /= 60.0;
  m12 /= 60.0;

  // Central moments about the centroid.
  const double cx = m10 / m00, cy = m01 / m00;
  const double mu20 = m20 - cx * m10;
  const double mu02 = m02 - cy * m01;
  const double mu11 = m11 - cx * m01;
  const double mu30 = m30 - 3.0 * cx * m20 + 2.0 * cx * cx * m10;
  const double mu03 = m03 - 3.0 * cy * m02 + 2.0 * cy * cy * m01;
  const double mu21 =
      m21 - 2.0 * cx * m11 - cy * m20 + 2.0 * cx * cx * m01;
  const double mu12 =
      m12 - 2.0 * cy * m11 - cx * m02 + 2.0 * cy * cy * m10;

  // Scale-normalized moments η_pq = µ_pq / µ00^(1 + (p+q)/2).
  const double s2 = m00 * m00;                 // order-2 normalizer
  const double s3 = std::pow(m00, 2.5);        // order-3 normalizer
  const double n20 = mu20 / s2, n02 = mu02 / s2, n11 = mu11 / s2;
  const double n30 = mu30 / s3, n03 = mu03 / s3;
  const double n21 = mu21 / s3, n12 = mu12 / s3;

  HuMoments hu;
  hu[0] = n20 + n02;
  hu[1] = (n20 - n02) * (n20 - n02) + 4.0 * n11 * n11;
  hu[2] = (n30 - 3.0 * n12) * (n30 - 3.0 * n12) +
          (3.0 * n21 - n03) * (3.0 * n21 - n03);
  hu[3] = (n30 + n12) * (n30 + n12) + (n21 + n03) * (n21 + n03);
  hu[4] = (n30 - 3.0 * n12) * (n30 + n12) *
              ((n30 + n12) * (n30 + n12) - 3.0 * (n21 + n03) * (n21 + n03)) +
          (3.0 * n21 - n03) * (n21 + n03) *
              (3.0 * (n30 + n12) * (n30 + n12) - (n21 + n03) * (n21 + n03));
  hu[5] = (n20 - n02) *
              ((n30 + n12) * (n30 + n12) - (n21 + n03) * (n21 + n03)) +
          4.0 * n11 * (n30 + n12) * (n21 + n03);
  hu[6] = (3.0 * n21 - n03) * (n30 + n12) *
              ((n30 + n12) * (n30 + n12) - 3.0 * (n21 + n03) * (n21 + n03)) -
          (n30 - 3.0 * n12) * (n21 + n03) *
              (3.0 * (n30 + n12) * (n30 + n12) - (n21 + n03) * (n21 + n03));
  return hu;
}

double HuMomentDistance(const HuMoments& a, const HuMoments& b) {
  double d = 0.0;
  for (size_t i = 0; i < 7; ++i) {
    const double eps = 1e-12;
    if (std::fabs(a[i]) < eps || std::fabs(b[i]) < eps) continue;
    double ma = std::copysign(std::log10(std::fabs(a[i])), -a[i]);
    double mb = std::copysign(std::log10(std::fabs(b[i])), -b[i]);
    d += std::fabs(ma - mb);
  }
  return d;
}

std::vector<double> TurningFunction(const Polygon& polygon, size_t samples) {
  assert(samples >= 4);
  const std::vector<Point2>& v = polygon.vertices();
  const size_t n = v.size();
  // Length and direction of edge i (vertex i to i+1): one hypot and one
  // atan2 per edge. The perimeter sums the lengths in PerimeterLength's
  // order, so it is the same double.
  std::vector<double> len(n), dir(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Point2& a = v[i];
    const Point2& b = v[(i + 1) % n];
    len[i] = std::hypot(b.x - a.x, b.y - a.y);
    dir[i] = std::atan2(b.y - a.y, b.x - a.x);
    total += len[i];
  }

  // Cumulative turning angle as a step function of normalized arc length.
  std::vector<double> out(samples);
  double arc = 0.0;       // arc length consumed
  double angle = 0.0;     // cumulative turning so far
  size_t edge = 0;        // current edge index
  double edge_left = len[0];
  for (size_t j = 0; j < samples; ++j) {
    double target = (static_cast<double>(j) + 0.5) /
                    static_cast<double>(samples) * total;
    while (arc + edge_left < target && edge + 1 < n) {
      arc += edge_left;
      ++edge;
      // We turn when entering the new edge: the exterior angle at its first
      // vertex, wrapped into [-pi, pi].
      double d = dir[edge] - dir[edge - 1];
      while (d > std::numbers::pi) d -= 2.0 * std::numbers::pi;
      while (d < -std::numbers::pi) d += 2.0 * std::numbers::pi;
      angle += d;
      edge_left = len[edge];
    }
    out[j] = angle;
  }
  return out;
}

void Centre(std::vector<double>& f) {
  double mean = 0.0;
  for (double x : f) mean += x;
  mean /= static_cast<double>(f.size());
  for (double& x : f) x -= mean;
}

double TurningDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  assert(a.size() == b.size() && !a.empty());
  return TurningTarget(b).DistanceFrom(a);
}

TurningTarget::TurningTarget(const std::vector<double>& turning) {
  assert(!turning.empty());
  const size_t n = turning.size();
  twice_ = turning;
  Centre(twice_);
  twice_.resize(2 * n);
  std::copy_n(twice_.begin(), n, twice_.begin() + n);
}

double TurningTarget::DistanceFrom(std::vector<double> a) const {
  assert(a.size() == samples());
  Centre(a);
  return DistanceFromCentred(a.data());
}

double TurningTarget::DistanceFromCentred(const double* a) const {
  const size_t n = samples();
  const size_t tail = std::min<size_t>(n, 4);
  double best = std::numeric_limits<double>::infinity();
  for (size_t shift = 0; shift < n; shift += 2) {
    // b0[i] = target[(i + shift) % n], b1[i] = target[(i + shift + 1) % n].
    // An odd n pairs its last shift with itself.
    const double* b0 = twice_.data() + shift;
    const double* b1 = shift + 1 < n ? b0 + 1 : b0;
    // The last terms of a shift s > 0 compare the end of `a` with the start
    // of the target, nearly a whole turn apart, so they are the largest.
    // Their sum in index order bounds the full sum from below.
    double t0 = 0.0, t1 = 0.0;
    for (size_t j = n - tail; j < n; ++j) {
      const double d0 = a[j] - b0[j];
      const double d1 = a[j] - b1[j];
      t0 += d0 * d0;
      t1 += d1 * d1;
    }
    if (t0 >= best && t1 >= best) continue;
    double s0 = 0.0, s1 = 0.0;
    size_t i = 0;
    for (; i + 4 <= n && (s0 < best || s1 < best); i += 4) {
      for (size_t j = i; j < i + 4; ++j) {
        const double d0 = a[j] - b0[j];
        const double d1 = a[j] - b1[j];
        s0 += d0 * d0;
        s1 += d1 * d1;
      }
    }
    for (; i < n && (s0 < best || s1 < best); ++i) {
      const double d0 = a[i] - b0[i];
      const double d1 = a[i] - b1[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
    }
    best = std::min(best, std::min(s0, s1));
  }
  return std::sqrt(best / static_cast<double>(n));
}

void TurningTable::Add(const Polygon& polygon) {
  std::vector<double> f = TurningFunction(polygon, samples_);
  Centre(f);
  AddCentred(f);
}

void TurningTable::AddCentred(const std::vector<double>& centred) {
  assert(centred.size() == samples_);
  const size_t n = centred.size();
  for (size_t j = 0; j < n;) {
    // Equal bits, not ==, so that -0.0 and 0.0 stay distinct.
    size_t end = j + 1;
    while (end < n && end - j < std::numeric_limits<uint16_t>::max() &&
           std::memcmp(&centred[end], &centred[j], sizeof(double)) == 0) {
      ++end;
    }
    run_values_.push_back(centred[j]);
    run_lengths_.push_back(static_cast<uint16_t>(end - j));
    j = end;
  }
  first_run_.push_back(run_values_.size());
}

void TurningTable::ShrinkToFit() {
  run_values_.shrink_to_fit();
  run_lengths_.shrink_to_fit();
  first_run_.shrink_to_fit();
}

void TurningTable::Expand(size_t i, double* out) const {
  assert(i < size());
  for (size_t r = first_run_[i]; r < first_run_[i + 1]; ++r) {
    out = std::fill_n(out, run_lengths_[r], run_values_[r]);
  }
}

std::vector<Point2> SampleBoundary(const Polygon& polygon, size_t samples) {
  assert(samples >= 3);
  const std::vector<Point2>& v = polygon.vertices();
  const size_t n = v.size();
  const double total = polygon.PerimeterLength();

  std::vector<Point2> out;
  out.reserve(samples);
  size_t edge = 0;
  double edge_start_arc = 0.0;
  auto edge_len = [&](size_t e) {
    const Point2& p = v[e];
    const Point2& q = v[(e + 1) % n];
    return std::hypot(q.x - p.x, q.y - p.y);
  };
  double current_len = edge_len(0);
  for (size_t s = 0; s < samples; ++s) {
    double target =
        static_cast<double>(s) / static_cast<double>(samples) * total;
    while (edge_start_arc + current_len < target && edge + 1 < n) {
      edge_start_arc += current_len;
      ++edge;
      current_len = edge_len(edge);
    }
    double along = current_len > 0.0
                       ? (target - edge_start_arc) / current_len
                       : 0.0;
    const Point2& p = v[edge];
    const Point2& q = v[(edge + 1) % n];
    out.push_back({p.x + along * (q.x - p.x), p.y + along * (q.y - p.y)});
  }
  return out;
}

namespace {

double DirectedHausdorff(const std::vector<Point2>& a,
                         const std::vector<Point2>& b) {
  double worst = 0.0;
  for (const Point2& pa : a) {
    double best = std::numeric_limits<double>::infinity();
    for (const Point2& pb : b) {
      best = std::min(best, std::hypot(pa.x - pb.x, pa.y - pb.y));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

}  // namespace

double HausdorffDistance(const std::vector<Point2>& a,
                         const std::vector<Point2>& b) {
  assert(!a.empty() && !b.empty());
  return std::max(DirectedHausdorff(a, b), DirectedHausdorff(b, a));
}

double HausdorffShapeDistance(const Polygon& a, const Polygon& b,
                              size_t samples) {
  Point2 ca = a.Centroid();
  Point2 cb = b.Centroid();
  std::vector<Point2> pa = SampleBoundary(a, samples);
  std::vector<Point2> pb = SampleBoundary(b, samples);
  for (Point2& p : pa) {
    p.x -= ca.x;
    p.y -= ca.y;
  }
  for (Point2& p : pb) {
    p.x -= cb.x;
    p.y -= cb.y;
  }
  return HausdorffDistance(pa, pb);
}

double ShapeGradeFromDistance(double distance) {
  assert(distance >= 0.0);
  return 1.0 / (1.0 + distance);
}

}  // namespace fuzzydb
