// Reference turning-function code for the shape golden tests.
//
// RefTurningFunction and RefTurningDistance are the [ACH+90] routines as
// they stood before the per-edge rewrite: two atan2 calls per vertex with
// the perimeter taken from Polygon::PerimeterLength, and a cyclic-shift
// search that indexes the second function with `% n`, centres both operands
// inside the inner loop and never abandons a shift. TurningFunction,
// TurningDistance and TurningTarget must reproduce them bit for bit.

#ifndef FUZZYDB_TESTS_SHAPE_REFERENCE_H_
#define FUZZYDB_TESTS_SHAPE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "image/shape.h"

namespace fuzzydb {
namespace shape_reference {

inline std::vector<double> RefTurningFunction(const Polygon& polygon,
                                              size_t samples) {
  const std::vector<Point2>& v = polygon.vertices();
  const size_t n = v.size();
  std::vector<double> len(n), turn(n);
  for (size_t i = 0; i < n; ++i) {
    const Point2& a = v[i];
    const Point2& b = v[(i + 1) % n];
    const Point2& c = v[(i + 2) % n];
    len[i] = std::hypot(b.x - a.x, b.y - a.y);
    double a1 = std::atan2(b.y - a.y, b.x - a.x);
    double a2 = std::atan2(c.y - b.y, c.x - b.x);
    double d = a2 - a1;
    while (d > std::numbers::pi) d -= 2.0 * std::numbers::pi;
    while (d < -std::numbers::pi) d += 2.0 * std::numbers::pi;
    turn[(i + 1) % n] = d;
  }
  const double total = polygon.PerimeterLength();

  std::vector<double> out(samples);
  double arc = 0.0;
  double angle = 0.0;
  size_t edge = 0;
  double edge_left = len[0];
  for (size_t j = 0; j < samples; ++j) {
    double target = (static_cast<double>(j) + 0.5) /
                    static_cast<double>(samples) * total;
    while (arc + edge_left < target && edge + 1 < n) {
      arc += edge_left;
      ++edge;
      angle += turn[edge];
      edge_left = len[edge];
    }
    out[j] = angle;
  }
  return out;
}

inline double RefTurningDistance(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  const size_t n = a.size();
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);

  double best = std::numeric_limits<double>::infinity();
  for (size_t shift = 0; shift < n; ++shift) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double d = (a[i] - ma) - (b[(i + shift) % n] - mb);
      s += d * d;
    }
    best = std::min(best, s);
  }
  return std::sqrt(best / static_cast<double>(n));
}

/// Bitwise equality: distinguishes -0.0 from 0.0 and compares NaN payloads.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace shape_reference
}  // namespace fuzzydb

#endif  // FUZZYDB_TESTS_SHAPE_REFERENCE_H_
