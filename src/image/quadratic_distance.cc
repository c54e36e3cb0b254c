#include "image/quadratic_distance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fuzzydb {

Result<QuadraticFormDistance> QuadraticFormDistance::Create(
    const Palette& palette) {
  const size_t k = palette.size();
  if (k < 2) return Status::InvalidArgument("palette needs >= 2 colors");

  QuadraticFormDistance qfd;
  qfd.a_ = Matrix(k, k);
  double dmax = 0.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      dmax = std::max(dmax, RgbDistance(palette.color(i), palette.color(j)));
    }
  }
  if (dmax <= 0.0) {
    return Status::InvalidArgument("palette colors are all identical");
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      qfd.a_.At(i, j) =
          1.0 - RgbDistance(palette.color(i), palette.color(j)) / dmax;
    }
  }

  // B = P A P with P = I - (1/k) 1 1^T. For zero-sum z, z^T B z = z^T A z.
  Matrix b(k, k);
  std::vector<double> row_mean(k, 0.0), col_mean(k, 0.0);
  double total_mean = 0.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      row_mean[i] += qfd.a_.At(i, j);
      col_mean[j] += qfd.a_.At(i, j);
      total_mean += qfd.a_.At(i, j);
    }
  }
  const double kd = static_cast<double>(k);
  for (double& v : row_mean) v /= kd;
  for (double& v : col_mean) v /= kd;
  total_mean /= kd * kd;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      b.At(i, j) = qfd.a_.At(i, j) - row_mean[i] - col_mean[j] + total_mean;
    }
  }

  Result<EigenDecomposition> eigen = JacobiEigenSymmetric(b);
  if (!eigen.ok()) return eigen.status();
  qfd.eigen_ = std::move(eigen).value();
  for (double& lambda : qfd.eigen_.values) {
    lambda = std::max(lambda, 0.0);  // clamp eigensolver roundoff
  }
  qfd.max_distance_ = std::sqrt(2.0 * qfd.eigen_.values.front());

  qfd.embedding_basis_ = Matrix(k, k);
  for (size_t j = 0; j < k; ++j) {
    const double scale = std::sqrt(qfd.eigen_.values[j]);
    std::span<const double> v = qfd.eigen_.vectors.Row(j);
    for (size_t i = 0; i < k; ++i) {
      qfd.embedding_basis_.At(j, i) = scale * v[i];
    }
  }
  return qfd;
}

double QuadraticFormDistance::Distance(const Histogram& x,
                                       const Histogram& y) const {
  assert(x.size() == dimension() && y.size() == dimension());
  thread_local std::vector<double> scratch;
  scratch.resize(x.size());
  for (size_t i = 0; i < x.size(); ++i) scratch[i] = x[i] - y[i];
  double q = a_.QuadraticForm(scratch);
  return std::sqrt(std::max(q, 0.0));
}

void QuadraticFormDistance::EmbedInto(std::span<const double> x,
                                      std::span<double> out) const {
  assert(x.size() == dimension() && out.size() == dimension());
  for (size_t j = 0; j < dimension(); ++j) {
    out[j] = Dot(embedding_basis_.Row(j), x);
  }
}

std::vector<double> QuadraticFormDistance::Embed(const Histogram& x) const {
  std::vector<double> out(dimension());
  EmbedInto(x, out);
  return out;
}

std::vector<std::pair<size_t, double>> ExactKnn(
    const QuadraticFormDistance& qfd, const std::vector<Histogram>& database,
    const Histogram& target, size_t k) {
  std::vector<std::pair<size_t, double>> all(database.size());
  for (size_t i = 0; i < database.size(); ++i) {
    all[i] = {i, qfd.Distance(database[i], target)};
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second < b.second;
                      return a.first < b.first;
                    });
  all.resize(k);
  return all;
}

}  // namespace fuzzydb
