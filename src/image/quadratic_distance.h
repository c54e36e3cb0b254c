// The Ioka/QBIC quadratic-form color distance (paper §2, formula (1)):
//
//   d(x, y) = sqrt( (x-y)^T A (x-y) )
//
// where A is symmetric and a_ij describes the similarity between palette
// colors i and j: a_ij = 1 - rgb_dist(c_i, c_j) / max_rgb_dist.
//
// For histograms, x - y lies in the zero-sum subspace {z : Σz_i = 0}; on
// that subspace A is positive semidefinite (J contributes 0 and the negated
// Euclidean distance matrix is conditionally positive), so the distance is
// well-defined. We work with B = P A P (P the centering projector), which is
// PSD everywhere and agrees with A on differences of histograms; its
// eigen-decomposition also powers the distance-bounding filter.
//
// The eigendecomposition additionally gives an *isometric embedding*: with
// e_j(x) = sqrt(λ_j)·⟨x, v_j⟩ (all k eigenpairs, descending λ),
//
//   d(x, y)^2 = Σ_j λ_j ⟨x-y, v_j⟩^2 = |e(x) - e(y)|_2^2,
//
// so after an O(k^2) projection per object at ingest, every exact distance
// is plain Euclidean distance in embedded space — O(k) per pair. Because the
// eigenvalues are sorted descending, every prefix of the embedding is a
// lower bound on d (paper formula (2) generalized to all prefix lengths);
// image/embedding_store.h builds the batched kernels and the cascaded filter
// on top of this.

#ifndef FUZZYDB_IMAGE_QUADRATIC_DISTANCE_H_
#define FUZZYDB_IMAGE_QUADRATIC_DISTANCE_H_

#include <utility>
#include <vector>

#include "common/matrix.h"
#include "image/color.h"

namespace fuzzydb {

/// The quadratic-form distance for one palette.
class QuadraticFormDistance {
 public:
  /// An empty placeholder; every usable instance comes from Create().
  QuadraticFormDistance() = default;

  /// Builds A from the palette's RGB geometry and diagonalizes B = P A P.
  static Result<QuadraticFormDistance> Create(const Palette& palette);

  /// d(x, y); histograms must have palette-size bins. Allocation-free: the
  /// difference vector lives in a per-thread scratch buffer.
  double Distance(const Histogram& x, const Histogram& y) const;

  /// Writes the eigen-space embedding e_j = sqrt(λ_j)·⟨x, v_j⟩ of `x` into
  /// `out` (both sized dimension()). Euclidean distance between embeddings
  /// equals Distance() exactly (up to eigensolver roundoff), and every
  /// prefix of the embedding lower-bounds it.
  void EmbedInto(std::span<const double> x, std::span<double> out) const;

  /// Convenience allocating form of EmbedInto().
  std::vector<double> Embed(const Histogram& x) const;

  /// Row j is sqrt(λ_j)·v_j — the embedding is the matrix-vector product of
  /// this basis with the histogram. The distance-bounding filter's summary
  /// x̂ is the product with the first s rows of this matrix.
  const Matrix& embedding_basis() const { return embedding_basis_; }

  /// An upper bound on Distance over all pairs of histograms:
  /// sqrt(2 * λ_max(B)) since |x-y|_2^2 <= 2 for unit-mass histograms.
  double MaxDistance() const { return max_distance_; }

  /// Number of histogram bins.
  size_t dimension() const { return a_.rows(); }

  /// The similarity matrix A.
  const Matrix& similarity() const { return a_; }

  /// Eigenvalues of B = P A P, descending (all >= 0 up to roundoff).
  const std::vector<double>& eigenvalues() const { return eigen_.values; }
  /// Row i of the returned matrix is the unit eigenvector for
  /// eigenvalues()[i].
  const Matrix& eigenvectors() const { return eigen_.vectors; }

 private:
  Matrix a_;
  EigenDecomposition eigen_;  // of B = P A P, negatives clamped to 0
  Matrix embedding_basis_;    // row j = sqrt(λ_j) * v_j
  double max_distance_ = 0.0;
};

/// The reference top-k: Distance() to every histogram of `database`, the k
/// smallest kept, ascending, ties by index. Evaluates the quadratic form
/// directly, independent of the embedding, so it checks the embedded
/// searches against formula (1) itself.
std::vector<std::pair<size_t, double>> ExactKnn(
    const QuadraticFormDistance& qfd, const std::vector<Histogram>& database,
    const Histogram& target, size_t k);

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_QUADRATIC_DISTANCE_H_
