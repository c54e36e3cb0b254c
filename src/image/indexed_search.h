// The GEMINI filter-and-refine pipeline (paper §2.1: "First, we could
// potentially have a multidimensional index on short color vectors"):
// index the low-dimensional eigen summaries in an R-tree, stream candidates
// out in ascending summary distance with the incremental nearest-neighbour
// iterator, refine each with the exact distance — computed in O(k) over the
// full eigen-space embeddings (embedding_store.h), not as an O(k^2)
// quadratic form — and stop as soon as the summary distance exceeds the
// current k-th best full distance.
// The lower-bounding property d >= d̂ guarantees no false dismissals, and
// the R-tree replaces the flat filter's scan of every summary
// (EmbeddingStore::CascadeKnn with a float prefix bound) with sub-linear index
// traversal.

#ifndef FUZZYDB_IMAGE_INDEXED_SEARCH_H_
#define FUZZYDB_IMAGE_INDEXED_SEARCH_H_

#include <memory>
#include <vector>

#include "image/embedding_store.h"
#include "index/rtree.h"

namespace fuzzydb {

/// An R-tree over the eigen summaries x̂ (the first summary_dim() embedding
/// coordinates) of an image collection.
class GeminiIndex {
 public:
  /// Projects every histogram and bulk-loads the summaries (affinely mapped
  /// into the R-tree's unit box; the map is a uniform scaling, so nearest
  /// order and the bound property survive). `summary_dim` is clamped to the
  /// embedding dimension; 0 is InvalidArgument. `database` is read only
  /// here.
  static Result<GeminiIndex> Build(const QuadraticFormDistance* qfd,
                                   size_t summary_dim,
                                   const std::vector<Histogram>* database);

  /// Exact top-k most-similar search; results ascending by full distance,
  /// ties by index. `stats` gets bound_computations (summary distances the
  /// R-tree iterator evaluated), candidates_refined (candidates that
  /// entered refinement, pruned mid-row or not) and
  /// full_distance_computations (refinements carried to full depth).
  Result<std::vector<std::pair<size_t, double>>> Knn(
      const Histogram& target, size_t k, CascadeStats* stats = nullptr) const;

  size_t size() const { return embeddings_.size(); }
  size_t summary_dim() const { return summary_dim_; }

  // Accessors for index-driven sorted access (rtree_source.h): the driver
  // streams the R-tree's incremental neighbours and refines them against
  // the full embedding rows, so it needs the tree, the rows, the unit-box
  // map, and the distance machinery.
  const RTree& rtree() const { return *rtree_; }
  const EmbeddingStore& embeddings() const { return embeddings_; }
  const QuadraticFormDistance& qfd() const { return *qfd_; }
  /// Unit-box map parameters: unit = (summary + offset()) * scale(), so an
  /// index distance converts back to summary units as d̂ = d_unit / scale().
  double scale() const { return scale_; }
  double offset() const { return offset_; }

 private:
  GeminiIndex() = default;

  const QuadraticFormDistance* qfd_ = nullptr;
  size_t summary_dim_ = 0;
  // Full eigen-space embeddings of the database, built once at Build():
  // the R-tree keys are their first summary_dim_ coordinates, and
  // refinement is O(k) Euclidean distance over rows instead of an O(k^2)
  // quadratic form per candidate.
  EmbeddingStore embeddings_;
  std::unique_ptr<RTree> rtree_;
  // Uniform affine map: unit = (summary + offset_) * scale_.
  double scale_ = 1.0;
  double offset_ = 0.0;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_INDEXED_SEARCH_H_
