#include "image/indexed_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/squared_distance.h"

namespace fuzzydb {

namespace {

// Dimensions Knn refines between early-exit checks. A measured sweep over
// {4, 8, 16, 32} chose 4 on every palette spectrum and summary
// dimensionality the experiments run (DESIGN §3c).
constexpr size_t kRefineStep = 4;

}  // namespace

Result<GeminiIndex> GeminiIndex::Build(
    const QuadraticFormDistance* qfd, size_t summary_dim,
    const std::vector<Histogram>* database) {
  if (qfd == nullptr || database == nullptr) {
    return Status::InvalidArgument("null qfd or database");
  }
  if (database->empty()) {
    return Status::InvalidArgument("empty database");
  }
  if (summary_dim == 0) {
    return Status::InvalidArgument("summary dim must be >= 1");
  }
  GeminiIndex index;
  index.qfd_ = qfd;
  index.summary_dim_ = std::min(summary_dim, qfd->dimension());

  // Every summary coordinate j satisfies |x̂_j| <= sqrt(λ_j)|x|_2 <=
  // sqrt(λ_max); map uniformly into [0,1] with a safety margin so rounding
  // never escapes the box. A uniform scale keeps Euclidean order and lets
  // us convert index distances back: d̂ = d_unit / scale_.
  double bound = std::sqrt(qfd->eigenvalues().front()) + 1e-9;
  index.offset_ = bound;
  index.scale_ = 1.0 / (2.0 * bound);

  Result<EmbeddingStore> embeddings = EmbeddingStore::Build(*qfd, *database);
  if (!embeddings.ok()) return embeddings.status();
  index.embeddings_ = std::move(embeddings).value();

  // The summary is the first dim coordinates of the full embedding, so the
  // R-tree keys come straight out of the embedding rows.
  const size_t dim = index.summary_dim_;
  std::vector<ObjectId> ids(database->size());
  std::vector<double> coords(database->size() * dim);
  std::vector<double> row(index.embeddings_.dim());
  for (size_t i = 0; i < database->size(); ++i) {
    ids[i] = i;
    index.embeddings_.CopyRow(i, row);
    for (size_t j = 0; j < dim; ++j) {
      coords[i * dim + j] =
          std::clamp((row[j] + index.offset_) * index.scale_, 0.0, 1.0);
    }
  }
  index.rtree_ = std::make_unique<RTree>(dim);
  FUZZYDB_RETURN_NOT_OK(
      index.rtree_->BulkLoadStr(std::move(ids), std::move(coords)));

  return index;
}

Result<std::vector<std::pair<size_t, double>>> GeminiIndex::Knn(
    const Histogram& target, size_t k, CascadeStats* stats) const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  k = std::min(k, size());

  // One O(k^2) projection of the target; its prefix is the R-tree query
  // point and its full length powers the O(k) refinements below.
  std::vector<double> target_embedding = qfd_->Embed(target);
  std::vector<double> unit(summary_dim_);
  for (size_t j = 0; j < unit.size(); ++j) {
    unit[j] = std::clamp((target_embedding[j] + offset_) * scale_, 0.0, 1.0);
  }

  RTree::NearestIterator it(rtree_.get(), unit);
  std::vector<std::pair<size_t, double>> best;  // (index, full d^2), unsorted
  double kth2 = std::numeric_limits<double>::infinity();  // worst kept d^2
  double kth = std::numeric_limits<double>::infinity();   // its sqrt
  size_t full_refinements = 0;
  size_t candidates_refined = 0;
  const size_t dim = embeddings_.dim();
  auto worst_it = [&best]() {
    return std::max_element(best.begin(), best.end(),
                            [](const auto& a, const auto& b) {
                              return a.second < b.second;
                            });
  };
  while (std::optional<KnnNeighbor> cand = it.Next()) {
    double bound = cand->distance / scale_;  // back to summary units
    if (best.size() >= k && bound >= kth) break;  // d >= d̂ >= kth: done
    size_t idx = static_cast<size_t>(cand->id);
    // Refine through the split-invariant kernel, kRefineStep dimensions at
    // a time, abandoning the candidate as soon as its partial sum — a lower
    // bound on d^2 at every depth — exceeds the current k-th best. A pruned candidate would have been
    // rejected by the full comparison too, so results are unchanged.
    ++candidates_refined;  // pruned or not, this candidate costs work
    SquaredDistanceAccumulator acc;
    size_t j = 0;
    bool pruned = false;
    while (j < dim && !pruned) {
      const size_t next_depth = std::min(dim, j + kRefineStep);
      embeddings_.AccumulateRow(idx, target_embedding.data(), j, next_depth,
                                &acc);
      j = next_depth;
      if (j < dim && best.size() >= k && acc.Total() > kth2) pruned = true;
    }
    if (pruned) continue;
    ++full_refinements;
    const double d2 = acc.Total();
    if (best.size() < k) {
      best.emplace_back(idx, d2);
      if (best.size() == k) {
        kth2 = worst_it()->second;
        kth = std::sqrt(kth2);
      }
    } else if (d2 < kth2) {
      *worst_it() = {idx, d2};
      kth2 = worst_it()->second;
      kth = std::sqrt(kth2);
    }
  }
  if (stats != nullptr) {
    stats->bound_computations = it.stats().distance_computations;
    stats->candidates_refined = candidates_refined;
    stats->full_distance_computations = full_refinements;
  }
  std::sort(best.begin(), best.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  for (auto& [idx, d2] : best) d2 = std::sqrt(d2);
  return best;
}

}  // namespace fuzzydb
