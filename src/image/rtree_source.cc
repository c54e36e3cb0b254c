#include "image/rtree_source.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "image/image_store.h"

namespace fuzzydb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative safety margin deflating the frontier bound before it is compared
// against refined grades. The summary coordinates pass through a rounded
// affine map (clamp((e + offset) * scale)) and back (d_unit / scale), so the
// computed d̂ can exceed the true exact distance by a few ulps when the
// non-prefix dimensions contribute ~nothing; 1e-9 dominates that error by
// six orders of magnitude (the same margin quantized_store shaves). The
// deflation only *delays* a release — candidates inside the margin get
// refined instead of certified — so it can never reorder the stream.
constexpr double kBoundMargin = 1.0 - 1e-9;

}  // namespace

Result<RtreeKnnSource> RtreeKnnSource::Create(const GeminiIndex* index,
                                              const Histogram& target,
                                              RtreeKnnSourceOptions options) {
  if (index == nullptr) return Status::InvalidArgument("null index");
  FUZZYDB_RETURN_NOT_OK(ValidateHistogram(target));
  if (target.size() != index->embeddings().dim()) {
    return Status::InvalidArgument("target histogram has wrong bin count");
  }
  if (!options.ids.empty() && options.ids.size() != index->size()) {
    return Status::InvalidArgument("ids must map every embedding row");
  }
  RtreeKnnSource src;
  src.index_ = index;
  src.options_ = std::move(options);
  src.max_distance_ = index->qfd().MaxDistance();

  // One O(bins^2) projection; its prefix is the R-tree query point, its full
  // length powers every refinement and random access.
  src.target_embedding_ = index->qfd().Embed(target);
  src.unit_query_.resize(index->summary_dim());
  for (size_t j = 0; j < src.unit_query_.size(); ++j) {
    src.unit_query_[j] = std::clamp(
        (src.target_embedding_[j] + index->offset()) * index->scale(), 0.0,
        1.0);
  }

  src.quantized_ =
      src.options_.use_quantized && index->embeddings().has_quantized();
  if (src.quantized_) {
    src.encoded_query_ =
        index->embeddings().quantized().EncodeQuery(src.target_embedding_);
  }
  for (size_t i = 0; i < index->size(); ++i) {
    src.id_to_index_.emplace(src.MapId(i), i);
  }
  src.ResetCursor(&src.cursor_);
  return src;
}

size_t RtreeKnnSource::Size() const { return index_->size(); }

void RtreeKnnSource::ResetCursor(Cursor* cursor) const {
  cursor->iterator.emplace(&index_->rtree(), unit_query_);
  cursor->peek = cursor->iterator->Next();
  cursor->pending = {};
  cursor->refined = {};
}

double RtreeKnnSource::ExactDistance(size_t index,
                                     RtreeSourceStats* stats) {
  {
    MutexLock lock(exact_->mu);
    auto it = exact_->map.find(index);
    if (it != exact_->map.end()) return it->second;
  }
  // The same per-row arithmetic as EmbeddingStore::BatchDistances — equal
  // inputs, bit-equal distance, bit-equal grade. Computed outside the cache
  // lock: two racing probes may both pay for the same row, but the kernel
  // is deterministic so whichever emplace lands first wins with the same
  // bits (stats are per-cursor and owned by the calling thread).
  double d = index_->embeddings().Distance(index, target_embedding_);
  ++stats->refinements;
  MutexLock lock(exact_->mu);
  exact_->map.emplace(index, d);
  return d;
}

bool RtreeKnnSource::Advance(Cursor* cursor, RtreeSourceStats* stats) {
  const double frontier =
      cursor->peek ? cursor->peek->distance / index_->scale() : kInf;
  // Seidl–Kriegel refinement order: refine the pending candidate with the
  // smallest lower bound once no cheaper candidate can still arrive from
  // the iterator; otherwise keep pulling.
  const bool refine_now =
      !cursor->pending.empty() && cursor->pending.top().lower_bound <= frontier;
  if (refine_now || (!cursor->peek && !cursor->pending.empty())) {
    Pending next = cursor->pending.top();
    cursor->pending.pop();
    double d = ExactDistance(next.index, stats);
    cursor->refined.push(
        {GradeFromDistance(d, max_distance_), MapId(next.index)});
    return true;
  }
  if (cursor->peek) {
    const size_t idx = static_cast<size_t>(cursor->peek->id);
    double lb = frontier;  // the candidate's own d̂: it is the frontier head
    if (quantized_) {
      // The int8 tier tightens the bound and thereby *orders* refinements:
      // a candidate whose quantized bound is already large sinks in the
      // pending pool and may never need its exact distance at all.
      lb = std::max(lb, std::sqrt(index_->embeddings().quantized().LowerBound2(
                            encoded_query_, idx)));
      ++stats->quantized_bound_computations;
    }
    cursor->pending.push({lb, idx});
    cursor->peek = cursor->iterator->Next();
    stats->node_accesses = cursor->iterator->stats().node_accesses;
    stats->bound_computations = cursor->iterator->stats().distance_computations;
    return true;
  }
  return false;
}

std::optional<GradedObject> RtreeKnnSource::Pop(Cursor* cursor,
                                                RtreeSourceStats* stats) {
  for (;;) {
    if (!cursor->refined.empty()) {
      const double frontier = std::min(
          cursor->peek ? cursor->peek->distance / index_->scale() : kInf,
          cursor->pending.empty() ? kInf : cursor->pending.top().lower_bound);
      bool release;
      if (frontier == kInf) {
        // Everything is refined: the heap order *is* the exact stream order
        // (this also releases grade-0.0 tails, whose grades can never
        // strictly beat the 0.0 bound grade below).
        release = true;
      } else {
        // Certify: every unrefined candidate has exact distance >= frontier
        // (admissible bounds), hence grade <= bound_grade (monotone map).
        // Strict > means grade ties are never released against an
        // unrefined candidate — the driver refines until tied candidates
        // are all in the heap, which then orders them by ascending id.
        const double bound_grade =
            GradeFromDistance(frontier * kBoundMargin, max_distance_);
        release = cursor->refined.top().grade > bound_grade;
      }
      if (release) {
        Refined next = cursor->refined.top();
        cursor->refined.pop();
        ++stats->emitted;
        return GradedObject{next.id, next.grade};
      }
    }
    if (!Advance(cursor, stats)) return std::nullopt;
  }
}

std::optional<GradedObject> RtreeKnnSource::NextSorted() {
  return Pop(&cursor_, &stats_);
}

void RtreeKnnSource::RestartSorted() {
  ResetCursor(&cursor_);
  stats_ = {};
}

double RtreeKnnSource::RandomAccess(ObjectId id) {
  auto it = id_to_index_.find(id);
  if (it == id_to_index_.end()) return 0.0;
  return GradeFromDistance(ExactDistance(it->second, &stats_), max_distance_);
}

std::vector<GradedObject> RtreeKnnSource::AtLeast(double threshold) {
  // Bounded range pull on a private cursor: replay the certified stream
  // from the top and stop at the first release below the threshold. The
  // sorted cursor's position is untouched; refinements land in the shared
  // cache either way.
  Cursor cursor;
  ResetCursor(&cursor);
  RtreeSourceStats local;
  std::vector<GradedObject> out;
  while (std::optional<GradedObject> next = Pop(&cursor, &local)) {
    if (next->grade < threshold) break;
    out.push_back(*next);
  }
  return out;
}

}  // namespace fuzzydb
