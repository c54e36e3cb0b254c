// Equivalence and determinism harness for the R-tree sorted-access driver
// (DESIGN §3h). The headline guarantee: RtreeKnnSource streams the SAME
// graded set as the batch-graded QbicColorSource — same ids, bit-identical
// grades, same order — so every middleware algorithm returns bit-identical
// top-k answers whichever backend drives sorted access.

#include "image/rtree_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "analysis/source_audit.h"
#include "image/qbic_source.h"
#include "middleware/combined.h"
#include "middleware/fagin.h"
#include "middleware/nra.h"
#include "middleware/threshold.h"

namespace fuzzydb {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

using Runner = Result<TopKResult> (*)(std::span<GradedSource* const>,
                                      const ScoringRule&, size_t);

Result<TopKResult> FaginRun(std::span<GradedSource* const> sources,
                            const ScoringRule& rule, size_t k) {
  return FaginTopK(sources, rule, k);
}
Result<TopKResult> ThresholdRun(std::span<GradedSource* const> sources,
                                const ScoringRule& rule, size_t k) {
  return ThresholdTopK(sources, rule, k);
}
Result<TopKResult> NoRandomAccessRun(std::span<GradedSource* const> sources,
                                     const ScoringRule& rule, size_t k) {
  return NoRandomAccessTopK(sources, rule, k);
}
Result<TopKResult> CombinedPeriod2Run(std::span<GradedSource* const> sources,
                                      const ScoringRule& rule, size_t k) {
  return CombinedTopK(sources, rule, k, 2);
}

struct AlgoCase {
  const char* name;
  Runner run;
};

const AlgoCase kAlgos[] = {
    {"fagin-a0", FaginRun},
    {"ta", ThresholdRun},
    {"nra", NoRandomAccessRun},
    {"ca-h2", CombinedPeriod2Run},
};

class RtreeSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImageStoreOptions options;
    options.num_images = 120;
    options.palette_size = 27;
    options.seed = 977;
    Result<ImageStore> store = ImageStore::Generate(options);
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<ImageStore>(std::move(*store));

    histograms_.reserve(store_->size());
    ids_.reserve(store_->size());
    for (const ImageRecord& rec : store_->images()) {
      histograms_.push_back(rec.histogram);
      ids_.push_back(rec.id);
    }
    Result<GeminiIndex> index =
        GeminiIndex::Build(&store_->color_distance(), 4, &histograms_);
    ASSERT_TRUE(index.ok());
    index_ = std::make_unique<GeminiIndex>(std::move(*index));

    target_ = TargetHistogram(store_->palette(), {1.0, 0.2, 0.1});
  }

  Result<RtreeKnnSource> MakeDriver(bool use_quantized = true) const {
    RtreeKnnSourceOptions options;
    options.label = "Color~rtree";
    options.ids = ids_;
    options.use_quantized = use_quantized;
    return RtreeKnnSource::Create(index_.get(), target_, options);
  }

  Result<QbicColorSource> MakeReference() const {
    return QbicColorSource::Create(store_.get(), target_, "Color~batch");
  }

  std::unique_ptr<ImageStore> store_;
  std::unique_ptr<GeminiIndex> index_;
  std::vector<Histogram> histograms_;
  std::vector<ObjectId> ids_;
  Histogram target_;
};

TEST_F(RtreeSourceTest, StreamMatchesBatchSourceBitForBit) {
  for (bool quantized : {true, false}) {
    Result<RtreeKnnSource> driver = MakeDriver(quantized);
    Result<QbicColorSource> reference = MakeReference();
    ASSERT_TRUE(driver.ok() && reference.ok());
    ASSERT_EQ(driver->Size(), reference->Size());
    size_t n = 0;
    for (;;) {
      std::optional<GradedObject> a = driver->NextSorted();
      std::optional<GradedObject> r = reference->NextSorted();
      ASSERT_EQ(a.has_value(), r.has_value()) << "position " << n;
      if (!a.has_value()) break;
      ASSERT_EQ(a->id, r->id) << "quantized=" << quantized << " pos " << n;
      ASSERT_TRUE(BitEqual(a->grade, r->grade))
          << "quantized=" << quantized << " pos " << n;
      ++n;
    }
    EXPECT_EQ(n, store_->size());
    // The full drain refines every object exactly once.
    EXPECT_EQ(driver->stats().refinements, store_->size());
    EXPECT_EQ(driver->stats().emitted, store_->size());
  }
}

TEST_F(RtreeSourceTest, AuditorsConfirmContractAndEquivalence) {
  Result<RtreeKnnSource> driver = MakeDriver();
  Result<QbicColorSource> reference = MakeReference();
  ASSERT_TRUE(driver.ok() && reference.ok());

  SourceAuditOptions options;  // tol = 0: exact RandomAccess consistency
  AuditReport sorted = AuditSortedAccess(&*driver, options);
  EXPECT_TRUE(sorted.ok()) << sorted.ToString();

  AuditReport equiv = AuditSourceEquivalence(&*driver, &*reference, options);
  EXPECT_TRUE(equiv.ok()) << equiv.ToString();
}

TEST_F(RtreeSourceTest, RefinementIsLazyForShortPrefixes) {
  Result<RtreeKnnSource> driver = MakeDriver();
  ASSERT_TRUE(driver.ok());
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(driver->NextSorted().has_value());
  }
  EXPECT_EQ(driver->stats().emitted, 5u);
  // Certifying 5 releases must not have refined the whole database — the
  // driver's whole point vs the batch source's up-front O(N) grading.
  EXPECT_LT(driver->stats().refinements, store_->size());
  EXPECT_GE(driver->stats().refinements, 5u);
  // The incremental traversal visited the index.
  EXPECT_GT(driver->stats().node_accesses, 0u);
  EXPECT_GT(driver->stats().bound_computations, 0u);
}

TEST_F(RtreeSourceTest, RandomAccessMatchesReferenceAndUnknownIsZero) {
  Result<RtreeKnnSource> driver = MakeDriver();
  Result<QbicColorSource> reference = MakeReference();
  ASSERT_TRUE(driver.ok() && reference.ok());
  for (ObjectId id : {ids_.front(), ids_[7], ids_.back()}) {
    EXPECT_TRUE(
        BitEqual(driver->RandomAccess(id), reference->RandomAccess(id)));
  }
  EXPECT_EQ(driver->RandomAccess(999999), 0.0);
}

TEST_F(RtreeSourceTest, AtLeastMatchesReferenceAndPreservesCursor) {
  Result<RtreeKnnSource> driver = MakeDriver();
  Result<QbicColorSource> reference = MakeReference();
  ASSERT_TRUE(driver.ok() && reference.ok());

  // Move the sorted cursor, then issue filter accesses: the cursor must be
  // undisturbed afterwards.
  std::optional<GradedObject> first = driver->NextSorted();
  ASSERT_TRUE(first.has_value());

  for (double threshold : {1.1, 0.95, 0.8, 0.5, 0.0}) {
    std::vector<GradedObject> a = driver->AtLeast(threshold);
    std::vector<GradedObject> r = reference->AtLeast(threshold);
    ASSERT_EQ(a.size(), r.size()) << "threshold " << threshold;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, r[i].id) << "threshold " << threshold;
      EXPECT_TRUE(BitEqual(a[i].grade, r[i].grade))
          << "threshold " << threshold;
    }
  }

  std::optional<GradedObject> second = driver->NextSorted();
  std::optional<GradedObject> ref_second =
      (reference->NextSorted(), reference->NextSorted());
  ASSERT_TRUE(second.has_value() && ref_second.has_value());
  EXPECT_EQ(second->id, ref_second->id);
}

TEST_F(RtreeSourceTest, RestartReplaysTheIdenticalStream) {
  Result<RtreeKnnSource> driver = MakeDriver();
  ASSERT_TRUE(driver.ok());
  std::vector<GradedObject> first_run;
  while (auto next = driver->NextSorted()) first_run.push_back(*next);
  driver->RestartSorted();
  EXPECT_EQ(driver->stats().emitted, 0u);
  for (const GradedObject& expected : first_run) {
    std::optional<GradedObject> next = driver->NextSorted();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->id, expected.id);
    EXPECT_TRUE(BitEqual(next->grade, expected.grade));
  }
  EXPECT_FALSE(driver->NextSorted().has_value());
}

TEST_F(RtreeSourceTest, CreateValidatesArguments) {
  EXPECT_FALSE(RtreeKnnSource::Create(nullptr, target_).ok());
  EXPECT_FALSE(
      RtreeKnnSource::Create(index_.get(), Histogram{0.5, 0.5}).ok());
  RtreeKnnSourceOptions bad_ids;
  bad_ids.ids = {1, 2, 3};  // must map every row or none
  EXPECT_FALSE(RtreeKnnSource::Create(index_.get(), target_, bad_ids).ok());
}

// The determinism harness: every middleware algorithm must return
// bit-identical answers whether sorted access on the color predicate is
// driven by the index or by the batch source. The texture source (m = 2)
// rides along unchanged in both source sets.
TEST_F(RtreeSourceTest, TopKAnswersMatchBatchBackend) {
  Result<RtreeKnnSource> driver = MakeDriver();
  Result<QbicColorSource> reference = MakeReference();
  Result<QbicTextureSource> texture =
      QbicTextureSource::Create(store_.get(), store_->image(3).texture);
  ASSERT_TRUE(driver.ok() && reference.ok() && texture.ok());

  std::vector<GradedSource*> rtree_set = {&*driver, &*texture};
  std::vector<GradedSource*> batch_set = {&*reference, &*texture};
  ScoringRulePtr rule = MinRule();
  const size_t k = 10;

  for (const AlgoCase& algo : kAlgos) {
    Result<TopKResult> golden = algo.run(batch_set, *rule, k);
    Result<TopKResult> got = algo.run(rtree_set, *rule, k);
    ASSERT_TRUE(golden.ok()) << algo.name;
    ASSERT_TRUE(got.ok()) << algo.name;
    ASSERT_EQ(golden->items.size(), got->items.size()) << algo.name;
    for (size_t r = 0; r < golden->items.size(); ++r) {
      EXPECT_EQ(golden->items[r].id, got->items[r].id)
          << algo.name << " rank " << r;
      EXPECT_TRUE(BitEqual(golden->items[r].grade, got->items[r].grade))
          << algo.name << " rank " << r;
    }
    // Identical streams ⇒ identical consumed access counts, source by
    // source, whichever backend produced them.
    ASSERT_EQ(golden->per_source.size(), got->per_source.size()) << algo.name;
    for (size_t j = 0; j < golden->per_source.size(); ++j) {
      EXPECT_EQ(golden->per_source[j].sorted, got->per_source[j].sorted)
          << algo.name << " source " << j;
      EXPECT_EQ(golden->per_source[j].random, got->per_source[j].random)
          << algo.name << " source " << j;
    }
  }
}

}  // namespace
}  // namespace fuzzydb
