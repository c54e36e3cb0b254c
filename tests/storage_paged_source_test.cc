// PagedColorSource tests (DESIGN §3k): the out-of-core collection seen
// through the middleware's eyes. The load-bearing claim is that a color
// source graded through the buffer pool is indistinguishable from
// QbicColorSource over the same rows — same sorted stream, bit-equal
// grades, same TA/NRA/CA answers — and that the query server's
// data_version probe invalidates cached results when the backing file's
// generation changes.

#include "storage/paged_source.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/source_audit.h"
#include "image/qbic_source.h"
#include "middleware/combined.h"
#include "middleware/fagin.h"
#include "middleware/naive.h"
#include "middleware/nra.h"
#include "middleware/threshold.h"
#include "server/query_server.h"
#include "storage/ingest.h"
#include "storage/paged_store.h"

namespace fuzzydb {
namespace storage {
namespace {

class PagedSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImageStoreOptions options;
    options.num_images = 120;
    options.palette_size = 16;
    options.seed = 77;
    Result<ImageStore> ram = ImageStore::Generate(options);
    ASSERT_TRUE(ram.ok()) << ram.status().ToString();
    ram_ = std::make_unique<ImageStore>(std::move(*ram));

    path_ = ::testing::TempDir() + "paged_source.fzdb";
    ColumnFileOptions file_options;
    file_options.page_bytes = 4096;
    file_options.store_version = 1;
    Result<IngestedCollection> ingested =
        IngestGeneratedCollection(options, path_, file_options);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();

    PagedStoreOptions store_options;
    store_options.pool_bytes = 8 * 4096;  // smaller than the file: pages
    Result<std::unique_ptr<PagedEmbeddingStore>> paged =
        PagedEmbeddingStore::Open(path_, store_options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    paged_ = std::move(*paged);
  }

  void TearDown() override {
    paged_.reset();
    std::remove(path_.c_str());
  }

  // Ids of the generated records (first_id = 1, so row i is object i + 1).
  std::vector<ObjectId> RecordIds() const {
    std::vector<ObjectId> ids;
    ids.reserve(ram_->size());
    for (size_t i = 0; i < ram_->size(); ++i) ids.push_back(ram_->image(i).id);
    return ids;
  }

  Result<PagedColorSource> MakePaged(const Histogram& target,
                                     std::string label = "Color(paged)") {
    return PagedColorSource::Create(
        paged_.get(), ram_->color_distance().Embed(target),
        ram_->color_distance().MaxDistance(), std::move(label), RecordIds());
  }

  std::unique_ptr<ImageStore> ram_;
  std::unique_ptr<PagedEmbeddingStore> paged_;
  std::string path_;
};

TEST_F(PagedSourceTest, EquivalentToQbicColorSource) {
  const Histogram target = TargetHistogram(ram_->palette(), {1.0, 0.2, 0.1});
  Result<QbicColorSource> reference =
      QbicColorSource::Create(ram_.get(), target);
  Result<PagedColorSource> paged = MakePaged(target);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  AuditReport report = AuditSourceEquivalence(&*paged, &*reference);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(PagedSourceTest, SelfQueryRanksTheQueryImageFirst) {
  const ImageRecord& probe = ram_->image(31);
  Result<PagedColorSource> src = MakePaged(probe.histogram);
  ASSERT_TRUE(src.ok());
  std::optional<GradedObject> top = src->NextSorted();
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->id, probe.id);
  EXPECT_NEAR(top->grade, 1.0, 1e-9);
}

TEST_F(PagedSourceTest, IdentityIdModeServesTheSortedContract) {
  // No ids: row i is object i, grades live in a flat array — the mode that
  // scales to out-of-core N. The access contract must hold regardless.
  const Histogram target = TargetHistogram(ram_->palette(), {0.3, 1.0, 0.3});
  Result<PagedColorSource> src = PagedColorSource::Create(
      paged_.get(), ram_->color_distance().Embed(target),
      ram_->color_distance().MaxDistance());
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  EXPECT_EQ(src->Size(), ram_->size());
  AuditReport report = AuditSortedAccess(&*src);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Out-of-range random access is the conventional "absent" grade 0.
  EXPECT_EQ(src->RandomAccess(ram_->size() + 10), 0.0);
}

TEST_F(PagedSourceTest, MiddlewareAnswersMatchTheRamBackend) {
  // (Color ~ red) AND (Shape ~ round), color served from disk vs RAM, the
  // shape leg shared. Every algorithm must produce the same valid top-k.
  const Histogram red = TargetHistogram(ram_->palette(), {1.0, 0.1, 0.1});
  const Polygon round = Polygon::Regular(24);
  Result<QbicColorSource> ram_color = QbicColorSource::Create(ram_.get(), red);
  Result<PagedColorSource> disk_color = MakePaged(red);
  Result<QbicShapeSource> shape = QbicShapeSource::Create(ram_.get(), round);
  ASSERT_TRUE(ram_color.ok() && disk_color.ok() && shape.ok());

  ScoringRulePtr min = MinRule();
  std::vector<GradedSource*> ram_sources{&*ram_color, &*shape};
  Result<GradedSet> truth = NaiveAllGrades(ram_sources, *min);
  ASSERT_TRUE(truth.ok());

  const size_t k = 10;
  struct Algo {
    const char* name;
    std::function<Result<TopKResult>(std::span<GradedSource* const>)> run;
  };
  const std::vector<Algo> algos = {
      {"fagin", [&](std::span<GradedSource* const> s) {
         return FaginTopK(s, *min, k);
       }},
      {"ta", [&](std::span<GradedSource* const> s) {
         return ThresholdTopK(s, *min, k);
       }},
      {"nra", [&](std::span<GradedSource* const> s) {
         return NoRandomAccessTopK(s, *min, k);
       }},
      {"ca", [&](std::span<GradedSource* const> s) {
         return CombinedTopK(s, *min, k);
       }},
  };
  for (const Algo& algo : algos) {
    SCOPED_TRACE(algo.name);
    std::vector<GradedSource*> disk_sources{&*disk_color, &*shape};
    for (GradedSource* s : disk_sources) s->RestartSorted();
    Result<TopKResult> disk_top = algo.run(disk_sources);
    ASSERT_TRUE(disk_top.ok()) << disk_top.status().ToString();
    EXPECT_TRUE(IsValidTopK(disk_top->items, *truth, k));

    std::vector<GradedSource*> ram_run{&*ram_color, &*shape};
    for (GradedSource* s : ram_run) s->RestartSorted();
    Result<TopKResult> ram_top = algo.run(ram_run);
    ASSERT_TRUE(ram_top.ok());
    // Same sources semantically → identical items, grades, and costs.
    ASSERT_EQ(disk_top->items.size(), ram_top->items.size());
    for (size_t i = 0; i < ram_top->items.size(); ++i) {
      EXPECT_EQ(disk_top->items[i].id, ram_top->items[i].id) << "rank " << i;
      EXPECT_EQ(disk_top->items[i].grade, ram_top->items[i].grade)
          << "rank " << i;
    }
    EXPECT_EQ(disk_top->cost.sorted, ram_top->cost.sorted);
    EXPECT_EQ(disk_top->cost.random, ram_top->cost.random);
  }
}

TEST_F(PagedSourceTest, ServerDataVersionProbeInvalidatesCache) {
  const Histogram red = TargetHistogram(ram_->palette(), {1.0, 0.1, 0.1});
  Result<PagedColorSource> color = MakePaged(red);
  ASSERT_TRUE(color.ok());
  PagedColorSource* raw = &*color;
  SourceResolver resolver = [raw](const Query& atom) -> Result<GradedSource*> {
    if (atom.attribute() == "Color") return raw;
    return Status::NotFound("unknown attribute " + atom.attribute());
  };

  // Simulates the backing file's generation stamp (in production:
  // PagedEmbeddingStore::version(), bumped by re-ingest).
  std::atomic<uint64_t> generation{1};
  QueryServerOptions options;
  options.data_version = [&generation] { return generation.load(); };
  QueryServer server(options);  // no pool: inline, synchronous execution

  auto submit = [&] {
    Result<Submission> sub =
        server.Submit(Query::Atomic("Color", "red"), 5, resolver);
    EXPECT_TRUE(sub.ok()) << sub.status().ToString();
    raw->RestartSorted();
    return sub;
  };

  submit();                // computes and caches
  submit();                // cache hit
  EXPECT_EQ(server.stats().served_from_cache, 1u);

  generation.store(2);     // the collection was re-ingested
  submit();                // must recompute: the cache was invalidated
  EXPECT_EQ(server.stats().served_from_cache, 1u);
  submit();                // and the fresh result caches again
  EXPECT_EQ(server.stats().served_from_cache, 2u);
}

}  // namespace
}  // namespace storage
}  // namespace fuzzydb
