// Paged-store equivalence tests (DESIGN §3k): the acceptance criterion of
// the storage engine is that at every page size × pool size × shard count,
// the disk-backed store answers bit-identically to the RAM store built by
// ImageStore::Generate from the same seed. AuditPagingEquivalence does the
// exhaustive comparison; this file sweeps it over the configuration matrix
// and covers the store-level lifecycle (version stamp, metadata, Close,
// LoadToMemory, eviction pressure).
//
// Set FUZZYDB_STORAGE_STRESS=1 to widen the sweep (more pool sizes, more
// targets) — the ASan verify leg runs with it on.

#include "storage/paged_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/storage_audit.h"
#include "common/thread_pool.h"
#include "image/image_store.h"
#include "storage/buffer_pool.h"
#include "storage/column_file.h"
#include "storage/ingest.h"
#include "tests/cascade_reference.h"

namespace fuzzydb {
namespace storage {
namespace {

ImageStoreOptions SmallCollection() {
  ImageStoreOptions options;
  options.num_images = 400;
  options.palette_size = 16;
  options.seed = 20230807;
  return options;
}

bool StressMode() {
  const char* env = std::getenv("FUZZYDB_STORAGE_STRESS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "paged_" + name + ".fzdb";
}

// One ingest per page size, reused across pool configurations.
struct Fixture {
  ImageStore ram;
  IngestedCollection ingested;
  std::string path;
};

Fixture MakeFixture(const std::string& name, size_t page_bytes,
                    bool build_quantized = true) {
  const ImageStoreOptions options = SmallCollection();
  Result<ImageStore> ram = ImageStore::Generate(options);
  EXPECT_TRUE(ram.ok()) << ram.status().ToString();
  ColumnFileOptions file_options;
  file_options.page_bytes = page_bytes;
  file_options.store_version = 42;
  file_options.build_quantized = build_quantized;
  const std::string path = TestPath(name);
  Result<IngestedCollection> ingested =
      IngestGeneratedCollection(options, path, file_options);
  EXPECT_TRUE(ingested.ok()) << ingested.status().ToString();
  return Fixture{std::move(ram).value(), std::move(ingested).value(), path};
}

StorageAuditOptions AuditOptions(const ImageStore& ram) {
  StorageAuditOptions options;
  const size_t probes = StressMode() ? 6 : 3;
  for (size_t t = 0; t < probes; ++t) {
    const size_t i = (t * 131) % ram.size();
    options.targets.push_back(
        ram.color_distance().Embed(ram.image(i).histogram));
  }
  options.k = 10;
  options.shard_counts = {2, 3};
  return options;
}

TEST(PagedStoreTest, BitIdenticalAcrossPageAndPoolSizes) {
  const std::vector<size_t> page_sizes = {4096, 64 * 1024};
  for (size_t page_bytes : page_sizes) {
    Fixture fx = MakeFixture("sweep_" + std::to_string(page_bytes), page_bytes);
    const StorageAuditOptions audit = AuditOptions(fx.ram);

    // Pool caps: tiny (4 pages — smaller than the file, so the scan
    // evicts) and default (everything fits). Stress adds an in-between.
    std::vector<size_t> pool_bytes = {4 * page_bytes, 256ull * 1024 * 1024};
    if (StressMode()) pool_bytes.insert(pool_bytes.begin() + 1, 8 * page_bytes);

    for (size_t pool_cap : pool_bytes) {
      SCOPED_TRACE("page_bytes=" + std::to_string(page_bytes) +
                   " pool_bytes=" + std::to_string(pool_cap));
      PagedStoreOptions store_options;
      store_options.pool_bytes = pool_cap;
      Result<std::unique_ptr<PagedEmbeddingStore>> paged =
          PagedEmbeddingStore::Open(fx.path, store_options);
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();

      AuditReport report =
          AuditPagingEquivalence(**paged, fx.ram.embeddings(), audit);
      EXPECT_TRUE(report.ok()) << report.ToString();

      if (pool_cap == 4 * page_bytes && page_bytes == 4096) {
        // The tiny pool genuinely paged: the file is 13 pages, the pool 4.
        BufferPoolStats s = (*paged)->pool_stats();
        EXPECT_GT(s.evictions, 0u);
        EXPECT_GT(s.bytes_read_disk, 0u);
      }
    }
    std::remove(fx.path.c_str());
  }
}

TEST(PagedStoreTest, VersionAndMetadataSurviveTheRoundTrip) {
  Fixture fx = MakeFixture("meta", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ((*paged)->version(), 42u);
  // The eigenbasis spectrum rides in the file's metadata block.
  EXPECT_EQ((*paged)->metadata(), fx.ram.color_distance().eigenvalues());
  EXPECT_EQ((*paged)->size(), fx.ram.size());
  EXPECT_EQ((*paged)->dim(), fx.ram.embeddings().dim());
  EXPECT_TRUE((*paged)->has_quantized());
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, SingleRowDistanceMatchesRam) {
  Fixture fx = MakeFixture("probe", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(5).histogram);
  std::vector<double> expected(fx.ram.size());
  fx.ram.embeddings().BatchDistances(target, expected);
  for (size_t i : {size_t{0}, size_t{5}, size_t{131}, fx.ram.size() - 1}) {
    Result<double> d = (*paged)->Distance(target, i);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(*d, expected[i]) << "row " << i;
  }
  EXPECT_EQ((*paged)->Distance(target, fx.ram.size()).status().code(),
            StatusCode::kOutOfRange);
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, LoadToMemoryReconstitutesTheRamStore) {
  Fixture fx = MakeFixture("load", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  Result<EmbeddingStore> loaded = (*paged)->LoadToMemory();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The materialized store is itself a valid RAM reference: auditing the
  // paged store against it closes the loop disk → RAM → disk.
  AuditReport report =
      AuditPagingEquivalence(**paged, *loaded, AuditOptions(fx.ram));
  EXPECT_TRUE(report.ok()) << report.ToString();
  std::remove(fx.path.c_str());

  // Dims that end inside a column-group line, at row counts that stop just
  // short of a page, just past one, and a few rows into the third: the
  // row-major page rows scatter into the groups value for value, padding
  // lanes stay zero, the file's int8 tier equals one rebuilt from the rows,
  // and the row-major paged store and the column-group RAM store agree on
  // answers and counters at every shard count.
  constexpr size_t kPageBytes = 4096;
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (size_t dim : {3u, 27u}) {
    const size_t per_page =
        kPageBytes / (EmbeddingStore::RowStride(dim) * sizeof(double));
    for (size_t n : {per_page - 1, per_page + 1, 2 * per_page + 5}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " rows=" + std::to_string(n));
      std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
      for (std::vector<double>& row : rows) {
        for (size_t j = 0; j < dim; ++j) {
          row[j] = unit(rng) * std::exp(-0.15 * static_cast<double>(j));
        }
      }
      const std::string path =
          TestPath("load_" + std::to_string(dim) + "_" + std::to_string(n));
      ColumnFileOptions file_options;
      file_options.page_bytes = kPageBytes;
      {
        auto writer = ColumnFileWriter::Create(path, dim, file_options);
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        for (const std::vector<double>& row : rows) {
          ASSERT_TRUE((*writer)->AppendRow(row).ok());
        }
        ASSERT_TRUE((*writer)->Finish().ok());
      }
      Result<std::unique_ptr<PagedEmbeddingStore>> disk =
          PagedEmbeddingStore::Open(path);
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      ASSERT_TRUE((*disk)->has_quantized());
      Result<EmbeddingStore> ram = (*disk)->LoadToMemory();
      ASSERT_TRUE(ram.ok()) << ram.status().ToString();
      ASSERT_EQ(ram->size(), n);
      ASSERT_EQ(ram->dim(), dim);

      std::vector<double> row(dim);
      for (size_t i = 0; i < n; ++i) {
        ram->CopyRow(i, row);
        ASSERT_EQ(std::memcmp(row.data(), rows[i].data(), dim * sizeof(double)),
                  0)
            << "row " << i;
        for (size_t j = dim; j < ram->stride(); ++j) {
          const double pad = ram->Line(i, j / EmbeddingStore::kGroupDim)
                                 [j % EmbeddingStore::kGroupDim];
          ASSERT_EQ(std::bit_cast<uint64_t>(pad), 0u)
              << "row " << i << " lane " << j;
        }
      }

      // The RAM store adopts the file's tier: both must equal a tier built
      // afresh from the rows, so a wrong persisted tier still fails.
      const QuantizedStore rebuilt = QuantizedStore::Build(
          n, dim, [&rows](size_t i, std::span<double> out) {
            std::copy(rows[i].begin(), rows[i].end(), out.begin());
          });
      for (const QuantizedStore* tier :
           {(*disk)->quantized().get(), &ram->quantized()}) {
        ASSERT_EQ(tier->size(), rebuilt.size());
        EXPECT_EQ(std::memcmp(tier->scales().data(), rebuilt.scales().data(),
                              rebuilt.scales().size() * sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(tier->residuals().data(),
                              rebuilt.residuals().data(),
                              rebuilt.residuals().size() * sizeof(double)),
                  0);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::memcmp(tier->RowCodes(i).data(),
                                rebuilt.RowCodes(i).data(),
                                rebuilt.RowCodes(i).size()),
                    0)
              << "codes of row " << i;
        }
      }

      StorageAuditOptions options;
      options.targets = {rows[0], rows[n / 2], rows[n - 1]};
      for (double& v : options.targets[0]) v += 0.01;
      options.k = 7;
      options.shard_counts = {2, 3, 7};
      options.cascade = {.prefix_dim = 3};
      AuditReport audit = AuditPagingEquivalence(**disk, *ram, options);
      EXPECT_TRUE(audit.ok()) << audit.ToString();
      (*disk)->Close();
      std::remove(path.c_str());
    }
  }
}

TEST(PagedStoreTest, WarmCascadeReadsZeroDiskBytesAtLevelMinusOne) {
  Fixture fx = MakeFixture("warm", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);  // default pool: whole file fits
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(9).histogram);
  CascadeOptions cascade;
  cascade.use_quantized = true;
  // Cold query faults in whatever survivor pages it needs.
  CascadeStats cold;
  ASSERT_TRUE((*paged)->CascadeKnn(target, 10, cascade, &cold).ok());
  // Warm repeat of the same query: the int8 level is RAM-resident and the
  // survivor pages are retained, so zero bytes come off disk.
  CascadeStats warm;
  ASSERT_TRUE((*paged)->CascadeKnn(target, 10, cascade, &warm).ok());
  EXPECT_EQ(warm.bytes_read_disk, 0u);
  EXPECT_EQ(warm.buffer_pool_misses, 0u);
  EXPECT_GT(warm.buffer_pool_hits, 0u);
  EXPECT_GT(cold.bytes_read_disk, 0u);
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, QueriesAfterCloseFailCleanly) {
  Fixture fx = MakeFixture("close", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target(
      (*paged)->dim(), 0.25);
  (*paged)->Close();
  std::vector<double> out((*paged)->size());
  EXPECT_EQ((*paged)->BatchDistances(target, out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*paged)->ExactKnn(target, 5).status().code(),
            StatusCode::kFailedPrecondition);
  (*paged)->Close();  // idempotent
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, FileWithoutQuantizedTierStillAnswersExactly) {
  Fixture fx = MakeFixture("noquant", 4096, /*build_quantized=*/false);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  EXPECT_FALSE((*paged)->has_quantized());
  // Cascade still answers (it degrades to the float levels) and still
  // matches exact.
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(3).histogram);
  auto exact = (*paged)->ExactKnn(target, 10);
  auto cascade = (*paged)->CascadeKnn(target, 10);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(cascade.ok());
  EXPECT_EQ(*exact, *cascade);
  // With no tier in the file, LoadToMemory builds one from the rows.
  Result<EmbeddingStore> loaded = (*paged)->LoadToMemory();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->has_quantized());
  std::remove(fx.path.c_str());
}

// Both stores run the one sharded driver, so on a real pool they agree on
// answers and on every arithmetic counter at each shard count.
TEST(PagedStoreTest, PooledShardsMatchTheRamStoreAnswersAndCounters) {
  Fixture fx = MakeFixture("pooled", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const EmbeddingStore& ram = fx.ram.embeddings();
  ThreadPool pool(4);
  for (size_t t : {size_t{0}, size_t{77}, size_t{301}}) {
    const std::vector<double> target =
        fx.ram.color_distance().Embed(fx.ram.image(t).histogram);
    for (size_t shards : {2u, 3u, 4u}) {
      SCOPED_TRACE("target=" + std::to_string(t) +
                   " shards=" + std::to_string(shards));
      std::vector<double> want_distances(ram.size());
      std::vector<double> got_distances(ram.size());
      ram.BatchDistances(target, want_distances, &pool, shards);
      ASSERT_TRUE(
          (*paged)->BatchDistances(target, got_distances, &pool, shards).ok());
      EXPECT_EQ(got_distances, want_distances);

      Result<std::vector<std::pair<size_t, double>>> exact =
          (*paged)->ExactKnn(target, 10, &pool, shards);
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();
      cascade_reference::ExpectSameAnswer(
          *exact, ram.ExactKnn(target, 10, &pool, shards));

      for (bool int8 : {true, false}) {
        CascadeOptions options;
        options.use_quantized = int8;
        CascadeStats want_stats;
        const std::vector<std::pair<size_t, double>> want =
            ram.CascadeKnn(target, 10, options, &want_stats, &pool, shards);
        CascadeStats got_stats;
        Result<std::vector<std::pair<size_t, double>>> got =
            (*paged)->CascadeKnn(target, 10, options, &got_stats, &pool,
                                 shards);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        cascade_reference::ExpectSameAnswer(*got, want);
        // The pool counters are the paged store's own; the RAM store has
        // none, so only the arithmetic ones are compared.
        got_stats.bytes_read_disk = 0;
        got_stats.buffer_pool_hits = 0;
        got_stats.buffer_pool_misses = 0;
        got_stats.buffer_pool_evictions = 0;
        cascade_reference::ExpectSameStats(got_stats, want_stats);
      }
    }
  }
  (*paged)->Close();
  std::remove(fx.path.c_str());
}

// Every query boundary answers a target of the wrong size, or with a NaN or
// infinite entry, with InvalidArgument instead of reading past the span or
// feeding NaN to the top-k heaps; BatchDistances does the same for `out`.
TEST(PagedStoreTest, QueriesRejectMalformedTargets) {
  Fixture fx = MakeFixture("targets", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const PagedEmbeddingStore& store = **paged;
  const std::vector<double> good =
      fx.ram.color_distance().Embed(fx.ram.image(4).histogram);
  std::vector<double> nan_target = good;
  nan_target[3] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> inf_target = good;
  inf_target.back() = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad = {
      std::vector<double>(good.begin(), good.end() - 1),  // short
      [&] {
        std::vector<double> long_target = good;
        long_target.push_back(0.0);
        return long_target;
      }(),
      nan_target, inf_target};
  std::vector<double> out(store.size());
  for (size_t b = 0; b < bad.size(); ++b) {
    SCOPED_TRACE("bad target " + std::to_string(b));
    const std::vector<double>& target = bad[b];
    EXPECT_EQ(store.Distance(target, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(store.BatchDistances(target, out).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(store.ExactKnn(target, 5).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(store.CascadeKnn(target, 5).status().code(),
              StatusCode::kInvalidArgument);
  }
  std::vector<double> short_out(store.size() - 1);
  std::vector<double> long_out(store.size() + 1);
  EXPECT_EQ(store.BatchDistances(good, short_out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.BatchDistances(good, long_out).code(),
            StatusCode::kInvalidArgument);
  // The well-formed target still answers.
  EXPECT_TRUE(store.BatchDistances(good, out).ok());
  EXPECT_TRUE(store.CascadeKnn(good, 5).ok());
  (*paged)->Close();
  std::remove(fx.path.c_str());
}

// Paged twin of CascadeWalkOrderTest (image_embedding_test): the paged
// cascade visits the full-sort reference's sequence, so answers, every
// arithmetic counter and — because it also fetches the same pages in the
// same order — every buffer-pool counter match a reference walk over an
// identically sized pool of its own. The pool holds 16 of the file's 120
// pages, so the float bound pass evicts and survivor fetches miss.
TEST(PagedStoreTest, CascadeWalkMatchesTheFullSortWalkOnTieStorms) {
  using cascade_reference::GoldenCollection;
  const GoldenCollection golden = GoldenCollection::Make();
  const size_t n = golden.rows.size();
  const std::string path = TestPath("walk_order");
  ColumnFileOptions file_options;
  file_options.page_bytes = 4096;
  {
    Result<std::unique_ptr<ColumnFileWriter>> writer =
        ColumnFileWriter::Create(path, GoldenCollection::kDim, file_options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::vector<double>& row : golden.rows) {
      ASSERT_TRUE((*writer)->AppendRow(row).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  PagedStoreOptions store_options;
  store_options.pool_bytes = 16 * file_options.page_bytes;
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(path, store_options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE((*paged)->has_quantized());

  // The reference's own pool and accessor, fetching like the store's: pin
  // the next page before the previous one is released.
  Result<std::shared_ptr<ColumnFile>> file = ColumnFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ((*file)->num_pages(), 120u);
  BufferPoolOptions pool_options;
  pool_options.page_bytes = file_options.page_bytes;
  pool_options.capacity_pages = 16;
  BufferPool ref_pool(pool_options,
                      [f = *file](uint64_t page, std::span<char> dest) {
                        return f->ReadPage(page, dest);
                      });
  struct PoolRows {
    BufferPool* pool;
    size_t rows_per_page;
    size_t stride;
    PageHandle handle;
    const double* Acquire(size_t i) {
      const uint64_t page = i / rows_per_page;
      if (!handle.valid() || handle.page() != page) {
        Result<PageHandle> fetched = pool->Fetch(page);
        if (!fetched.ok()) return nullptr;
        handle = std::move(fetched).value();
      }
      return handle.doubles() + (i - page * rows_per_page) * stride;
    }
  };
  auto make_rows = [&] {
    return PoolRows{&ref_pool, (*file)->rows_per_page(), (*file)->stride(),
                    PageHandle()};
  };

  for (size_t t = 0; t < golden.targets.size(); ++t) {
    const std::vector<double>& target = golden.targets[t];
    for (size_t shards : {1u, 2u, 3u}) {
      for (bool int8 : {true, false}) {
        for (size_t k : {size_t{1}, size_t{10}, size_t{100}, n}) {
          SCOPED_TRACE("target=" + std::to_string(t) +
                       " shards=" + std::to_string(shards) +
                       " int8=" + std::to_string(int8) +
                       " k=" + std::to_string(k));
          CascadeOptions options;
          options.use_quantized = int8;
          const BufferPoolStats before = ref_pool.stats();
          CascadeStats want_stats;
          std::vector<std::pair<size_t, double>> want;
          ASSERT_TRUE(cascade_reference::FullSortCascadeKnn(
              make_rows, n, target, k, options,
              int8 ? (*paged)->quantized().get() : nullptr, shards, &want,
              &want_stats));
          const BufferPoolStats after = ref_pool.stats();
          want_stats.bytes_read_disk =
              after.bytes_read_disk - before.bytes_read_disk;
          want_stats.buffer_pool_hits = after.hits - before.hits;
          want_stats.buffer_pool_misses = after.misses - before.misses;
          want_stats.buffer_pool_evictions =
              after.evictions - before.evictions;

          CascadeStats got_stats;
          Result<std::vector<std::pair<size_t, double>>> got =
              (*paged)->CascadeKnn(target, k, options, &got_stats,
                                   /*pool=*/nullptr, shards);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          cascade_reference::ExpectSameAnswer(*got, want);
          cascade_reference::ExpectSameStats(got_stats, want_stats);
        }
      }
    }
  }
  EXPECT_GT(ref_pool.stats().evictions, 0u);
  (*paged)->Close();
  std::remove(path.c_str());
}

// A column file of n rows of dim 16 with a decaying spectrum, as E23's.
std::string WriteSpectrumRows(const std::string& name, size_t n,
                              uint64_t seed) {
  constexpr size_t kDim = 16;
  const std::string path = TestPath(name);
  auto writer = ColumnFileWriter::Create(path, kDim, ColumnFileOptions{});
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> row(kDim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kDim; ++j) {
      row[j] = unit(rng) * std::exp(-0.18 * static_cast<double>(j));
    }
    EXPECT_TRUE((*writer)->AppendRow(row).ok());
  }
  EXPECT_TRUE((*writer)->Finish().ok());
  return path;
}

std::vector<double> SpectrumTarget(size_t dim, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> t(dim);
  for (size_t j = 0; j < dim; ++j) {
    t[j] = unit(rng) * std::exp(-0.18 * static_cast<double>(j));
  }
  return t;
}

// The shard count a lone default-path query over n rows runs on.
size_t DefaultShards(size_t n) {
  constexpr size_t kRows = knn_internal::kMinShardRows;
  if (n < 2 * kRows) return 1;
  return std::max<size_t>(
      1, std::min(ThreadPool::Shared()->executors(), n / kRows));
}

// Drops the buffer-pool counters, which only the paged store has and which
// depend on what the pool held before the query.
CascadeStats Arithmetic(CascadeStats stats) {
  stats.bytes_read_disk = 0;
  stats.buffer_pool_hits = 0;
  stats.buffer_pool_misses = 0;
  stats.buffer_pool_evictions = 0;
  return stats;
}

// A query that names neither a pool nor a shard count: the RAM store
// shards a store of at least twice knn_internal::kMinShardRows rows across
// the shared pool and runs a smaller one serially; the paged store runs
// one serial pass at every size. For every query kind, just below and
// above the crossover: answers are bit-identical to one shard, and the
// cascade's counters equal an explicit run at the resolved count (below
// the crossover, and on the paged store, one shard's exactly).
TEST(PagedStoreTest, DefaultPathShardsAboveTheCrossoverOnly) {
  constexpr size_t kRows = knn_internal::kMinShardRows;
  for (size_t n : {2 * kRows - 1, 2 * kRows, 4 * kRows + 3}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    const std::string path =
        WriteSpectrumRows("default_" + std::to_string(n), n, 20261022 + n);
    Result<std::unique_ptr<PagedEmbeddingStore>> paged =
        PagedEmbeddingStore::Open(path);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    Result<EmbeddingStore> ram = (*paged)->LoadToMemory();
    ASSERT_TRUE(ram.ok()) << ram.status().ToString();
    const size_t resolved = DefaultShards(n);
    const std::vector<double> target = SpectrumTarget(ram->dim(), n);

    std::vector<double> serial(n);
    std::vector<double> got(n);
    ram->BatchDistances(target, serial, nullptr, 1);
    ram->BatchDistances(target, got);
    EXPECT_EQ(got, serial);
    std::fill(got.begin(), got.end(), 0.0);
    ASSERT_TRUE((*paged)->BatchDistances(target, got).ok());
    EXPECT_EQ(got, serial);

    const std::vector<std::pair<size_t, double>> exact =
        ram->ExactKnn(target, 10, nullptr, 1);
    cascade_reference::ExpectSameAnswer(ram->ExactKnn(target, 10), exact);
    Result<std::vector<std::pair<size_t, double>>> paged_exact =
        (*paged)->ExactKnn(target, 10);
    ASSERT_TRUE(paged_exact.ok()) << paged_exact.status().ToString();
    cascade_reference::ExpectSameAnswer(*paged_exact, exact);

    for (bool int8 : {true, false}) {
      SCOPED_TRACE(int8 ? "int8" : "float");
      CascadeOptions options;
      options.use_quantized = int8;
      CascadeStats one_stats;
      cascade_reference::ExpectSameAnswer(
          ram->CascadeKnn(target, 10, options, &one_stats, nullptr, 1), exact);
      CascadeStats want_stats;
      ram->CascadeKnn(target, 10, options, &want_stats, nullptr, resolved);
      if (resolved == 1) cascade_reference::ExpectSameStats(want_stats, one_stats);

      CascadeStats ram_stats;
      cascade_reference::ExpectSameAnswer(
          ram->CascadeKnn(target, 10, options, &ram_stats), exact);
      cascade_reference::ExpectSameStats(ram_stats, want_stats);
      CascadeStats paged_stats;
      Result<std::vector<std::pair<size_t, double>>> paged_cascade =
          (*paged)->CascadeKnn(target, 10, options, &paged_stats);
      ASSERT_TRUE(paged_cascade.ok()) << paged_cascade.status().ToString();
      cascade_reference::ExpectSameAnswer(*paged_cascade, exact);
      cascade_reference::ExpectSameStats(Arithmetic(paged_stats), one_stats);
    }
    (*paged)->Close();
    std::remove(path.c_str());
  }
}

// Four threads query one store at once on the default path: whichever plan
// each RAM query gets (the shared pool's shards, or one serial pass while
// the pool is taken or the other callers hold the cores), and on the
// paged store's serial default, every answer equals the serial one.
TEST(PagedStoreTest, ConcurrentDefaultPathCallersGetTheSerialAnswers) {
  constexpr size_t kThreads = 4;
  constexpr size_t kQueries = 6;
  const size_t n = 4 * knn_internal::kMinShardRows + 3;
  const std::string path = WriteSpectrumRows("default_concurrent", n, 7);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  Result<EmbeddingStore> ram = (*paged)->LoadToMemory();
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();

  // Query q runs kind q % 3: int8 cascade, float cascade, exact.
  auto run = [&](bool on_paged, size_t q, size_t shards) {
    const std::vector<double> target = SpectrumTarget(ram->dim(), 100 + q);
    CascadeOptions options;
    options.use_quantized = q % 3 == 0;
    if (on_paged) {
      auto got = q % 3 == 2
                     ? (*paged)->ExactKnn(target, 10, nullptr, shards)
                     : (*paged)->CascadeKnn(target, 10, options, nullptr,
                                            nullptr, shards);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      return got.ok() ? *got : std::vector<std::pair<size_t, double>>{};
    }
    return q % 3 == 2 ? ram->ExactKnn(target, 10, nullptr, shards)
                      : ram->CascadeKnn(target, 10, options, nullptr, nullptr,
                                        shards);
  };
  std::vector<std::vector<std::pair<size_t, double>>> want(kThreads *
                                                           kQueries);
  for (size_t q = 0; q < want.size(); ++q) want[q] = run(false, q, 1);

  for (bool on_paged : {false, true}) {
    SCOPED_TRACE(on_paged ? "paged" : "ram");
    std::vector<std::vector<std::pair<size_t, double>>> got(want.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kThreads; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < kQueries; ++i) {
          const size_t q = c * kQueries + i;
          got[q] = run(on_paged, q, 0);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t q = 0; q < want.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      cascade_reference::ExpectSameAnswer(got[q], want[q]);
    }
  }
  (*paged)->Close();
  std::remove(path.c_str());
}

// LoadToMemory shares the paged store's int8 tier instead of copying it,
// and Close() drops the paged store's reference: the RAM store then holds
// the only one, and answers with the same bits and counters after the
// paged store is gone.
TEST(PagedStoreTest, RamStoreKeepsTheSharedTierAfterThePagedStoreCloses) {
  const size_t n = 3000;
  const std::string path = WriteSpectrumRows("shared_tier", n, 11);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  Result<EmbeddingStore> ram = (*paged)->LoadToMemory();
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  ASSERT_TRUE(ram->has_quantized());
  EXPECT_EQ(&ram->quantized(), (*paged)->quantized().get());

  const std::vector<double> target = SpectrumTarget(ram->dim(), 5);
  CascadeStats before_stats;
  const std::vector<std::pair<size_t, double>> before =
      ram->CascadeKnn(target, 10, {}, &before_stats);
  EXPECT_EQ(before_stats.quantized_bound_computations, n);

  (*paged)->Close();
  EXPECT_EQ((*paged)->quantized(), nullptr);
  EXPECT_FALSE((*paged)->has_quantized());
  paged->reset();
  std::remove(path.c_str());

  CascadeStats after_stats;
  cascade_reference::ExpectSameAnswer(
      ram->CascadeKnn(target, 10, {}, &after_stats), before);
  cascade_reference::ExpectSameStats(after_stats, before_stats);
  cascade_reference::ExpectSameAnswer(ram->ExactKnn(target, 10), before);
}

// An int8 query racing Close() holds its own reference to the tier, so the
// level −1 scan never reads a freed tier: each query either answers exactly
// or fails FailedPrecondition once the pool is closed.
TEST(PagedStoreTest, Int8QueriesRacingCloseAnswerOrFailCleanly) {
  const size_t n = 3000;
  const std::string path = WriteSpectrumRows("close_race", n, 13);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const std::vector<double> target = SpectrumTarget((*paged)->dim(), 9);
  Result<std::vector<std::pair<size_t, double>>> want =
      (*paged)->ExactKnn(target, 10);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        Result<std::vector<std::pair<size_t, double>>> got =
            (*paged)->CascadeKnn(target, 10);
        if (got.ok()) {
          cascade_reference::ExpectSameAnswer(*got, *want);
        } else {
          EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
        }
      }
    });
  }
  (*paged)->Close();
  for (std::thread& t : threads) t.join();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace fuzzydb
