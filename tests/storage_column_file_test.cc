// Column-file format tests (DESIGN §3k): round trips, geometry, and —
// centrally — the corruption matrix: every malformed input must come back
// as a Status (InvalidArgument for "not ours / wrong version", DataLoss
// for "ours but the bytes lie"), never as an abort or a garbage answer.

#include "storage/column_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <vector>

#include "image/embedding_store.h"
#include "image/quantized_store.h"

namespace fuzzydb {
namespace storage {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "colfile_" + name + ".fzdb";
}

// Deterministic rows with a decaying per-dimension scale, embedding-like.
std::vector<std::vector<double>> MakeRows(size_t n, size_t dim,
                                          uint64_t seed = 42) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (auto& row : rows) {
    for (size_t j = 0; j < dim; ++j) {
      row[j] = unit(rng) / (1.0 + 0.3 * static_cast<double>(j));
    }
  }
  return rows;
}

void WriteFile(const std::string& path,
               const std::vector<std::vector<double>>& rows,
               ColumnFileOptions options = {}) {
  auto writer = ColumnFileWriter::Create(path, rows[0].size(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const auto& row : rows) {
    ASSERT_TRUE((*writer)->AppendRow(row).ok());
  }
  Status finished = (*writer)->Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();
}

TEST(ColumnFileTest, RoundTripsRowsBitExactly) {
  const std::string path = TestPath("roundtrip");
  const size_t dim = 11;  // deliberately not a multiple of the line size
  const auto rows = MakeRows(100, dim);
  ColumnFileOptions options;
  options.page_bytes = 4096;
  options.metadata = {3.0, 2.0, 1.0};
  options.store_version = 7;
  WriteFile(path, rows, options);

  auto file = ColumnFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->count(), rows.size());
  EXPECT_EQ((*file)->dim(), dim);
  EXPECT_EQ((*file)->stride(), EmbeddingStore::RowStride(dim));
  EXPECT_EQ((*file)->store_version(), 7u);
  EXPECT_EQ((*file)->metadata(), options.metadata);

  // Every row, every payload double, bit-exact; pad doubles zero.
  const size_t stride = (*file)->stride();
  const size_t rpp = (*file)->rows_per_page();
  std::vector<char> page((*file)->page_bytes());
  for (uint64_t p = 0; p < (*file)->num_pages(); ++p) {
    ASSERT_TRUE((*file)->ReadPage(p, page).ok());
    const size_t begin = p * rpp;
    const size_t n = std::min(rpp, rows.size() - begin);
    for (size_t i = 0; i < n; ++i) {
      const double* disk = reinterpret_cast<const double*>(
          page.data() + i * stride * sizeof(double));
      EXPECT_EQ(0, std::memcmp(disk, rows[begin + i].data(),
                               dim * sizeof(double)))
          << "row " << begin + i;
      for (size_t j = dim; j < stride; ++j) {
        EXPECT_EQ(disk[j], 0.0) << "pad of row " << begin + i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ColumnFileTest, PersistedQuantizedTierEqualsRebuilt) {
  const std::string path = TestPath("quantized");
  const size_t dim = 24;
  const auto rows = MakeRows(257, dim);  // odd count: partial last page
  ColumnFileOptions options;
  options.page_bytes = 4096;
  WriteFile(path, rows, options);

  auto file = ColumnFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto loaded = (*file)->LoadQuantized();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_FALSE(loaded->empty());

  // Rebuild from the same rows in RAM; the persisted parts must be
  // byte-identical (same scales arithmetic, same EncodeRowAgainst).
  EmbeddingStore ram(rows.size(), dim);
  for (size_t i = 0; i < rows.size(); ++i) ram.SetRow(i, rows[i]);
  ram.BuildQuantized();
  const QuantizedStore& rebuilt = ram.quantized();

  ASSERT_EQ(loaded->size(), rebuilt.size());
  ASSERT_EQ(loaded->dim(), rebuilt.dim());
  EXPECT_EQ(0, std::memcmp(loaded->scales().data(), rebuilt.scales().data(),
                           rebuilt.scales().size() * sizeof(double)));
  EXPECT_EQ(0,
            std::memcmp(loaded->residuals().data(), rebuilt.residuals().data(),
                        rebuilt.residuals().size() * sizeof(double)));
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(loaded->RowCodes(i).data(),
                             rebuilt.RowCodes(i).data(),
                             rebuilt.RowCodes(i).size()))
        << "codes of row " << i;
  }
  std::remove(path.c_str());
}

TEST(ColumnFileTest, WriterValidatesArguments) {
  EXPECT_EQ(ColumnFileWriter::Create(TestPath("bad"), 0).status().code(),
            StatusCode::kInvalidArgument);
  ColumnFileOptions tiny;
  tiny.page_bytes = 64;  // smaller than one 16-dim row (128 bytes)
  EXPECT_EQ(ColumnFileWriter::Create(TestPath("bad"), 16, tiny)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ColumnFileOptions odd;
  odd.page_bytes = 1000;  // not a multiple of 64
  EXPECT_EQ(ColumnFileWriter::Create(TestPath("bad"), 4, odd).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ColumnFileTest, WrongDimensionRowIsRejected) {
  const std::string path = TestPath("wrongdim");
  auto writer = ColumnFileWriter::Create(path, 8);
  ASSERT_TRUE(writer.ok());
  std::vector<double> short_row(7, 0.5);
  EXPECT_EQ((*writer)->AppendRow(short_row).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ColumnFileTest, MetadataCapacityIsEnforced) {
  const std::string path = TestPath("metacap");
  ColumnFileOptions options;
  options.metadata_capacity = 4;
  auto writer = ColumnFileWriter::Create(path, 8, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->SetMetadata(std::vector<double>(5, 1.0)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->SetMetadata({1.0, 2.0}).ok());
  ASSERT_TRUE((*writer)->AppendRow(std::vector<double>(8, 0.25)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto file = ColumnFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->metadata(), (std::vector<double>{1.0, 2.0}));
  std::remove(path.c_str());
}

// --- The corruption matrix -------------------------------------------------

class ColumnFileCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("corrupt");
    ColumnFileOptions options;
    options.page_bytes = 4096;
    options.metadata = {2.5, 1.5};
    WriteFile(path_, MakeRows(64, 16), options);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Overwrites `len` bytes at `offset` with `byte`.
  void Clobber(uint64_t offset, size_t len, char byte) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    std::vector<char> junk(len, byte);
    f.write(junk.data(), static_cast<std::streamsize>(len));
  }

  void Truncate(uint64_t new_size) {
    ASSERT_EQ(0, ::truncate(path_.c_str(), static_cast<off_t>(new_size)));
  }

  std::string path_;
};

TEST_F(ColumnFileCorruptionTest, BadMagicIsInvalidArgument) {
  Clobber(0, 4, 'X');
  auto file = ColumnFile::Open(path_);
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ColumnFileCorruptionTest, VersionSkewIsInvalidArgument) {
  // The version field sits right after the 8-byte magic.
  uint32_t future = 99;
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);
  f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  f.close();
  auto file = ColumnFile::Open(path_);
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(file.status().message().find("version skew"), std::string::npos);
}

TEST_F(ColumnFileCorruptionTest, FlippedHeaderByteIsDataLoss) {
  // Somewhere inside the count field: geometry stays plausible, checksum
  // must catch it.
  Clobber(16, 1, 0x5a);
  auto file = ColumnFile::Open(path_);
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnFileCorruptionTest, FlippedMetadataByteIsDataLoss) {
  Clobber(sizeof(FileHeader) + 3, 1, 0x5a);
  auto file = ColumnFile::Open(path_);
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnFileCorruptionTest, TruncatedDataSectionIsDataLoss) {
  Truncate(5000);  // header page survives, data pages gone
  auto file = ColumnFile::Open(path_);
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnFileCorruptionTest, TruncatedHeaderIsDataLoss) {
  Truncate(40);  // good magic, short header
  auto file = ColumnFile::Open(path_);
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnFileCorruptionTest, TruncatedQuantizedSectionIsDataLoss) {
  // Drop the tail of the file: data pages intact, qsection short.
  struct stat st;
  ASSERT_EQ(0, ::stat(path_.c_str(), &st));
  Truncate(static_cast<uint64_t>(st.st_size) - 16);
  auto file = ColumnFile::Open(path_);
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnFileCorruptionTest, FlippedQuantizedByteIsDataLoss) {
  auto file = ColumnFile::Open(path_);
  ASSERT_TRUE(file.ok());
  const uint64_t qoff = (*file)->header().qsection_offset;
  (*file)->Close();
  Clobber(qoff + 64, 1, 0x77);
  auto reopened = ColumnFile::Open(path_);
  ASSERT_TRUE(reopened.ok());  // header is fine...
  auto quantized = (*reopened)->LoadQuantized();  // ...the section is not
  EXPECT_EQ(quantized.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnFileCorruptionTest, NotAFileAtAllIsInvalidArgument) {
  const std::string garbage = TestPath("garbage");
  std::ofstream f(garbage, std::ios::binary);
  f << "this is not a column file, it is prose";
  f.close();
  auto file = ColumnFile::Open(garbage);
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  std::remove(garbage.c_str());
}

TEST_F(ColumnFileCorruptionTest, EmptyFileIsInvalidArgument) {
  const std::string empty = TestPath("empty");
  std::ofstream(empty, std::ios::binary).close();
  auto file = ColumnFile::Open(empty);
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  std::remove(empty.c_str());
}

TEST_F(ColumnFileCorruptionTest, MissingFileIsNotFound) {
  auto file = ColumnFile::Open(TestPath("never_written"));
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

TEST_F(ColumnFileCorruptionTest, ReadAfterCloseIsFailedPrecondition) {
  auto file = ColumnFile::Open(path_);
  ASSERT_TRUE(file.ok());
  (*file)->Close();
  std::vector<char> page((*file)->page_bytes());
  EXPECT_EQ((*file)->ReadPage(0, page).code(),
            StatusCode::kFailedPrecondition);
  (*file)->Close();  // idempotent
}

TEST(ColumnFileTest, UnfinishedFileIsRejected) {
  const std::string path = TestPath("unfinished");
  {
    auto writer = ColumnFileWriter::Create(path, 8);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRow(std::vector<double>(8, 1.0)).ok());
    // No Finish(): the header was never written.
  }
  auto file = ColumnFile::Open(path);
  EXPECT_FALSE(file.ok());
  std::remove(path.c_str());
}

TEST(ColumnFileTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors (64-bit).
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
  // Chaining: hashing in two chunks equals hashing at once.
  const char data[] = "foobar";
  EXPECT_EQ(Fnv1a64(data + 3, 3, Fnv1a64(data, 3)), Fnv1a64(data, 6));
}

}  // namespace
}  // namespace storage
}  // namespace fuzzydb
