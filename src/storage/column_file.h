// The on-disk column-file format for embedding rows (DESIGN §3k).
//
// One file = one embedding column: N fixed-stride rows of doubles, packed
// into fixed-size pages that rows never straddle, behind a checksummed
// header. The value promise is exact: a row on disk holds the same doubles
// and zero pad as the RAM-resident store's row, row-major at
// EmbeddingStore::RowStride (whole cache lines). It no longer aliases the
// RAM row, which the store splits into 8-dim column groups; the distance
// accumulator maps dim j to lane j mod 8 either way, so any kernel that
// runs over a pinned page computes bit-identical results to the in-memory
// scan.
//
//   [ header block: FileHeader + eigenbasis metadata, FNV-1a checksummed ]
//   [ data pages:   page p holds rows [p*rpp, (p+1)*rpp), zero-padded     ]
//   [ quantized section (optional): scales | residuals | int8 codes       ]
//
// The header carries dim / stride / count / page geometry, a store-version
// stamp (the serving layer's cache-invalidation hook), and the eigenbasis
// metadata (the eigenvalues the embedding was projected with) so a reader
// can refuse a file that was built against a different spectrum. The
// quantized section persists the int8 companion tier (DESIGN §3g) built
// during ingestion, so Open() can load the RAM-resident level −1 filter
// with one sequential read instead of re-quantizing 2 passes over the data.
//
// Error model: every malformed input is a Status, never an abort —
//   InvalidArgument  not a column file at all (bad magic), or version skew;
//   DataLoss         the file *claims* to be ours but its bytes are wrong:
//                    checksum mismatch, short read, truncated section.

#ifndef FUZZYDB_STORAGE_COLUMN_FILE_H_
#define FUZZYDB_STORAGE_COLUMN_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "image/quantized_store.h"

namespace fuzzydb {
namespace storage {

/// FNV-1a 64-bit over a byte range — the header/section checksum. Chosen
/// for zero dependencies and total determinism; this guards against
/// truncation and bit rot, not adversaries. `state` is the running hash:
/// pass a previous result to checksum a section streamed in chunks.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t state = kFnvOffsetBasis);

/// Fixed-layout header written at offset 0. Trivially copyable; all fields
/// little-endian (the only byte order this toolchain targets — Open()
/// rejects a byte-swapped magic as "not a column file").
struct FileHeader {
  static constexpr char kMagic[8] = {'F', 'Z', 'D', 'B', 'C', 'O', 'L', '1'};
  static constexpr uint32_t kVersion = 1;

  char magic[8];
  uint32_t version;
  uint32_t header_bytes;  ///< Header struct + metadata doubles, checksummed.
  uint64_t count;         ///< Rows stored.
  uint32_t dim;           ///< Doubles of payload per row.
  uint32_t stride;        ///< Doubles between row starts (cache-line padded).
  uint32_t page_bytes;    ///< Data page size; multiple of 64.
  uint32_t rows_per_page;
  uint64_t data_offset;   ///< First data page; multiple of page_bytes.
  uint64_t store_version; ///< Generation stamp (cache invalidation hook).
  uint32_t meta_doubles;  ///< Eigenbasis metadata entries after the header.
  uint32_t quantized;     ///< 1 when the quantized section is present.
  uint64_t qsection_offset;
  uint64_t qsection_bytes;
  uint64_t qsection_checksum;
  uint64_t checksum;      ///< FNV-1a of header+metadata with this field 0.
};
static_assert(sizeof(FileHeader) == 96, "on-disk layout is part of the API");

/// Geometry/metadata options for writing a column file.
struct ColumnFileOptions {
  /// Data page size in bytes. Must be a multiple of 64 and hold at least
  /// one full row (stride(dim) * 8 bytes).
  size_t page_bytes = 64 * 1024;
  /// Generation stamp recorded in the header; bump when re-ingesting so
  /// serving-layer caches keyed on the old version go stale.
  uint64_t store_version = 1;
  /// Eigenbasis metadata (typically the eigenvalues of B = P A P): stored
  /// checksummed in the header block so a reader can detect a file built
  /// against a different spectrum. May also be supplied late via
  /// ColumnFileWriter::SetMetadata — see metadata_capacity.
  std::vector<double> metadata;
  /// Room reserved in the header block for metadata set after Create()
  /// (streaming ingest learns the spectrum mid-generation, after the
  /// writer exists). The effective reservation is
  /// max(metadata.size(), metadata_capacity) doubles.
  size_t metadata_capacity = 0;
  /// Build and persist the int8 quantized companion tier during Finish().
  /// Costs one re-read of the data section (codes need the final scales,
  /// which are only known after the last row).
  bool build_quantized = true;
};

/// Streaming writer: Create → AppendRow × N → Finish. Peak memory is one
/// page plus the running per-block scale maxima — never the full matrix —
/// which is what lets ingestion run at N far beyond RAM.
class ColumnFileWriter {
 public:
  static Result<std::unique_ptr<ColumnFileWriter>> Create(
      const std::string& path, size_t dim, ColumnFileOptions options = {});

  ~ColumnFileWriter();
  ColumnFileWriter(const ColumnFileWriter&) = delete;
  ColumnFileWriter& operator=(const ColumnFileWriter&) = delete;

  /// Appends one row of exactly dim doubles (the writer pads to stride).
  Status AppendRow(std::span<const double> row);

  /// Replaces the header metadata; any time before Finish(), at most the
  /// reserved capacity (see ColumnFileOptions::metadata_capacity).
  Status SetMetadata(std::vector<double> metadata);

  /// Flushes the last page, writes the quantized section (re-reading the
  /// data section it just wrote), then the checksummed header. The file is
  /// invalid until Finish returns OK. Idempotent error: any failure leaves
  /// a file Open() will reject.
  Status Finish();

  size_t rows_written() const { return rows_; }

 private:
  ColumnFileWriter() = default;

  Status FlushPage();
  Status WriteQuantizedSection();

  int fd_ = -1;
  std::string path_;
  ColumnFileOptions options_;
  size_t dim_ = 0;
  size_t stride_ = 0;  // doubles
  size_t rows_per_page_ = 0;
  size_t rows_ = 0;
  uint64_t data_offset_ = 0;
  uint64_t next_page_offset_ = 0;
  std::vector<double> page_;     // one page of doubles, being filled
  size_t rows_in_page_ = 0;
  std::vector<double> scale_max_;  // running per-block |x| maxima
  size_t meta_capacity_ = 0;       // doubles reserved in the header block
  uint64_t qsection_offset_ = 0;
  uint64_t qsection_bytes_ = 0;
  uint64_t qsection_checksum_ = 0;
  bool finished_ = false;
};

/// Read-only view of a finished column file: validated header + positioned
/// page reads. Thread-safe after Open (pread only), Close() included: a
/// read racing it either completes or fails FailedPrecondition, and the
/// descriptor stays open until the last owner drops the file, so no read
/// or readahead advice ever reaches a descriptor number the process has
/// reused.
class ColumnFile {
 public:
  static Result<std::shared_ptr<ColumnFile>> Open(const std::string& path);

  ~ColumnFile();
  ColumnFile(const ColumnFile&) = delete;
  ColumnFile& operator=(const ColumnFile&) = delete;

  const FileHeader& header() const { return header_; }
  size_t count() const { return header_.count; }
  size_t dim() const { return header_.dim; }
  size_t stride() const { return header_.stride; }
  size_t page_bytes() const { return header_.page_bytes; }
  size_t rows_per_page() const { return header_.rows_per_page; }
  size_t num_pages() const { return num_pages_; }
  uint64_t store_version() const { return header_.store_version; }
  /// Eigenbasis metadata recorded at write time (checksummed).
  const std::vector<double>& metadata() const { return metadata_; }

  /// Reads data page `page` (whole page, zero-padded tail) into `dest`
  /// (exactly page_bytes). DataLoss on a short read — the header promised
  /// those bytes. FailedPrecondition after Close().
  Status ReadPage(uint64_t page, std::span<char> dest) const;

  /// Advises the kernel that pages [page, page + pages) will be needed
  /// soon (readahead for sequential scans). Best-effort; never fails.
  void Advise(uint64_t page, uint64_t pages) const;

  /// Loads the persisted int8 quantized tier (empty store when the file
  /// was written without one). One sequential read, checksummed.
  Result<QuantizedStore> LoadQuantized() const;

  /// Marks the file closed: subsequent ReadPage and LoadQuantized calls
  /// return FailedPrecondition and Advise does nothing. The destructor
  /// releases the descriptor. Idempotent.
  void Close();

 private:
  ColumnFile() = default;

  int fd_ = -1;  // set by Open, closed by the destructor
  std::atomic<bool> closed_{false};
  FileHeader header_{};
  std::vector<double> metadata_;
  uint64_t num_pages_ = 0;
};

}  // namespace storage
}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_COLUMN_FILE_H_
