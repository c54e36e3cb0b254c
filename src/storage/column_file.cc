#include "storage/column_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/simd_dispatch.h"
#include "image/embedding_store.h"

namespace fuzzydb {
namespace storage {

// The header comment's "all fields little-endian" is enforced here rather
// than byte-swapped at runtime: this project only targets x86-64.
static_assert(std::endian::native == std::endian::little,
              "column files are little-endian on disk");

uint64_t Fnv1a64(const void* data, size_t size, uint64_t state) {
  constexpr uint64_t kPrime = 1099511628211ull;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state ^= p[i];
    state *= kPrime;
  }
  return state;
}

namespace {

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::Internal(std::string(op) + " failed for " + path + ": " +
                          std::strerror(errno));
}

// Full-length pwrite: loops on partial writes, Internal on error.
Status WriteAll(int fd, const void* data, size_t size, uint64_t offset,
                const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", path);
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

// Full-length pread. `short_is_data_loss` selects the error for EOF before
// `size` bytes: DataLoss when the header promised the bytes, InvalidArgument
// while still probing whether this is a column file at all.
Status ReadAll(int fd, void* data, size_t size, uint64_t offset,
               const std::string& what) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::pread(fd, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("pread failed: " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status::DataLoss("short read: " + what +
                              " ends before its promised extent");
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

uint64_t RoundUp(uint64_t value, uint64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

uint64_t PagesFor(uint64_t count, uint64_t rows_per_page) {
  return (count + rows_per_page - 1) / rows_per_page;
}

// Header-block checksum: the struct with its checksum field zeroed, then
// the metadata doubles.
uint64_t HeaderChecksum(FileHeader header, const std::vector<double>& meta) {
  header.checksum = 0;
  uint64_t state = Fnv1a64(&header, sizeof(header));
  return Fnv1a64(meta.data(), meta.size() * sizeof(double), state);
}

}  // namespace

// ---------------------------------------------------------------------------
// ColumnFileWriter

Result<std::unique_ptr<ColumnFileWriter>> ColumnFileWriter::Create(
    const std::string& path, size_t dim, ColumnFileOptions options) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (options.page_bytes == 0 || options.page_bytes % 64 != 0) {
    return Status::InvalidArgument(
        "page_bytes must be a positive multiple of 64");
  }
  const size_t stride = EmbeddingStore::RowStride(dim);
  if (options.page_bytes < stride * sizeof(double)) {
    return Status::InvalidArgument(
        "page_bytes smaller than one row; need at least " +
        std::to_string(stride * sizeof(double)));
  }
  if (options.build_quantized &&
      dim > QuantizedStore::kMaxBlocks * QuantizedStore::kBlockDim) {
    return Status::InvalidArgument(
        "dim too large for the quantized tier; pass build_quantized=false");
  }

  // O_RDWR: Finish() re-reads the data section it just wrote to encode the
  // quantized tier against the final scales.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);

  auto writer = std::unique_ptr<ColumnFileWriter>(new ColumnFileWriter());
  writer->fd_ = fd;
  writer->path_ = path;
  writer->options_ = std::move(options);
  writer->dim_ = dim;
  writer->stride_ = stride;
  writer->rows_per_page_ =
      writer->options_.page_bytes / (stride * sizeof(double));
  // The header block (struct + reserved metadata room) rounds up to a page
  // boundary so data pages are page-aligned in the file (direct offset
  // arithmetic, and the kernel's readahead works on aligned extents).
  writer->meta_capacity_ = std::max(writer->options_.metadata.size(),
                                    writer->options_.metadata_capacity);
  const uint64_t header_bytes =
      sizeof(FileHeader) + writer->meta_capacity_ * sizeof(double);
  writer->data_offset_ = RoundUp(header_bytes, writer->options_.page_bytes);
  writer->next_page_offset_ = writer->data_offset_;
  writer->page_.assign(writer->options_.page_bytes / sizeof(double), 0.0);
  writer->scale_max_.assign(QuantizedStore::NumBlocks(dim), 0.0);
  return writer;
}

ColumnFileWriter::~ColumnFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status ColumnFileWriter::AppendRow(std::span<const double> row) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (row.size() != dim_) {
    return Status::InvalidArgument("row has wrong dimension");
  }
  double* dest = page_.data() + rows_in_page_ * stride_;
  std::copy(row.begin(), row.end(), dest);
  // The pad dest[dim_..stride_) stays zero: the buffer starts zeroed and
  // FlushPage re-zeroes it.
  if (options_.build_quantized) {
    // Running per-block maxima; max is exact and order-independent, so the
    // streamed scales equal QuantizedStore::Build's two-pass scales bit for
    // bit.
    for (size_t j = 0; j < dim_; ++j) {
      double& m = scale_max_[j / QuantizedStore::kBlockDim];
      m = std::max(m, std::fabs(row[j]));
    }
  }
  ++rows_;
  if (++rows_in_page_ == rows_per_page_) return FlushPage();
  return Status::OK();
}

Status ColumnFileWriter::SetMetadata(std::vector<double> metadata) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (metadata.size() > meta_capacity_) {
    return Status::InvalidArgument(
        "metadata exceeds the capacity reserved at Create (" +
        std::to_string(meta_capacity_) + " doubles)");
  }
  options_.metadata = std::move(metadata);
  return Status::OK();
}

Status ColumnFileWriter::FlushPage() {
  FUZZYDB_RETURN_NOT_OK(WriteAll(fd_, page_.data(),
                                   options_.page_bytes, next_page_offset_,
                                   path_));
  next_page_offset_ += options_.page_bytes;
  std::fill(page_.begin(), page_.end(), 0.0);
  rows_in_page_ = 0;
  return Status::OK();
}

Status ColumnFileWriter::WriteQuantizedSection() {
  // Finalize the scales exactly as QuantizedStore::Build does.
  const size_t blocks = scale_max_.size();
  const size_t padded = QuantizedStore::PaddedDim(dim_);
  std::vector<double> scales(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    scales[b] = scale_max_[b] / static_cast<double>(simd::kInt8CodeMax);
  }

  // Section layout: scales | codes | residuals — codes in the middle so
  // both the codes (streamed) and the checksum (chained in file order) can
  // be produced in one re-read pass over the data section.
  const uint64_t qoff = next_page_offset_;
  const uint64_t codes_off = qoff + blocks * sizeof(double);
  const uint64_t residuals_off = codes_off + rows_ * padded;

  FUZZYDB_RETURN_NOT_OK(
      WriteAll(fd_, scales.data(), blocks * sizeof(double), qoff, path_));
  uint64_t qsum = Fnv1a64(scales.data(), blocks * sizeof(double));

  // One page of rows in, one page of codes out; residuals (8B/row) are the
  // only per-row state held across the pass — they are RAM-resident at
  // serving time anyway.
  std::vector<double> residuals(rows_);
  std::vector<double> page(options_.page_bytes / sizeof(double));
  std::vector<int8_t> codes(rows_per_page_ * padded);
  const uint64_t pages = PagesFor(rows_, rows_per_page_);
  for (uint64_t p = 0; p < pages; ++p) {
    FUZZYDB_RETURN_NOT_OK(ReadAll(fd_, page.data(), options_.page_bytes,
                                    data_offset_ + p * options_.page_bytes,
                                    "data section (quantize pass)"));
    const size_t begin = p * rows_per_page_;
    const size_t n = std::min(rows_per_page_, rows_ - begin);
    std::fill(codes.begin(), codes.end(), 0);  // zero block pad
    for (size_t i = 0; i < n; ++i) {
      residuals[begin + i] = QuantizedStore::EncodeRowAgainst(
          page.data() + i * stride_, dim_, scales, codes.data() + i * padded);
    }
    FUZZYDB_RETURN_NOT_OK(
        WriteAll(fd_, codes.data(), n * padded, codes_off + begin * padded,
                 path_));
    qsum = Fnv1a64(codes.data(), n * padded, qsum);
  }

  FUZZYDB_RETURN_NOT_OK(WriteAll(fd_, residuals.data(),
                                   rows_ * sizeof(double), residuals_off,
                                   path_));
  qsum = Fnv1a64(residuals.data(), rows_ * sizeof(double), qsum);

  qsection_offset_ = qoff;
  qsection_bytes_ = residuals_off + rows_ * sizeof(double) - qoff;
  qsection_checksum_ = qsum;
  return Status::OK();
}

Status ColumnFileWriter::Finish() {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (rows_ == 0) return Status::InvalidArgument("no rows written");
  if (rows_in_page_ > 0) FUZZYDB_RETURN_NOT_OK(FlushPage());

  const bool quantize = options_.build_quantized;
  if (quantize) FUZZYDB_RETURN_NOT_OK(WriteQuantizedSection());

  FileHeader header{};
  std::memcpy(header.magic, FileHeader::kMagic, sizeof(header.magic));
  header.version = FileHeader::kVersion;
  header.header_bytes = static_cast<uint32_t>(
      sizeof(FileHeader) + options_.metadata.size() * sizeof(double));
  header.count = rows_;
  header.dim = static_cast<uint32_t>(dim_);
  header.stride = static_cast<uint32_t>(stride_);
  header.page_bytes = static_cast<uint32_t>(options_.page_bytes);
  header.rows_per_page = static_cast<uint32_t>(rows_per_page_);
  header.data_offset = data_offset_;
  header.store_version = options_.store_version;
  header.meta_doubles = static_cast<uint32_t>(options_.metadata.size());
  header.quantized = quantize ? 1 : 0;
  header.qsection_offset = quantize ? qsection_offset_ : 0;
  header.qsection_bytes = quantize ? qsection_bytes_ : 0;
  header.qsection_checksum = quantize ? qsection_checksum_ : 0;
  header.checksum = HeaderChecksum(header, options_.metadata);

  // Metadata first, header last: the magic only becomes valid once
  // everything it promises is on disk.
  FUZZYDB_RETURN_NOT_OK(WriteAll(fd_, options_.metadata.data(),
                                   options_.metadata.size() * sizeof(double),
                                   sizeof(FileHeader), path_));
  FUZZYDB_RETURN_NOT_OK(WriteAll(fd_, &header, sizeof(header), 0, path_));
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  ::close(fd_);
  fd_ = -1;
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ColumnFile

Result<std::shared_ptr<ColumnFile>> ColumnFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  auto file = std::shared_ptr<ColumnFile>(new ColumnFile());
  file->fd_ = fd;

  // Probe the magic before trusting anything: a too-short or mismatched
  // prefix means "not a column file" (InvalidArgument), while any defect
  // *after* a good magic means corruption of our own format (DataLoss).
  struct stat st;
  if (::fstat(fd, &st) != 0) return ErrnoStatus("fstat", path);
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < sizeof(FileHeader::kMagic)) {
    return Status::InvalidArgument(path + " is not a column file (too small)");
  }
  char magic[sizeof(FileHeader::kMagic)];
  FUZZYDB_RETURN_NOT_OK(ReadAll(fd, magic, sizeof(magic), 0, "magic"));
  if (std::memcmp(magic, FileHeader::kMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(path + " is not a column file (bad magic)");
  }
  if (file_bytes < sizeof(FileHeader)) {
    return Status::DataLoss(path + ": truncated header");
  }
  FUZZYDB_RETURN_NOT_OK(
      ReadAll(fd, &file->header_, sizeof(FileHeader), 0, "header"));
  const FileHeader& h = file->header_;
  if (h.version != FileHeader::kVersion) {
    return Status::InvalidArgument(
        path + ": version skew: file v" + std::to_string(h.version) +
        ", reader v" + std::to_string(FileHeader::kVersion));
  }
  if (h.header_bytes !=
      sizeof(FileHeader) + uint64_t{h.meta_doubles} * sizeof(double)) {
    return Status::DataLoss(path + ": header_bytes disagrees with metadata");
  }
  // Geometry sanity: reject before any arithmetic can divide by zero or
  // index past the file.
  if (h.dim == 0 || h.stride < h.dim || h.page_bytes == 0 ||
      h.page_bytes % 64 != 0 ||
      h.rows_per_page != h.page_bytes / (h.stride * sizeof(double)) ||
      h.rows_per_page == 0 || h.count == 0 ||
      h.data_offset % h.page_bytes != 0 || h.data_offset < h.header_bytes) {
    return Status::DataLoss(path + ": header geometry is inconsistent");
  }

  file->metadata_.resize(h.meta_doubles);
  if (h.meta_doubles > 0) {
    FUZZYDB_RETURN_NOT_OK(ReadAll(fd, file->metadata_.data(),
                                    h.meta_doubles * sizeof(double),
                                    sizeof(FileHeader), "header metadata"));
  }
  if (HeaderChecksum(h, file->metadata_) != h.checksum) {
    return Status::DataLoss(path + ": header checksum mismatch");
  }

  file->num_pages_ = PagesFor(h.count, h.rows_per_page);
  const uint64_t data_end =
      h.data_offset + file->num_pages_ * uint64_t{h.page_bytes};
  if (file_bytes < data_end) {
    return Status::DataLoss(path + ": data section truncated (file " +
                            std::to_string(file_bytes) + "B, need " +
                            std::to_string(data_end) + "B)");
  }
  if (h.quantized != 0) {
    const size_t padded = QuantizedStore::PaddedDim(h.dim);
    const uint64_t expect =
        QuantizedStore::NumBlocks(h.dim) * sizeof(double) +
        h.count * (padded + sizeof(double));
    if (h.qsection_bytes != expect || h.qsection_offset < data_end ||
        file_bytes < h.qsection_offset + h.qsection_bytes) {
      return Status::DataLoss(path + ": quantized section truncated");
    }
  }
  return file;
}

ColumnFile::~ColumnFile() {
  if (fd_ >= 0) ::close(fd_);
}

void ColumnFile::Close() { closed_.store(true); }

Status ColumnFile::ReadPage(uint64_t page, std::span<char> dest) const {
  if (closed_.load()) {
    return Status::FailedPrecondition("column file is closed");
  }
  if (page >= num_pages_) {
    return Status::OutOfRange("page " + std::to_string(page) + " of " +
                              std::to_string(num_pages_));
  }
  if (dest.size() != header_.page_bytes) {
    return Status::InvalidArgument("page buffer has wrong size");
  }
  return ReadAll(fd_, dest.data(), dest.size(),
                 header_.data_offset + page * uint64_t{header_.page_bytes},
                 "data page");
}

void ColumnFile::Advise(uint64_t page, uint64_t pages) const {
  if (closed_.load() || pages == 0 || page >= num_pages_) return;
  pages = std::min(pages, num_pages_ - page);
#if defined(POSIX_FADV_WILLNEED)
  (void)::posix_fadvise(
      fd_, static_cast<off_t>(header_.data_offset +
                              page * uint64_t{header_.page_bytes}),
      static_cast<off_t>(pages * uint64_t{header_.page_bytes}),
      POSIX_FADV_WILLNEED);
#else
  (void)page;
#endif
}

Result<QuantizedStore> ColumnFile::LoadQuantized() const {
  if (closed_.load()) {
    return Status::FailedPrecondition("column file is closed");
  }
  if (header_.quantized == 0) return QuantizedStore();

  const size_t blocks = QuantizedStore::NumBlocks(header_.dim);
  const size_t padded = QuantizedStore::PaddedDim(header_.dim);
  const uint64_t qoff = header_.qsection_offset;
  const uint64_t codes_off = qoff + blocks * sizeof(double);
  const uint64_t residuals_off = codes_off + header_.count * padded;

  std::vector<double> scales(blocks);
  FUZZYDB_RETURN_NOT_OK(ReadAll(fd_, scales.data(), blocks * sizeof(double),
                                  qoff, "quantized scales"));
  AlignedArray<int8_t> codes(header_.count * padded);
  FUZZYDB_RETURN_NOT_OK(ReadAll(fd_, codes.data(), header_.count * padded,
                                  codes_off, "quantized codes"));
  std::vector<double> residuals(header_.count);
  FUZZYDB_RETURN_NOT_OK(ReadAll(fd_, residuals.data(),
                                  header_.count * sizeof(double),
                                  residuals_off, "quantized residuals"));

  uint64_t qsum = Fnv1a64(scales.data(), blocks * sizeof(double));
  qsum = Fnv1a64(codes.data(), header_.count * padded, qsum);
  qsum = Fnv1a64(residuals.data(), header_.count * sizeof(double), qsum);
  if (qsum != header_.qsection_checksum) {
    return Status::DataLoss("quantized section checksum mismatch");
  }
  return QuantizedStore::FromParts(header_.count, header_.dim,
                                   std::move(scales), std::move(residuals),
                                   std::move(codes));
}

}  // namespace storage
}  // namespace fuzzydb
