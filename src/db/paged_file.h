#ifndef FCBENCH_DB_PAGED_FILE_H_
#define FCBENCH_DB_PAGED_FILE_H_

#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/format.h"
#include "util/buffer.h"
#include "util/fs.h"
#include "util/status.h"

namespace fcbench::db {

/// HDF5-style chunked dataset container (paper §5.1.2 / Figure 4).
///
/// One floating-point array is stored as a sequence of fixed-size pages
/// ("chunks" in HDF5 terms), each independently compressed by a pluggable
/// compression filter. This is the on-disk half of the simulated
/// in-memory database: the Table 10 block-size sweep and the Table 11
/// read/decode/query breakdown both run through it.
class PagedFile {
 public:
  struct Options {
    /// Page (chunk) size in bytes of raw data per page; the paper sweeps
    /// 4 KiB / 64 KiB / 8 MiB.
    size_t page_size = 64 << 10;
    /// Registry name of the compression filter ("none" = raw pages).
    std::string compressor = "none";
    CompressorConfig config;
    /// fsync the container and its directory as part of the atomic
    /// temp-file + rename publish. Writes are atomic either way; turning
    /// this off only trades power-loss durability for speed.
    bool durable = true;
  };

  /// Timing breakdown of a read, matching the paper's file I/O vs. data
  /// decoding split (§6.2.2). Reader calls add to it; the static reads
  /// reset it first.
  struct ReadTiming {
    double io_seconds = 0;
    double decode_seconds = 0;
    /// Raw bytes actually decompressed. For ReadByteRange this counts the
    /// whole touched pages, not just the returned slice — the honest
    /// decode cost of a pushdown read.
    uint64_t decoded_bytes = 0;
    /// Bytes actually read from the file: the header reads plus the
    /// page bytes of the touched pages.
    uint64_t bytes_read = 0;
  };

  /// Identity of the container as written — filled by Write so callers
  /// (the column-store manifest) can later re-verify the file bit for bit
  /// without trusting anything inside it.
  struct WriteInfo {
    /// xxh64 over the complete container bytes (header + pages).
    uint64_t file_hash = 0;
    /// Size of the complete container in bytes.
    uint64_t file_bytes = 0;
  };

  /// Compresses `data` page by page and writes the container to `path`.
  /// When `info` is non-null it receives the whole-file hash and size of
  /// the published container.
  static Status Write(const std::string& path, ByteSpan data,
                      const DataDesc& desc, const Options& options,
                      WriteInfo* info = nullptr);

  /// An open container. Open reads a bounded prefix of the file that
  /// holds every header field before the page directory, then exactly
  /// the directory's bounded extent, and validates both against the
  /// file size; the reads after it pread only the pages they decode.
  /// Every static read below is Open plus one of these calls.
  class Reader {
   public:
    static Result<Reader> Open(const std::string& path,
                               ReadTiming* timing = nullptr);

    const DataDesc& desc() const { return desc_; }

    /// Reads and decodes every page; returns the raw element bytes.
    Result<Buffer> Read(ReadTiming* timing = nullptr);

    /// Reads raw bytes [offset, offset + length) of the stored array:
    /// one pread of the overlapping pages, and only those are decoded.
    Result<Buffer> ReadByteRange(uint64_t offset, uint64_t length,
                                 ReadTiming* timing = nullptr);

   private:
    /// Reads `n` bytes at `offset`, charging the I/O to `timing`.
    Result<Buffer> ReadAt(uint64_t offset, size_t n, ReadTiming* timing);
    /// Reads pages [first, last] and appends their decoded bytes.
    Status DecodePages(size_t first, size_t last, Buffer* out,
                       ReadTiming* timing);

    fs::ReadOnlyFile file_;
    std::string compressor_;
    uint64_t page_ = 0;
    DataDesc desc_;
    std::vector<uint64_t> page_sizes_;
    uint64_t payload_offset_ = 0;
  };

  /// Reads the container back: file I/O and per-page decompression are
  /// timed separately. Returns the raw little-endian element bytes.
  static Result<Buffer> Read(const std::string& path, ReadTiming* timing);

  /// Reads raw bytes [offset, offset + length) of the stored array,
  /// reading and decoding only the pages that overlap the range
  /// (chunk-granular pushdown: a point or range query touches the header
  /// and one page, not the column).
  static Result<Buffer> ReadByteRange(const std::string& path,
                                      uint64_t offset, uint64_t length,
                                      ReadTiming* timing = nullptr);

  /// Reads only the stored metadata (header and directory, no pages).
  static Result<DataDesc> ReadDesc(const std::string& path);

  /// Total on-disk size of the container, or error.
  static Result<uint64_t> FileSize(const std::string& path);
};

}  // namespace fcbench::db

#endif  // FCBENCH_DB_PAGED_FILE_H_
