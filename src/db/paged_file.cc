#include "db/paged_file.h"

#include <algorithm>
#include <vector>

#include "util/bitio.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/timer.h"

namespace fcbench::db {

namespace {

constexpr uint32_t kMagic = 0x46434246;  // "FCBF"
/// Parse-time plausibility bounds: a corrupt header must surface as a
/// Corruption status, never as a giant allocation or an overflowing
/// bounds check.
constexpr uint64_t kMaxCompressorNameLen = 256;
constexpr uint64_t kMaxPageBytes = 1ull << 31;
constexpr uint64_t kMaxTotalBytes = 1ull << 46;

/// Per-page descriptor: pages are independent 1-D arrays (column-store
/// view), so dimension-hungry methods fall back to their 1-D mode exactly
/// as §6.1.5 describes for column stores.
DataDesc PageDesc(const DataDesc& file_desc, size_t page_bytes) {
  DataDesc d;
  d.dtype = file_desc.dtype;
  d.extent = {page_bytes / DTypeSize(file_desc.dtype)};
  d.precision_digits = file_desc.precision_digits;
  return d;
}

void AppendHeaderVarint(Buffer* header, uint64_t v) {
  PutVarint64(header, v);
}

}  // namespace

Status PagedFile::Write(const std::string& path, ByteSpan data,
                        const DataDesc& desc, const Options& options,
                        WriteInfo* info) {
  const bool raw = options.compressor == "none";
  std::unique_ptr<Compressor> comp;
  if (!raw) {
    auto r = CompressorRegistry::Global().Create(options.compressor,
                                                 options.config);
    if (!r.ok()) return r.status();
    comp = std::move(r).TakeValue();
  }

  if (data.size() != desc.num_bytes()) {
    return Status::InvalidArgument(
        "paged file: data size does not match descriptor");
  }
  const size_t esize = DTypeSize(desc.dtype);
  size_t page = options.page_size / esize * esize;
  if (page == 0) page = esize;
  if (page > kMaxPageBytes) {
    return Status::InvalidArgument("paged file: page size too large");
  }
  size_t npages = (data.size() + page - 1) / page;
  if (data.empty()) npages = 0;

  // Header: magic, compressor name, page size, desc, page directory.
  Buffer header;
  PutFixed(&header, kMagic);
  AppendHeaderVarint(&header, options.compressor.size());
  header.Append(options.compressor.data(), options.compressor.size());
  AppendHeaderVarint(&header, page);
  header.PushBack(desc.dtype == DType::kFloat64 ? 1 : 0);
  header.PushBack(static_cast<uint8_t>(desc.precision_digits));
  AppendHeaderVarint(&header, desc.extent.size());
  for (uint64_t e : desc.extent) AppendHeaderVarint(&header, e);
  AppendHeaderVarint(&header, npages);

  std::vector<Buffer> pages(npages);
  for (size_t p = 0; p < npages; ++p) {
    size_t begin = p * page;
    size_t len = std::min(page, data.size() - begin);
    ByteSpan chunk = data.subspan(begin, len);
    if (raw) {
      pages[p].Append(chunk);
    } else {
      FCB_RETURN_IF_ERROR(
          comp->Compress(chunk, PageDesc(desc, len), &pages[p]));
    }
  }
  for (const auto& pg : pages) AppendHeaderVarint(&header, pg.size());

  // Assemble the whole container and publish it atomically (temp file +
  // rename + dir fsync): a crash mid-write can leave a stale .tmp behind
  // but never a torn container under `path` — which is what lets a
  // manifest written *after* its column files reference them safely.
  Buffer out;
  out.Reserve(header.size());
  out.Append(header.span());
  for (const auto& pg : pages) out.Append(pg.span());
  if (info != nullptr) {
    info->file_hash = XxHash64(out.span());
    info->file_bytes = out.size();
  }
  return fs::WriteFileAtomic(path, out.span(), options.durable);
}

namespace {

/// The longest a varint64 can be on disk (a hostile writer may pad one).
constexpr uint64_t kMaxVarintBytes = 10;
constexpr uint64_t kMaxRank = 8;
/// Bound on every header field before the page directory: magic, name
/// length + name, page size, dtype and digits, rank + extent, npages.
/// Open reads this prefix first, then the directory it announces.
constexpr uint64_t kHeaderPrefixBytes =
    sizeof(kMagic) + kMaxVarintBytes + kMaxCompressorNameLen +
    kMaxVarintBytes + 2 + kMaxVarintBytes + kMaxRank * kMaxVarintBytes +
    kMaxVarintBytes;
static_assert(kHeaderPrefixBytes < 400);
/// Read reserves at most this multiple of a file's page bytes up front.
constexpr uint64_t kMaxReserveRatio = 64;

/// Header parse, in two stages over the bytes read so far (`head` starts
/// at file offset 0). Every length read from the file is compared
/// overflow-safely (`len > size - off` with off <= size, never
/// `off + len > size`, which wraps for hostile 64-bit lengths) and bounded
/// by a plausibility cap, and the page directory is checked for internal
/// consistency — page count vs. extent, directory sum vs. the fstat file
/// size — so neither the reads nor the decode loops can be steered out of
/// bounds. Stage 1 parses the fields before the directory and returns
/// the directory's offset; stage 2 parses the directory.
struct HeaderFields {
  std::string compressor;
  uint64_t page = 0;
  DataDesc desc;
  uint64_t npages = 0;
  size_t dir_offset = 0;
};

Result<HeaderFields> ParseFields(ByteSpan head, uint64_t file_size) {
  HeaderFields h;
  size_t off = 0;
  uint32_t magic = 0;
  if (!GetFixed(head, &off, &magic) || magic != kMagic) {
    return Status::Corruption("paged file: bad magic");
  }
  uint64_t name_len = 0;
  if (!GetVarint64(head, &off, &name_len) ||
      name_len > kMaxCompressorNameLen || name_len > head.size() - off) {
    return Status::Corruption("paged file: bad compressor name");
  }
  h.compressor.assign(reinterpret_cast<const char*>(head.data() + off),
                      name_len);
  off += name_len;
  if (!GetVarint64(head, &off, &h.page) || h.page == 0 ||
      h.page > kMaxPageBytes) {
    return Status::Corruption("paged file: bad page size");
  }
  uint8_t dtype = 0, digits = 0;
  if (!GetFixed(head, &off, &dtype) || !GetFixed(head, &off, &digits)) {
    return Status::Corruption("paged file: bad dtype");
  }
  h.desc.dtype = dtype ? DType::kFloat64 : DType::kFloat32;
  h.desc.precision_digits = digits;
  uint64_t rank = 0;
  if (!GetVarint64(head, &off, &rank) || rank > kMaxRank) {
    return Status::Corruption("paged file: bad rank");
  }
  h.desc.extent.resize(rank);
  uint64_t total_elems = rank == 0 ? 0 : 1;
  for (auto& e : h.desc.extent) {
    if (!GetVarint64(head, &off, &e) ||
        __builtin_mul_overflow(total_elems, e, &total_elems)) {
      return Status::Corruption("paged file: bad extent");
    }
  }
  uint64_t total_bytes = 0;
  if (__builtin_mul_overflow(total_elems,
                             uint64_t{DTypeSize(h.desc.dtype)},
                             &total_bytes) ||
      total_bytes > kMaxTotalBytes) {
    return Status::Corruption("paged file: implausible array size");
  }
  if (!GetVarint64(head, &off, &h.npages) ||
      h.npages != (total_bytes + h.page - 1) / h.page) {
    return Status::Corruption("paged file: page count mismatch");
  }
  // Every directory entry takes at least one byte: a page count the file
  // cannot hold is rejected before the directory is read or allocated.
  if (h.npages > file_size - off) {  // off <= head.size() <= file_size
    return Status::Corruption("paged file: truncated page directory");
  }
  h.dir_offset = off;
  return h;
}

/// Parses `npages` directory entries from `head` at `off`; returns the
/// payload offset (the end of the directory).
Result<uint64_t> ParseDirectory(ByteSpan head, size_t off, uint64_t npages,
                                uint64_t file_size,
                                std::vector<uint64_t>* page_sizes) {
  page_sizes->resize(npages);
  uint64_t dir_sum = 0;
  for (auto& s : *page_sizes) {
    if (!GetVarint64(head, &off, &s) ||
        __builtin_add_overflow(dir_sum, s, &dir_sum)) {
      return Status::Corruption("paged file: bad page directory");
    }
  }
  if (dir_sum > file_size - off) {
    return Status::Corruption("paged file: truncated pages");
  }
  return uint64_t{off};
}

}  // namespace

Result<PagedFile::Reader> PagedFile::Reader::Open(const std::string& path,
                                                  ReadTiming* timing) {
  Reader r;
  FCB_ASSIGN_OR_RETURN(r.file_, fs::ReadOnlyFile::Open(path));
  const uint64_t size = r.file_.size();
  FCB_ASSIGN_OR_RETURN(
      Buffer head,
      r.ReadAt(0, static_cast<size_t>(std::min(size, kHeaderPrefixBytes)),
               timing));
  FCB_ASSIGN_OR_RETURN(HeaderFields h, ParseFields(head.span(), size));
  // The directory is at most npages varints; ParseFields bounded npages
  // by the file size, so this read is clamped to the file too.
  const uint64_t dir_end =
      h.dir_offset + std::min(h.npages * kMaxVarintBytes,
                              size - h.dir_offset);
  if (dir_end > head.size()) {
    FCB_ASSIGN_OR_RETURN(
        Buffer rest,
        r.ReadAt(head.size(), static_cast<size_t>(dir_end - head.size()),
                 timing));
    head.Append(rest.span());
  }
  FCB_ASSIGN_OR_RETURN(r.payload_offset_,
                       ParseDirectory(head.span(), h.dir_offset, h.npages,
                                      size, &r.page_sizes_));
  r.compressor_ = std::move(h.compressor);
  r.page_ = h.page;
  r.desc_ = std::move(h.desc);
  return r;
}

Result<Buffer> PagedFile::Reader::ReadAt(uint64_t offset, size_t n,
                                         ReadTiming* timing) {
  Timer io_timer;
  auto r = file_.ReadAt(offset, n);
  if (timing != nullptr) {
    timing->io_seconds += io_timer.ElapsedSeconds();
    if (r.ok()) timing->bytes_read += n;
  }
  return r;
}

Status PagedFile::Reader::DecodePages(size_t first, size_t last, Buffer* out,
                                      ReadTiming* timing) {
  uint64_t start = payload_offset_;
  for (size_t p = 0; p < first; ++p) start += page_sizes_[p];
  uint64_t len = 0;
  for (size_t p = first; p <= last; ++p) len += page_sizes_[p];
  FCB_ASSIGN_OR_RETURN(Buffer bytes,
                       ReadAt(start, static_cast<size_t>(len), timing));

  const bool raw = compressor_ == "none";
  std::unique_ptr<Compressor> comp;
  if (!raw) {
    FCB_ASSIGN_OR_RETURN(comp,
                         CompressorRegistry::Global().Create(compressor_));
  }
  Timer decode_timer;
  const uint64_t total_bytes = desc_.num_bytes();
  const size_t before = out->size();
  size_t off = 0;
  for (size_t p = first; p <= last; ++p) {
    ByteSpan page_bytes = bytes.span().subspan(off, page_sizes_[p]);
    off += page_sizes_[p];
    const size_t logical = static_cast<size_t>(
        std::min<uint64_t>(page_, total_bytes - uint64_t(p) * page_));
    const size_t page_before = out->size();
    if (raw) {
      out->Append(page_bytes);
    } else {
      FCB_RETURN_IF_ERROR(
          comp->Decompress(page_bytes, PageDesc(desc_, logical), out));
    }
    if (out->size() - page_before != logical) {
      return Status::Corruption("paged file: page size mismatch");
    }
  }
  if (timing != nullptr) {
    timing->decode_seconds += decode_timer.ElapsedSeconds();
    timing->decoded_bytes += out->size() - before;
  }
  return Status::OK();
}

Result<Buffer> PagedFile::Reader::Read(ReadTiming* timing) {
  Buffer out;
  if (page_sizes_.empty()) return out;
  // Reserve the claimed size only up to a multiple of the stored bytes: a
  // hostile header can claim 2^46 bytes in a 33 KB file. Past that bound
  // the buffer grows as pages decode.
  uint64_t stored = 0;
  for (uint64_t s : page_sizes_) stored += s;
  const uint64_t total = desc_.num_bytes();
  out.Reserve(static_cast<size_t>(
      stored > total / kMaxReserveRatio ? total : stored * kMaxReserveRatio));
  FCB_RETURN_IF_ERROR(DecodePages(0, page_sizes_.size() - 1, &out, timing));
  return out;
}

Result<Buffer> PagedFile::Reader::ReadByteRange(uint64_t offset,
                                                uint64_t length,
                                                ReadTiming* timing) {
  const uint64_t total_bytes = desc_.num_bytes();
  if (offset > total_bytes || length > total_bytes - offset) {
    return Status::OutOfRange("paged file: byte range past end of array");
  }
  Buffer out;
  if (length == 0) return out;
  // The page count matches the extent (ParseFields), so both pages exist.
  const size_t first_page = static_cast<size_t>(offset / page_);
  const size_t last_page = static_cast<size_t>((offset + length - 1) / page_);
  Buffer decoded;  // raw bytes of the touched pages only
  FCB_RETURN_IF_ERROR(DecodePages(first_page, last_page, &decoded, timing));
  out.Append(decoded.data() + (offset - uint64_t(first_page) * page_),
             length);
  return out;
}

Result<Buffer> PagedFile::Read(const std::string& path, ReadTiming* timing) {
  if (timing != nullptr) *timing = {};
  FCB_ASSIGN_OR_RETURN(Reader r, Reader::Open(path, timing));
  return r.Read(timing);
}

Result<Buffer> PagedFile::ReadByteRange(const std::string& path,
                                        uint64_t offset, uint64_t length,
                                        ReadTiming* timing) {
  if (timing != nullptr) *timing = {};
  FCB_ASSIGN_OR_RETURN(Reader r, Reader::Open(path, timing));
  return r.ReadByteRange(offset, length, timing);
}

Result<DataDesc> PagedFile::ReadDesc(const std::string& path) {
  FCB_ASSIGN_OR_RETURN(Reader r, Reader::Open(path));
  return r.desc();
}

Result<uint64_t> PagedFile::FileSize(const std::string& path) {
  return fs::FileSize(path);
}

}  // namespace fcbench::db
