// Failure-injection suite: every registered method's decoder is fed
// truncated and bit-flipped streams. A production database codec must
// never crash, hang, or write out of bounds on hostile input — at worst
// it returns an error Status or (for headerless bit codecs) wrong data of
// a bounded size. These tests are the memory-safety contract; run them
// under ASan/UBSan for the full guarantee.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/chunked.h"
#include "core/compressor.h"
#include "db/column_store.h"
#include "db/paged_file.h"
#include "test_names.h"
#include "util/bitio.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/rng.h"

namespace fcbench {
namespace {

// dzip_nn retrains its model per call (~KB/s, paper §4.5); keep its
// corpus tiny so the fuzz sweep stays fast.
size_t ElementsFor(const std::string& method) {
  return method == "dzip_nn" ? 256 : 4096;
}

std::vector<uint8_t> SmoothData(DType dtype, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(count * DTypeSize(dtype));
  double x = 100.0;
  for (size_t i = 0; i < count; ++i) {
    x += rng.Normal();
    if (dtype == DType::kFloat32) {
      float f = static_cast<float>(x);
      std::memcpy(&bytes[i * 4], &f, 4);
    } else {
      std::memcpy(&bytes[i * 8], &x, 8);
    }
  }
  return bytes;
}

class CorruptionResilience
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    method_ = GetParam();
    CompressorConfig cfg;
    cfg.threads = 2;
    auto r = CompressorRegistry::Global().Create(method_, cfg);
    ASSERT_TRUE(r.ok());
    comp_ = r.TakeValue();

    desc_.dtype = comp_->traits().supports_f64 ? DType::kFloat64
                                               : DType::kFloat32;
    const size_t count = ElementsFor(method_);
    desc_.extent = {count};
    desc_.precision_digits = 4;
    input_ = SmoothData(desc_.dtype, count, 99);
    ASSERT_TRUE(comp_->Compress(ByteSpan(input_.data(), input_.size()),
                                desc_, &stream_)
                    .ok());
    ASSERT_GT(stream_.size(), 0u);
  }

  // A decode of hostile input may fail or may "succeed" with garbage; it
  // must not produce unboundedly more data than the descriptor promises.
  void ExpectBoundedDecode(ByteSpan hostile) {
    Buffer out;
    Status st = comp_->Decompress(hostile, desc_, &out);
    if (st.ok()) {
      EXPECT_LE(out.size(), input_.size() * 2 + 4096)
          << method_ << ": decoder produced unbounded output";
    }
  }

  std::string method_;
  std::unique_ptr<Compressor> comp_;
  DataDesc desc_;
  std::vector<uint8_t> input_;
  Buffer stream_;
};

TEST_P(CorruptionResilience, TruncationSweep) {
  // Every prefix length in a coarse sweep, plus the boundary cases.
  std::vector<size_t> lengths = {0, 1, 2, 3};
  for (size_t len = 4; len < stream_.size(); len += stream_.size() / 37 + 1) {
    lengths.push_back(len);
  }
  if (stream_.size() > 1) lengths.push_back(stream_.size() - 1);
  for (size_t len : lengths) {
    ExpectBoundedDecode(stream_.span().subspan(0, len));
  }
}

TEST_P(CorruptionResilience, BitFlipSweep) {
  for (size_t victim = 0; victim < stream_.size();
       victim += stream_.size() / 101 + 1) {
    for (uint8_t mask : {uint8_t(0x01), uint8_t(0x80), uint8_t(0xff)}) {
      Buffer copy = Buffer::FromSpan(stream_.span());
      copy.data()[victim] ^= mask;
      ExpectBoundedDecode(copy.span());
    }
  }
}

TEST_P(CorruptionResilience, RandomGarbage) {
  Rng rng(777);
  for (size_t size : {size_t(1), size_t(17), size_t(1024), size_t(65536)}) {
    Buffer garbage(size);
    for (size_t i = 0; i < size; ++i) {
      garbage.data()[i] = static_cast<uint8_t>(rng.Next());
    }
    ExpectBoundedDecode(garbage.span());
  }
}

TEST_P(CorruptionResilience, HeaderByteSweep) {
  // Headers carry counts/sizes; flip each of the first 32 bytes
  // individually through all-ones to attack length fields directly.
  const size_t header_span = std::min<size_t>(stream_.size(), 32);
  for (size_t victim = 0; victim < header_span; ++victim) {
    Buffer copy = Buffer::FromSpan(stream_.span());
    copy.data()[victim] = 0xff;
    ExpectBoundedDecode(copy.span());
    copy.data()[victim] = 0x00;
    ExpectBoundedDecode(copy.span());
  }
}

TEST_P(CorruptionResilience, VarintFloodHeader) {
  // 0xff runs make LEB128 length fields decode to astronomically large
  // values — the classic allocation-DoS attack on length-prefixed
  // formats. Decoders must reject before allocating.
  for (size_t k = 1; k <= 10 && k < stream_.size(); ++k) {
    Buffer copy = Buffer::FromSpan(stream_.span());
    for (size_t i = 0; i < k; ++i) copy.data()[i] = 0xff;
    ExpectBoundedDecode(copy.span());
  }
}

TEST_P(CorruptionResilience, EmptyInput) {
  Buffer empty;
  ExpectBoundedDecode(empty.span());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CorruptionResilience,
    ::testing::ValuesIn([] {
      RegisterAllCompressors();
      return CompressorRegistry::Global().Names();
    }()),
    [](const auto& param_info) { return SanitizeTestName(param_info.param); });

// --- mixed-method (FCPK v2) frames ------------------------------------------
//
// The auto selectors ride the generic sweep above; these tests attack
// what is new in version 2 — the method table and per-chunk method ids —
// with *valid checksums*, so the directory checksum cannot mask the
// specific validation under test. A hostile but checksum-correct mixed
// frame must still decode to a clean Status, never a crash.

/// Builds an FCPK v2 header+directory byte-for-byte (bypassing the
/// writer's own validation) with a correct trailing checksum, followed
/// by `payload`.
Buffer CraftMixedFrame(uint64_t raw_bytes, uint64_t chunk_raw_bytes,
                       const std::vector<std::string>& methods,
                       const std::vector<uint64_t>& method_ids,
                       const std::vector<uint64_t>& payload_sizes,
                       ByteSpan payload) {
  Buffer header;
  PutFixed(&header, ChunkedCompressor::kMagic);
  PutVarint64(&header, ChunkedCompressor::kVersionMixed);
  PutVarint64(&header, raw_bytes);
  PutVarint64(&header, chunk_raw_bytes);
  PutVarint64(&header, methods.size());
  for (const auto& m : methods) {
    PutVarint64(&header, m.size());
    header.Append(m.data(), m.size());
  }
  PutVarint64(&header, payload_sizes.size());
  for (uint64_t id : method_ids) PutVarint64(&header, id);
  for (uint64_t s : payload_sizes) PutVarint64(&header, s);
  PutFixed(&header, XxHash64(header.span()));
  header.Append(payload);
  return header;
}

class MixedFrameCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    desc_.dtype = DType::kFloat64;
    desc_.extent = {1024};
    input_ = SmoothData(DType::kFloat64, 1024, 7);
    CompressorConfig cfg;
    cfg.chunk_bytes = 2048;  // 4 chunks of 256 f64 elements
    auto_ = CompressorRegistry::Global().Create("auto", cfg).TakeValue();
    ASSERT_TRUE(auto_
                    ->Compress(ByteSpan(input_.data(), input_.size()), desc_,
                               &frame_)
                    .ok());
    auto idx = ChunkedCompressor::ReadIndex(frame_.span());
    ASSERT_TRUE(idx.ok());
    idx_ = idx.TakeValue();
    ASSERT_EQ(idx_.num_chunks(), 4u);
    ASSERT_GE(idx_.methods.size(), 1u);
  }

  /// Valid payload slices from the real frame, so only the directory
  /// field under test is hostile.
  std::vector<uint64_t> RealPayloadSizes() const {
    return idx_.payload_sizes;
  }
  ByteSpan RealPayload() const {
    return frame_.span().subspan(idx_.payload_offsets[0]);
  }

  DataDesc desc_;
  std::vector<uint8_t> input_;
  std::unique_ptr<Compressor> auto_;
  Buffer frame_;
  ChunkedCompressor::Index idx_;
};

TEST_F(MixedFrameCorruption, OutOfRangeMethodIdRejectedCleanly) {
  // Chunk 2 claims method id 9 with only |methods| entries; checksum is
  // valid, so only the id validation can catch it.
  std::vector<uint64_t> ids(idx_.method_ids.begin(), idx_.method_ids.end());
  ids[2] = 9;
  Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                idx_.methods, ids, RealPayloadSizes(),
                                RealPayload());
  auto parsed = ChunkedCompressor::ReadIndex(evil.span());
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  Buffer out;
  Status st = auto_->Decompress(evil.span(), desc_, &out);
  EXPECT_FALSE(st.ok());
}

TEST_F(MixedFrameCorruption, AdapterNamesInMethodTableRejected) {
  // par-*/auto* names inside the table would let a hostile frame nest
  // decoders; both must be rejected at parse time.
  for (const char* adapter : {"par-gorilla", "auto", "auto-ratio"}) {
    std::vector<uint64_t> ids(idx_.method_ids.size(), 0);
    Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                  {adapter}, ids, RealPayloadSizes(),
                                  RealPayload());
    Buffer out;
    Status st = auto_->Decompress(evil.span(), desc_, &out);
    EXPECT_FALSE(st.ok()) << adapter;
  }
}

TEST_F(MixedFrameCorruption, UnknownMethodNameFailsAtDecode) {
  // Structurally plausible but unregistered method name: the parse may
  // accept it, but decoding must surface a clean error.
  std::vector<uint64_t> ids(idx_.method_ids.size(), 0);
  Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                {"zpaq9000"}, ids, RealPayloadSizes(),
                                RealPayload());
  Buffer out;
  Status st = auto_->Decompress(evil.span(), desc_, &out);
  EXPECT_FALSE(st.ok());
}

TEST_F(MixedFrameCorruption, OversizedMethodTableRejected) {
  std::vector<std::string> methods(ChunkedCompressor::kMaxMethods + 1,
                                   "gorilla");
  std::vector<uint64_t> ids(idx_.method_ids.size(), 0);
  Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                methods, ids, RealPayloadSizes(),
                                RealPayload());
  EXPECT_FALSE(ChunkedCompressor::ReadIndex(evil.span()).ok());
}

TEST_F(MixedFrameCorruption, MethodIdByteFlipsCaughtByChecksum) {
  // Every byte of the genuine header+directory (which includes the
  // method table and ids) is checksummed: any flip must fail cleanly.
  const size_t dir_end = idx_.payload_offsets[0];
  for (size_t victim = 0; victim < dir_end; ++victim) {
    Buffer copy = Buffer::FromSpan(frame_.span());
    copy.data()[victim] ^= 0x04;
    Buffer out;
    Status st = auto_->Decompress(copy.span(), desc_, &out);
    EXPECT_FALSE(st.ok()) << "flip at byte " << victim;
  }
}

TEST_F(MixedFrameCorruption, TruncatedMixedFramesFailCleanly) {
  // Truncations across the whole frame — inside the method table, the
  // id list, the checksum, and the payloads — must all error.
  for (size_t keep = 0; keep < frame_.size();
       keep += frame_.size() / 97 + 1) {
    Buffer out;
    Status st =
        auto_->Decompress(frame_.span().subspan(0, keep), desc_, &out);
    EXPECT_FALSE(st.ok()) << "truncated to " << keep << " bytes";
  }
}

// ---------------------------------------------------------------------------
// PagedFile hostile headers: every length field read from a container
// header is attacker-controlled. Each test below encodes one overflow or
// inconsistency that must surface as a Corruption status — never as an
// out-of-bounds read (the ASan lane enforces that half of the contract),
// a giant allocation, or a wrapped bounds check that lets the decode
// loops run wild.
// ---------------------------------------------------------------------------

class PagedFileHostileHeader : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    path_ = "/tmp/fcbench_pf_hostile_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override { fs::RemoveFile(path_); }

  /// Every read entry point must reject the file as Corruption.
  void ExpectRejected(const Buffer& bytes, const char* what) {
    ASSERT_TRUE(
        fs::WriteFileAtomic(path_, bytes.span(), /*durable=*/false).ok());
    auto r = db::PagedFile::Read(path_, nullptr);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << what;
    auto d = db::PagedFile::ReadDesc(path_);
    ASSERT_FALSE(d.ok()) << what << " (ReadDesc)";
    EXPECT_EQ(d.status().code(), StatusCode::kCorruption) << what;
    auto b = db::PagedFile::ReadByteRange(path_, 0, 8);
    ASSERT_FALSE(b.ok()) << what << " (ReadByteRange)";
    EXPECT_EQ(b.status().code(), StatusCode::kCorruption) << what;
  }

  /// Valid header prefix: magic | compressor "none" | page | dtype f64 |
  /// full precision. Tests append the hostile fields after it.
  static Buffer Prefix(uint64_t page) {
    Buffer b;
    PutFixed(&b, uint32_t{0x46434246});  // "FCBF"
    PutVarint64(&b, 4);
    b.Append("none", 4);
    PutVarint64(&b, page);
    b.PushBack(1);
    b.PushBack(0);
    return b;
  }

  std::string path_;
};

TEST_F(PagedFileHostileHeader, HostileCompressorNameLength) {
  // A 64-bit name length near SIZE_MAX: `off + len` wraps, so a naive
  // `off + len > size` bounds check passes and .assign() reads out of
  // bounds. The parser must compare overflow-safely.
  Buffer b;
  PutFixed(&b, uint32_t{0x46434246});
  PutVarint64(&b, ~uint64_t{0});
  ExpectRejected(b, "hostile name length");
}

TEST_F(PagedFileHostileHeader, OversizedPageRejected) {
  Buffer b = Prefix(uint64_t{1} << 33);  // above the 2 GiB page cap
  PutVarint64(&b, 1);                    // rank
  PutVarint64(&b, 8);                    // extent
  ExpectRejected(b, "oversized page");
}

TEST_F(PagedFileHostileHeader, ExtentProductOverflow) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 2);  // rank 2: the element product overflows u64
  PutVarint64(&b, uint64_t{1} << 33);
  PutVarint64(&b, uint64_t{1} << 33);
  ExpectRejected(b, "extent product overflow");
}

TEST_F(PagedFileHostileHeader, ImplausibleTotalSize) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, uint64_t{1} << 50);  // 2^53 bytes: over the 2^46 cap
  ExpectRejected(b, "implausible total size");
}

TEST_F(PagedFileHostileHeader, PageCountMismatch) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);  // 8 KiB of f64 => exactly 2 pages
  PutVarint64(&b, 3);     // header claims 3
  ExpectRejected(b, "page count mismatch");
}

TEST_F(PagedFileHostileHeader, PageDirectorySumOverflow) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);
  PutVarint64(&b, 2);
  PutVarint64(&b, ~uint64_t{0});  // directory entries sum past 2^64
  PutVarint64(&b, 2);
  ExpectRejected(b, "page directory sum overflow");
}

TEST_F(PagedFileHostileHeader, TruncatedPages) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);
  PutVarint64(&b, 2);
  PutVarint64(&b, 64);  // directory promises 96 payload bytes...
  PutVarint64(&b, 32);
  b.Append(std::vector<uint8_t>(5, 0xab).data(), 5);  // ...file has 5
  ExpectRejected(b, "truncated pages");
}

TEST_F(PagedFileHostileHeader, PageCountBeyondFileRejected) {
  // 2^43 one-byte pages: a consistent page count, but far more directory
  // entries than the file has bytes. It must be rejected before the
  // directory is read or allocated.
  Buffer b = Prefix(1);
  PutVarint64(&b, 1);
  PutVarint64(&b, uint64_t{1} << 40);  // 2^43 bytes of f64
  PutVarint64(&b, uint64_t{1} << 43);
  PutVarint64(&b, 1);
  ExpectRejected(b, "page count beyond file size");
}

TEST_F(PagedFileHostileHeader, ClaimedSizeBeyondStoredBytesRejected) {
  // A self-consistent header (2^15 pages of 2 GiB, 2^46 bytes in all)
  // whose pages are empty: the whole file is 33 KB. Reading it must fail
  // as Corruption, not abort trying to reserve the claimed 64 TiB.
  for (const char* name : {"none", "gorilla"}) {
    SCOPED_TRACE(name);
    Buffer b;
    PutFixed(&b, uint32_t{0x46434246});
    PutVarint64(&b, std::strlen(name));
    b.Append(name, std::strlen(name));
    PutVarint64(&b, uint64_t{1} << 31);
    b.PushBack(1);
    b.PushBack(0);
    PutVarint64(&b, 1);
    PutVarint64(&b, uint64_t{1} << 43);
    PutVarint64(&b, uint64_t{1} << 15);
    for (int p = 0; p < (1 << 15); ++p) PutVarint64(&b, 0);
    ASSERT_TRUE(
        fs::WriteFileAtomic(path_, b.span(), /*durable=*/false).ok());
    auto r = db::PagedFile::Read(path_, nullptr);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    auto range = db::PagedFile::ReadByteRange(path_, 0, 8);
    ASSERT_FALSE(range.ok());
    EXPECT_EQ(range.status().code(), StatusCode::kCorruption);
  }
}

/// Partial reads through ColumnStore::ReadRows: the reader reads the
/// header, then only the touched pages, so these pin that it still sees
/// the whole file's shape.
class ColumnStorePartialRead : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    prefix_ = "/tmp/fcbench_cs_partial_" + std::to_string(::getpid()) +
              "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override { db::ColumnStore::Drop(prefix_); }

  static std::vector<double> Values(size_t rows) {
    Rng rng(5);
    std::vector<double> v(rows);
    double x = 10.0;
    for (auto& e : v) {
      x += rng.Normal() * 0.1;
      e = x;
    }
    return v;
  }

  void WriteColumn(const std::vector<double>& values, const char* method,
                   size_t page_size) {
    db::ColumnStore::ColumnSpec spec{.name = "x", .compressor = method};
    spec.values = values;
    ASSERT_TRUE(db::ColumnStore::Write(prefix_, {spec}, page_size).ok());
  }

  void ExpectRows(const std::vector<double>& values, uint64_t begin,
                  uint64_t count) {
    auto r = db::ColumnStore::ReadRows(prefix_, "x", begin, count);
    ASSERT_TRUE(r.ok()) << "[" << begin << ", +" << count
                        << "): " << r.status().ToString();
    ASSERT_EQ(r.value().size(), count);
    EXPECT_EQ(0, std::memcmp(r.value().data(), values.data() + begin,
                             count * sizeof(double)))
        << "[" << begin << ", +" << count << ")";
  }

  std::string prefix_;
};

TEST_F(ColumnStorePartialRead, TruncatedAfterTouchedPageIsCorruption) {
  // The touched page (row 0) is intact; the file ends early in a later
  // page. Only the directory sum vs. the file size can see that.
  const auto values = Values(5000);
  WriteColumn(values, "gorilla", 4096);
  const std::string col = prefix_ + ".0.col";
  auto size = fs::FileSize(col);
  ASSERT_TRUE(size.ok());
  ASSERT_EQ(::truncate(col.c_str(), static_cast<off_t>(size.value() - 100)),
            0);
  auto r = db::ColumnStore::ReadRows(prefix_, "x", 0, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
}

TEST_F(ColumnStorePartialRead, HeaderLongerThanFirstReadRoundTrips) {
  // 8-byte pages: one f64 per page, so the 3000-entry directory runs far
  // past the bounded first header read and needs the second one.
  const auto values = Values(3000);
  for (const char* method : {"none", "gorilla"}) {
    SCOPED_TRACE(method);
    WriteColumn(values, method, 8);
    ExpectRows(values, 0, 1);
    ExpectRows(values, 1234, 1);
    ExpectRows(values, 2990, 10);
    ExpectRows(values, 0, 3000);
  }
}

TEST_F(ColumnStorePartialRead, LastPartialPageReads) {
  // 5000 rows in 512-row pages: the last page holds rows 4608..4999.
  const auto values = Values(5000);
  for (const char* method : {"none", "bitshuffle_zstd"}) {
    SCOPED_TRACE(method);
    WriteColumn(values, method, 4096);
    ExpectRows(values, 4608, 392);
    ExpectRows(values, 4600, 400);
    ExpectRows(values, 4999, 1);
    auto past = db::ColumnStore::ReadRows(prefix_, "x", 4999, 2);
    EXPECT_EQ(past.status().code(), StatusCode::kOutOfRange);
  }
}

}  // namespace
}  // namespace fcbench
