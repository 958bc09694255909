// Byte-identity regression suite for the bit-level wire formats.
//
// The bit I/O engine is a pure speed layer: any change to it (or to the
// fused control-code emission in the coders above it) must leave compressed
// streams byte-for-byte identical. These tests compare freshly compressed
// Gorilla / Chimp / GorillaTimestamps streams against fixtures captured
// from the pre-refactor one-bit-at-a-time encoders
// (tests/wire_format_fixtures.h), so wire-format drift fails CI loudly
// instead of silently breaking every previously written stream.
//
// The same holds for the write-ahead log: WalSegment* pin the exact bytes
// of a segment, so a change to how Wal::Append frames records cannot
// silently orphan logs written by older builds.
//
// The input generators deliberately avoid libm (sin/log/...) — only Rng
// integer output and IEEE add/mul — so the corpus, and therefore the
// compressed bytes, are identical on every platform.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "compressors/chimp.h"
#include "compressors/gorilla.h"
#include "compressors/gorilla_timestamps.h"
#include "db/lsm/wal.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/rng.h"
#include "wire_format_fixtures.h"

namespace fcbench {
namespace {

using compressors::ChimpCompressor;
using compressors::GorillaCompressor;
using compressors::GorillaTimestampCodec;

// Must match the fixture capture tool exactly (see fixtures header).
template <typename T>
std::vector<T> Walk(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  double x = 100.0;
  for (size_t i = 0; i < n; ++i) {
    x += rng.Uniform(-0.25, 0.25);
    if (i % 64 == 0) x += rng.Uniform(0.0, 8.0);
    v[i] = static_cast<T>(x);
  }
  return v;
}

std::vector<int64_t> Stamps(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  int64_t t = 1600000000000;
  for (size_t i = 0; i < n; ++i) {
    t += 1000 + static_cast<int64_t>(rng.UniformInt(7)) - 3;
    if (i % 97 == 0) t += 50000;  // occasional gap -> exercises buckets
    v[i] = t;
  }
  return v;
}

template <typename C, typename T>
Buffer CompressVals(const std::vector<T>& vals) {
  CompressorConfig cfg;
  C comp(cfg);
  DataDesc desc = DataDesc::Make(
      sizeof(T) == 4 ? DType::kFloat32 : DType::kFloat64, {vals.size()});
  Buffer out;
  EXPECT_TRUE(comp.Compress(AsBytes(vals), desc, &out).ok());
  return out;
}

void ExpectBytesEqual(const Buffer& got, const unsigned char* want,
                      size_t want_size, const char* name) {
  ASSERT_EQ(got.size(), want_size) << name << ": stream length drifted";
  for (size_t i = 0; i < want_size; ++i) {
    ASSERT_EQ(got.data()[i], want[i])
        << name << ": wire format drift at byte " << i;
  }
}

TEST(WireFormatTest, GorillaFloat64ByteIdentical) {
  Buffer got = CompressVals<GorillaCompressor>(Walk<double>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kGorillaF64,
                   sizeof(wire_fixtures::kGorillaF64), "gorilla/f64");
}

TEST(WireFormatTest, GorillaFloat32ByteIdentical) {
  Buffer got = CompressVals<GorillaCompressor>(Walk<float>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kGorillaF32,
                   sizeof(wire_fixtures::kGorillaF32), "gorilla/f32");
}

TEST(WireFormatTest, ChimpFloat64ByteIdentical) {
  Buffer got = CompressVals<ChimpCompressor>(Walk<double>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kChimpF64,
                   sizeof(wire_fixtures::kChimpF64), "chimp/f64");
}

TEST(WireFormatTest, ChimpFloat32ByteIdentical) {
  Buffer got = CompressVals<ChimpCompressor>(Walk<float>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kChimpF32,
                   sizeof(wire_fixtures::kChimpF32), "chimp/f32");
}

TEST(WireFormatTest, GorillaTimestampsByteIdentical) {
  Buffer got;
  GorillaTimestampCodec::Compress(Stamps(256, 0xF1C5), &got);
  ExpectBytesEqual(got, wire_fixtures::kGorillaTs,
                   sizeof(wire_fixtures::kGorillaTs), "gorilla_ts");
}

// Large corpora (64Ki values) exercise every control code and window-reuse
// path; full arrays would bloat the repo, so these pin size + xxHash64.
TEST(WireFormatTest, GorillaLargeCorpusHashPinned) {
  Buffer got = CompressVals<GorillaCompressor>(Walk<double>(65536, 0xB16));
  EXPECT_EQ(got.size(), wire_fixtures::kGorillaBigSize);
  EXPECT_EQ(XxHash64(got.span()), wire_fixtures::kGorillaBigHash);
}

TEST(WireFormatTest, ChimpLargeCorpusHashPinned) {
  Buffer got = CompressVals<ChimpCompressor>(Walk<double>(65536, 0xB16));
  EXPECT_EQ(got.size(), wire_fixtures::kChimpBigSize);
  EXPECT_EQ(XxHash64(got.span()), wire_fixtures::kChimpBigHash);
}

TEST(WireFormatTest, GorillaTimestampsLargeCorpusHashPinned) {
  Buffer got;
  GorillaTimestampCodec::Compress(Stamps(65536, 0xB16), &got);
  EXPECT_EQ(got.size(), wire_fixtures::kGorillaTsBigSize);
  EXPECT_EQ(XxHash64(got.span()), wire_fixtures::kGorillaTsBigHash);
}

// The decoders must also read the frozen streams back to the exact inputs
// (guards against compensating encoder+decoder changes that round-trip but
// break streams written by older builds).
TEST(WireFormatTest, FixtureStreamsDecodeToOriginalValues) {
  auto vals = Walk<double>(256, 0xF1C5);
  CompressorConfig cfg;
  GorillaCompressor gorilla(cfg);
  DataDesc desc = DataDesc::Make(DType::kFloat64, {vals.size()});
  Buffer out;
  ASSERT_TRUE(gorilla
                  .Decompress(ByteSpan(wire_fixtures::kGorillaF64,
                                       sizeof(wire_fixtures::kGorillaF64)),
                              desc, &out)
                  .ok());
  ASSERT_EQ(out.size(), vals.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(out.data(), vals.data(), out.size()), 0);

  ChimpCompressor chimp(cfg);
  Buffer out2;
  ASSERT_TRUE(chimp
                  .Decompress(ByteSpan(wire_fixtures::kChimpF64,
                                       sizeof(wire_fixtures::kChimpF64)),
                              desc, &out2)
                  .ok());
  ASSERT_EQ(out2.size(), vals.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(out2.data(), vals.data(), out2.size()), 0);

  auto ts = Stamps(256, 0xF1C5);
  auto got = GorillaTimestampCodec::Decompress(
      ByteSpan(wire_fixtures::kGorillaTs, sizeof(wire_fixtures::kGorillaTs)),
      ts.size());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ts);
}

// ---------------------------------------------------------------------------
// WAL segment framing
// ---------------------------------------------------------------------------

using db::lsm::Wal;
using db::lsm::WalReader;

constexpr uint64_t kWalFixtureSeq = 7;

/// The three record payloads of the frozen segment (see fixtures header).
std::vector<Buffer> WalFixturePayloads() {
  std::vector<Buffer> p(3);
  p[1].PushBack(0xA5);
  p[2].Resize(32 << 10);
  for (size_t i = 0; i < p[2].size(); ++i) {
    p[2].data()[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return p;
}

/// The frozen segment: the fixture prefix followed by the 32 KiB payload.
Buffer FrozenWalSegment() {
  Buffer seg = Buffer::FromBytes(wire_fixtures::kWalSegmentPrefix,
                                 sizeof(wire_fixtures::kWalSegmentPrefix));
  seg.Append(WalFixturePayloads()[2].span());
  return seg;
}

class WalSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/fcbench_wire_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(fs::CreateDir(dir_).ok());
  }
  void TearDown() override {
    fs::RemoveFile(SegmentPath());
    ::rmdir(dir_.c_str());
  }
  std::string SegmentPath() const {
    return fs::JoinPath(dir_, Wal::SegmentFileName(kWalFixtureSeq));
  }

  /// Writes the fixture records through Wal and returns the segment bytes:
  /// one Commit for all three records, or one Commit per record.
  Buffer WriteSegment(bool group_commit) {
    Wal::Options opt;
    opt.sync_on_commit = false;
    auto wal = Wal::Open(dir_, kWalFixtureSeq, opt);
    EXPECT_TRUE(wal.ok());
    for (const Buffer& p : WalFixturePayloads()) {
      EXPECT_TRUE(wal.value()->Append(Wal::kTypeRows, p.span()).ok());
      if (!group_commit) {
        EXPECT_TRUE(wal.value()->Commit().ok());
      }
    }
    EXPECT_TRUE(wal.value()->Close().ok());
    auto raw = fs::ReadFile(SegmentPath());
    EXPECT_TRUE(raw.ok());
    return raw.ok() ? std::move(raw.value()) : Buffer();
  }

  std::string dir_;
};

TEST_F(WalSegmentTest, FixtureIsSelfConsistent) {
  const Buffer seg = FrozenWalSegment();
  EXPECT_EQ(seg.size(), wire_fixtures::kWalSegmentSize);
  EXPECT_EQ(XxHash64(seg.span()), wire_fixtures::kWalSegmentHash);
}

TEST_F(WalSegmentTest, GroupCommitBytesIdentical) {
  const Buffer want = FrozenWalSegment();
  ExpectBytesEqual(WriteSegment(/*group_commit=*/true), want.data(),
                   want.size(), "wal group commit");
}

TEST_F(WalSegmentTest, SeparateCommitsBytesIdentical) {
  const Buffer want = FrozenWalSegment();
  ExpectBytesEqual(WriteSegment(/*group_commit=*/false), want.data(),
                   want.size(), "wal separate commits");
}

// A segment written by an older build must replay to the same records.
TEST_F(WalSegmentTest, FrozenSegmentReplays) {
  const Buffer seg = FrozenWalSegment();
  ASSERT_TRUE(
      fs::WriteFileAtomic(SegmentPath(), seg.span(), /*durable=*/false).ok());
  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().truncated);
  const std::vector<Buffer> want = WalFixturePayloads();
  ASSERT_EQ(replay.value().records.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(replay.value().records[i].segment_seq, kWalFixtureSeq);
    EXPECT_EQ(replay.value().records[i].type, Wal::kTypeRows);
    EXPECT_EQ(replay.value().records[i].payload.ToVector(),
              want[i].ToVector());
  }
}

}  // namespace
}  // namespace fcbench
