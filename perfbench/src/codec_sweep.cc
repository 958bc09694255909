// codec-sweep: the paper's §5.2 protocol in memory. Nine lossless CPU
// methods, threads=1, round-trip two generated datasets per domain. No
// storage layer runs, so a kernel change shows undiluted here and a
// storage change should show nothing.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "core/compressor.h"
#include "data/dataset.h"

namespace perfbench {
namespace {

using fcbench::Buffer;
using fcbench::CompressorRegistry;
using fcbench::DType;

constexpr size_t kNumMethods = std::size(kCodecMethods);

/// Two per domain, mixing f32/f64 and smooth, noisy, sparse and
/// decimal-quantized character.
const char* const kDatasets[] = {
    "astro-mhd",   "rsim",        // HPC: sparse f64, smooth f32
    "solar-wind",  "gas-price",   // TS: sensor walk f32, quantized f64
    "hst-wfc3-ir", "g24-78-usb",  // OBS: sky image f32, noisy field f32
    "tpcH-order",  "tpcDS-store"  // DB: decimal f64, decimal f32 table
};
constexpr uint64_t kDatasetBytes = 1 << 20;
/// Passes over every cell per round; a cell's time is its median pass.
/// Passes run one after another over all cells, so a short burst of
/// machine noise lands on one pass of a few cells, not on every pass of
/// one cell.
constexpr int kPasses = 3;

struct Cell {
  size_t dataset = 0;
  size_t method = 0;
  std::vector<double> comp_s, decomp_s;
  Buffer compressed;
  bool bitwise_mismatch = false;
};

/// BUFF's contract: with d declared decimal digits every value comes back
/// within half a unit of the d-th digit. Without a declared precision
/// BUFF keeps 10 digits, rounding a 35-bit fixed-point value to them, so
/// the bound is half a unit of the 10th digit plus half that step. An f32
/// output may add its own rounding.
bool WithinBuffBound(const fcbench::data::Dataset& ds, const Buffer& out) {
  const int d = ds.desc.precision_digits;
  const double bound = d > 0 ? 0.5 * std::pow(10.0, -d)
                             : 0.5 * 1e-10 + std::ldexp(1.0, -36);
  const size_t n = ds.num_elements();
  for (size_t i = 0; i < n; ++i) {
    double a, b, slack = 0;
    if (ds.desc.dtype == DType::kFloat32) {
      float fa, fb;
      std::memcpy(&fa, ds.bytes.data() + 4 * i, 4);
      std::memcpy(&fb, out.data() + 4 * i, 4);
      a = fa;
      b = fb;
      slack = std::abs(std::nextafter(fa, INFINITY) - fa);
    } else {
      std::memcpy(&a, ds.bytes.data() + 8 * i, 8);
      std::memcpy(&b, out.data() + 8 * i, 8);
    }
    if (!(std::abs(a - b) <= bound + slack)) return false;
  }
  return true;
}

class CodecSweep : public Workload {
 public:
  explicit CodecSweep(const WorkloadArgs& a) : seed_(a.seed) {}
  int client_threads() const override { return 1; }

  void RunRound(Round* r) override {
    const double t0 = ProcessCpuSeconds();
    std::vector<fcbench::data::Dataset> sets;
    for (const char* name : kDatasets) {
      const auto* info = fcbench::data::FindDataset(name);
      auto ds = fcbench::data::GenerateDataset(*info, kDatasetBytes, seed_);
      r->Op(ds.ok(), std::string("generate ") + name);
      if (!ds.ok()) return;
      sets.push_back(std::move(ds).value());
    }
    fcbench::CompressorConfig cfg;
    cfg.threads = 1;
    std::vector<std::unique_ptr<fcbench::Compressor>> codecs;
    for (const char* m : kCodecMethods) {
      auto c = CompressorRegistry::Global().Create(m, cfg);
      r->Op(c.ok(), std::string("create ") + m);
      if (!c.ok()) return;
      codecs.push_back(std::move(c).value());
    }
    std::vector<Cell> cells;
    for (size_t d = 0; d < sets.size(); ++d) {
      for (size_t m = 0; m < kNumMethods; ++m) {
        cells.emplace_back();
        cells.back().dataset = d;
        cells.back().method = m;
      }
    }
    r->setup_s = ProcessCpuSeconds() - t0;

    for (int pass = 0; pass < kPasses; ++pass) {
      for (Cell& c : cells) RoundTrip(sets[c.dataset], *codecs[c.method], &c,
                                      r);
    }

    double in_total = 0, out_total = 0, comp_total = 0, decomp_total = 0;
    std::vector<double> in_m(kNumMethods), out_m(kNumMethods),
        comp_m(kNumMethods), decomp_m(kNumMethods), calls_m(kNumMethods);
    double buff_mismatch = 0;
    for (const Cell& c : cells) {
      const double in = static_cast<double>(sets[c.dataset].bytes.size());
      const double comp = Median(c.comp_s), decomp = Median(c.decomp_s);
      in_total += in;
      out_total += static_cast<double>(c.compressed.size());
      comp_total += comp;
      decomp_total += decomp;
      in_m[c.method] += in;
      out_m[c.method] += static_cast<double>(c.compressed.size());
      comp_m[c.method] += comp;
      decomp_m[c.method] += decomp;
      calls_m[c.method] += 2;
      if (c.bitwise_mismatch) ++buff_mismatch;
    }
    r->e2e["write_mb_per_cpu_s"] = in_total / comp_total / 1e6;
    r->e2e["read_mb_per_cpu_s"] = in_total / decomp_total / 1e6;
    // The typical call: the median over the nine methods of each one's
    // mean call time. Calls differ 25-fold in cost across methods and
    // each dataset's cost moves with the seed, so the median single call
    // would jump between whichever cells the seed puts in the middle.
    std::vector<double> method_call_us;
    for (size_t m = 0; m < kNumMethods; ++m) {
      method_call_us.push_back((comp_m[m] + decomp_m[m]) / calls_m[m] * 1e6);
    }
    r->e2e["op_p50_us"] = Median(method_call_us);
    r->e2e["stored_bytes_per_user_byte"] = out_total / in_total;
    for (size_t m = 0; m < kNumMethods; ++m) {
      const std::string p = std::string("codec.") + kCodecMethods[m];
      r->layer[p + ".compress_mb_s"] = in_m[m] / comp_m[m] / 1e6;
      r->layer[p + ".decompress_mb_s"] = in_m[m] / decomp_m[m] / 1e6;
      r->layer[p + ".ratio"] = in_m[m] / out_m[m];
    }
    r->layer["codec.buff.bitwise_mismatch_cells"] = buff_mismatch;
    r->layer["stored_bytes"] = out_total;
    r->counts["stored_bytes"] = out_total;
    r->counts["buff_bitwise_mismatch_cells"] = buff_mismatch;
  }

 private:
  void RoundTrip(const fcbench::data::Dataset& ds, fcbench::Compressor& codec,
                 Cell* c, Round* r) {
    const std::string what = std::string(kCodecMethods[c->method]) + " on " +
                             kDatasets[c->dataset];
    const uint64_t in_bytes = ds.bytes.size();
    Buffer comp;
    comp.Reserve(in_bytes + in_bytes / 2 + 4096);
    fcbench::Status st;
    double t = ProcessCpuSeconds();
    {
      fcbench::obs::ScopedSpan span("bench.codec.compress", c->method,
                                    in_bytes);
      st = codec.Compress(ds.bytes.span(), ds.desc, &comp);
    }
    c->comp_s.push_back(ProcessCpuSeconds() - t);
    if (!st.ok()) {
      r->Op(false, what + ": compress: " + st.ToString());
      return;
    }
    Buffer out;
    out.Reserve(in_bytes);
    t = ProcessCpuSeconds();
    {
      fcbench::obs::ScopedSpan span("bench.codec.decompress", c->method,
                                    in_bytes);
      st = codec.Decompress(comp.span(), ds.desc, &out);
    }
    c->decomp_s.push_back(ProcessCpuSeconds() - t);
    if (!st.ok() || out.size() != in_bytes) {
      r->Op(false, what + ": decompress: " + st.ToString());
      return;
    }
    const bool bitwise =
        std::memcmp(out.data(), ds.bytes.data(), in_bytes) == 0;
    if (std::strcmp(kCodecMethods[c->method], "buff") == 0) {
      c->bitwise_mismatch = !bitwise;
      r->Op(bitwise || WithinBuffBound(ds, out),
            what + ": value outside BUFF's precision bound");
    } else {
      r->Op(bitwise, what + ": not bit-identical");
    }
    c->compressed = std::move(comp);
  }

  uint64_t seed_;
};

}  // namespace

const char* const kCodecMethods[9] = {
    "pfpc",      "spdp", "fpzip",   "bitshuffle_lz4", "bitshuffle_zstd",
    "ndzip_cpu", "buff", "gorilla", "chimp128"};

std::unique_ptr<Workload> MakeCodecSweep(const WorkloadArgs& a) {
  return std::make_unique<CodecSweep>(a);
}

}  // namespace perfbench
