// column-query: one wide TPC-style table written through ColumnStore with
// the online selector, then random point and range ReadRows, then a
// projected Read with Filter and Aggregate. Selection and the paged-file
// read path do the work.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "data/dataset.h"
#include "db/column_store.h"
#include "db/query.h"

namespace perfbench {
namespace {

namespace db = fcbench::db;

/// About 350K rows of 12 f64 columns.
constexpr uint64_t kTableBytes = 32 << 20;
/// Every column is read at every length this many times, at random
/// offsets: the mix of columns and lengths is the same for every seed,
/// so the latency median does not move with which columns a seed picks.
constexpr int kQueryRepeats = 4;
const uint64_t kQueryLengths[] = {1, 4, 16, 63, 251, 1000};
/// Relative tolerance of the engine's sum against a direct sum (the two
/// may add in different orders).
constexpr double kSumTolerance = 1e-9;
/// The projected scan: filter on the first, aggregate the second.
const size_t kScanColumns[] = {3, 7, 10};

class ColumnQuery : public Workload {
 public:
  explicit ColumnQuery(const WorkloadArgs& a)
      : seed_(a.seed), dir_(a.data_dir + "/table") {}
  int client_threads() const override { return 1; }

  void RunRound(Round* r) override {
    const double t0 = ProcessCpuSeconds();
    const auto* info = fcbench::data::FindDataset("tpcxBB-store");
    auto ds = fcbench::data::GenerateDataset(*info, kTableBytes, seed_);
    r->Op(ds.ok(), "generate: " + ds.status().ToString());
    if (!ds.ok()) return;
    const size_t rows = ds.value().desc.extent[0];
    const size_t cols = ds.value().desc.extent[1];
    std::vector<db::ColumnStore::ColumnSpec> specs(cols);
    for (size_t c = 0; c < cols; ++c) {
      specs[c].name = std::string("c").append(std::to_string(c));
      specs[c].compressor = "auto";
      specs[c].precision_digits = info->precision_digits;
      specs[c].values.resize(rows);
    }
    const uint8_t* src = ds.value().bytes.data();
    for (size_t i = 0; i < rows; ++i) {
      for (size_t c = 0; c < cols; ++c) {
        std::memcpy(&specs[c].values[i], src + 8 * (i * cols + c), 8);
      }
    }
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const std::string prefix = dir_ + "/t";
    const double user_bytes = static_cast<double>(rows * cols * 8);
    r->setup_s = ProcessCpuSeconds() - t0;

    const double t = ProcessCpuSeconds();
    fcbench::Status st;
    {
      fcbench::obs::ScopedSpan span("bench.cs.write", cols, rows);
      st = db::ColumnStore::Write(prefix, specs);
    }
    const double write_cpu_s = ProcessCpuSeconds() - t;
    r->Op(st.ok(), "write: " + st.ToString());
    if (!st.ok()) return;
    const double stored = static_cast<double>(DirBytes(dir_));
    r->e2e["write_mb_per_cpu_s"] = user_bytes / write_cpu_s / 1e6;
    r->e2e["stored_bytes_per_user_byte"] = stored / user_bytes;
    r->layer["stored_bytes"] = stored;
    r->counts["stored_bytes"] = stored;

    Queries(prefix, specs, r);
    Scan(prefix, specs, user_bytes, r);

    st = db::ColumnStore::Drop(prefix);
    r->Op(st.ok(), "drop: " + st.ToString());
    std::filesystem::remove_all(dir_);
  }

 private:
  /// Point and range reads of 1-1000 rows of every column at random
  /// offsets; every slice must equal the generated slice.
  void Queries(const std::string& prefix,
               const std::vector<db::ColumnStore::ColumnSpec>& specs,
               Round* r) {
    const size_t rows = specs[0].values.size();
    Rng rng(seed_ * 7919 + 1);
    std::vector<double> lat_us;
    double bytes_read = 0, bytes_decoded = 0;
    std::vector<std::pair<size_t, uint64_t>> mix;
    for (int k = 0; k < kQueryRepeats; ++k) {
      for (size_t c = 0; c < specs.size(); ++c) {
        for (uint64_t n : kQueryLengths) mix.emplace_back(c, n);
      }
    }
    for (const auto& [c, n] : mix) {
      const uint64_t begin = rng.Range(0, rows - n);
      db::ColumnStore::ReadStats rs;
      const double t = NowSeconds();
      fcbench::Result<std::vector<double>> got =
          fcbench::Status::Internal("unread");
      {
        fcbench::obs::ScopedSpan span("bench.cs.read_rows", c, n);
        got = db::ColumnStore::ReadRows(prefix, specs[c].name, begin, n, &rs);
      }
      lat_us.push_back((NowSeconds() - t) * 1e6);
      bytes_read += static_cast<double>(rs.bytes_on_disk);
      bytes_decoded += static_cast<double>(rs.bytes_decoded);
      const bool ok =
          got.ok() && got.value().size() == n &&
          std::memcmp(got.value().data(), specs[c].values.data() + begin,
                      n * sizeof(double)) == 0;
      r->Op(ok, "read_rows " + specs[c].name + " [" + std::to_string(begin) +
                    ", +" + std::to_string(n) + "): " +
                    (got.ok() ? "slice differs" : got.status().ToString()));
    }
    r->e2e["op_p50_us"] = Median(lat_us);
    r->layer["column_store.read_rows.p50_us"] = Median(lat_us);
    r->layer["column_store.read_rows.p99_us"] = Quantile(lat_us, 0.99);
    const double queries = static_cast<double>(mix.size());
    r->layer["column_store.read_rows.bytes_read_per_query"] =
        bytes_read / queries;
    r->layer["column_store.read_rows.bytes_decoded_per_query"] =
        bytes_decoded / queries;
    r->counts["bytes_read_per_query"] = bytes_read / queries;
    r->counts["bytes_decoded_per_query"] = bytes_decoded / queries;
  }

  /// Projected read of three columns, a <= filter on the first at its
  /// 30th percentile, and count/sum/min/max of the second over the
  /// selection, checked against direct computations.
  void Scan(const std::string& prefix,
            const std::vector<db::ColumnStore::ColumnSpec>& specs,
            double user_bytes, Round* r) {
    const size_t rows = specs[0].values.size();
    std::vector<std::string> names;
    for (size_t c : kScanColumns) names.push_back(specs[c].name);
    const auto& fcol = specs[kScanColumns[0]].values;
    const auto& acol = specs[kScanColumns[1]].values;
    std::vector<double> sorted = fcol;
    std::nth_element(sorted.begin(), sorted.begin() + rows * 3 / 10,
                     sorted.end());
    const double threshold = sorted[rows * 3 / 10];
    uint64_t want_count = 0;
    double want_sum = 0, want_min = INFINITY, want_max = -INFINITY;
    for (size_t i = 0; i < rows; ++i) {
      if (fcol[i] > threshold) continue;
      ++want_count;
      want_sum += acol[i];
      want_min = std::min(want_min, acol[i]);
      want_max = std::max(want_max, acol[i]);
    }

    const double t = ProcessCpuSeconds();
    fcbench::Result<db::DataFrame> df = fcbench::Status::Internal("unread");
    {
      fcbench::obs::ScopedSpan span("bench.cs.read", names.size());
      df = db::ColumnStore::Read(prefix, names);
    }
    r->Op(df.ok() && df.value().num_rows() == rows,
          "projected read: " + df.status().ToString());
    if (!df.ok()) return;
    fcbench::Result<db::Selection> sel = fcbench::Status::Internal("unread");
    {
      fcbench::obs::ScopedSpan span("bench.q.filter");
      sel = db::Filter(df.value(),
                       {.column = 0, .op = db::CompareOp::kLe,
                        .value = threshold});
    }
    r->Op(sel.ok(), "filter: " + sel.status().ToString());
    if (!sel.ok()) return;
    double agg[4] = {0, 0, 0, 0};
    const db::AggregateOp ops[4] = {db::AggregateOp::kCount,
                                    db::AggregateOp::kSum,
                                    db::AggregateOp::kMin,
                                    db::AggregateOp::kMax};
    bool agg_ok = true;
    {
      fcbench::obs::ScopedSpan span("bench.q.aggregate");
      for (int i = 0; i < 4; ++i) {
        auto v = db::Aggregate(df.value(), 1, ops[i], &sel.value());
        agg_ok = agg_ok && v.ok();
        if (v.ok()) agg[i] = v.value();
      }
    }
    const double scan_cpu_s = ProcessCpuSeconds() - t;
    r->Op(agg_ok, "aggregate failed");
    r->Op(sel.value().size() == want_count &&
              agg[0] == static_cast<double>(want_count),
          "filter count differs from the direct count");
    r->Op(agg[2] == want_min && agg[3] == want_max,
          "min/max differ from the direct min/max");
    r->Op(std::abs(agg[1] - want_sum) <=
              kSumTolerance * std::max(1.0, std::abs(want_sum)),
          "sum outside tolerance of the direct sum");
    const double scanned = user_bytes * static_cast<double>(names.size()) /
                           static_cast<double>(specs.size());
    r->e2e["read_mb_per_cpu_s"] = scanned / scan_cpu_s / 1e6;
    r->counts["filter_count"] = static_cast<double>(want_count);
  }

  uint64_t seed_;
  std::string dir_;
};

}  // namespace

std::unique_ptr<Workload> MakeColumnQuery(const WorkloadArgs& a) {
  return std::make_unique<ColumnQuery>(a);
}

}  // namespace perfbench
