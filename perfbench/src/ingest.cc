// ingest-bulk and ingest-durable: closed-loop writers append batches of
// an 8-column series table to ShardedIngestEngine::AppendBatchUntil,
// then the round settles background work, reads every column back,
// appends a tail with fsync on every commit and leaves it unflushed,
// closes and reopens to time WAL replay.
//
// ingest-bulk: one writer, 512-row batches, fsync off, 8 MiB memtables
//   on two shards. Memtable fill, flush-time selection, compression,
//   segment publish and compaction do the work.
// ingest-durable: two writers, 128-row batches, one shard, fsync on
//   every commit, the default 1 MiB memtable. The WAL commit and fsync
//   under the engine mutex dominate. Its figures follow the shared
//   disk's fsync latency, so it is run by hand, not listed in
//   BENCHMARK.json (see README.md).
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "db/shard/sharded_engine.h"

namespace perfbench {
namespace {

namespace lsm = fcbench::db::lsm;
namespace shard = fcbench::db::shard;
using fcbench::DType;

constexpr size_t kCols = 8;
/// Timed reads of the settled store per round; read_mb_per_cpu_s takes
/// the median one, so one disturbed read does not set the round's figure.
constexpr size_t kReadPasses = 3;

struct IngestConfig {
  size_t shards;
  size_t writers;
  size_t batch_rows;
  bool sync;
  size_t memtable_bytes;
  /// Memtable flushes each shard sees per round (single writer: exact).
  size_t flushes_per_shard;
  /// Batches per shard appended after the read, left unflushed for the
  /// replay measurement (less than one memtable).
  size_t tail_batches_per_shard;
};

/// Columns: writer id, per-writer sequence id, timestamp, a full-precision
/// random walk, a 2-decimal price, an f32 temperature, a sparse f32
/// signal, an integer quantity. The ids make every row identifiable on
/// read-back; the rest span the compressibility range of TS data.
std::vector<lsm::ColumnDef> Schema() {
  auto col = [](const char* name, DType t = DType::kFloat64, int digits = 0) {
    lsm::ColumnDef d;
    d.name = name;
    d.dtype = t;
    d.precision_digits = digits;
    return d;
  };
  return {col("writer"),
          col("seq"),
          col("ts"),
          col("walk"),
          col("price", DType::kFloat64, 2),
          col("temp", DType::kFloat32),
          col("spike", DType::kFloat32),
          col("qty")};
}

/// Row-major rows of one writer; f32 columns are pre-rounded so the
/// generated value is exactly what the store must return.
std::vector<double> GenerateRows(uint64_t seed, size_t writer, size_t rows) {
  Rng rng(seed * 1000003 + writer);
  std::vector<double> out(rows * kCols);
  double walk = 100.0 * rng.Uniform();
  double price = 50.0 + 10.0 * rng.Uniform();
  const double phase = rng.Uniform() * 6.283;
  for (size_t s = 0; s < rows; ++s) {
    double* r = &out[s * kCols];
    walk += 0.01 * rng.Normal();
    price = std::max(1.0, price + 0.05 * rng.Normal());
    r[0] = static_cast<double>(writer);
    r[1] = static_cast<double>(s);
    r[2] = 1.7e9 + 0.25 * static_cast<double>(s);
    r[3] = walk;
    r[4] = std::round(price * 100.0) / 100.0;
    r[5] = static_cast<float>(20.0 + 5.0 * std::sin(phase + s / 500.0) +
                              0.05 * rng.Normal());
    r[6] = rng.Uniform() < 0.02 ? static_cast<float>(100.0 * rng.Uniform())
                                : 0.0f;
    r[7] = std::floor(100.0 * rng.Uniform());
  }
  return out;
}

class Ingest : public Workload {
 public:
  Ingest(const WorkloadArgs& a, IngestConfig c)
      : seed_(a.seed), cfg_(c), dir_(a.data_dir + "/store") {}

  int client_threads() const override {
    return static_cast<int>(cfg_.writers);
  }

  void RunRound(Round* r) override {
    const double t0 = ProcessCpuSeconds();
    const size_t batch_bytes = cfg_.batch_rows * kCols * sizeof(double);
    const size_t main_batches = cfg_.shards * cfg_.flushes_per_shard *
                                (cfg_.memtable_bytes / batch_bytes);
    const size_t tail_batches = cfg_.shards * cfg_.tail_batches_per_shard;
    // Each writer owns an equal share of the batches.
    per_writer_main_ = main_batches / cfg_.writers;
    per_writer_tail_ = tail_batches / cfg_.writers;
    const size_t rows_per_writer =
        (per_writer_main_ + per_writer_tail_) * cfg_.batch_rows;
    rows_.clear();
    for (size_t w = 0; w < cfg_.writers; ++w) {
      rows_.push_back(GenerateRows(seed_, w, rows_per_writer));
    }
    acked_.assign(cfg_.writers, std::vector<uint8_t>(rows_per_writer, 0));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::unique_ptr<shard::ShardedIngestEngine> eng;
    if (!Open(&eng, cfg_.sync, r)) return;
    // One series key per shard, so every shard gets the same bytes and
    // flush counts repeat exactly.
    keys_.clear();
    for (uint64_t key = 1; keys_.size() < cfg_.shards; ++key) {
      if (eng->ShardOf(key) == keys_.size()) keys_.push_back(key);
    }
    r->setup_s = ProcessCpuSeconds() - t0;

    // Timed ingest: first append to last flush published.
    std::vector<std::vector<double>> lat_us(cfg_.writers);
    const double t_ingest = ProcessCpuSeconds();
    RunWriters(eng.get(), 0, per_writer_main_, &lat_us, r);
    {
      fcbench::obs::ScopedSpan span("bench.shard.flush");
      const fcbench::Status st = eng->Flush();
      r->Op(st.ok(), "flush: " + st.ToString());
    }
    const double ingest_cpu_s = ProcessCpuSeconds() - t_ingest;
    std::vector<double> all_lat;
    for (const auto& v : lat_us) all_lat.insert(all_lat.end(), v.begin(),
                                               v.end());
    const double main_bytes =
        static_cast<double>(per_writer_main_ * cfg_.writers * batch_bytes);
    r->e2e["write_mb_per_cpu_s"] = main_bytes / ingest_cpu_s / 1e6;
    r->e2e["op_p50_us"] = Median(all_lat);
    r->layer["shard.append.p50_us"] = Median(all_lat);
    r->layer["shard.append.p99_us"] = Quantile(all_lat, 0.99);

    Settle(eng.get(), r);
    uint64_t segments = 0;
    lsm::EngineStats total;
    for (size_t k = 0; k < eng->num_shards(); ++k) {
      segments += eng->shard(k)->segments().size();
      const lsm::EngineStats s = eng->shard(k)->stats();
      total.flushes += s.flushes;
      total.compactions += s.compactions;
      total.flush_segment_bytes += s.flush_segment_bytes;
      total.compact_out_bytes += s.compact_out_bytes;
    }
    const double stored = static_cast<double>(DirBytes(dir_));
    r->e2e["stored_bytes_per_user_byte"] = stored / main_bytes;
    r->layer["stored_bytes"] = stored;
    r->layer["lsm.segments_at_read"] = static_cast<double>(segments);
    // WAL payload (one copy of the user bytes) + flushed + compacted
    // segment bytes, per user byte.
    r->layer["lsm.write_amp"] =
        (main_bytes + static_cast<double>(total.flush_segment_bytes +
                                          total.compact_out_bytes)) /
        main_bytes;
    r->counts["stored_bytes"] = stored;
    r->counts["flushes"] = static_cast<double>(total.flushes);
    r->counts["compactions"] = static_cast<double>(total.compactions);
    r->counts["segments_at_read"] = static_cast<double>(segments);

    // The first read also checks every row.
    std::vector<double> read_cpu_s = {ReadAndCheck(*eng, "after settling", r)};
    while (read_cpu_s.size() < kReadPasses) {
      read_cpu_s.push_back(ReadAll(*eng, r));
    }
    r->e2e["read_mb_per_cpu_s"] = main_bytes / Median(read_cpu_s) / 1e6;

    // The tail goes in durably, as live ingest after a bulk load: the
    // store is reopened with an fsync on every commit, so the WAL sync
    // layer runs on every ingest workload. It stays unflushed, and the
    // timed reopen after it replays it from the WAL.
    if (!Reopen(&eng, /*sync=*/true, r)) return;
    std::vector<std::vector<double>> tail_lat(cfg_.writers);
    RunWriters(eng.get(), per_writer_main_,
               per_writer_main_ + per_writer_tail_, &tail_lat, r);
    {
      const fcbench::Status st = eng->Close();
      r->Op(st.ok(), "close: " + st.ToString());
    }
    eng.reset();
    const double wal_bytes =
        static_cast<double>(DirBytesWithPrefix(dir_, "wal-"));
    const double t_open = NowSeconds();
    if (!Open(&eng, cfg_.sync, r)) return;
    const double open_s = NowSeconds() - t_open;
    r->layer["lsm.open.replay_ms"] = open_s * 1e3;
    r->layer["lsm.open.replay_mb_s"] = wal_bytes / open_s / 1e6;
    r->counts["wal_bytes_at_reopen"] = wal_bytes;
    ReadAndCheck(*eng, "after reopen", r);
    const fcbench::Status st = eng->Close();
    r->Op(st.ok(), "close: " + st.ToString());
    eng.reset();
    rows_.clear();
    std::filesystem::remove_all(dir_);
  }

 private:
  bool Open(std::unique_ptr<shard::ShardedIngestEngine>* eng, bool sync,
            Round* r) {
    shard::ShardOptions opt;
    opt.num_shards = cfg_.shards;
    opt.engine.memtable_bytes = cfg_.memtable_bytes;
    opt.engine.sync_on_commit = sync;
    fcbench::obs::ScopedSpan span("bench.shard.open");
    auto e = shard::ShardedIngestEngine::Open(dir_, Schema(), opt);
    r->Op(e.ok(), "open: " + e.status().ToString());
    if (!e.ok()) return false;
    *eng = std::move(e).value();
    return true;
  }

  bool Reopen(std::unique_ptr<shard::ShardedIngestEngine>* eng, bool sync,
              Round* r) {
    const fcbench::Status st = (*eng)->Close();
    r->Op(st.ok(), "close: " + st.ToString());
    eng->reset();
    return Open(eng, sync, r);
  }

  /// Writer w appends its batches [from, to); batch b goes to the
  /// series of shard (b * writers + w) % shards.
  void RunWriters(shard::ShardedIngestEngine* eng, size_t from, size_t to,
                  std::vector<std::vector<double>>* lat_us, Round* r) {
    std::vector<std::vector<std::string>> errors(cfg_.writers);
    auto writer = [&](size_t w) {
      if (cfg_.writers > 1) PinToCpu(-1);
      std::vector<double> batch;
      const size_t vals = cfg_.batch_rows * kCols;
      (*lat_us)[w].reserve(to - from);
      for (size_t b = from; b < to; ++b) {
        batch.assign(rows_[w].begin() + b * vals,
                     rows_[w].begin() + (b + 1) * vals);
        const uint64_t key = keys_[(b * cfg_.writers + w) % cfg_.shards];
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        const double t = NowSeconds();
        fcbench::Status st;
        {
          fcbench::obs::ScopedSpan span("bench.shard.append", key);
          st = eng->AppendBatchUntil(key, batch, deadline);
        }
        (*lat_us)[w].push_back((NowSeconds() - t) * 1e6);
        if (st.ok()) {
          for (size_t i = 0; i < cfg_.batch_rows; ++i) {
            acked_[w][b * cfg_.batch_rows + i] = 1;
          }
        } else {
          errors[w].push_back("append: " + st.ToString());
        }
      }
    };
    if (cfg_.writers == 1) {
      writer(0);
    } else {
      std::vector<std::thread> threads;
      for (size_t w = 0; w < cfg_.writers; ++w) threads.emplace_back(writer, w);
      for (auto& t : threads) t.join();
    }
    for (size_t w = 0; w < cfg_.writers; ++w) {
      for (size_t i = 0; i < (to - from) - errors[w].size(); ++i) {
        r->Op(true, "");
      }
      for (const auto& e : errors[w]) r->Op(false, e);
    }
  }

  /// Waits for background flushes, then compacts every shard until
  /// nothing merges, so reads and sizes see a settled layout.
  void Settle(shard::ShardedIngestEngine* eng, Round* r) {
    for (size_t k = 0; k < eng->num_shards(); ++k) {
      lsm::IngestEngine* s = eng->shard(k);
      fcbench::Status st = s->WaitForFlush();
      r->Op(st.ok(), "wait for flush: " + st.ToString());
      for (;;) {
        const size_t before = s->segments().size();
        {
          fcbench::obs::ScopedSpan span("bench.lsm.compact", k);
          st = s->Compact();
        }
        r->Op(st.ok(), "compact: " + st.ToString());
        if (!st.ok() || s->segments().size() == before) break;
      }
    }
  }

  /// Reads column `name` (index c), adding the process CPU time the read
  /// took to *cpu_s.
  static fcbench::Result<std::vector<double>> TimedRead(
      const shard::ShardedIngestEngine& eng, size_t c,
      const std::string& name, double* cpu_s) {
    const double t = ProcessCpuSeconds();
    fcbench::Result<std::vector<double>> col =
        fcbench::Status::Internal("unread");
    {
      fcbench::obs::ScopedSpan span("bench.shard.read", c);
      col = eng.ReadColumn(name);
    }
    *cpu_s += ProcessCpuSeconds() - t;
    return col;
  }

  /// Reads every column once and checks that each read returns every
  /// acknowledged main row. Returns the process CPU time the reads took.
  double ReadAll(const shard::ShardedIngestEngine& eng, Round* r) {
    const size_t rows = per_writer_main_ * cfg_.writers * cfg_.batch_rows;
    const auto schema = Schema();
    double cpu_s = 0;
    for (size_t c = 0; c < schema.size(); ++c) {
      const auto col = TimedRead(eng, c, schema[c].name, &cpu_s);
      r->Op(col.ok() && col.value().size() == rows,
            "re-read " + schema[c].name + ": " +
                (col.ok() ? "row count differs" : col.status().ToString()));
    }
    return cpu_s;
  }

  /// Reads every column back and checks each acknowledged row appears
  /// exactly once with the generated values. Returns the process
  /// CPU time the reads took.
  double ReadAndCheck(const shard::ShardedIngestEngine& eng,
                      const std::string& when, Round* r) {
    const auto schema = Schema();
    double read_cpu_s = 0;
    auto read = [&](size_t c, std::vector<double>* out) {
      auto col = TimedRead(eng, c, schema[c].name, &read_cpu_s);
      r->Op(col.ok(), "read " + schema[c].name + " " + when + ": " +
                          col.status().ToString());
      if (col.ok()) *out = std::move(col).value();
      return col.ok();
    };
    std::vector<double> writer_col, seq_col;
    if (!read(0, &writer_col) || !read(1, &seq_col)) return read_cpu_s;
    // Row i of the store is row (writer, seq) of the generator.
    std::vector<size_t> src(writer_col.size());
    std::vector<std::vector<uint8_t>> seen(cfg_.writers);
    for (size_t w = 0; w < cfg_.writers; ++w) {
      seen[w].assign(acked_[w].size(), 0);
    }
    std::string bad;
    for (size_t i = 0; i < writer_col.size() && bad.empty(); ++i) {
      const double w = writer_col[i], s = seq_col[i];
      if (!(w >= 0 && w < static_cast<double>(cfg_.writers) &&
            w == std::floor(w) && s >= 0 &&
            s < static_cast<double>(acked_[0].size()) && s == std::floor(s))) {
        bad = "row " + std::to_string(i) + " has invalid ids";
        break;
      }
      const size_t wi = static_cast<size_t>(w), si = static_cast<size_t>(s);
      if (!acked_[wi][si]) bad = "row " + std::to_string(i) + " never acked";
      if (seen[wi][si]++) bad = "row " + std::to_string(i) + " duplicated";
      src[i] = wi * acked_[0].size() + si;
    }
    if (bad.empty()) {
      for (size_t w = 0; w < cfg_.writers && bad.empty(); ++w) {
        for (size_t s = 0; s < acked_[w].size(); ++s) {
          if (acked_[w][s] && !seen[w][s]) {
            bad = "acked row (" + std::to_string(w) + ", " +
                  std::to_string(s) + ") missing";
            break;
          }
        }
      }
    }
    for (size_t c = 2; c < kCols && bad.empty(); ++c) {
      std::vector<double> col;
      if (!read(c, &col)) return read_cpu_s;
      if (col.size() != src.size()) {
        bad = "column " + schema[c].name + " length differs";
        break;
      }
      for (size_t i = 0; i < col.size(); ++i) {
        const size_t n = acked_[0].size();
        const double want = rows_[src[i] / n][(src[i] % n) * kCols + c];
        if (std::memcmp(&col[i], &want, sizeof(double)) != 0) {
          bad = "column " + schema[c].name + " row " + std::to_string(i) +
                " differs from the generated value";
          break;
        }
      }
    }
    r->Op(bad.empty(), "check " + when + ": " + bad);
    return read_cpu_s;
  }

  uint64_t seed_;
  IngestConfig cfg_;
  std::string dir_;
  size_t per_writer_main_ = 0, per_writer_tail_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<std::vector<uint8_t>> acked_;
  std::vector<uint64_t> keys_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestBulk(const WorkloadArgs& a) {
  return std::make_unique<Ingest>(
      a, IngestConfig{.shards = 2,
                      .writers = 1,
                      .batch_rows = 512,
                      .sync = false,
                      .memtable_bytes = 8 << 20,
                      .flushes_per_shard = 4,
                      .tail_batches_per_shard = 128});
}

std::unique_ptr<Workload> MakeIngestDurable(const WorkloadArgs& a) {
  return std::make_unique<Ingest>(
      a, IngestConfig{.shards = 1,
                      .writers = 2,
                      .batch_rows = 128,
                      .sync = true,
                      .memtable_bytes = 1 << 20,
                      .flushes_per_shard = 8,
                      .tail_batches_per_shard = 64});
}

}  // namespace perfbench
