// perfbench: one workload per invocation, repeated in rounds for the
// measured time; end-to-end metrics are per-round medians of untraced
// rounds. With --trace 1, untraced and fully sampled rounds then alternate
// three times; the per-layer metrics come from the first traced round and
// the tracing overhead from the traced against the untraced wall times.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>]
//
// The last stdout line is the JSON result; lines before it starting with
// '#' are the per-round values, the exact-repeat counts and (traced) the
// span self-time table.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Untraced/traced round pairs behind trace.overhead_pct.
constexpr int kOverheadPairs = 3;

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"write_mb_per_cpu_s", "MB/cpu-s"},
    {"read_mb_per_cpu_s", "MB/cpu-s"},
    {"op_p50_us", "us"},
    {"stored_bytes_per_user_byte", "ratio"},
};

std::vector<MetricDef> PerLayerDefs() {
  std::vector<MetricDef> d;
  for (const char* m : kCodecMethods) {
    const std::string p = std::string("codec.") + m;
    d.push_back({p + ".compress_mb_s", "MB/cpu-s"});
    d.push_back({p + ".decompress_mb_s", "MB/cpu-s"});
    d.push_back({p + ".ratio", "ratio"});
  }
  const std::vector<MetricDef> rest = {
      {"codec.buff.bitwise_mismatch_cells", "count"},
      {"select.choose.self_us_p50", "us"},
      {"select.choose.calls", "count"},
      {"select.cache_hit_ratio", "ratio"},
      {"chunked.compress.self_ms", "ms"},
      {"shard.append.p50_us", "us"},
      {"shard.append.p99_us", "us"},
      {"shard.route.self_us_p50", "us"},
      {"shard.admission.wait_ms_total", "ms"},
      {"wal.append.self_us_p50", "us"},
      {"wal.sync.self_us_p50", "us"},
      {"wal.sync.self_us_p99", "us"},
      {"wal.rotate.self_ms_total", "ms"},
      {"wal.syncs_per_batch", "ratio"},
      {"lsm.memtable.self_us_p50", "us"},
      {"lsm.memtable.ns_per_row", "ns"},
      {"lsm.flush.count", "count"},
      {"lsm.flush.self_ms_p50", "ms"},
      {"segment.column.self_ms_total", "ms"},
      {"segment.publish.self_ms_total", "ms"},
      {"lsm.manifest.self_ms_total", "ms"},
      {"lsm.compact.count", "count"},
      {"lsm.compact.self_ms_total", "ms"},
      {"lsm.write_amp", "ratio"},
      {"lsm.segments_at_read", "count"},
      {"lsm.read.self_ms", "ms"},
      {"segment.read.self_ms_total", "ms"},
      {"lsm.open.replay_ms", "ms"},
      {"lsm.open.replay_mb_s", "MB/s"},
      {"column_store.read_rows.p50_us", "us"},
      {"column_store.read_rows.p99_us", "us"},
      {"column_store.read_rows.bytes_read_per_query", "bytes"},
      {"column_store.read_rows.bytes_decoded_per_query", "bytes"},
      {"column_store.write.self_ms", "ms"},
      {"column_store.read.self_ms", "ms"},
      {"query.filter_ms", "ms"},
      {"query.aggregate_ms", "ms"},
      {"stored_bytes", "bytes"},
      {"trace.dropped_spans", "count"},
      {"trace.overhead_pct", "%"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}

/// Per-layer values derived from the traced round's spans. Layers that
/// did not run on this workload have no spans and read 0.
std::map<std::string, double> LayerFromSpans(const TraceSummary& t) {
  std::map<std::string, double> m;
  auto self_p = [&](const char* n, double q) {
    return Quantile(t.Get(n).self_ns, q) / 1e3;
  };
  auto self_ms = [&](const char* n) { return t.Get(n).self_total_ns / 1e6; };
  const SpanStats& choose = t.Get("select.choose");
  m["select.choose.self_us_p50"] = self_p("select.choose", 0.5);
  m["select.choose.calls"] = static_cast<double>(choose.count);
  m["select.cache_hit_ratio"] =
      choose.count == 0
          ? 0
          : static_cast<double>(choose.tags.count("cache-hit")
                                    ? choose.tags.at("cache-hit")
                                    : 0) /
                static_cast<double>(choose.count);
  m["chunked.compress.self_ms"] = self_ms("chunked.compress");
  m["shard.route.self_us_p50"] = self_p("shard.route", 0.5);
  m["shard.admission.wait_ms_total"] = t.Get("shard.admission").total_ns / 1e6;
  m["wal.append.self_us_p50"] = self_p("wal.append", 0.5);
  m["wal.sync.self_us_p50"] = self_p("wal.sync", 0.5);
  m["wal.sync.self_us_p99"] = self_p("wal.sync", 0.99);
  m["wal.rotate.self_ms_total"] = self_ms("wal.rotate");
  const double batches = static_cast<double>(t.Get("lsm.append").count);
  m["wal.syncs_per_batch"] =
      batches == 0 ? 0 : static_cast<double>(t.Get("wal.sync").count) / batches;
  const SpanStats& mem = t.Get("lsm.memtable");
  m["lsm.memtable.self_us_p50"] = self_p("lsm.memtable", 0.5);
  m["lsm.memtable.ns_per_row"] =
      mem.arg_a_total == 0 ? 0 : mem.self_total_ns / mem.arg_a_total;
  m["lsm.flush.count"] = static_cast<double>(t.Get("lsm.flush").count);
  m["lsm.flush.self_ms_p50"] = self_p("lsm.flush", 0.5) / 1e3;
  m["segment.column.self_ms_total"] = self_ms("segment.column");
  m["segment.publish.self_ms_total"] = self_ms("segment.publish");
  m["lsm.manifest.self_ms_total"] = self_ms("lsm.manifest");
  m["lsm.compact.count"] = static_cast<double>(t.Get("lsm.compact").count);
  m["lsm.compact.self_ms_total"] = self_ms("lsm.compact");
  m["lsm.read.self_ms"] = self_ms("lsm.read");
  m["segment.read.self_ms_total"] = self_ms("segment.read");
  m["column_store.write.self_ms"] = self_ms("bench.cs.write");
  m["column_store.read.self_ms"] = self_ms("bench.cs.read");
  m["query.filter_ms"] = t.Get("bench.q.filter").total_ns / 1e6;
  m["query.aggregate_ms"] = t.Get("bench.q.aggregate").total_ns / 1e6;
  m["trace.dropped_spans"] = static_cast<double>(t.dropped);
  return m;
}

void PrintJsonMap(const char* label, const std::map<std::string, double>& m) {
  std::printf("# %s {", label);
  const char* sep = "";
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.10g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}\n");
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<codec-sweep|ingest-bulk|ingest-durable|column-query> "
               "--seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, data_dir = ".bench_data";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--data-dir") {
      data_dir = v;
    } else {
      return Usage(("unknown flag " + k).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");

  const std::map<std::string,
                 std::function<std::unique_ptr<Workload>(const WorkloadArgs&)>>
      factories = {{"codec-sweep", MakeCodecSweep},
                   {"ingest-bulk", MakeIngestBulk},
                   {"ingest-durable", MakeIngestDurable},
                   {"column-query", MakeColumnQuery}};
  auto factory = factories.find(workload);
  if (factory == factories.end()) return Usage("unknown workload");

  // Freed memory stays in the heap for the next round instead of going
  // back to the kernel (glibc's default for blocks of 128 KiB and up), so
  // rounds after the first reuse warm pages instead of timing page faults
  // and the host's re-backing of returned pages.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  WorkloadArgs args;
  args.seed = seed;
  args.data_dir = data_dir + "/" + workload + "-" + std::to_string(getpid());
  std::unique_ptr<Workload> w = factory->second(args);

  // Thread budget: the workload's own threads plus the shared pool fit
  // in the usable CPUs. Both knobs are read once, before first use.
  RecordCpus();
  const std::vector<int> cpus = UsableCpuList();
  const int pool =
      std::max(1, static_cast<int>(cpus.size()) - w->client_threads());
  setenv("FCBENCH_THREADS", std::to_string(pool).c_str(), 1);
  // Room for every span of one traced round: the largest, ingest-bulk,
  // records about 19K; the ring costs 120 bytes a span.
  setenv("FCBENCH_TRACE_CAP", "131072", 1);
  fcbench::obs::SetTraceSampling(0);
  fcbench::obs::SetSlowOpThresholdMs(0);
  std::filesystem::create_directories(args.data_dir);
  // Started now, so its workers are not bound by the pinning below.
  fcbench::ThreadPool::Shared();

  // The vCPUs of a shared host run at different speeds, and a busy
  // thread stays on one of them, so an unpinned process measures
  // whichever vCPU it landed on. Each round pins the driving thread to
  // the next CPU in turn, and the run ends after whole turns, so every
  // run samples every CPU equally.
  std::vector<Round> rounds;
  const double start = NowSeconds();
  do {
    PinToCpu(cpus[rounds.size() % cpus.size()]);
    Round r;
    const double t = NowSeconds();
    w->RunRound(&r);
    r.wall_s = NowSeconds() - t;
    PrintJsonMap(("round " + std::to_string(rounds.size())).c_str(), r.e2e);
    rounds.push_back(std::move(r));
  } while (NowSeconds() - start < seconds ||
           rounds.size() % cpus.size() != 0);
  PinToCpu(-1);

  Round traced;
  TraceSummary summary;
  double overhead_pct = 0;
  if (trace) {
    // Untraced and traced rounds alternate, so the overhead compares
    // neighbouring rounds; the per-layer figures come from the first
    // traced round alone.
    std::vector<double> walls[2];
    for (int i = 0; i < 2 * kOverheadPairs; ++i) {
      const bool on = i % 2 == 1;
      Round r;
      fcbench::obs::SetTraceSampling(on ? 1 : 0);
      const double t = NowSeconds();
      w->RunRound(&r);
      r.wall_s = NowSeconds() - t;
      fcbench::obs::SetTraceSampling(0);
      walls[on].push_back(r.wall_s);
      if (i == 1) {
        auto& collector = fcbench::obs::TraceCollector::Global();
        summary = Summarize(collector.Snapshot(), collector.dropped());
        traced = std::move(r);
      } else {
        rounds.push_back(std::move(r));
      }
    }
    overhead_pct = (Median(walls[1]) / Median(walls[0]) - 1.0) * 100.0;
    PrintTraceTable(summary, overhead_pct);
  }
  std::filesystem::remove_all(args.data_dir);

  uint64_t attempted = 0, failed = 0;
  auto tally = [&](const Round& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.failures) {
      std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    }
  };
  for (const Round& r : rounds) tally(r);
  tally(traced);
  PrintJsonMap("counts", rounds.front().counts);
  bool counts_repeat = true;
  for (const Round& r : rounds) counts_repeat &= r.counts == rounds[0].counts;
  std::printf("# counts repeat across %zu rounds: %s\n", rounds.size(),
              counts_repeat ? "yes" : "no");

  std::map<std::string, std::pair<double, std::string>> out;
  if (!trace) {
    for (const MetricDef& d : kEndToEnd) {
      std::vector<double> v;
      for (const Round& r : rounds) {
        if (d.name == "setup_s") {
          v.push_back(r.setup_s);
        } else if (r.e2e.count(d.name)) {
          v.push_back(r.e2e.at(d.name));
        }
      }
      out[d.name] = {Median(v), d.unit};
    }
  } else {
    std::map<std::string, double> layer = LayerFromSpans(summary);
    for (const auto& [k, v] : traced.layer) layer[k] = v;
    layer["trace.overhead_pct"] = overhead_pct;
    PrintJsonMap("traced-counts",
                 {{"lsm.flush.count", layer["lsm.flush.count"]},
                  {"lsm.compact.count", layer["lsm.compact.count"]},
                  {"wal.syncs_per_batch", layer["wal.syncs_per_batch"]},
                  {"select.choose.calls", layer["select.choose.calls"]},
                  {"lsm.segments_at_read", layer["lsm.segments_at_read"]},
                  {"stored_bytes", layer["stored_bytes"]}});
    for (const MetricDef& d : PerLayerDefs()) {
      out[d.name] = {layer.count(d.name) ? layer[d.name] : 0.0, d.unit};
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, vu] : out) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), vu.first, vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
