// Shared pieces of the perfbench workloads: the benchmark's own clock,
// order statistics, the per-round result record, and the trace summary
// that turns collected spans into per-layer self times.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, user and system). On a
/// virtual machine it leaves out the time the host ran other guests.
inline double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// SplitMix64: the benchmark's deterministic generator, seeded from
/// --seed so identical seeds give identical inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
  /// Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t s_;
};

/// What one round of a workload produced. Rounds repeat the same
/// operations on the same inputs, so every field except the timings is
/// expected to agree across rounds of a single-writer workload.
struct Round {
  /// Process CPU time from round start to the first timed operation.
  double setup_s = 0;
  /// Whole round, set-up included.
  double wall_s = 0;
  /// End-to-end metric values of this round, by metric name.
  std::map<std::string, double> e2e;
  /// Per-layer values the workload measures itself (ratios, bytes read
  /// per query, write amplification ...), by per-layer metric name.
  std::map<std::string, double> layer;
  /// Counts printed for the exact-repeat check, by name.
  std::map<std::string, double> counts;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failure descriptions (stderr diagnostics).
  std::vector<std::string> failures;

  /// Records one operation; `ok` false counts it as failed with `why`.
  void Op(bool ok, const std::string& why);
};

/// Per-name aggregate over the spans of one traced round. Self time is
/// a span's duration minus the part of its interval covered by its
/// child spans (children may run on other threads).
struct SpanStats {
  uint64_t count = 0;
  double total_ns = 0;
  double self_total_ns = 0;
  double arg_a_total = 0;
  std::vector<double> self_ns;
  /// Count of spans per tag (e.g. select.choose "cache-hit"/"probe").
  std::map<std::string, uint64_t> tags;
};

struct TraceSummary {
  std::map<std::string, SpanStats> by_name;
  uint64_t spans = 0;
  uint64_t dropped = 0;

  const SpanStats& Get(const std::string& name) const;
};

TraceSummary Summarize(const std::vector<fcbench::obs::SpanRecord>& spans,
                       uint64_t dropped);

/// Prints the self-time table, one line per span name.
void PrintTraceTable(const TraceSummary& t, double overhead_pct);

/// A workload runs rounds; the loop in main.cc repeats them for the
/// measured time and takes per-round medians.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads the workload itself runs besides the shared pool.
  virtual int client_threads() const = 0;
  /// Runs one complete round (set-up, timed operations, checks,
  /// clean-up) and fills `r`.
  virtual void RunRound(Round* r) = 0;
};

struct WorkloadArgs {
  uint64_t seed = 1;
  /// Scratch directory inside the checkout, removed after the run.
  std::string data_dir;
};

/// The nine lossless CPU methods codec-sweep runs, in paper order.
extern const char* const kCodecMethods[9];

std::unique_ptr<Workload> MakeCodecSweep(const WorkloadArgs& a);
std::unique_ptr<Workload> MakeIngestBulk(const WorkloadArgs& a);
std::unique_ptr<Workload> MakeIngestDurable(const WorkloadArgs& a);
std::unique_ptr<Workload> MakeColumnQuery(const WorkloadArgs& a);

/// The CPUs the process may use, as recorded at start-up by RecordCpus.
std::vector<int> UsableCpuList();
void RecordCpus();
/// Restricts the calling thread to `cpu`, or (cpu < 0) lets it run on
/// every CPU recorded at start-up. A thread inherits its creator's
/// restriction, so threads a workload starts call PinToCpu(-1) first.
void PinToCpu(int cpu);

/// Sum of regular-file sizes under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);
/// Sum of sizes of files under `dir` whose name starts with `prefix`.
uint64_t DirBytesWithPrefix(const std::string& dir, const std::string& prefix);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
