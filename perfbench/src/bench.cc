#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Rng::Normal() {
  const double u1 = std::max(Uniform(), 0x1.0p-53);
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

void Round::Op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

const SpanStats& TraceSummary::Get(const std::string& name) const {
  static const SpanStats kEmpty;
  auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

namespace {

void Add(SpanStats* s, const fcbench::obs::SpanRecord& r, double self) {
  ++s->count;
  s->total_ns += static_cast<double>(r.dur_nanos);
  s->self_total_ns += self;
  s->arg_a_total += static_cast<double>(r.a);
  s->self_ns.push_back(self);
  if (r.tag[0] != '\0') ++s->tags[r.tag];
}

}  // namespace

TraceSummary Summarize(const std::vector<fcbench::obs::SpanRecord>& spans,
                       uint64_t dropped) {
  TraceSummary t;
  t.spans = spans.size();
  t.dropped = dropped;
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].span_id] = i;
  // Child intervals per parent, as [start, end) nanos.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent_id == 0) continue;
    auto it = index.find(s.parent_id);
    if (it == index.end()) continue;
    kids[it->second].emplace_back(s.start_nanos, s.start_nanos + s.dur_nanos);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const uint64_t b = s.start_nanos, e = s.start_nanos + s.dur_nanos;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (auto [cb, ce] : iv) {
      cb = std::max(cb, b);
      ce = std::min(ce, e);
      if (cb >= ce) continue;
      if (open && cb <= cur_e) {
        cur_e = std::max(cur_e, ce);
        continue;
      }
      if (open) covered += cur_e - cur_b;
      cur_b = cb;
      cur_e = ce;
      open = true;
    }
    if (open) covered += cur_e - cur_b;
    const double self = static_cast<double>(s.dur_nanos - covered);
    Add(&t.by_name[s.name], s, self);
  }
  return t;
}

void PrintTraceTable(const TraceSummary& t, double overhead_pct) {
  std::printf("# traced round: %llu spans, %llu dropped, overhead %.2f%%\n",
              static_cast<unsigned long long>(t.spans),
              static_cast<unsigned long long>(t.dropped), overhead_pct);
  std::printf("# %-24s %9s %12s %12s %11s %11s\n", "span", "count",
              "total_ms", "self_ms", "self_p50_us", "self_p99_us");
  for (const auto& [name, s] : t.by_name) {
    std::printf("# %-24s %9llu %12.3f %12.3f %11.2f %11.2f\n", name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ns / 1e6,
                s.self_total_ns / 1e6, Quantile(s.self_ns, 0.5) / 1e3,
                Quantile(s.self_ns, 0.99) / 1e3);
  }
}

namespace {
cpu_set_t g_cpus;
}  // namespace

void RecordCpus() {
  CPU_ZERO(&g_cpus);
  if (sched_getaffinity(0, sizeof(g_cpus), &g_cpus) != 0) {
    CPU_SET(0, &g_cpus);
  }
}

std::vector<int> UsableCpuList() {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &g_cpus)) cpus.push_back(c);
  }
  return cpus;
}

void PinToCpu(int cpu) {
  cpu_set_t set = g_cpus;
  if (cpu >= 0) {
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

uint64_t DirBytesWithPrefix(const std::string& dir,
                            const std::string& prefix) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (!it->path().filename().string().starts_with(prefix)) continue;
    total += it->file_size(ec);
  }
  return total;
}

uint64_t DirBytes(const std::string& dir) {
  return DirBytesWithPrefix(dir, "");
}

}  // namespace perfbench
