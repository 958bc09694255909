#include "obs/event_trace.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/seqlock.h"
#include "obs/span.h"

namespace fcbench::obs {

namespace {

/// Steady-clock nanos since process start: the span tracer's epoch, so
/// ring dumps and span timelines use the same time axis.
uint64_t NowNanos() { return MonotonicNanos(); }

bool StderrDumpEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("FCBENCH_TRACE_DUMP");
    return env == nullptr || std::strcmp(env, "0") != 0;
  }();
  return enabled;
}

constexpr size_t kDetailWords = EventTrace::kDetailBytes / sizeof(uint64_t);

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kWalRotate:
      return "wal-rotate";
    case EventKind::kFlushStart:
      return "flush-start";
    case EventKind::kFlushPublish:
      return "flush-publish";
    case EventKind::kFlushFail:
      return "flush-fail";
    case EventKind::kCompact:
      return "compact";
    case EventKind::kRetryBackoff:
      return "retry-backoff";
    case EventKind::kDegraded:
      return "degraded";
    case EventKind::kQuarantine:
      return "quarantine";
    case EventKind::kScrub:
      return "scrub";
    case EventKind::kStall:
      return "stall";
  }
  return "unknown";
}

std::string TraceEvent::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "[%9.3f ms] #%llu %-13s a=%llu b=%llu %s",
                static_cast<double>(nanos) / 1e6,
                static_cast<unsigned long long>(seq), EventKindName(kind),
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), detail);
  std::string out(buf);
  if (trace_id != 0) {
    std::snprintf(buf, sizeof(buf), " trace=%llx",
                  static_cast<unsigned long long>(trace_id));
    out += buf;
  }
  return out;
}

/// All fields atomic so concurrent write/read of a wrapping slot is a
/// defined (and TSan-clean) race, resolved by the seqlock stamps: a
/// reader only trusts a slot whose stamps equal the expected ticket both
/// before and after copying the payload.
struct EventTrace::Slot {
  SeqlockStamps stamps;
  std::atomic<uint64_t> nanos{0};
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<uint64_t> kind{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> detail[kDetailWords];
};

EventTrace::EventTrace(size_t capacity)
    : capacity_(std::bit_ceil(capacity < 8 ? size_t{8} : capacity)),
      slots_(new Slot[capacity_]) {}

EventTrace::~EventTrace() = default;

EventTrace& EventTrace::Global() {
  static EventTrace* t = new EventTrace(1024);
  return *t;
}

void EventTrace::Record(EventKind kind, std::string_view detail, uint64_t a,
                        uint64_t b) {
  const uint64_t nanos = NowNanos();
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[ticket & (capacity_ - 1)];
  if (!s.stamps.BeginWrite(ticket)) return;  // lapped by a newer event
  s.nanos.store(nanos, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.kind.store(static_cast<uint64_t>(kind), std::memory_order_relaxed);
  // Correlate with any sampled span trace live on this thread.
  s.trace_id.store(CurrentTraceContext().trace_id, std::memory_order_relaxed);
  uint64_t words[kDetailWords] = {};
  const size_t n = detail.size() < kDetailBytes - 1 ? detail.size()
                                                    : kDetailBytes - 1;
  std::memcpy(words, detail.data(), n);
  for (size_t w = 0; w < kDetailWords; ++w) {
    s.detail[w].store(words[w], std::memory_order_relaxed);
  }
  s.stamps.EndWrite(ticket);
}

std::vector<TraceEvent> EventTrace::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t first =
      head > capacity_ ? head - capacity_ + 1 : uint64_t{1};
  std::vector<TraceEvent> out;
  out.reserve(head >= first ? static_cast<size_t>(head - first + 1) : 0);
  for (uint64_t t = first; t <= head; ++t) {
    const Slot& s = slots_[t & (capacity_ - 1)];
    if (!s.stamps.ReadBegin(t)) continue;
    TraceEvent e;
    e.seq = t;
    e.nanos = s.nanos.load(std::memory_order_relaxed);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    e.kind = static_cast<EventKind>(s.kind.load(std::memory_order_relaxed));
    e.trace_id = s.trace_id.load(std::memory_order_relaxed);
    uint64_t words[kDetailWords];
    for (size_t w = 0; w < kDetailWords; ++w) {
      words[w] = s.detail[w].load(std::memory_order_relaxed);
    }
    std::memcpy(e.detail, words, kDetailBytes);
    e.detail[kDetailBytes - 1] = '\0';
    // Re-validate: a writer lapping the ring while we copied claimed the
    // slot first.
    if (!s.stamps.ReadValidate(t)) continue;
    out.push_back(e);
  }
  return out;
}

std::string EventTrace::Dump(size_t max_events) const {
  std::vector<TraceEvent> events = Snapshot();
  const size_t skip =
      events.size() > max_events ? events.size() - max_events : 0;
  std::string out;
  for (size_t i = skip; i < events.size(); ++i) {
    out += events[i].ToString();
    out.push_back('\n');
  }
  return out;
}

void EventTrace::DumpToStderr(const std::string& why,
                              size_t max_events) const {
  if (!StderrDumpEnabled()) return;
  std::fprintf(stderr, "fcbench: event trace (%s):\n%s", why.c_str(),
               Dump(max_events).c_str());
}

uint64_t EventTrace::recorded() const {
  return head_.load(std::memory_order_relaxed);
}

}  // namespace fcbench::obs
