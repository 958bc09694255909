#ifndef FCBENCH_OBS_SEQLOCK_H_
#define FCBENCH_OBS_SEQLOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>

namespace fcbench::obs {

/// The begin/end stamps of one slot of a ticketed ring (EventTrace,
/// TraceCollector). Tickets are handed out by a fetch_add on the ring
/// head, so when writers lap a small ring two of them can hold tickets
/// for the same slot at once. Writers of one slot are therefore
/// serialized: a writer waits out an older lap that is still writing,
/// and drops its record when a newer lap already owns the slot (the
/// newer record would overwrite it anyway).
///
/// The payload words are relaxed atomics, ordered by fences as a seqlock
/// requires under the C++ memory model (Boehm, "Can Seqlocks Get Along
/// with Programming Language Memory Models?", MSPC'12):
///
///   writer: if (BeginWrite(t)) { relaxed payload stores; EndWrite(t); }
///   reader: if (ReadBegin(t)) { relaxed payload loads;
///                               if (ReadValidate(t)) use the copy; }
struct SeqlockStamps {
  std::atomic<uint64_t> begin{0};
  std::atomic<uint64_t> end{0};

  /// Claims the slot for `ticket`; false = a newer ticket owns it.
  bool BeginWrite(uint64_t ticket) {
    for (;;) {
      uint64_t b = begin.load(std::memory_order_relaxed);
      if (b >= ticket) return false;
      if (end.load(std::memory_order_acquire) != b) {
        std::this_thread::yield();  // lap b is still writing its payload
        continue;
      }
      if (begin.compare_exchange_weak(b, ticket, std::memory_order_relaxed)) {
        // Orders the claim before every payload store that follows.
        std::atomic_thread_fence(std::memory_order_release);
        return true;
      }
    }
  }

  void EndWrite(uint64_t ticket) {
    end.store(ticket, std::memory_order_release);
  }

  /// True when the slot holds the complete record of `ticket`.
  bool ReadBegin(uint64_t ticket) const {
    return end.load(std::memory_order_acquire) == ticket;
  }

  /// True when no later writer touched the slot while it was copied:
  /// a payload load that saw a later writer's store makes that writer's
  /// claim visible here.
  bool ReadValidate(uint64_t ticket) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return begin.load(std::memory_order_relaxed) == ticket;
  }
};

}  // namespace fcbench::obs

#endif  // FCBENCH_OBS_SEQLOCK_H_
