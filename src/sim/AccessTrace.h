//===- sim/AccessTrace.h - Recorded memory access stream --------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ordered stream of memory accesses one phase performed, recorded by the
/// interpreter's tracing mode and replayed through the cache hierarchy by the
/// runtime's timing pass. Cache hit/miss outcomes never influence computed
/// values, only timing statistics — so functional execution (which produces
/// the trace) can run on any host thread while the cache model consumes the
/// traces later, sequentially and in schedule order, yielding hit/miss
/// accounting that is bit-identical for any host thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_ACCESSTRACE_H
#define DAECC_SIM_ACCESSTRACE_H

#include "support/EnvParse.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace dae {
namespace sim {

/// std::allocator whose value-less construct() default-initialises, so
/// growing a vector of trivially constructible elements with resize()
/// leaves the new slots unwritten instead of zero-filling them.
/// (Constructions with a value still go through std::construct_at.)
template <class T> struct DefaultInitAllocator : std::allocator<T> {
  template <class U> void construct(U *P) { ::new (static_cast<void *>(P)) U; }
};

/// Storage of one recorded trace: one packed event per word (see
/// AccessTrace). Default-initialising, so the native backend's raw cursor
/// can expose the whole capacity without writing it first.
using TraceBuffer =
    std::vector<std::uint64_t, DefaultInitAllocator<std::uint64_t>>;

/// Free-list of trace storage buffers, shared across tasks, waves and
/// concurrently running simulations. Traces are bulky and short-lived (one
/// wave each); recycling their grown capacity removes the per-wave
/// allocation churn that shows up once suite jobs run concurrently. Purely
/// a storage cache: trace *contents* never cross users, so simulated
/// results are unaffected.
///
/// Retention is bounded three ways: at most MaxPooled buffers, at most
/// MaxBufferBytes of capacity per buffer (one huge-wave trace must not pin
/// its worst-case footprint forever), and at most MaxTotalBytes of capacity
/// across the whole free-list. Buffers over either byte cap are simply
/// freed on recycle.
class TracePool {
public:
  static constexpr std::size_t DefaultMaxPooled = 256;
  /// 8 MiB per buffer = 1M trace events; larger traces are outliers whose
  /// capacity should go back to the allocator.
  static constexpr std::size_t DefaultMaxBufferBytes = 8u << 20;
  /// 64 MiB total retained across the pool.
  static constexpr std::size_t DefaultMaxTotalBytes = 64u << 20;

  explicit TracePool(std::size_t MaxPooled = DefaultMaxPooled,
                     std::size_t MaxBufferBytes = DefaultMaxBufferBytes,
                     std::size_t MaxTotalBytes = DefaultMaxTotalBytes)
      : MaxPooled(MaxPooled), MaxBufferBytes(MaxBufferBytes),
        MaxTotalBytes(MaxTotalBytes) {}

  /// Total retained-bytes cap from DAECC_TRACE_POOL_MB (MiB), or
  /// DefaultMaxTotalBytes when unset. 8-way co-scheduled mixes keep one live
  /// trace set per core, so the default 64 MiB free-list can be too small to
  /// absorb their recycle traffic (or too large for a constrained host) —
  /// the cap is an environment knob rather than a rebuild. A value that is
  /// not a positive integer, or whose byte count would overflow size_t, is a
  /// hard configuration error (exit 2), never a silent fall-back: a sweep
  /// sized against a cap that was silently ignored (or wrapped to 0) would
  /// thrash (or OOM) unexplained.
  static std::size_t maxTotalBytesFromEnv() {
    return support::envMiBOr("DAECC_TRACE_POOL_MB", DefaultMaxTotalBytes);
  }

  /// Process-wide pool (suite jobs in one process share one allocator
  /// anyway, so they share one free-list too). Sized by DAECC_TRACE_POOL_MB
  /// when set; the per-buffer cap scales with the total (total/8, floored at
  /// the default) so one outlier trace still cannot pin the whole budget.
  static TracePool &global() {
    static TracePool Pool = [] {
      std::size_t Total = maxTotalBytesFromEnv();
      std::size_t PerBuffer = std::max(Total / 8, DefaultMaxBufferBytes);
      return TracePool(DefaultMaxPooled, PerBuffer, Total);
    }();
    return Pool;
  }

  /// Returns an empty buffer, reusing pooled capacity when available.
  TraceBuffer acquire() {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Free.empty())
      return {};
    TraceBuffer Buf = std::move(Free.back());
    Free.pop_back();
    RetainedBytes -= Buf.capacity() * sizeof(std::uint64_t);
    ++Reuses;
    return Buf;
  }

  /// Takes \p Buf back (cleared, capacity kept) unless pooling it would
  /// break a cap, in which case the storage is simply freed. The buffer's
  /// recorded length (before clearing) feeds the sizing hint the next
  /// acquirer pre-reserves against — wave N's trace length is the best
  /// available predictor for wave N+1's.
  void recycle(TraceBuffer Buf) {
    const std::size_t Events = Buf.size();
    const std::size_t UsedBytes = Events * sizeof(std::uint64_t);
    Buf.clear();
    std::size_t Bytes = Buf.capacity() * sizeof(std::uint64_t);
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Events > 0)
      LastEvents = Events;
    if (UsedBytes > PeakBytes)
      PeakBytes = UsedBytes;
    if (Free.size() >= MaxPooled || Bytes > MaxBufferBytes ||
        RetainedBytes + Bytes > MaxTotalBytes)
      return;
    RetainedBytes += Bytes;
    Free.push_back(std::move(Buf));
  }

  std::uint64_t reuses() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Reuses;
  }

  /// Capacity bytes currently held in the free-list (testing/diagnostics).
  std::size_t retainedBytes() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return RetainedBytes;
  }

  /// Event count of the last non-empty recycled trace: the reserve hint
  /// AccessTrace::acquireFrom applies so hot-loop push never reallocates
  /// mid-trace in the steady state (waves resemble their predecessors).
  std::size_t suggestedEvents() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return LastEvents;
  }

  /// High-water mark of a single trace's recorded bytes (size at recycle,
  /// not capacity) across the pool's lifetime; reported per run in the
  /// BENCH_*.json `interp` block.
  std::size_t peakBytes() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return PeakBytes;
  }

  /// Buffers currently pooled (testing/diagnostics).
  std::size_t pooledBuffers() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Free.size();
  }

private:
  const std::size_t MaxPooled;
  const std::size_t MaxBufferBytes;
  const std::size_t MaxTotalBytes;
  mutable std::mutex Mutex;
  std::vector<TraceBuffer> Free;
  std::size_t RetainedBytes = 0;
  std::size_t LastEvents = 0;
  std::size_t PeakBytes = 0;
  std::uint64_t Reuses = 0;
};

/// One phase's memory accesses, packed one event per 64-bit word: the access
/// kind in the top two bits, the byte address below. Simulated addresses come
/// from the Loader (base 0x10000 plus footprints far below 2^62), so the tag
/// bits are always free.
class AccessTrace {
public:
  enum class Kind : std::uint64_t { Load = 0, Store = 1, Prefetch = 2 };

  static constexpr std::uint64_t AddrMask = (1ull << 62) - 1;

  void push(Kind K, std::uint64_t Addr) {
    assert((Addr & ~AddrMask) == 0 && "simulated address overflows tag bits");
    // Explicit reserve-doubling instead of the library's growth policy: the
    // policy is then identical across standard libraries and matches the
    // native backend's nativeGrow, and the branch is a single predictable
    // compare in the hot loop (almost never taken once acquireFrom has
    // applied the pool's sizing hint).
    if (Events.size() == Events.capacity())
      Events.reserve(Events.capacity() ? Events.capacity() * 2 : MinReserve);
    Events.push_back((static_cast<std::uint64_t>(K) << 62) |
                     (Addr & AddrMask));
  }

  static Kind kindOf(std::uint64_t Event) {
    return static_cast<Kind>(Event >> 62);
  }
  static std::uint64_t addrOf(std::uint64_t Event) { return Event & AddrMask; }

  const TraceBuffer &events() const { return Events; }
  bool empty() const { return Events.empty(); }
  std::size_t size() const { return Events.size(); }
  void clear() { Events.clear(); }
  /// Releases the storage (traces are bulky; the runtime frees each one right
  /// after its replay).
  void release() { TraceBuffer().swap(Events); }

  /// Adopts pooled storage from \p Pool before recording begins and
  /// pre-reserves the pool's sizing hint (the previous wave's trace length),
  /// so steady-state recording never grows mid-trace.
  void acquireFrom(TracePool &Pool) {
    Events = Pool.acquire();
    std::size_t Hint = Pool.suggestedEvents();
    if (Hint > Events.capacity())
      Events.reserve(Hint);
  }
  /// Hands the storage back to \p Pool (replaces release() on hot paths).
  void releaseTo(TracePool &Pool) {
    Pool.recycle(std::move(Events));
    Events.clear();
  }

  /// \name Raw-cursor protocol for the native backend
  /// Generated code appends events through a raw write pointer instead of
  /// push(), with the capacity check hoisted to one compare per straight-line
  /// region. The vector is resized to its full capacity while the cursor is
  /// out (so raw writes land inside [data(), data()+size()) — well-defined
  /// and sanitizer-clean) and trimmed back to the recorded length on commit.
  /// TraceBuffer's allocator makes that resize write nothing: the exposed
  /// slack is never read before the generated code has written it.
  /// @{

  /// Opens the cursor: ensures at least \p HintEvents of headroom, exposes
  /// the full capacity, and returns the next write slot. Pair every
  /// nativeBegin with exactly one nativeCommit.
  std::uint64_t *nativeBegin(std::size_t HintEvents) {
    std::size_t N = Events.size();
    if (Events.capacity() < N + HintEvents)
      Events.reserve(std::max(Events.capacity() * 2, N + HintEvents));
    if (Events.capacity() == 0)
      Events.reserve(MinReserve);
    Events.resize(Events.capacity());
    return Events.data() + N;
  }

  /// One past the writable storage for the open cursor.
  std::uint64_t *nativeEnd() { return Events.data() + Events.size(); }

  /// Closes the cursor: \p Ptr is the final write position; everything below
  /// it is recorded, the exposed slack above it is discarded.
  void nativeCommit(std::uint64_t *Ptr) {
    assert(Ptr >= Events.data() && Ptr <= Events.data() + Events.size() &&
           "native trace cursor out of bounds");
    Events.resize(static_cast<std::size_t>(Ptr - Events.data()));
  }

  /// Grows an open cursor that is about to overflow: commits at \p Ptr,
  /// doubles (at least \p NeededEvents more), reopens, and returns the new
  /// write position.
  std::uint64_t *nativeGrow(std::uint64_t *Ptr, std::size_t NeededEvents) {
    nativeCommit(Ptr);
    return nativeBegin(NeededEvents);
  }
  /// @}

private:
  /// First reservation of an empty trace (64 events = one cache line of
  /// slack past the typical tiny-phase trace).
  static constexpr std::size_t MinReserve = 64;

  TraceBuffer Events;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_ACCESSTRACE_H
