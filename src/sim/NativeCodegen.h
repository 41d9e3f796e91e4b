//===- sim/NativeCodegen.h - Bytecode -> native code lowering ---*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the register-allocated bytecode of sim/Bytecode.h once per function
/// to executable host code, the third execution backend
/// (MachineConfig::Backend == SimBackend::Native, the default). The lowerer
/// is an x86-64 template JIT: per-opcode stencils assembled into an mmap'd
/// code buffer, made W^X (RW while emitting, RX before publishing), calling
/// back into C++ through one ABI (native::NativeContext in sim/NativeExec.h).
/// The load/store sites are the point: trace emission is two raw stores
/// against a pre-reserved buffer with the capacity check hoisted to the head
/// of each straight-line region, and page translation is strength-reduced to
/// a tag compare + add against a register-cached (page tag,
/// host-minus-simulated delta) pair.
///
/// Every function is lowered twice — a fused variant (cache callbacks at the
/// memory sites, costs applied to PhaseStats) and a tracing variant (inline
/// trace stores, costs accumulated locally) — so the untraced path carries
/// zero trace instructions and neither variant tests a mode flag.
///
/// compile() returns null for functions the lowerer rejects (unsupported
/// opcode, mmap failure) and for every function in a build without the JIT
/// (non-x86-64 hosts, ASan/TSan builds, whose instrumentation cannot cover
/// raw JIT code); the execution layer then runs that function on the
/// threaded interpreter — degraded speed, never degraded correctness.
/// Compiled code is immutable, self-contained except for the NativeContext
/// helpers, and shared read-only across threads; a process-wide
/// content-addressed cache dedupes identical bytecode across interpreters.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_NATIVECODEGEN_H
#define DAECC_SIM_NATIVECODEGEN_H

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dae {
namespace sim {
namespace bc {
class BytecodeFunction;
} // namespace bc

namespace native {

struct NativeContext;

/// Entry point of one compiled variant: runs a full activation against the
/// context's current Frame/counters and returns at Ret/RetVal.
using EntryFn = void (*)(NativeContext *);

struct Options {
  /// Testing hook: abort (after a diagnostic) instead of returning null when
  /// a function contains an opcode the lowerer does not support. The death
  /// test pins that rejection is loud under the hook and graceful without.
  bool AbortOnUnsupported = false;
};

/// One function's executable native code: the fused and tracing entry points
/// plus the backing storage (an mmap'd W^X buffer). Immutable and safe to
/// execute concurrently from any thread.
class NativeCode {
public:
  virtual ~NativeCode();
  NativeCode(const NativeCode &) = delete;
  NativeCode &operator=(const NativeCode &) = delete;

  EntryFn fused() const { return Fused; }
  EntryFn traced() const { return Traced; }

  /// Base/size of the executable region (W^X tests, code-cache charging).
  const std::uint8_t *codeAddr() const { return CodeAddr; }
  std::size_t codeSize() const { return CodeSize; }

protected:
  NativeCode() = default;
  EntryFn Fused = nullptr;
  EntryFn Traced = nullptr;
  const std::uint8_t *CodeAddr = nullptr;
  std::size_t CodeSize = 0;
};

/// Lowers \p BF to native code, or returns null when the function cannot be
/// lowered (unsupported opcode, build without the JIT, mmap failure) —
/// callers must then execute \p BF through the threaded interpreter.
/// Results are served from a process-wide content-addressed cache, so
/// compiling the same bytecode from many interpreters costs one lowering.
/// Thread safe.
std::shared_ptr<const NativeCode> compile(const bc::BytecodeFunction &BF,
                                          const Options &Opts = Options());

/// True when this build contains the x86-64 JIT, i.e. compile() can return
/// code at all; for tests.
bool jitBuilt();

/// Counters for the process-wide compiled-code cache. Retention is bounded
/// the same way as dae::GenerationMemo and sim::TracePool: entries are
/// charged their executable size against a retained-bytes cap, default
/// 256 MiB, overridable via DAECC_NATIVE_CACHE_MB (garbage is a hard error,
/// exit 2). Least-recently-used entries are evicted at the cap; in-flight
/// executions keep their code alive through the shared_ptr, so eviction
/// only ever costs a future recompile. Cached failures (null)
/// are charged zero bytes and never evicted — retrying a persistent mmap
/// failure per request would only fail again.
struct CacheStats {
  std::uint64_t Entries = 0;
  std::uint64_t RetainedBytes = 0;
  std::uint64_t Evictions = 0;
};
CacheStats cacheStats();

/// Testing hook: overrides the cache's retained-bytes cap process-wide and
/// returns the previous cap. Pass the returned value back to restore.
std::size_t setCacheCapBytesForTest(std::size_t Bytes);

} // namespace native
} // namespace sim
} // namespace dae

#endif // DAECC_SIM_NATIVECODEGEN_H
