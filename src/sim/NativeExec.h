//===- sim/NativeExec.h - Native-code execution backend ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution backend (MachineConfig::Backend == SimBackend::
/// Native): runs functions lowered by sim/NativeCodegen.h to executable host
/// code. NativeInterpreter mirrors ThreadedInterpreter's contract exactly —
/// same PhaseStats (FP addend order included), AccessTraces, memory images,
/// return values and per-site load statistics — verified by
/// tests/sim/BackendDifferentialTest.cpp across all three backends.
///
/// NativeContext is the ABI between generated code (the JIT's stencils) and
/// the C++ runtime: a fixed-layout struct holding the current
/// activation's register file, the register-resident counters, the inlined
/// trace write cursor, the memory arena's base and cached limit, and the
/// helper entry points generated code calls for the slow paths (access above
/// the cached limit, trace growth, calls, fused cache callbacks). All
/// fields are 8-byte scalars at fixed offsets asserted below; the x86-64
/// emitter addresses them as [ctx + offset].
///
/// Functions the native lowerer rejects (see NativeCodegen.h), and every
/// function in a build without the JIT, are executed by an embedded
/// ThreadedInterpreter instead — per function, including callees reached
/// from native code mid-trace — so a partially compilable program still
/// runs, bit-identically, never miscompiled.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_NATIVEEXEC_H
#define DAECC_SIM_NATIVEEXEC_H

#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/ThreadedInterpreter.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace dae {
namespace sim {

class NativeInterpreter;

namespace native {

class NativeCode;

/// The ABI struct shared by JIT'd code and the C++ helpers.
/// Canonical-at-boundaries rule: generated code may cache any field in a
/// host register between helper calls, but must write the cached values
/// back before every helper call and read them back afterwards — helpers
/// treat the struct as the single source of truth. Limit and Base are
/// read-only to generated code (Base never changes; only the Translate
/// helper raises Limit), so their registers are reloaded, never written back.
struct NativeContext {
  RuntimeValue *Frame = nullptr;    ///< Current activation's register file.
  std::uint64_t NInstr = 0;         ///< Shared order-independent counters...
  std::uint64_t NLoads = 0;         ///< ...flushed into PhaseStats once at
  std::uint64_t NStores = 0;        ///< the top-level exit (all activations
  std::uint64_t NPrefetches = 0;    ///< accumulate into the same cells).
  double Cycles = 0.0;              ///< Tracing-mode ComputeCycles protocol:
                                    ///< caller's partial sum across a call,
                                    ///< merged total after it (see
                                    ///< NativeExec.cpp, nativeCall).
  std::uint64_t *TracePtr = nullptr; ///< Next trace event write slot.
  std::uint64_t *TraceEnd = nullptr; ///< One past the reserved trace storage.
  std::uint64_t Limit = 0;          ///< Cached Memory::limit(); only the
                                    ///< Translate helper raises it.
  std::uint8_t *Base = nullptr;     ///< Memory::base() (host = addr + base).
  PhaseStats *Stats = nullptr;      ///< Fused mode: current activation's
                                    ///< stats (costs + cache callbacks).
  RuntimeValue Ret;                 ///< Return-value slot (RetVal opcode).
  std::uint64_t RetValid = 0;       ///< 1 iff the activation ended in RetVal.
  NativeInterpreter *Self = nullptr;
  // Helper entry points, called by generated code as fn(ctx, args...).
  std::uint8_t *(*Translate)(NativeContext *, std::uint64_t Addr) = nullptr;
  void (*TraceGrow)(NativeContext *, std::uint64_t Needed) = nullptr;
  void (*Call)(NativeContext *, const bc::CallDesc *D,
               std::uint32_t DstReg) = nullptr;
  void (*FusedLoad)(NativeContext *, std::uint64_t Addr,
                    const ir::Instruction *Origin) = nullptr;
  void (*FusedStore)(NativeContext *, std::uint64_t Addr) = nullptr;
  void (*FusedPrefetch)(NativeContext *, std::uint64_t Addr) = nullptr;
  std::uint64_t Fused = 0;          ///< 1 in fused mode (Call helper reads it).
};

// The x86-64 emitter bakes these offsets into [ctx + disp] addressing; keep
// them in lockstep with the struct (any drift is a compile-time error here,
// not a silent miscompile there).
static_assert(offsetof(NativeContext, Frame) == 0, "ABI layout");
static_assert(offsetof(NativeContext, NInstr) == 8, "ABI layout");
static_assert(offsetof(NativeContext, NLoads) == 16, "ABI layout");
static_assert(offsetof(NativeContext, NStores) == 24, "ABI layout");
static_assert(offsetof(NativeContext, NPrefetches) == 32, "ABI layout");
static_assert(offsetof(NativeContext, Cycles) == 40, "ABI layout");
static_assert(offsetof(NativeContext, TracePtr) == 48, "ABI layout");
static_assert(offsetof(NativeContext, TraceEnd) == 56, "ABI layout");
static_assert(offsetof(NativeContext, Limit) == 64, "ABI layout");
static_assert(offsetof(NativeContext, Base) == 72, "ABI layout");
static_assert(offsetof(NativeContext, Stats) == 80, "ABI layout");
static_assert(offsetof(NativeContext, Ret) == 88, "ABI layout");
static_assert(offsetof(NativeContext, RetValid) == 104, "ABI layout");
static_assert(offsetof(NativeContext, Self) == 112, "ABI layout");
static_assert(offsetof(NativeContext, Translate) == 120, "ABI layout");
static_assert(offsetof(NativeContext, TraceGrow) == 128, "ABI layout");
static_assert(offsetof(NativeContext, Call) == 136, "ABI layout");
static_assert(offsetof(NativeContext, FusedLoad) == 144, "ABI layout");
static_assert(offsetof(NativeContext, FusedStore) == 152, "ABI layout");
static_assert(offsetof(NativeContext, FusedPrefetch) == 160, "ABI layout");
static_assert(offsetof(NativeContext, Fused) == 168, "ABI layout");

} // namespace native

/// Executes functions compiled to native code on a simulated core. One
/// instance per worker thread; compiled code is shared read-only through the
/// CompiledProgram (with a lazy per-interpreter fallback), mirroring the
/// other backends.
class NativeInterpreter {
public:
  /// \p Caches may be null for tracing-only use (runTraced).
  NativeInterpreter(const MachineConfig &Cfg, Memory &Mem,
                    CacheHierarchy *Caches, const Loader &L,
                    const CompiledProgram *Shared);
  ~NativeInterpreter();

  /// Fused mode: identical contract to Interpreter::run.
  PhaseStats run(const ir::Function &F, unsigned Core,
                 const std::vector<RuntimeValue> &Args,
                 RuntimeValue *RetOut = nullptr);

  /// Tracing mode: identical contract to Interpreter::runTraced.
  PhaseStats runTraced(const ir::Function &F,
                       const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut = nullptr);

  void setLoadStats(LoadStatsMap *Stats) {
    LoadStats = Stats;
    Fallback.setLoadStats(Stats);
  }

private:
  friend struct NativeHelpers; ///< The extern-"C"-style helper shims.

  /// One function's executable forms: the bytecode (always present; compile
  /// input and threaded-fallback form) plus the native code (null when the
  /// lowerer rejected the function).
  struct FnEntry {
    const bc::BytecodeFunction *BC = nullptr;
    const native::NativeCode *Code = nullptr;
  };

  FnEntry getFn(const ir::Function &F);

  /// Carves a frame, copies args + const pool, and invokes \p Entry with the
  /// context set up for a fresh activation.
  void invoke(const bc::BytecodeFunction &BF, const native::NativeCode &Code,
              bool Fused, const RuntimeValue *Args, std::size_t NArgs);

  /// The Call-helper body: runs a callee (native or threaded fallback) from
  /// inside generated code and merges its stats exactly like the threaded
  /// backend's Call handler.
  void nativeCall(const bc::CallDesc &D, std::uint32_t DstReg);

  void traceGrow(std::uint64_t Needed);

  native::NativeContext Ctx;
  /// Register-file arena shared by all activations (same discipline as
  /// ThreadedInterpreter::Frame; writes stay within size()).
  std::vector<RuntimeValue> Arena;
  std::size_t FrameTop = 0;

  /// One-entry memo in front of the Shared/local lookups (tasks run the same
  /// function back to back).
  const ir::Function *LastFn = nullptr;
  FnEntry LastEntry;

  LoadStatsMap *LoadStats = nullptr;
  const MachineConfig &Cfg;
  Memory &Mem;
  CacheHierarchy *Caches;
  const Loader &Load;
  const CompiledProgram *Shared;
  /// Executes functions without native code; also the source of bytecode
  /// semantics for mid-trace callee fallback.
  ThreadedInterpreter Fallback;
  /// Lazy per-interpreter lowering/compilation for functions outside the
  /// shared program.
  std::unordered_map<const ir::Function *,
                     std::unique_ptr<bc::BytecodeFunction>>
      LocalBC;
  std::unordered_map<const ir::Function *,
                     std::shared_ptr<const native::NativeCode>>
      LocalCode;

  AccessTrace *CurTrace = nullptr;
  unsigned CurCore = 0;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_NATIVEEXEC_H
