//===- sim/Interpreter.h - Task IR interpreter ------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes Task IR against the simulated memory and cache hierarchy,
/// producing the frequency-decomposed PhaseStats profile. Interpreter is the
/// single entry point for all three execution backends
/// (MachineConfig::Backend):
///
///  * SimBackend::Switch — the reference interpreter implemented in this
///    file: functions precompiled to a flat slot-addressed form with a
///    precomputed opcode enum, executed by one switch per instruction.
///  * SimBackend::Threaded — register-allocated bytecode run by a
///    direct-threaded dispatch loop (sim/Bytecode.h,
///    sim/ThreadedInterpreter.h); Interpreter constructs a
///    ThreadedInterpreter internally and delegates. Simulated results are
///    bit-identical to the switch backend (SnapshotTest goldens,
///    tests/sim/BackendDifferentialTest.cpp); only host speed differs.
///  * SimBackend::Native (default) — the bytecode lowered once per function
///    to executable host code (sim/NativeCodegen.h) and run by a
///    NativeInterpreter (sim/NativeExec.h); functions the lowerer rejects,
///    and every function in a build without the JIT, fall back to the
///    threaded interpreter per function. Same bit-identical contract as the
///    threaded backend.
///
/// Two execution modes share each backend's core loop:
///  * run() — the classic fused mode: cache hits/misses are simulated inline
///    and timing lands directly in the returned PhaseStats.
///  * runTraced() — the host-parallel engine's functional mode: values are
///    computed and the ordered memory access stream is recorded into an
///    AccessTrace; cache timing is filled in later by the runtime's
///    single-threaded replay (see runtime/Runtime.cpp), which keeps profiles
///    bit-identical for any host thread count.
///
/// Compiled/lowered functions can be shared read-only between concurrently
/// running interpreters via CompiledProgram, pre-populated before execution
/// starts; it carries both backends' forms.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_INTERPRETER_H
#define DAECC_SIM_INTERPRETER_H

#include "sim/AccessTrace.h"
#include "sim/CacheSim.h"
#include "sim/Memory.h"
#include "sim/PhaseStats.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace dae {

namespace ir {
class Function;
class GlobalVariable;
class Instruction;
} // namespace ir

namespace sim {

/// Per-load-site execution statistics (profile-guided selective prefetching,
/// the refinement the paper proposes for LibQ in sections 5.2.2/6.2.3).
struct LoadSiteStats {
  std::uint64_t Count = 0;
  std::uint64_t Misses = 0; ///< Accesses that went to DRAM.

  double missRate() const {
    return Count ? static_cast<double>(Misses) / static_cast<double>(Count)
                 : 0.0;
  }
};

/// Per-site statistics keyed by the load instruction. Sits on the per-load
/// hot path when enabled, hence a hash map rather than a tree.
using LoadStatsMap = std::unordered_map<const ir::Instruction *, LoadSiteStats>;

/// A dynamic value: integer/pointer in I, float in D (discriminated by the
/// static IR type, so no tag is needed).
struct RuntimeValue {
  std::int64_t I = 0;
  double D = 0.0;

  static RuntimeValue ofInt(std::int64_t V) {
    RuntimeValue R;
    R.I = V;
    return R;
  }
  static RuntimeValue ofFloat(double V) {
    RuntimeValue R;
    R.D = V;
    return R;
  }
};

class CompiledFunction;
class ThreadedInterpreter;
class NativeInterpreter;

namespace bc {
class BytecodeFunction;
} // namespace bc

namespace native {
class NativeCode;
} // namespace native

/// A read-only set of compiled functions, built once before execution so
/// worker threads never mutate shared compiler state. Populate with add()
/// (single-threaded), then share freely: lookup() is const and safe to call
/// concurrently. Under SimBackend::Threaded and SimBackend::Native each
/// function is additionally lowered to bytecode (lookupBytecode); under
/// Native the bytecode is further compiled to native code (lookupNative),
/// null per function when the lowerer rejected it.
class CompiledProgram {
public:
  CompiledProgram(const MachineConfig &Cfg, const Loader &L);
  ~CompiledProgram();
  CompiledProgram(const CompiledProgram &) = delete;
  CompiledProgram &operator=(const CompiledProgram &) = delete;

  /// Compiles \p F and every function reachable from it through calls.
  /// Idempotent; not thread safe.
  void add(const ir::Function &F);

  /// Returns the compiled form of \p F, or null when it was never added.
  const CompiledFunction *lookup(const ir::Function &F) const;

  /// Returns the bytecode form of \p F, or null when it was never added or
  /// the program was built for the switch backend.
  const bc::BytecodeFunction *lookupBytecode(const ir::Function &F) const;

  /// Returns the native code of \p F, or null when it was never added, the
  /// program was not built for the native backend, or the native lowerer
  /// rejected the function (callers fall back to the bytecode form).
  const native::NativeCode *lookupNative(const ir::Function &F) const;

private:
  const MachineConfig &Cfg;
  const Loader &Load;
  std::unordered_map<const ir::Function *, std::unique_ptr<CompiledFunction>>
      Fns;
  std::unordered_map<const ir::Function *,
                     std::unique_ptr<bc::BytecodeFunction>>
      BCs;
  std::unordered_map<const ir::Function *,
                     std::shared_ptr<const native::NativeCode>>
      NCs;
};

/// Interprets functions on a simulated core, through the backend selected by
/// MachineConfig::Backend.
class Interpreter {
public:
  /// Fused-mode interpreter: cache effects simulated inline through
  /// \p Caches. \p Mem must already hold the workload's initialized data.
  Interpreter(const MachineConfig &Cfg, Memory &Mem, CacheHierarchy &Caches,
              const Loader &L, const CompiledProgram *Shared = nullptr);
  /// Tracing-only interpreter (no cache hierarchy needed); used by the
  /// host-parallel engine's functional pass, one instance per worker thread.
  Interpreter(const MachineConfig &Cfg, Memory &Mem, const Loader &L,
              const CompiledProgram *Shared);
  ~Interpreter();

  /// Runs \p F on \p Core with \p Args (one per formal), simulating cache
  /// effects inline. Returns the complete phase profile; the optional return
  /// value is written to \p RetOut.
  PhaseStats run(const ir::Function &F, unsigned Core,
                 const std::vector<RuntimeValue> &Args,
                 RuntimeValue *RetOut = nullptr);

  /// Runs \p F with \p Args, recording every memory access into \p Trace
  /// instead of touching caches. The returned PhaseStats carries the
  /// cache-independent part only (instruction counts, base compute cycles,
  /// load/store/prefetch counts); hit levels, hit cycles and stalls are
  /// added by the runtime's trace replay.
  PhaseStats runTraced(const ir::Function &F,
                       const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut = nullptr);

  /// When set, every load executed in fused mode records per-site count/miss
  /// statistics into \p Stats (keyed by the load instruction).
  void setLoadStats(LoadStatsMap *Stats);

private:
  template <typename MemModel>
  PhaseStats interpret(const CompiledFunction &CF,
                       const std::vector<RuntimeValue> &Args,
                       RuntimeValue *RetOut, MemModel &MM);

  const CompiledFunction &getCompiled(const ir::Function &F);

  LoadStatsMap *LoadStats = nullptr;
  const MachineConfig &Cfg;
  Memory &Mem;
  CacheHierarchy *Caches; ///< Null for tracing-only interpreters.
  const Loader &Load;
  const CompiledProgram *Shared; ///< Read-only; preferred over Cache.
  /// Lazy per-interpreter fallback for functions outside the shared program
  /// (direct run() users compile on first call).
  std::unordered_map<const ir::Function *, std::unique_ptr<CompiledFunction>>
      Cache;
  /// Non-null iff Cfg.Backend == SimBackend::Threaded; run()/runTraced()
  /// delegate to it.
  std::unique_ptr<ThreadedInterpreter> Threaded;
  /// Non-null iff Cfg.Backend == SimBackend::Native; run()/runTraced()
  /// delegate to it.
  std::unique_ptr<NativeInterpreter> Native;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_INTERPRETER_H
