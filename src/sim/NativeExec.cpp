//===- sim/NativeExec.cpp - Native-backend execution engine -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
// The C++ half of the native backend: frame management, the slow-path
// helpers generated code calls (access above the cached memory limit, trace
// growth, calls, fused cache callbacks), and the per-function threaded
// fallback. The fast paths — dispatch, value ops, trace appends, address
// translation — live entirely in the generated code (sim/NativeCodegen.cpp).
//
// Bit-exactness protocols (verified against ThreadedInterpreter::exec):
//
//  * Integer counters (Instructions/Loads/Stores/Prefetches) are
//    order-independent totals; all activations of one top-level run
//    accumulate into the shared NativeContext cells (generated code flushes
//    region-constant increments), flushed into the returned PhaseStats once.
//
//  * Tracing-mode ComputeCycles must reproduce the reference's FP addend
//    order exactly. Each generated function accumulates its own costs in a
//    register (starting at 0.0) and adds the total into ctx->Cycles at its
//    epilogue. Across a call, nativeCall saves the caller's partial sum,
//    zeroes ctx->Cycles, runs the callee (so ctx->Cycles ends as 0.0 +
//    calleeTotal — bitwise equal to calleeTotal, costs being non-negative),
//    restores, and merges with ONE addition — exactly the reference's
//    `Cycles += Sub.ComputeCycles`.
//
//  * Fused mode keeps ComputeCycles/StallNs in the activation's PhaseStats
//    (generated code adds costs there directly, the fused helpers add hit
//    cycles/stalls between them, same interleaving as FusedModel); a call
//    swaps ctx->Stats to a zeroed local and merges it back with one
//    `*Stats += Sub`, matching the reference's Call handler.
//
//===----------------------------------------------------------------------===//

#include "sim/NativeExec.h"

#include "ir/Function.h"
#include "sim/CacheSim.h"
#include "sim/ExecModels.h"
#include "sim/NativeCodegen.h"

#include <algorithm>
#include <cassert>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;
using native::NativeContext;

namespace dae {
namespace sim {

/// Static shims matching the NativeContext function-pointer types; they
/// bounce to the owning interpreter through ctx->Self.
struct NativeHelpers {
  /// Access above the cached limit: grow the extent (or abort past the
  /// arena's capacity) and refresh the cached limit.
  static std::uint8_t *translate(NativeContext *C, std::uint64_t Addr) {
    Memory &Mem = C->Self->Mem;
    Mem.grow(Addr);
    C->Limit = Mem.limit();
    return C->Base + Addr;
  }

  static void traceGrow(NativeContext *C, std::uint64_t Needed) {
    C->Self->traceGrow(Needed);
  }

  static void call(NativeContext *C, const bc::CallDesc *D,
                   std::uint32_t DstReg) {
    C->Self->nativeCall(*D, DstReg);
  }

  // The fused callbacks replicate FusedModel (sim/ExecModels.h) verbatim
  // against the current activation's PhaseStats; the generated code has
  // already applied the instruction cost, matching the reference's
  // STEP-then-callback order.
  static void fusedLoad(NativeContext *C, std::uint64_t Addr,
                        const ir::Instruction *Origin) {
    NativeInterpreter &NI = *C->Self;
    PhaseStats &S = *C->Stats;
    const MachineConfig &Cfg = NI.Cfg;
    LoadSiteStats *Site = nullptr;
    if (NI.LoadStats) {
      Site = &(*NI.LoadStats)[Origin];
      ++Site->Count;
    }
    switch (NI.Caches->access(NI.CurCore, Addr)) {
    case HitLevel::L1:
      ++S.L1Hits;
      S.ComputeCycles += Cfg.L1HitCycles;
      break;
    case HitLevel::L2:
      ++S.L2Hits;
      S.ComputeCycles += Cfg.L2HitCycles;
      break;
    case HitLevel::LLC:
      ++S.LLCHits;
      S.ComputeCycles += Cfg.LLCHitCycles;
      break;
    case HitLevel::Memory:
      ++S.MemAccesses;
      S.StallNs += Cfg.MemLatencyNs / Cfg.LoadMlp;
      if (Site)
        ++Site->Misses;
      break;
    }
  }

  static void fusedStore(NativeContext *C, std::uint64_t Addr) {
    NativeInterpreter &NI = *C->Self;
    PhaseStats &S = *C->Stats;
    const MachineConfig &Cfg = NI.Cfg;
    switch (NI.Caches->access(NI.CurCore, Addr)) {
    case HitLevel::L1:
      ++S.L1Hits;
      break;
    case HitLevel::L2:
      ++S.L2Hits;
      S.ComputeCycles += Cfg.L2HitCycles * 0.5;
      break;
    case HitLevel::LLC:
      ++S.LLCHits;
      S.ComputeCycles += Cfg.LLCHitCycles * 0.5;
      break;
    case HitLevel::Memory:
      ++S.MemAccesses;
      S.StallNs += Cfg.MemLatencyNs / Cfg.StoreMlp;
      break;
    }
  }

  static void fusedPrefetch(NativeContext *C, std::uint64_t Addr) {
    NativeInterpreter &NI = *C->Self;
    PhaseStats &S = *C->Stats;
    const MachineConfig &Cfg = NI.Cfg;
    switch (NI.Caches->access(NI.CurCore, Addr)) {
    case HitLevel::L1:
    case HitLevel::L2:
      break;
    case HitLevel::LLC:
      S.StallNs += Cfg.LLCHitCycles / Cfg.fmax() / Cfg.PrefetchMlp;
      break;
    case HitLevel::Memory:
      ++S.MemAccesses;
      S.StallNs += Cfg.MemLatencyNs / Cfg.PrefetchMlp;
      break;
    }
  }
};

} // namespace sim
} // namespace dae

NativeInterpreter::NativeInterpreter(const MachineConfig &Cfg, Memory &Mem,
                                     CacheHierarchy *Caches, const Loader &L,
                                     const CompiledProgram *Shared)
    : Cfg(Cfg), Mem(Mem), Caches(Caches), Load(L), Shared(Shared),
      Fallback(Cfg, Mem, Caches, L, Shared) {
  Ctx.Self = this;
  Ctx.Limit = Mem.limit();
  Ctx.Base = Mem.base();
  Ctx.Translate = &NativeHelpers::translate;
  Ctx.TraceGrow = &NativeHelpers::traceGrow;
  Ctx.Call = &NativeHelpers::call;
  Ctx.FusedLoad = &NativeHelpers::fusedLoad;
  Ctx.FusedStore = &NativeHelpers::fusedStore;
  Ctx.FusedPrefetch = &NativeHelpers::fusedPrefetch;
}

NativeInterpreter::~NativeInterpreter() = default;

NativeInterpreter::FnEntry NativeInterpreter::getFn(const Function &F) {
  if (&F == LastFn)
    return LastEntry;
  FnEntry E;
  if (Shared) {
    E.BC = Shared->lookupBytecode(F);
    E.Code = Shared->lookupNative(F);
  }
  if (!E.BC) {
    auto It = LocalBC.find(&F);
    if (It == LocalBC.end())
      It = LocalBC.emplace(&F, bc::lower(F, Load, Cfg)).first;
    E.BC = It->second.get();
  }
  if (!E.Code) {
    auto It = LocalCode.find(&F);
    if (It == LocalCode.end())
      It = LocalCode.emplace(&F, native::compile(*E.BC)).first;
    E.Code = It->second.get();
  }
  LastFn = &F;
  LastEntry = E;
  return E;
}

void NativeInterpreter::traceGrow(std::uint64_t Needed) {
  assert(CurTrace && "trace growth outside a traced run");
  Ctx.TracePtr = CurTrace->nativeGrow(Ctx.TracePtr,
                                      static_cast<std::size_t>(Needed));
  Ctx.TraceEnd = CurTrace->nativeEnd();
}

void NativeInterpreter::invoke(const bc::BytecodeFunction &BF,
                               const native::NativeCode &Code, bool Fused,
                               const RuntimeValue *Args, std::size_t NArgs) {
  // Per-activation frame carved out of the shared arena, exactly like the
  // threaded backend (registers are def-before-use by SSA dominance, so
  // stale bytes from earlier frames are never observed).
  const std::size_t FrameBase = FrameTop;
  if (Arena.size() < FrameBase + BF.NumRegs)
    Arena.resize(std::max(Arena.size() * 2,
                          static_cast<std::size_t>(FrameBase + BF.NumRegs)));
  FrameTop = FrameBase + BF.NumRegs;
  RuntimeValue *R = Arena.data() + FrameBase;
  for (std::size_t K = 0; K != NArgs; ++K)
    R[K] = Args[K];
  for (std::size_t K = 0; K != BF.ConstPool.size(); ++K)
    R[BF.ConstBase + K] = BF.ConstPool[K];
  Ctx.Frame = R;
  (Fused ? Code.fused() : Code.traced())(&Ctx);
  FrameTop = FrameBase;
}

void NativeInterpreter::nativeCall(const bc::CallDesc &D,
                                   std::uint32_t DstReg) {
  // Gather actuals from the caller's frame into an on-stack buffer (heap
  // fallback for arbitrary signatures), mirroring the threaded Call handler.
  RuntimeValue ArgBuf[16];
  std::vector<RuntimeValue> ArgSpill;
  RuntimeValue *CallArgs = ArgBuf;
  const std::size_t N = D.ArgRegs.size();
  if (N > 16) {
    ArgSpill.resize(N);
    CallArgs = ArgSpill.data();
  }
  {
    const RuntimeValue *R = Ctx.Frame;
    for (std::size_t K = 0; K != N; ++K)
      CallArgs[K] = R[D.ArgRegs[K]];
  }
  // The callee may grow the arena; remember the caller frame by offset.
  const std::ptrdiff_t CallerBase = Ctx.Frame - Arena.data();
  const bool Fused = Ctx.Fused != 0;

  RuntimeValue Ret;
  FnEntry E = getFn(*D.Callee);
  if (E.Code) {
    Ctx.RetValid = 0;
    if (Fused) {
      // Reference: callee accumulates into its own Sub; caller merges with
      // one field-wise +=. Swap the stats target for the activation.
      PhaseStats *Saved = Ctx.Stats;
      PhaseStats Sub;
      Ctx.Stats = &Sub;
      invoke(*E.BC, *E.Code, true, CallArgs, N);
      Ctx.Stats = Saved;
      if (Ctx.RetValid)
        Ret = Ctx.Ret;
      // Sub's integer counters are zero (they live in the shared ctx cells),
      // so this adds exactly ComputeCycles/StallNs/hit counters — the same
      // additions the reference's `S += Sub` performs after zeroing.
      *Saved += Sub;
    } else {
      const double CallerPartial = Ctx.Cycles;
      Ctx.Cycles = 0.0;
      invoke(*E.BC, *E.Code, false, CallArgs, N);
      const double SubCycles = Ctx.Cycles; // 0.0 + calleeTotal == calleeTotal
      if (Ctx.RetValid)
        Ret = Ctx.Ret;
      Ctx.Cycles = CallerPartial + SubCycles; // the one reference addition
    }
  } else {
    // Callee has no native code: run it through the threaded interpreter and
    // resume. Semantically this IS the reference Call handler.
    std::vector<RuntimeValue> ArgVec(CallArgs, CallArgs + N);
    PhaseStats Sub;
    if (Fused) {
      Sub = Fallback.run(*D.Callee, CurCore, ArgVec, &Ret);
    } else {
      // Hand the open trace cursor back to the vector for the duration.
      CurTrace->nativeCommit(Ctx.TracePtr);
      Sub = Fallback.runTraced(*D.Callee, ArgVec, *CurTrace, &Ret);
      Ctx.TracePtr = CurTrace->nativeBegin(0);
      Ctx.TraceEnd = CurTrace->nativeEnd();
    }
    Ctx.NInstr += Sub.Instructions;
    Ctx.NLoads += Sub.Loads;
    Ctx.NStores += Sub.Stores;
    Ctx.NPrefetches += Sub.Prefetches;
    Sub.Instructions = 0;
    Sub.Loads = 0;
    Sub.Stores = 0;
    Sub.Prefetches = 0;
    if (Fused)
      *Ctx.Stats += Sub;
    else
      Ctx.Cycles += Sub.ComputeCycles;
  }

  Ctx.Frame = Arena.data() + CallerBase;
  if (DstReg != bc::NoReg)
    Ctx.Frame[DstReg] = Ret;
}

PhaseStats NativeInterpreter::run(const Function &F, unsigned Core,
                                  const std::vector<RuntimeValue> &Args,
                                  RuntimeValue *RetOut) {
  assert(Args.size() == F.getNumArgs() && "argument count mismatch");
  assert(Caches && "fused execution requires a cache hierarchy");
  FnEntry E = getFn(F);
  if (!E.Code)
    return Fallback.run(F, Core, Args, RetOut);
  CurCore = Core;
  PhaseStats S;
  Ctx.NInstr = Ctx.NLoads = Ctx.NStores = Ctx.NPrefetches = 0;
  Ctx.Stats = &S;
  Ctx.Fused = 1;
  Ctx.RetValid = 0;
  invoke(*E.BC, *E.Code, true, Args.data(), Args.size());
  S.Instructions += Ctx.NInstr;
  S.Loads += Ctx.NLoads;
  S.Stores += Ctx.NStores;
  S.Prefetches += Ctx.NPrefetches;
  if (RetOut && Ctx.RetValid)
    *RetOut = Ctx.Ret;
  Ctx.Stats = nullptr;
  return S;
}

PhaseStats NativeInterpreter::runTraced(const Function &F,
                                        const std::vector<RuntimeValue> &Args,
                                        AccessTrace &Trace,
                                        RuntimeValue *RetOut) {
  assert(Args.size() == F.getNumArgs() && "argument count mismatch");
  FnEntry E = getFn(F);
  if (!E.Code)
    return Fallback.runTraced(F, Args, Trace, RetOut);
  CurTrace = &Trace;
  PhaseStats S;
  Ctx.NInstr = Ctx.NLoads = Ctx.NStores = Ctx.NPrefetches = 0;
  Ctx.Cycles = 0.0;
  Ctx.Fused = 0;
  Ctx.RetValid = 0;
  Ctx.TracePtr = Trace.nativeBegin(0);
  Ctx.TraceEnd = Trace.nativeEnd();
  invoke(*E.BC, *E.Code, false, Args.data(), Args.size());
  Trace.nativeCommit(Ctx.TracePtr);
  CurTrace = nullptr;
  S.Instructions += Ctx.NInstr;
  S.Loads += Ctx.NLoads;
  S.Stores += Ctx.NStores;
  S.Prefetches += Ctx.NPrefetches;
  S.ComputeCycles += Ctx.Cycles; // 0.0 + total, like the reference's flush
  if (RetOut && Ctx.RetValid)
    *RetOut = Ctx.Ret;
  return S;
}
