//===- tests/sim/NativeBackendTest.cpp - Native backend edge cases ---------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Edge cases of the native codegen backend that the cross-backend
// differential suite (BackendDifferentialTest.cpp) does not reach: code
// storage across many compiled functions, W^X protection of the JIT buffer,
// and — most important — the rejection path: a function the lowerer cannot
// compile must fall back to the threaded interpreter bit-identically, never
// miscompile, and must die loudly under the AbortOnUnsupported testing hook.
// Builds without the JIT (non-x86-64 hosts, ASan/TSan) take that fallback
// for every function; NativeBackendRejectAll runs whole workloads that way.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "ir/IRBuilder.h"
#include "sim/AccessTrace.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Memory.h"
#include "sim/NativeCodegen.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

namespace {

/// Builds fn_k(x) = x * (k + 2) + k with a load, a store and an FP round
/// trip, so every compiled function exercises translation, trace emission
/// and both register classes. Returns the function; results land in the
/// global \p Out (8 bytes at index K of "Out").
Function *buildFn(Module &M, GlobalVariable *Out, unsigned K) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "fn_%u", K);
  Function *F = M.createFunction(Name, Type::Int64, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  Value *Scaled = B.createBinOp(
      BinOp::Mul, F->getArg(0), M.getInt(static_cast<std::int64_t>(K) + 2));
  Value *Sum = B.createBinOp(BinOp::Add, Scaled,
                             M.getInt(static_cast<std::int64_t>(K)));
  // FP round trip: (double)Sum * 1.5 back to int.
  Value *D = B.createCast(CastOp::SIToFP, Sum);
  Value *Scaled2 = B.createBinOp(BinOp::FMul, D, M.getFloat(1.5));
  Value *I2 = B.createCast(CastOp::FPToSI, Scaled2);
  Value *Slot = B.createGep1D(Out, M.getInt(K), 8);
  B.createStore(I2, Slot);
  Value *Back = B.createLoad(Type::Int64, Slot);
  B.createRet(B.createBinOp(BinOp::Add, Back, M.getInt(1)));
  return F;
}

/// Runs \p F under \p Backend in a fresh memory/cache world and returns
/// (return value, profile, image hash).
struct RunResult {
  RuntimeValue Ret;
  PhaseStats Stats;
  std::uint64_t Hash;
};

RunResult runUnder(SimBackend Backend, Module &M, Function &F,
                   std::int64_t Arg) {
  MachineConfig Cfg;
  Cfg.Backend = Backend;
  Loader L(M);
  Memory Mem;
  CacheHierarchy Caches(Cfg, 1);
  Interpreter Interp(Cfg, Mem, Caches, L);
  RunResult R;
  R.Stats = Interp.run(F, 0, {RuntimeValue::ofInt(Arg)}, &R.Ret);
  R.Hash = Mem.imageHash();
  return R;
}

void expectSameRun(const RunResult &A, const RunResult &B, const char *What) {
  EXPECT_EQ(A.Ret.I, B.Ret.I) << What;
  EXPECT_EQ(A.Hash, B.Hash) << What;
  EXPECT_EQ(A.Stats.Instructions, B.Stats.Instructions) << What;
  EXPECT_EQ(A.Stats.ComputeCycles, B.Stats.ComputeCycles) << What;
  EXPECT_EQ(A.Stats.Loads, B.Stats.Loads) << What;
  EXPECT_EQ(A.Stats.Stores, B.Stats.Stores) << What;
  EXPECT_EQ(A.Stats.L1Hits, B.Stats.L1Hits) << What;
  EXPECT_EQ(A.Stats.MemAccesses, B.Stats.MemAccesses) << What;
}

/// Compiling many distinct functions must yield many live code objects —
/// each with its own executable storage — that all execute correctly while
/// held simultaneously (the CompiledProgram holds every function of a
/// workload at once).
TEST(NativeBackend, CodeBufferGrowthAcrossManyFunctions) {
  if (!native::jitBuilt())
    GTEST_SKIP() << "this build has no JIT (every function runs threaded)";
  constexpr unsigned N = 48;
  Module M;
  auto *Out = M.createGlobal("Out", N * 8);
  std::vector<Function *> Fns;
  for (unsigned K = 0; K != N; ++K)
    Fns.push_back(buildFn(M, Out, K));

  MachineConfig Cfg;
  Cfg.Backend = SimBackend::Native;
  Loader L(M);
  CompiledProgram Prog(Cfg, L);
  for (Function *F : Fns)
    Prog.add(*F);

  unsigned Compiled = 0;
  for (Function *F : Fns)
    if (const native::NativeCode *NC = Prog.lookupNative(*F)) {
      ++Compiled;
      EXPECT_NE(NC->codeAddr(), nullptr);
      EXPECT_GT(NC->codeSize(), 0u);
    }
  EXPECT_EQ(Compiled, N);

  // All functions execute correctly while every code object is live.
  Memory Mem;
  CacheHierarchy Caches(Cfg, 1);
  Interpreter Interp(Cfg, Mem, Caches, L, &Prog);
  for (unsigned K = 0; K != N; ++K) {
    RuntimeValue Ret;
    Interp.run(*Fns[K], 0, {RuntimeValue::ofInt(7)}, &Ret);
    const std::int64_t Expect =
        static_cast<std::int64_t>(
            static_cast<double>(7 * (static_cast<std::int64_t>(K) + 2) + K) *
            1.5) +
        1;
    EXPECT_EQ(Ret.I, Expect) << "fn_" << K;
  }
}

/// The JIT buffer must be W^X: readable and executable, never writable,
/// once published. Verified against the kernel's own view (/proc/self/maps);
/// skipped in builds without the JIT.
TEST(NativeBackend, JitBufferIsWxProtected) {
  if (!native::jitBuilt())
    GTEST_SKIP() << "this build has no JIT buffer to check";
  Module M;
  auto *Out = M.createGlobal("Out", 8);
  Function *F = buildFn(M, Out, 0);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);
  std::shared_ptr<const native::NativeCode> NC = native::compile(*BF);
  ASSERT_NE(NC, nullptr);

  std::FILE *Maps = std::fopen("/proc/self/maps", "r");
  if (!Maps)
    GTEST_SKIP() << "/proc/self/maps unavailable";
  const std::uintptr_t Addr =
      reinterpret_cast<std::uintptr_t>(NC->codeAddr());
  bool Found = false;
  char Line[512];
  while (std::fgets(Line, sizeof(Line), Maps)) {
    unsigned long long Lo = 0, Hi = 0;
    char Perms[8] = {0};
    if (std::sscanf(Line, "%llx-%llx %7s", &Lo, &Hi, Perms) != 3)
      continue;
    if (Addr < Lo || Addr >= Hi)
      continue;
    Found = true;
    EXPECT_EQ(Perms[0], 'r') << Line;
    EXPECT_EQ(Perms[1], '-') << "JIT buffer writable after publish: " << Line;
    EXPECT_EQ(Perms[2], 'x') << Line;
    break;
  }
  std::fclose(Maps);
  EXPECT_TRUE(Found) << "JIT buffer not in /proc/self/maps";
}

/// A function containing an opcode the lowerer rejects (here forced via
/// DAECC_NATIVE_REJECT_OP) must run through the threaded fallback with
/// bit-identical results — a rejected function may be slow, never wrong.
TEST(NativeBackend, RejectedFunctionFallsBackBitIdentically) {
  Module M;
  auto *Out = M.createGlobal("Out", 4 * 8);
  Function *F = buildFn(M, Out, 2);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);

  setenv("DAECC_NATIVE_REJECT_OP", "SIToFP", 1);
  std::shared_ptr<const native::NativeCode> NC = native::compile(*BF);
  EXPECT_EQ(NC, nullptr) << "rejected opcode must not compile";

  RunResult Ref = runUnder(SimBackend::Switch, M, *F, 9);
  RunResult Got = runUnder(SimBackend::Native, M, *F, 9);
  unsetenv("DAECC_NATIVE_REJECT_OP");
  expectSameRun(Ref, Got, "threaded fallback vs switch");
}

/// Under the AbortOnUnsupported testing hook the same rejection must be
/// loud: a diagnostic naming the opcode, then abort. Pins that an
/// unsupported opcode can never silently produce wrong code.
TEST(NativeBackendDeathTest, UnsupportedOpcodeAbortsUnderHook) {
  Module M;
  auto *Out = M.createGlobal("Out", 4 * 8);
  Function *F = buildFn(M, Out, 1);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);

  native::Options Opts;
  Opts.AbortOnUnsupported = true;
  setenv("DAECC_NATIVE_REJECT_OP", "SIToFP", 1);
  EXPECT_DEATH(native::compile(*BF, Opts), "rejected opcode 'SIToFP'");
  unsetenv("DAECC_NATIVE_REJECT_OP");
}

void expectSameStats(const PhaseStats &A, const PhaseStats &B,
                     const std::string &What) {
  EXPECT_EQ(A.Instructions, B.Instructions) << What;
  EXPECT_EQ(A.ComputeCycles, B.ComputeCycles) << What;
  EXPECT_EQ(A.StallNs, B.StallNs) << What;
  EXPECT_EQ(A.Loads, B.Loads) << What;
  EXPECT_EQ(A.Stores, B.Stores) << What;
  EXPECT_EQ(A.Prefetches, B.Prefetches) << What;
  EXPECT_EQ(A.L1Hits, B.L1Hits) << What;
  EXPECT_EQ(A.L2Hits, B.L2Hits) << What;
  EXPECT_EQ(A.LLCHits, B.LLCHits) << What;
  EXPECT_EQ(A.MemAccesses, B.MemAccesses) << What;
}

void expectSameProfile(const runtime::RunProfile &A,
                       const runtime::RunProfile &B, const char *Scheme) {
  EXPECT_EQ(A.NumCores, B.NumCores) << Scheme;
  ASSERT_EQ(A.Tasks.size(), B.Tasks.size()) << Scheme;
  for (size_t I = 0; I != A.Tasks.size(); ++I) {
    const std::string What = std::string(Scheme) + " task " +
                             std::to_string(I);
    EXPECT_EQ(A.Tasks[I].Core, B.Tasks[I].Core) << What;
    EXPECT_EQ(A.Tasks[I].Wave, B.Tasks[I].Wave) << What;
    EXPECT_EQ(A.Tasks[I].HasAccess, B.Tasks[I].HasAccess) << What;
    expectSameStats(A.Tasks[I].Access, B.Tasks[I].Access, What + " access");
    expectSameStats(A.Tasks[I].Execute, B.Tasks[I].Execute,
                    What + " execute");
  }
}

/// The path every function takes in a build without the JIT (non-x86-64
/// hosts, ASan/TSan builds): DAECC_NATIVE_REJECT_OP=* makes the lowerer
/// reject every function, so the native backend compiles nothing and runs
/// the whole workload on its per-function threaded fallback. It must match
/// the threaded backend bit for bit: the profiles of all three schemes
/// through the full harness, the output snapshots, and — per task — the
/// ordered access trace, the returned stats and the final memory image.
class NativeBackendRejectAll : public ::testing::TestWithParam<const char *> {
};

TEST_P(NativeBackendRejectAll, MatchesThreaded) {
  setenv("DAECC_NATIVE_REJECT_OP", "*", 1);

  auto RunApp = [&](SimBackend Backend) {
    MachineConfig Cfg;
    Cfg.Backend = Backend;
    auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
    return harness::runApp(*W, Cfg);
  };
  harness::AppResult Ref = RunApp(SimBackend::Threaded);
  harness::AppResult Got = RunApp(SimBackend::Native);
  EXPECT_TRUE(Got.OutputsMatch);
  expectSameProfile(Ref.Cae, Got.Cae, "cae");
  expectSameProfile(Ref.Manual, Got.Manual, "manual");
  expectSameProfile(Ref.Auto, Got.Auto, "auto");
  EXPECT_EQ(Ref.CaeOutputs, Got.CaeOutputs);
  EXPECT_EQ(Ref.ManualOutputs, Got.ManualOutputs);
  EXPECT_EQ(Ref.AutoOutputs, Got.AutoOutputs);

  auto RunTraced = [&](SimBackend Backend, std::vector<AccessTrace> &Traces,
                       std::vector<PhaseStats> &Stats) {
    MachineConfig Cfg;
    Cfg.Backend = Backend;
    auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
    Loader L(*W->M);
    Memory Mem;
    W->Init(Mem, L);
    CompiledProgram Prog(Cfg, L);
    for (const runtime::Task &T : W->Tasks)
      Prog.add(*T.Execute);
    for (const runtime::Task &T : W->Tasks)
      EXPECT_EQ(Prog.lookupNative(*T.Execute), nullptr)
          << "a rejected function compiled";
    Interpreter Interp(Cfg, Mem, L, &Prog);
    for (const runtime::Task &T : W->Tasks) {
      Traces.emplace_back();
      Stats.push_back(Interp.runTraced(*T.Execute, T.Args, Traces.back()));
    }
    return Mem.imageHash();
  };
  std::vector<AccessTrace> RefTraces, GotTraces;
  std::vector<PhaseStats> RefStats, GotStats;
  const std::uint64_t RefHash =
      RunTraced(SimBackend::Threaded, RefTraces, RefStats);
  const std::uint64_t GotHash =
      RunTraced(SimBackend::Native, GotTraces, GotStats);
  unsetenv("DAECC_NATIVE_REJECT_OP");

  EXPECT_EQ(RefHash, GotHash);
  ASSERT_EQ(RefTraces.size(), GotTraces.size());
  for (size_t I = 0; I != RefTraces.size(); ++I) {
    expectSameStats(RefStats[I], GotStats[I],
                    "traced task " + std::to_string(I));
    EXPECT_EQ(RefTraces[I].events(), GotTraces[I].events())
        << "trace of task " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, NativeBackendRejectAll,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

} // namespace
