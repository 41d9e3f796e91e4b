//===- tests/runtime/DeterminismTest.cpp - Host-parallel determinism --------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The engine's core guarantee: RunProfiles are bit-identical for every
// --sim-threads value. Every comparison here is exact (EXPECT_EQ on doubles
// included) — any divergence between thread counts is a bug, not noise.
//
//===----------------------------------------------------------------------===//

#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "ir/IRBuilder.h"
#include "runtime/Runtime.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace dae;
using namespace dae::ir;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

void expectStatsEqual(const PhaseStats &A, const PhaseStats &B,
                      const char *What, size_t TaskIdx) {
  EXPECT_EQ(A.Instructions, B.Instructions) << What << " task " << TaskIdx;
  EXPECT_EQ(A.ComputeCycles, B.ComputeCycles) << What << " task " << TaskIdx;
  EXPECT_EQ(A.StallNs, B.StallNs) << What << " task " << TaskIdx;
  EXPECT_EQ(A.Loads, B.Loads) << What << " task " << TaskIdx;
  EXPECT_EQ(A.Stores, B.Stores) << What << " task " << TaskIdx;
  EXPECT_EQ(A.Prefetches, B.Prefetches) << What << " task " << TaskIdx;
  EXPECT_EQ(A.L1Hits, B.L1Hits) << What << " task " << TaskIdx;
  EXPECT_EQ(A.L2Hits, B.L2Hits) << What << " task " << TaskIdx;
  EXPECT_EQ(A.LLCHits, B.LLCHits) << What << " task " << TaskIdx;
  EXPECT_EQ(A.MemAccesses, B.MemAccesses) << What << " task " << TaskIdx;
}

void expectProfilesEqual(const RunProfile &A, const RunProfile &B) {
  EXPECT_EQ(A.NumCores, B.NumCores);
  ASSERT_EQ(A.Tasks.size(), B.Tasks.size());
  for (size_t I = 0; I != A.Tasks.size(); ++I) {
    const TaskProfile &TA = A.Tasks[I];
    const TaskProfile &TB = B.Tasks[I];
    EXPECT_EQ(TA.Core, TB.Core) << "task " << I;
    EXPECT_EQ(TA.Wave, TB.Wave) << "task " << I;
    EXPECT_EQ(TA.HasAccess, TB.HasAccess) << "task " << I;
    expectStatsEqual(TA.Access, TB.Access, "access", I);
    expectStatsEqual(TA.Execute, TB.Execute, "execute", I);
  }
}

/// A module with one streaming task (Dst[i] = Src[i]) and one access fn.
struct RtFixture {
  Module M;
  Function *Exec;
  Function *Access;
  MachineConfig Cfg;

  RtFixture() {
    auto *Src = M.createGlobal("Src", (1 << 16) * 8);
    auto *Dst = M.createGlobal("Dst", (1 << 16) * 8);
    Exec = M.createFunction("stream", Type::Void, {Type::Int64, Type::Int64});
    {
      IRBuilder B(M, Exec->createBlock("entry"));
      emitCountedLoop(B, Exec->getArg(0), Exec->getArg(1), B.getInt(1), "i",
                      [&](IRBuilder &B, Value *I) {
        Value *V = B.createLoad(Type::Float64, B.createGep1D(Src, I, 8));
        B.createStore(V, B.createGep1D(Dst, I, 8));
      });
      B.createRet();
    }
    Access =
        M.createFunction("stream.acc", Type::Void, {Type::Int64, Type::Int64});
    {
      IRBuilder B(M, Access->createBlock("entry"));
      emitCountedLoop(B, Access->getArg(0), Access->getArg(1), B.getInt(8),
                      "p", [&](IRBuilder &B, Value *I) {
                        B.createPrefetch(B.createGep1D(Src, I, 8));
                      });
      B.createRet();
    }
  }

  std::vector<Task> makeTasks(unsigned NumTasks, unsigned Waves = 1) {
    std::vector<Task> Tasks;
    std::int64_t Chunk = NumTasks ? (1 << 16) / NumTasks : 0;
    for (unsigned T = 0; T != NumTasks; ++T)
      Tasks.push_back({Exec,
                       Access,
                       {RuntimeValue::ofInt(T * Chunk),
                        RuntimeValue::ofInt((T + 1) * Chunk)},
                       T % Waves});
    return Tasks;
  }

  /// Runs the same task set with \p Threads workers on fresh memory;
  /// \p Overlap = false is the thread-free sequential reference at 1.
  RunProfile run(unsigned Threads, unsigned NumTasks, unsigned Waves,
                 bool RunAccess, bool Overlap = true) {
    return run(Threads, makeTasks(NumTasks, Waves), RunAccess, Overlap);
  }
  RunProfile run(unsigned Threads, const std::vector<Task> &Tasks,
                 bool RunAccess, bool Overlap = true) {
    MachineConfig C = Cfg;
    C.SimThreads = Threads;
    C.ReplayOverlap = Overlap;
    Memory Mem;
    Loader L(M);
    TaskRuntime RT(C, Mem, L);
    return RT.execute(Tasks, RunAccess);
  }
};

class StreamDeterminismTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamDeterminismTest, MatchesSequentialReference) {
  RtFixture Fx;
  unsigned Threads = GetParam();
  struct Shape {
    unsigned Tasks, Waves;
    bool RunAccess;
  };
  // Uneven task/wave/core divisions on purpose: they exercise stealing and
  // partially-filled waves, where schedule bugs would hide. The replay
  // streams task by task, so one wave with fewer tasks than cores, a single
  // task and an empty task list take the pipelined path too.
  for (Shape S : {Shape{32, 1, true}, Shape{16, 4, true}, Shape{15, 3, true},
                  Shape{7, 2, true}, Shape{16, 4, false}, Shape{3, 1, true},
                  Shape{1, 1, true}, Shape{0, 1, true}}) {
    RunProfile Seq = Fx.run(1, S.Tasks, S.Waves, S.RunAccess,
                            /*Overlap=*/false);
    RunProfile Par = Fx.run(Threads, S.Tasks, S.Waves, S.RunAccess);
    expectProfilesEqual(Seq, Par);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamDeterminismTest,
                         ::testing::Values(2u, 4u, 7u, 1u));

/// Very uneven task lengths at 8 sim threads: short tasks finish long before
/// long ones, so the replay's schedule picks tasks — from its own queue and
/// by stealing from the back of the longest one — whose functional pass is
/// still running, and must wait for them.
TEST(UnevenStreamDeterminismTest, EightThreadsMatchReference) {
  RtFixture Fx;
  std::vector<Task> Tasks;
  std::int64_t Begin = 0;
  for (unsigned T = 0; T != 24; ++T) {
    std::int64_t Len = T % 5 == 0 ? 6000 : T % 3 == 0 ? 800 : 16;
    Tasks.push_back({Fx.Exec,
                     Fx.Access,
                     {RuntimeValue::ofInt(Begin),
                      RuntimeValue::ofInt(Begin + Len)},
                     T % 2});
    Begin += Len;
  }
  ASSERT_LE(Begin, 1 << 16);
  for (bool RunAccess : {true, false}) {
    RunProfile Seq = Fx.run(1, Tasks, RunAccess, /*Overlap=*/false);
    RunProfile Par = Fx.run(8, Tasks, RunAccess);
    expectProfilesEqual(Seq, Par);
  }
}

/// End-to-end: all seven paper workloads through the full harness (CAE,
/// Manual DAE, Auto DAE) must profile bit-identically at 1 and 4 threads.
class WorkloadDeterminismTest : public ::testing::TestWithParam<const char *> {
};

TEST_P(WorkloadDeterminismTest, FourThreadsMatchOne) {
  auto RunAt = [&](unsigned Threads) {
    MachineConfig Cfg;
    Cfg.SimThreads = Threads;
    // The one-thread run is the thread-free sequential reference.
    Cfg.ReplayOverlap = Threads > 1;
    auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
    return harness::runApp(*W, Cfg);
  };
  harness::AppResult Seq = RunAt(1);
  harness::AppResult Par = RunAt(4);
  EXPECT_TRUE(Seq.OutputsMatch);
  EXPECT_TRUE(Par.OutputsMatch);
  expectProfilesEqual(Seq.Cae, Par.Cae);
  expectProfilesEqual(Seq.Manual, Par.Manual);
  expectProfilesEqual(Seq.Auto, Par.Auto);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDeterminismTest,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

void expectCapturesEqual(const RunCapture &A, const RunCapture &B) {
  EXPECT_EQ(A.LineBytes, B.LineBytes);
  ASSERT_EQ(A.Tasks.size(), B.Tasks.size());
  for (size_t I = 0; I != A.Tasks.size(); ++I) {
    EXPECT_EQ(A.Tasks[I].HasAccess, B.Tasks[I].HasAccess) << "task " << I;
    EXPECT_EQ(A.Tasks[I].Access.Lines, B.Tasks[I].Access.Lines)
        << "access lines, task " << I;
    EXPECT_EQ(A.Tasks[I].Access.MissLines, B.Tasks[I].Access.MissLines)
        << "access misses, task " << I;
    EXPECT_EQ(A.Tasks[I].Execute.Lines, B.Tasks[I].Execute.Lines)
        << "execute lines, task " << I;
    EXPECT_EQ(A.Tasks[I].Execute.MissLines, B.Tasks[I].Execute.MissLines)
        << "execute misses, task " << I;
  }
}

/// Pipelined replay (--no-replay-overlap off by default) must not perturb a
/// single simulated bit: for each paper workload, the Manual-DAE task set is
/// profiled under every (SimThreads, ReplayOverlap, capture on/off)
/// combination, and both the RunProfile and the RunCapture are compared
/// exactly against the sequential overlap-free reference.
class OverlapDeterminismTest : public ::testing::TestWithParam<const char *> {
};

TEST_P(OverlapDeterminismTest, OverlapMatchesReference) {
  auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
  Loader L(*W->M);
  // Manual-DAE task list: decoupled tasks drive both the access and execute
  // replay paths (and both capture phases) per task.
  std::vector<Task> Tasks = W->Tasks;
  for (Task &T : Tasks) {
    auto It = W->ManualAccess.find(T.Execute);
    if (It != W->ManualAccess.end())
      T.Access = It->second;
  }

  auto Run = [&](unsigned Threads, bool Overlap, RunCapture *Cap) {
    MachineConfig Cfg;
    Cfg.SimThreads = Threads;
    Cfg.ReplayOverlap = Overlap;
    Memory Mem;
    W->Init(Mem, L);
    TaskRuntime RT(Cfg, Mem, L);
    return RT.execute(Tasks, /*RunAccess=*/true, Cap);
  };

  RunCapture RefCap;
  RunProfile Ref = Run(/*Threads=*/1, /*Overlap=*/false, &RefCap);

  // {1 thread, overlap on} pipelines too: the caller runs the functional
  // pass and the replay thread consumes its waves.
  for (unsigned Threads : {1u, 2u, 8u}) {
    for (bool Overlap : {false, true}) {
      RunCapture Cap;
      expectProfilesEqual(Ref, Run(Threads, Overlap, &Cap));
      expectCapturesEqual(RefCap, Cap);
      // Capture off must not change the profile either (the capture hook
      // sits inside the replay fast path).
      expectProfilesEqual(Ref, Run(Threads, Overlap, nullptr));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OverlapDeterminismTest,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

/// Suite-level: the full Figure 3 pipeline over all seven apps on the job
/// pool (--jobs=4 --sim-threads=2, shared generation memo) must be
/// bit-identical to the sequential reference (--jobs=1 --sim-threads=1, no
/// memo): profiles, Table 1 rows, priced Figure 3 rows, and the raw output
/// snapshots of every scheme.
TEST(SuiteDeterminismTest, JobPoolMatchesSequentialReference) {
  auto RunAt = [](unsigned Jobs, unsigned Threads, bool UseMemo) {
    MachineConfig Cfg;
    Cfg.SimThreads = Threads;
    // Only the (1, 1) reference runs thread-free.
    Cfg.ReplayOverlap = Jobs > 1 || Threads > 1;
    auto Ws = workloads::buildAll(workloads::Scale::Test);
    std::vector<harness::SuiteItem> Items;
    for (auto &W : Ws)
      Items.push_back({W.get(), nullptr});
    GenerationMemo Memo;
    harness::SuiteConfig SC;
    SC.Jobs = Jobs;
    SC.SimThreads = Threads;
    SC.Memo = UseMemo ? &Memo : nullptr;
    return harness::runSuite(Items, Cfg, SC);
  };
  std::vector<harness::AppResult> Seq = RunAt(1, 1, false);
  std::vector<harness::AppResult> Par = RunAt(4, 2, true);

  ASSERT_EQ(Seq.size(), Par.size());
  MachineConfig Cfg;
  for (size_t I = 0; I != Seq.size(); ++I) {
    const harness::AppResult &A = Seq[I];
    const harness::AppResult &B = Par[I];
    EXPECT_EQ(A.Name, B.Name) << "suite order must follow item order";
    EXPECT_TRUE(A.OutputsMatch) << A.Name;
    EXPECT_TRUE(B.OutputsMatch) << B.Name;
    expectProfilesEqual(A.Cae, B.Cae);
    expectProfilesEqual(A.Manual, B.Manual);
    expectProfilesEqual(A.Auto, B.Auto);
    EXPECT_EQ(A.CaeOutputs, B.CaeOutputs) << A.Name;
    EXPECT_EQ(A.ManualOutputs, B.ManualOutputs) << A.Name;
    EXPECT_EQ(A.AutoOutputs, B.AutoOutputs) << A.Name;
    EXPECT_EQ(A.Row.AffineLoops, B.Row.AffineLoops) << A.Name;
    EXPECT_EQ(A.Row.TotalLoops, B.Row.TotalLoops) << A.Name;
    EXPECT_EQ(A.Row.NumTasks, B.Row.NumTasks) << A.Name;
    EXPECT_EQ(A.Row.AccessTimePercent, B.Row.AccessTimePercent) << A.Name;
    EXPECT_EQ(A.Row.AccessTimeUs, B.Row.AccessTimeUs) << A.Name;
    for (double Latency : {500.0, 0.0}) {
      harness::Fig3Row RA = harness::priceFig3(A, Cfg, Latency);
      harness::Fig3Row RB = harness::priceFig3(B, Cfg, Latency);
      for (int M = 0; M != 3; ++M) {
        EXPECT_EQ(RA.CaeOpt[M], RB.CaeOpt[M]) << A.Name;
        EXPECT_EQ(RA.ManualMinMax[M], RB.ManualMinMax[M]) << A.Name;
        EXPECT_EQ(RA.ManualOpt[M], RB.ManualOpt[M]) << A.Name;
        EXPECT_EQ(RA.AutoMinMax[M], RB.AutoMinMax[M]) << A.Name;
        EXPECT_EQ(RA.AutoOpt[M], RB.AutoOpt[M]) << A.Name;
      }
    }
  }
}

} // namespace
