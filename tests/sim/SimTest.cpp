//===- tests/sim/SimTest.cpp - Simulator unit tests --------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "sim/AccessTrace.h"
#include "sim/CacheSim.h"
#include "sim/Interpreter.h"
#include "sim/MachineConfig.h"
#include "sim/Memory.h"
#include "sim/PowerModel.h"
#include "sim/SimOps.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <thread>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

namespace {

TEST(MachineConfigTest, VoltageClampsOffLadderFrequencies) {
  MachineConfig Cfg;
  // On-ladder queries are monotone in frequency.
  EXPECT_LT(Cfg.voltageAt(Cfg.fmin()), Cfg.voltageAt(Cfg.fmax()));
  // Off-ladder queries clamp to the rail instead of extrapolating: a sweep
  // overshooting fmax (or an fmin-epsilon rounding artifact) must not
  // fabricate voltages outside the machine's range.
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(0.0), Cfg.voltageAt(Cfg.fmin()));
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(-1.0), Cfg.voltageAt(Cfg.fmin()));
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(100.0), Cfg.voltageAt(Cfg.fmax()));
  // Interior frequencies stay between the rails.
  double Mid = Cfg.voltageAt(2.6);
  EXPECT_GT(Mid, Cfg.voltageAt(Cfg.fmin()));
  EXPECT_LT(Mid, Cfg.voltageAt(Cfg.fmax()));
}

TEST(MachineConfigTest, PerCoreLaddersDefaultToMachineWide) {
  MachineConfig Cfg;
  // Homogeneous machine (empty CoreLadders): every core's ladder IS the
  // machine ladder, and the per-core voltage curve matches the global one
  // exactly — the bit-exactness contract the single-core path relies on.
  for (unsigned C : {0u, 1u, 3u, 17u}) {
    EXPECT_EQ(&Cfg.ladder(C), &Cfg.FrequenciesGHz);
    EXPECT_EQ(Cfg.fminOf(C), Cfg.fmin());
    EXPECT_EQ(Cfg.fmaxOf(C), Cfg.fmax());
    for (double F : Cfg.FrequenciesGHz)
      EXPECT_EQ(Cfg.voltageAt(C, F), Cfg.voltageAt(F));
  }
}

TEST(MachineConfigTest, BigLittleLaddersAndVoltages) {
  MachineConfig Cfg;
  Cfg.makeBigLittle(/*NumBig=*/2, /*NumLittle=*/2);
  EXPECT_EQ(Cfg.NumCores, 4u);
  // Big cores keep the machine ladder; little cores get the 0.6-1.4 GHz
  // efficiency ladder.
  EXPECT_EQ(Cfg.ladder(0), Cfg.FrequenciesGHz);
  EXPECT_EQ(Cfg.ladder(1), Cfg.FrequenciesGHz);
  EXPECT_DOUBLE_EQ(Cfg.fminOf(2), 0.6);
  EXPECT_DOUBLE_EQ(Cfg.fmaxOf(2), 1.4);
  EXPECT_DOUBLE_EQ(Cfg.fmaxOf(3), 1.4);

  // Off-ladder queries clamp to the *core's* ladder: pricing a little core
  // at the big fmax must cost the little fmax's voltage, not extrapolate
  // into a range the core cannot reach.
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(2, Cfg.fmax()), 1.4);
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(2, Cfg.fmax()), Cfg.voltageAt(2, 1.4));
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(2, 0.1), 0.6);
  EXPECT_LT(Cfg.voltageAt(2, 1.4), Cfg.voltageAt(0, Cfg.fmax()));

  // rungAtOrAbove picks the core's own rungs (CPUFREQ_RELATION_L).
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2, 0.7), 0.8);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2, 0.8), 0.8);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2, 5.0), 1.4);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(0, 0.7), Cfg.fmin());
}

TEST(MachineConfigTest, SingleEntryLadderPinsTheCore) {
  MachineConfig Cfg;
  Cfg.NumCores = 2;
  Cfg.CoreLadders = {{2.0}, Cfg.FrequenciesGHz};
  // Every query on the pinned core resolves to its one operating point.
  EXPECT_DOUBLE_EQ(Cfg.fminOf(0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.fmaxOf(0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(0, 9.0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(0, 9.0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(0, 3.4), Cfg.voltageAt(0, 2.0));
  // The second core still sees the full machine ladder.
  EXPECT_EQ(Cfg.ladder(1), Cfg.FrequenciesGHz);
}

TEST(DramChannelTest, QueuesConcurrentLines) {
  DramChannel Ch(/*BandwidthGBs=*/64.0, /*LineBytes=*/64);
  EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 1.0);
  // First request at t=0 starts immediately and books [0, 1).
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 0.0);
  // A second request at t=0 waits for the channel to free.
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 1.0);
  // Back-to-back pressure keeps extending the queue...
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.5), 1.5);
  // ...and a late arrival after the backlog drains pays nothing.
  EXPECT_DOUBLE_EQ(Ch.requestLine(10.0), 0.0);
}

TEST(DramChannelTest, NonPositiveBandwidthDisablesQueue) {
  DramChannel Ch(/*BandwidthGBs=*/0.0, /*LineBytes=*/64);
  EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 0.0);
  for (int I = 0; I != 4; ++I)
    EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 0.0);
}

TEST(TracePoolTest, EnvCapParsing) {
  // Unset: the built-in default.
  unsetenv("DAECC_TRACE_POOL_MB");
  std::size_t Default = TracePool::maxTotalBytesFromEnv();
  EXPECT_GT(Default, 0u);
  // Set: the cap in MiB.
  setenv("DAECC_TRACE_POOL_MB", "64", 1);
  EXPECT_EQ(TracePool::maxTotalBytesFromEnv(), 64u << 20);
  unsetenv("DAECC_TRACE_POOL_MB");
}

TEST(TracePoolDeathTest, GarbageEnvCapIsAHardError) {
  // A malformed cap must not be silently ignored (it would run with an
  // unintended memory budget): exit 2, like a bad CLI flag.
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "lots", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "16MB", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "-4", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "0", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
}

TEST(TracePoolDeathTest, OverflowingEnvCapIsAHardError) {
  // 2^44 MiB is 2^64 bytes: the MiB -> byte shift would wrap the cap to 0,
  // silently disabling the pool. One MiB less is the largest cap that fits.
  setenv("DAECC_TRACE_POOL_MB", "17592186044415", 1);
  EXPECT_EQ(TracePool::maxTotalBytesFromEnv(),
            std::size_t(17592186044415ull) << 20);
  unsetenv("DAECC_TRACE_POOL_MB");
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "17592186044416", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
}

TEST(TracePoolTest, RetainedBytesAreCapped) {
  // Per-buffer cap: a huge-wave trace must not pin its capacity forever.
  TracePool Pool(/*MaxPooled=*/4, /*MaxBufferBytes=*/1024,
                 /*MaxTotalBytes=*/4096);
  TraceBuffer Huge;
  Huge.reserve(1024); // 8 KiB > per-buffer cap.
  Pool.recycle(std::move(Huge));
  EXPECT_EQ(Pool.pooledBuffers(), 0u);
  EXPECT_EQ(Pool.retainedBytes(), 0u);

  // Total cap: buffers under the per-buffer cap stop pooling once the
  // free-list's summed capacity would exceed MaxTotalBytes.
  for (int I = 0; I != 8; ++I) {
    TraceBuffer Buf;
    Buf.reserve(128); // 1 KiB each.
    Pool.recycle(std::move(Buf));
  }
  EXPECT_LE(Pool.retainedBytes(), 4096u);
  EXPECT_LE(Pool.pooledBuffers(), 4u);

  // Acquire returns retained capacity and releases its accounting.
  std::size_t Before = Pool.retainedBytes();
  TraceBuffer Got = Pool.acquire();
  EXPECT_GE(Got.capacity(), 128u);
  EXPECT_LT(Pool.retainedBytes(), Before);
}

TEST(MemoryTest, ImageHashIgnoresUntouchedAndZeroPages) {
  Memory A, B;
  A.storeI64(0x1000, 7);
  B.storeI64(0x1000, 7);
  EXPECT_EQ(A.imageHash(), B.imageHash());
  // Touching a page with zeroes (what a pure prefetcher's page allocation
  // does) must not change the image.
  B.storeI64(0x900000, 0);
  EXPECT_EQ(A.imageHash(), B.imageHash());
  // A real difference must.
  B.storeI64(0x900000, 1);
  EXPECT_NE(A.imageHash(), B.imageHash());
}

TEST(MemoryTest, RoundTripsValues) {
  Memory Mem;
  Mem.storeI64(0x1000, -42);
  EXPECT_EQ(Mem.loadI64(0x1000), -42);
  Mem.storeF64(0x2000, 3.25);
  EXPECT_DOUBLE_EQ(Mem.loadF64(0x2000), 3.25);
  // Untouched memory reads as zero.
  EXPECT_EQ(Mem.loadI64(0x900000), 0);
}

// Two threads raise the extent concurrently (stores interleaved far above
// it); the image must hash as if one thread had made every store.
TEST(MemoryTest, ConcurrentGrowthMatchesSequential) {
  auto Addr = [](unsigned T, unsigned K) {
    return 0x1000000ull + K * 0x80000ull + T * 0x40000ull;
  };
  auto Fill = [&](Memory &M, unsigned T) {
    for (unsigned K = 0; K != 64; ++K)
      M.storeI64(Addr(T, K), 1000 * (T + 1) + K);
  };
  Memory Seq, Par, Empty;
  Fill(Seq, 0);
  Fill(Seq, 1);
  std::thread T0([&] { Fill(Par, 0); });
  std::thread T1([&] { Fill(Par, 1); });
  T0.join();
  T1.join();
  EXPECT_EQ(Par.imageHash(), Seq.imageHash());
  EXPECT_NE(Par.imageHash(), Empty.imageHash());
  EXPECT_EQ(Par.loadI64(Addr(1, 63)), 2063);
}

/// fn(i) stores to Out[i]: an index past the arena puts the store there.
Function *buildIndexedStore(Module &M) {
  GlobalVariable *Out = M.createGlobal("Out", 8);
  Function *F = M.createFunction("store_at", Type::Int64, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  B.createStore(M.getInt(7), B.createGep1D(Out, F->getArg(0), 8));
  B.createRet(M.getInt(0));
  return F;
}

// An access past Memory::Capacity aborts with a diagnostic naming the
// address, on every backend (fused and traced) and through Memory's own
// accessors.
TEST(MemoryDeathTest, AccessPastCapacityAborts) {
  const char *Diag = "simulated address 0x[0-9a-f]+ lies past the 1024 MiB "
                     "memory arena";
  Memory Direct;
  EXPECT_DEATH(Direct.storeI64(Memory::Capacity, 1), Diag);

  Module M;
  Function *F = buildIndexedStore(M);
  for (SimBackend Backend :
       {SimBackend::Switch, SimBackend::Threaded, SimBackend::Native}) {
    MachineConfig Cfg;
    Cfg.Backend = Backend;
    Loader L(M);
    Memory Mem;
    CacheHierarchy Caches(Cfg, 1);
    Interpreter Interp(Cfg, Mem, Caches, L);
    // In range first, so the same program is known to run.
    Interp.run(*F, 0, {RuntimeValue::ofInt(3)});
    EXPECT_EQ(Mem.loadI64(L.baseOf("Out") + 24), 7);
    const auto Past = static_cast<std::int64_t>(Memory::Capacity / 8);
    EXPECT_DEATH(Interp.run(*F, 0, {RuntimeValue::ofInt(Past)}), Diag)
        << static_cast<int>(Backend);
    AccessTrace Trace;
    EXPECT_DEATH(Interp.runTraced(*F, {RuntimeValue::ofInt(Past)}, Trace),
                 Diag)
        << static_cast<int>(Backend);
  }
}

TEST(LoaderTest, AssignsDisjointAlignedBases) {
  Module M;
  M.createGlobal("a", 100);
  M.createGlobal("b", 4096);
  M.createGlobal("c", 8);
  Loader L(M);
  std::uint64_t A = L.baseOf("a"), B = L.baseOf("b"), C = L.baseOf("c");
  EXPECT_EQ(A % 64, 0u);
  EXPECT_EQ(B % 64, 0u);
  EXPECT_GE(B, A + 100);
  EXPECT_GE(C, B + 4096);
}

/// Feeds \p Addrs to \p C and counts the hits access() reports.
unsigned countHits(Cache &C, std::initializer_list<std::uint64_t> Addrs) {
  unsigned Hits = 0;
  for (std::uint64_t A : Addrs)
    Hits += C.access(A);
  return Hits;
}

TEST(CacheTest, HitsAfterMiss) {
  Cache C({1024, 2, 64}); // 8 sets x 2 ways.
  EXPECT_FALSE(C.access(0x0));
  EXPECT_TRUE(C.access(0x0));
  EXPECT_TRUE(C.access(0x38)); // Same line.
  EXPECT_FALSE(C.access(0x40)); // Next line.
}

TEST(CacheTest, LruEviction) {
  Cache C({128, 2, 64}); // 1 set, 2 ways.
  C.access(0x000);        // Line A.
  C.access(0x040);        // Line B.
  C.access(0x000);        // Touch A (B becomes LRU).
  C.access(0x080);        // Line C evicts B.
  EXPECT_TRUE(C.probe(0x000));
  EXPECT_FALSE(C.probe(0x040));
  EXPECT_TRUE(C.probe(0x080));
}

TEST(CacheTest, SameLineFastPathKeepsLruExact) {
  // The same-line-as-last-access short circuit must still bump the line's
  // LRU stamp, or a hot line would look stale and get evicted.
  Cache C({128, 2, 64}); // 1 set, 2 ways.
  // A, B miss; A again is a slow-path hit (A becomes MRU), 0x008 a fast-path
  // hit on A (A stays MRU); C must then evict B, the true LRU.
  EXPECT_EQ(countHits(C, {0x000, 0x040, 0x000, 0x008, 0x080}), 2u);
  EXPECT_TRUE(C.probe(0x000));
  EXPECT_FALSE(C.probe(0x040));
  EXPECT_TRUE(C.probe(0x080));
}

TEST(CacheTest, VictimIsInvalidWayBeforeLru) {
  // While the set still holds invalid ways, a miss fills the first of them
  // and evicts nothing, even though a valid way is least recently used.
  Cache C({256, 4, 64}); // 1 set, 4 ways.
  EXPECT_EQ(countHits(C, {0x000, 0x040, 0x000}), 1u); // B is the LRU way.
  EXPECT_EQ(countHits(C, {0x080, 0x0C0}), 0u);        // C, D fill ways 2, 3.
  for (std::uint64_t Line : {0x000, 0x040, 0x080, 0x0C0})
    EXPECT_TRUE(C.probe(Line));
  // Full now: E evicts B (stamp 2 < A 3 < C 4 < D 5), then F evicts A.
  EXPECT_EQ(countHits(C, {0x100, 0x140}), 0u);
  EXPECT_FALSE(C.probe(0x040));
  EXPECT_FALSE(C.probe(0x000));
  EXPECT_EQ(countHits(C, {0x080, 0x0C0, 0x100, 0x140}), 4u);
  // After a flush every way is invalid again and is filled in way order.
  C.flush();
  EXPECT_EQ(countHits(C, {0x000, 0x040, 0x080, 0x0C0, 0x000, 0x040}), 2u);
}

TEST(CacheTest, RejectsNonPowerOfTwoLineBytes) {
  EXPECT_THROW(Cache({1024, 2, 48}), std::invalid_argument);
  EXPECT_THROW(Cache({1024, 2, 0}), std::invalid_argument);
  MachineConfig Cfg;
  Cfg.L2.LineBytes = 96;
  EXPECT_THROW(CacheHierarchy(Cfg, 1), std::invalid_argument);
  EXPECT_EQ(lineShiftOf(64), 6u);
  EXPECT_EQ(lineShiftOf(1), 0u);
}

TEST(CacheHierarchyTest, FillsAllLevelsAndIsolatesCores) {
  MachineConfig Cfg;
  Cfg.HwNextLinePrefetch = false;
  CacheHierarchy H(Cfg, 2);
  EXPECT_EQ(H.access(0, 0x1000), HitLevel::Memory);
  EXPECT_EQ(H.access(0, 0x1000), HitLevel::L1);
  // Core 1's private caches are cold, but the shared LLC has the line.
  EXPECT_EQ(H.access(1, 0x1000), HitLevel::LLC);
  EXPECT_EQ(H.access(1, 0x1000), HitLevel::L1);
}

TEST(CacheHierarchyTest, NextLinePrefetcherCoversStreams) {
  MachineConfig Cfg;
  Cfg.HwNextLinePrefetch = true;
  CacheHierarchy H(Cfg, 1);
  EXPECT_EQ(H.access(0, 0x0), HitLevel::Memory);
  // The hardware prefetcher pulled line 0x40 into L2.
  EXPECT_EQ(H.access(0, 0x40), HitLevel::L2);
}

TEST(PowerModelTest, MatchesPaperFormula) {
  MachineConfig Cfg;
  PowerModel PM(Cfg);
  // Pdyn = (0.19*IPC + 1.64) * f * V^2 — check at IPC=1, f=3.4.
  double V = Cfg.voltageAt(3.4);
  EXPECT_NEAR(PM.dynamicPower(3.4, 1.0), (0.19 + 1.64) * 3.4 * V * V, 1e-9);
  // Dynamic power grows with both frequency and IPC.
  EXPECT_GT(PM.dynamicPower(3.4, 2.0), PM.dynamicPower(3.4, 1.0));
  EXPECT_GT(PM.dynamicPower(3.4, 1.0), PM.dynamicPower(1.6, 1.0));
  EXPECT_GT(PM.staticPowerPerCore(3.4), PM.staticPowerPerCore(1.6));
  EXPECT_LT(PM.sleepPowerPerCore(), PM.staticPowerPerCore(1.6));
}

TEST(PhaseStatsTest, FrequencyDecomposition) {
  PhaseStats S;
  S.Instructions = 1000;
  S.ComputeCycles = 3400.0;
  S.StallNs = 500.0;
  // At 3.4 GHz: 1000 ns compute + 500 ns stall.
  EXPECT_NEAR(S.timeNs(3.4), 1500.0, 1e-9);
  // At 1.7 GHz compute doubles, stall unchanged.
  EXPECT_NEAR(S.timeNs(1.7), 2500.0, 1e-9);
  // IPC shrinks as stalls dominate at high frequency less... at fixed
  // composition IPC at 3.4 GHz = 1000 / (1500 * 3.4).
  EXPECT_NEAR(S.ipc(3.4), 1000.0 / (1500.0 * 3.4), 1e-9);
}

// Opcode lowering must refuse unknown enumerators loudly: the old fallback
// silently mapped them to Add/CmpEQ, executing wrong code. The cast values
// stay inside the enums' representable range (both have < 16 enumerators),
// so forming them is well-defined; only the lowering must reject them.
TEST(SimOpsDeathTest, UnknownBinOpAborts) {
  EXPECT_DEATH((void)binSimOp(static_cast<BinOp>(15)),
               "binSimOp: unknown opcode value 15");
}

TEST(SimOpsDeathTest, UnknownCmpPredAborts) {
  EXPECT_DEATH((void)cmpSimOp(static_cast<CmpPred>(15)),
               "cmpSimOp: unknown opcode value 15");
}

/// Interpreter fixture: sum = Src[0..n) accumulated into Dst[0].
struct InterpFixture {
  Module M;
  Function *F;
  MachineConfig Cfg;
  Memory Mem;

  InterpFixture() {
    auto *Src = M.createGlobal("Src", 1024 * 8);
    auto *Dst = M.createGlobal("Dst", 8);
    F = M.createFunction("sum", Type::Void, {Type::Int64});
    IRBuilder B(M, F->createBlock("entry"));
    emitCountedLoop(B, B.getInt(0), F->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
      Value *V = B.createLoad(Type::Float64, B.createGep1D(Src, I, 8));
      Value *DstPtr = B.createGep1D(Dst, B.getInt(0), 8);
      B.createStore(B.createFAdd(B.createLoad(Type::Float64, DstPtr), V),
                    DstPtr);
    });
    B.createRet();
  }
};

TEST(InterpreterTest, ComputesCorrectResult) {
  InterpFixture Fx;
  Loader L(Fx.M);
  for (int I = 0; I != 100; ++I)
    Fx.Mem.storeF64(L.baseOf("Src") + static_cast<std::uint64_t>(I) * 8,
                    static_cast<double>(I));
  CacheHierarchy Caches(Fx.Cfg, 1);
  Interpreter Interp(Fx.Cfg, Fx.Mem, Caches, L);
  PhaseStats S = Interp.run(*Fx.F, 0, {RuntimeValue::ofInt(100)});
  EXPECT_DOUBLE_EQ(Fx.Mem.loadF64(L.baseOf("Dst")), 99.0 * 100.0 / 2.0);
  EXPECT_GT(S.Instructions, 500u); // ~8 instructions x 100 iterations.
  EXPECT_EQ(S.Loads, 200u);
  EXPECT_EQ(S.Stores, 100u);
}

TEST(InterpreterTest, ColdMissesProduceStalls) {
  InterpFixture Fx;
  Loader L(Fx.M);
  CacheHierarchy Caches(Fx.Cfg, 1);
  Interpreter Interp(Fx.Cfg, Fx.Mem, Caches, L);
  PhaseStats Cold = Interp.run(*Fx.F, 0, {RuntimeValue::ofInt(1024)});
  EXPECT_GT(Cold.MemAccesses, 0u);
  EXPECT_GT(Cold.StallNs, 0.0);
  // A second pass over the same (small) data is cache-warm.
  PhaseStats Warm = Interp.run(*Fx.F, 0, {RuntimeValue::ofInt(1024)});
  EXPECT_LT(Warm.StallNs, Cold.StallNs);
  EXPECT_GT(Warm.L1Hits, Cold.L1Hits);
}

TEST(InterpreterTest, PrefetchWarmsWithoutSideEffects) {
  Module M;
  auto *Src = M.createGlobal("Src", 4096 * 8);
  auto *Dst = M.createGlobal("Dst", 8);
  Function *Pf = M.createFunction("pf", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, Pf->createBlock("entry"));
    B.createPrefetch(B.createGep1D(Dst, B.getInt(0), 8));
    emitCountedLoop(B, B.getInt(0), Pf->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
                      B.createPrefetch(B.createGep1D(Src, I, 8));
                    });
    B.createRet();
  }
  Function *Rd = M.createFunction("rd", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, Rd->createBlock("entry"));
    emitCountedLoop(B, B.getInt(0), Rd->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
      Value *V = B.createLoad(Type::Float64, B.createGep1D(Src, I, 8));
      B.createStore(V, B.createGep1D(Dst, B.getInt(0), 8));
    });
    B.createRet();
  }
  MachineConfig Cfg;
  Memory Mem;
  Loader L(M);
  CacheHierarchy Caches(Cfg, 1);
  Interpreter Interp(Cfg, Mem, Caches, L);
  std::int64_t N = 1024; // 8 KiB: fits L1.
  PhaseStats Access = Interp.run(*Pf, 0, {RuntimeValue::ofInt(N)});
  PhaseStats Exec = Interp.run(*Rd, 0, {RuntimeValue::ofInt(N)});
  EXPECT_EQ(Access.Prefetches, static_cast<std::uint64_t>(N) + 1);
  EXPECT_EQ(Exec.MemAccesses, 0u) << "prefetched data must hit";
  EXPECT_EQ(Exec.StallNs, 0.0);
}

// --- DramChannel occupancy boundaries -------------------------------------

TEST(DramChannelTest, NormalBandwidthQueuesBackToBack) {
  // 12.8 GB/s at 64-byte lines: 5 ns per transfer. Three requests at the
  // same instant queue 0 / 5 / 10 ns.
  DramChannel Ch(12.8, 64);
  EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 5.0);
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 0.0);
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 5.0);
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 10.0);
  // A request after the backlog drains waits nothing.
  EXPECT_DOUBLE_EQ(Ch.requestLine(100.0), 0.0);
}

TEST(DramChannelTest, NonPositiveBandwidthIsIdenticalToNoChannel) {
  // <= 0 (and NaN) disables the queue: occupancy 0 and every request free,
  // byte-identical to the single-workload engine's no-channel model.
  for (double B : {0.0, -1.0, -12.8, std::nan("")}) {
    DramChannel Ch(B, 64);
    EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 0.0) << "bandwidth " << B;
    for (int I = 0; I != 4; ++I)
      EXPECT_DOUBLE_EQ(Ch.requestLine(I * 3.0), 0.0) << "bandwidth " << B;
  }
}

TEST(DramChannelTest, ExtremeBandwidthStaysFinite) {
  // A subnormal bandwidth would overflow LineBytes / BandwidthGBs to +inf;
  // the occupancy must cap at the finite ceiling instead, so repeated
  // requests keep producing finite (if astronomically large) delays.
  DramChannel Tiny(5e-324, 64);
  EXPECT_TRUE(std::isfinite(Tiny.occupancyNs()));
  EXPECT_DOUBLE_EQ(Tiny.occupancyNs(), DramChannel::MaxOccupancyNs);
  EXPECT_DOUBLE_EQ(Tiny.requestLine(0.0), 0.0);
  for (int I = 1; I != 4; ++I) {
    double Delay = Tiny.requestLine(0.0);
    EXPECT_TRUE(std::isfinite(Delay)) << "request " << I;
    EXPECT_DOUBLE_EQ(Delay, I * DramChannel::MaxOccupancyNs);
  }

  // Huge-but-normal configurations keep their exact occupancy.
  DramChannel Slow(1e-12, 64);
  EXPECT_TRUE(std::isfinite(Slow.occupancyNs()));
  EXPECT_DOUBLE_EQ(Slow.occupancyNs(), 64.0 / 1e-12);

  // Infinite bandwidth transfers in zero time but still counts as enabled
  // only when positive; occupancy collapses to 0 and requests are free.
  DramChannel Inf(std::numeric_limits<double>::infinity(), 64);
  EXPECT_DOUBLE_EQ(Inf.occupancyNs(), 0.0);
  EXPECT_DOUBLE_EQ(Inf.requestLine(0.0), 0.0);
}

} // namespace
