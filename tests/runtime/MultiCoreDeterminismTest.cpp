//===- tests/runtime/MultiCoreDeterminismTest.cpp - Co-run determinism ------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contention timeline's guarantee, extended from the single-run engine:
// co-run TimelineReports are bit-identical for every (Jobs, SimThreads,
// ReplayOverlap) host combination. Solo artifacts are already deterministic;
// the interleave is single-threaded with a fixed tie-break, so nothing about
// the host may leak into the result. All comparisons are exact — EXPECT_EQ
// on doubles included.
//
// Also covers the contention physics the sweep bench relies on (DRAM
// queuing appears under co-run, not solo) and the reactive-governor
// frequency dynamics.
//
//===----------------------------------------------------------------------===//

#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "runtime/Evaluator.h"
#include "runtime/Timeline.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dae;
using namespace dae::harness;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

void expectReportsEqual(const TimelineReport &A, const TimelineReport &B,
                        const char *Policy) {
  EXPECT_EQ(A.MakespanNs, B.MakespanNs) << Policy;
  EXPECT_EQ(A.EnergyJ, B.EnergyJ) << Policy;
  EXPECT_EQ(A.EdpJs, B.EdpJs) << Policy;
  ASSERT_EQ(A.Cores.size(), B.Cores.size()) << Policy;
  for (size_t C = 0; C != A.Cores.size(); ++C) {
    const CoreTimelineReport &CA = A.Cores[C];
    const CoreTimelineReport &CB = B.Cores[C];
    EXPECT_EQ(CA.FinishNs, CB.FinishNs) << Policy << " core " << C;
    EXPECT_EQ(CA.EnergyJ, CB.EnergyJ) << Policy << " core " << C;
    EXPECT_EQ(CA.ComputeNs, CB.ComputeNs) << Policy << " core " << C;
    EXPECT_EQ(CA.StallNs, CB.StallNs) << Policy << " core " << C;
    EXPECT_EQ(CA.QueueNs, CB.QueueNs) << Policy << " core " << C;
    EXPECT_EQ(CA.Transitions, CB.Transitions) << Policy << " core " << C;
    EXPECT_EQ(CA.DramMisses, CB.DramMisses) << Policy << " core " << C;
    EXPECT_EQ(CA.Total.Instructions, CB.Total.Instructions)
        << Policy << " core " << C;
    EXPECT_EQ(CA.Total.MemAccesses, CB.Total.MemAccesses)
        << Policy << " core " << C;
  }
}

void expectMixesEqual(const MixResult &A, const MixResult &B) {
  ASSERT_EQ(A.Streams.size(), B.Streams.size());
  for (size_t I = 0; I != A.Streams.size(); ++I) {
    EXPECT_EQ(A.Streams[I].Name, B.Streams[I].Name) << "stream " << I;
    EXPECT_EQ(A.Streams[I].OutputsMatch, B.Streams[I].OutputsMatch)
        << "stream " << I;
  }
  expectReportsEqual(A.CaeMax, B.CaeMax, "cae-max");
  expectReportsEqual(A.CaeOndemand, B.CaeOndemand, "ondemand");
  expectReportsEqual(A.CaeConservative, B.CaeConservative, "conservative");
  expectReportsEqual(A.DaeMinMax, B.DaeMinMax, "dae-minmax");
  expectReportsEqual(A.DaeOracle, B.DaeOracle, "dae-oracle");
}

MixResult runNamedMix(const std::vector<std::string> &Names,
                      const MachineConfig &Cfg, unsigned Jobs,
                      unsigned SimThreads) {
  std::vector<std::unique_ptr<workloads::Workload>> Owned;
  std::vector<workloads::Workload *> Mix;
  for (const std::string &N : Names) {
    Owned.push_back(workloads::buildByName(N, workloads::Scale::Test));
    Mix.push_back(Owned.back().get());
  }
  GenerationMemo Memo;
  MixConfig MC;
  MC.Jobs = Jobs;
  MC.SimThreads = SimThreads;
  MC.Memo = &Memo;
  return runMix(Mix, Cfg, MC);
}

TEST(MultiCoreDeterminism, CoRunIdenticalForAnyHostConfig) {
  MachineConfig Cfg;
  Cfg.NumCores = 4;
  std::vector<std::string> Names = {"libq", "cholesky", "fft"};

  MachineConfig RefCfg = Cfg;
  RefCfg.ReplayOverlap = false; // Thread-free sequential reference.
  MixResult Ref = runNamedMix(Names, RefCfg, 1, 1);
  ASSERT_EQ(Ref.Streams.size(), 3u);
  for (const MixStreamResult &S : Ref.Streams)
    EXPECT_TRUE(S.OutputsMatch) << S.Name;

  struct HostConfig {
    unsigned Jobs, SimThreads;
    bool Overlap;
  };
  for (HostConfig HC : {HostConfig{2, 2, true}, HostConfig{3, 1, false},
                        HostConfig{1, 4, true}, HostConfig{4, 2, false}}) {
    MachineConfig C2 = Cfg;
    C2.ReplayOverlap = HC.Overlap;
    MixResult R = runNamedMix(Names, C2, HC.Jobs, HC.SimThreads);
    SCOPED_TRACE("jobs=" + std::to_string(HC.Jobs) +
                 " threads=" + std::to_string(HC.SimThreads) +
                 " overlap=" + std::to_string(HC.Overlap));
    expectMixesEqual(Ref, R);
  }
}

TEST(MultiCoreDeterminism, OneWaySanity) {
  MachineConfig Cfg;
  Cfg.NumCores = 4;
  MixResult R = runNamedMix({"libq"}, Cfg, 1, 1);
  ASSERT_EQ(R.Streams.size(), 1u);
  EXPECT_TRUE(R.Streams[0].OutputsMatch);
  for (const TimelineReport *T :
       {&R.CaeMax, &R.CaeOndemand, &R.CaeConservative, &R.DaeMinMax,
        &R.DaeOracle}) {
    ASSERT_EQ(T->Cores.size(), 1u);
    EXPECT_GT(T->MakespanNs, 0.0);
    EXPECT_GT(T->EnergyJ, 0.0);
    EXPECT_GT(T->EdpJs, 0.0);
    EXPECT_EQ(T->Cores[0].FinishNs, T->MakespanNs);
  }
  // Alone on the channel, a single in-order core never outruns DRAM: each
  // miss stalls the clock past the line's occupancy before the next one can
  // issue, so queuing is a co-run phenomenon.
  EXPECT_EQ(R.CaeMax.Cores[0].QueueNs, 0.0);
}

TEST(MultiCoreDeterminism, CoRunnersQueueOnDram) {
  MachineConfig Cfg;
  Cfg.NumCores = 4;
  // Two memory-bound streams hammer the shared channel.
  MixResult Solo = runNamedMix({"libq"}, Cfg, 1, 1);
  MixResult Duo = runNamedMix({"libq", "cigar"}, Cfg, 1, 1);
  double QueueNs = 0.0;
  for (const CoreTimelineReport &C : Duo.CaeMax.Cores)
    QueueNs += C.QueueNs;
  EXPECT_GT(QueueNs, 0.0);
  // The co-run can only slow stream 0 down relative to its solo finish.
  EXPECT_GE(Duo.CaeMax.Cores[0].FinishNs, Solo.CaeMax.Cores[0].FinishNs);
}

TEST(MultiCoreDeterminism, MixValidation) {
  MachineConfig Cfg;
  Cfg.NumCores = 2;
  GenerationMemo Memo;
  MixConfig MC;
  MC.Memo = &Memo;
  std::vector<workloads::Workload *> Empty;
  EXPECT_THROW(runMix(Empty, Cfg, MC), std::invalid_argument);

  auto A = workloads::buildByName("libq", workloads::Scale::Test);
  auto B = workloads::buildByName("fft", workloads::Scale::Test);
  auto C = workloads::buildByName("cg", workloads::Scale::Test);
  std::vector<workloads::Workload *> TooMany = {A.get(), B.get(), C.get()};
  EXPECT_THROW(runMix(TooMany, Cfg, MC), std::invalid_argument);
}

TEST(MultiCoreDeterminism, InterleaveRejectsBadStreams) {
  MachineConfig Cfg;
  TimelineConfig TC;
  EXPECT_THROW(interleaveTimeline({}, Cfg, TC), std::invalid_argument);
}

// --- Reactive governor dynamics (runtime/Evaluator.h) ---------------------

TEST(GovernorState, OndemandJumpsToMaxUnderLoad) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, /*Core=*/0, /*Conservative=*/false, P);
  EXPECT_EQ(G.frequency(), Cfg.fminOf(0));
  // One full window of >80% utilization: ondemand pins fmax immediately.
  double WindowNs = P.SampleUs * 1000.0;
  G.account(/*ComputeNs=*/0.95 * WindowNs, /*WallNs=*/WindowNs);
  EXPECT_EQ(G.frequency(), Cfg.fmaxOf(0));
}

TEST(GovernorState, OndemandScalesProportionallyWhenIdle) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, 0, false, P);
  double WindowNs = P.SampleUs * 1000.0;
  // 40% utilization: target = 0.4 * fmax / 0.8 = fmax / 2, rounded up to a
  // ladder rung (cpufreq CPUFREQ_RELATION_L).
  G.account(0.4 * WindowNs, WindowNs);
  double Target = 0.4 * Cfg.fmaxOf(0) / P.UpThreshold;
  EXPECT_EQ(G.frequency(), Cfg.rungAtOrAbove(0, Target));
  EXPECT_LT(G.frequency(), Cfg.fmaxOf(0));
}

TEST(GovernorState, ConservativeStepsOneRungAtATime) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, 0, /*Conservative=*/true, P);
  const std::vector<double> &L = Cfg.ladder(0);
  ASSERT_GE(L.size(), 3u);
  EXPECT_EQ(G.frequency(), L.front());
  double WindowNs = P.SampleUs * 1000.0;
  // Saturated windows climb exactly one rung each.
  G.account(WindowNs, WindowNs);
  EXPECT_EQ(G.frequency(), L[1]);
  G.account(WindowNs, WindowNs);
  EXPECT_EQ(G.frequency(), L[2]);
  // Idle windows walk back down, never skipping.
  G.account(0.0, WindowNs);
  EXPECT_EQ(G.frequency(), L[1]);
  G.account(0.0, WindowNs);
  EXPECT_EQ(G.frequency(), L[0]);
  G.account(0.0, WindowNs);
  EXPECT_EQ(G.frequency(), L[0]);
}

TEST(GovernorState, SubWindowActivityAccumulates) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, 0, false, P);
  double WindowNs = P.SampleUs * 1000.0;
  // Half a window of full load: no decision yet.
  G.account(0.5 * WindowNs, 0.5 * WindowNs);
  EXPECT_EQ(G.frequency(), Cfg.fminOf(0));
  // Completing the window triggers the decision over the whole window.
  G.account(0.5 * WindowNs, 0.5 * WindowNs);
  EXPECT_EQ(G.frequency(), Cfg.fmaxOf(0));
}

TEST(GovernorState, PerCoreLaddersOnBigLittle) {
  MachineConfig Cfg;
  Cfg.makeBigLittle(/*NumBig=*/1, /*NumLittle=*/1);
  GovernorParams P;
  GovernorState Big(Cfg, 0, false, P);
  GovernorState Little(Cfg, 1, false, P);
  double WindowNs = P.SampleUs * 1000.0;
  Big.account(WindowNs, WindowNs);
  Little.account(WindowNs, WindowNs);
  EXPECT_EQ(Big.frequency(), Cfg.fmaxOf(0));
  EXPECT_EQ(Little.frequency(), Cfg.fmaxOf(1));
  EXPECT_GT(Big.frequency(), Little.frequency());
}

} // namespace
