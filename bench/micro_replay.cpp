//===- bench/micro_replay.cpp - Trace replay microbenchmarks ----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the cache-timing replay hot loop
/// (runtime/Replay.h) — the sequential half of the simulation engine and the
/// stage the pipelined wave overlap hides. Events/s here bound how fast any
/// simulation can retire its timing pass, so this is the number to watch
/// when touching Cache::access or the replay fast path. Patterns:
///
///  * Sequential: a streaming load walk (same-line fast path + next-line
///    hardware prefetcher — the best case).
///  * Random: an LCG-scattered load stream over an LLC-exceeding footprint
///    (tag scans + evictions dominate — the worst case).
///  * Mixed: interleaved load/store/prefetch, the shape real DAE task traces
///    have.
///  * MixedCapture: Mixed with oracle capture enabled, bounding the cost the
///    --dae-verify differential adds per event.
///  * RealTraces: the seven paper programs' test-scale traces (CAE and
///    Manual-DAE schemes), recorded once in memory by TaskRuntime::execute
///    and re-replayed in each run's schedule order through fresh
///    hierarchies. Every replayed phase must reproduce the run's profile bit
///    for bit; any mismatch fails the benchmark and the exit code.
///
//===----------------------------------------------------------------------===//

#include "runtime/Replay.h"
#include "runtime/Runtime.h"
#include "sim/CacheSim.h"
#include "sim/MachineConfig.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <vector>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

constexpr std::size_t NumEvents = 1 << 18;

/// A streaming load walk touching every 8th byte of a large footprint.
AccessTrace sequentialTrace() {
  AccessTrace Tr;
  for (std::size_t I = 0; I != NumEvents; ++I)
    Tr.push(AccessTrace::Kind::Load, 0x10000 + I * 8);
  return Tr;
}

/// LCG-scattered loads over a footprint several times the LLC.
AccessTrace randomTrace() {
  AccessTrace Tr;
  std::uint64_t X = 0x2545F4914F6CDD1Dull;
  for (std::size_t I = 0; I != NumEvents; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Tr.push(AccessTrace::Kind::Load, 0x10000 + ((X >> 20) & 0x1FFFFF8ull));
  }
  return Tr;
}

/// Prefetch/load/store interleave over strided lines (DAE task shape).
AccessTrace mixedTrace() {
  AccessTrace Tr;
  for (std::size_t I = 0; I != NumEvents / 3; ++I) {
    std::uint64_t Addr = 0x10000 + (I * 192) % (1 << 22);
    Tr.push(AccessTrace::Kind::Prefetch, Addr);
    Tr.push(AccessTrace::Kind::Load, Addr);
    Tr.push(AccessTrace::Kind::Store, Addr + 64);
  }
  return Tr;
}

void benchReplay(benchmark::State &State, const AccessTrace &Tr,
                 bool WithCapture) {
  MachineConfig Cfg;
  ReplayCostModel Costs(Cfg);
  CacheHierarchy Caches(Cfg, Cfg.NumCores);
  unsigned LineShift = lineShiftOf(Cfg.L1.LineBytes);
  for (auto _ : State) {
    State.PauseTiming();
    Caches.flush();
    PhaseStats S;
    PhaseCapture Cap;
    State.ResumeTiming();
    replayTrace(Tr, Caches, /*Core=*/0, Costs, S,
                WithCapture ? &Cap : nullptr, LineShift);
    benchmark::DoNotOptimize(S.StallNs);
    benchmark::DoNotOptimize(S.L1Hits);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Tr.size()));
}

void BM_ReplaySequential(benchmark::State &State) {
  benchReplay(State, sequentialTrace(), /*WithCapture=*/false);
}
BENCHMARK(BM_ReplaySequential)->Unit(benchmark::kMillisecond);

void BM_ReplayRandom(benchmark::State &State) {
  benchReplay(State, randomTrace(), /*WithCapture=*/false);
}
BENCHMARK(BM_ReplayRandom)->Unit(benchmark::kMillisecond);

void BM_ReplayMixed(benchmark::State &State) {
  benchReplay(State, mixedTrace(), /*WithCapture=*/false);
}
BENCHMARK(BM_ReplayMixed)->Unit(benchmark::kMillisecond);

void BM_ReplayMixedCapture(benchmark::State &State) {
  benchReplay(State, mixedTrace(), /*WithCapture=*/true);
}
BENCHMARK(BM_ReplayMixedCapture)->Unit(benchmark::kMillisecond);

/// One simulated run with its traces retained.
struct RecordedRun {
  RunProfile Profile;
  RunTraces Traces;
};

/// CAE and Manual-DAE runs of the seven paper programs at test scale.
const std::vector<RecordedRun> &realRuns() {
  static const std::vector<RecordedRun> Runs = [] {
    std::vector<RecordedRun> Rs;
    MachineConfig Cfg;
    for (auto &W : workloads::buildAll(workloads::Scale::Test)) {
      Loader L(*W->M);
      for (bool Manual : {false, true}) {
        std::vector<Task> Tasks = W->Tasks;
        for (Task &T : Tasks) {
          auto It = W->ManualAccess.find(T.Execute);
          T.Access =
              Manual && It != W->ManualAccess.end() ? It->second : nullptr;
        }
        Memory Mem;
        W->Init(Mem, L);
        TaskRuntime RT(Cfg, Mem, L);
        RecordedRun R;
        R.Profile = RT.execute(Tasks, /*RunAccess=*/true, nullptr, &R.Traces);
        Rs.push_back(std::move(R));
      }
    }
    return Rs;
  }();
  return Runs;
}

/// Phases whose re-replayed stats differed from their run's profile.
std::uint64_t RealTraceMismatches = 0;

/// Replays \p Tr on top of the phase's functional stats \p S and counts a
/// mismatch unless the result equals \p Expected bit for bit.
void replayPhase(const AccessTrace &Tr, PhaseStats S,
                 const PhaseStats &Expected, CacheHierarchy &Caches,
                 unsigned Core, const ReplayCostModel &Costs,
                 unsigned LineShift, std::uint64_t &Events) {
  replayTrace(Tr, Caches, Core, Costs, S, nullptr, LineShift);
  benchmark::DoNotOptimize(S);
  RealTraceMismatches += std::memcmp(&S, &Expected, sizeof(S)) != 0;
  Events += Tr.size();
}

void BM_ReplayRealTraces(benchmark::State &State) {
  const std::vector<RecordedRun> &Runs = realRuns();
  MachineConfig Cfg;
  ReplayCostModel Costs(Cfg);
  unsigned LineShift = lineShiftOf(Cfg.L1.LineBytes);
  std::uint64_t Events = 0;
  for (auto _ : State) {
    for (const RecordedRun &R : Runs) {
      CacheHierarchy Caches(Cfg, R.Profile.NumCores);
      RealTraceMismatches += R.Traces.Tasks.size() != R.Profile.Tasks.size();
      for (std::size_t I = 0;
           I != R.Traces.Tasks.size() && I != R.Profile.Tasks.size(); ++I) {
        const TaskTraces &T = R.Traces.Tasks[I];
        const TaskProfile &TP = R.Profile.Tasks[I];
        if (T.HasAccess)
          replayPhase(T.Access, T.FunctionalAccess, TP.Access, Caches,
                      TP.Core, Costs, LineShift, Events);
        replayPhase(T.Execute, T.FunctionalExecute, TP.Execute, Caches,
                    TP.Core, Costs, LineShift, Events);
      }
    }
  }
  if (RealTraceMismatches)
    State.SkipWithError("re-replayed stats differ from the recorded profile");
  State.SetItemsProcessed(static_cast<std::int64_t>(Events));
}
BENCHMARK(BM_ReplayRealTraces)->Unit(benchmark::kMillisecond);

} // namespace

int main(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RealTraceMismatches == 0 ? 0 : 1;
}
