//===- runtime/Runtime.cpp - DAE task runtime --------------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The host-parallel simulation engine. Each dependency wave runs in two
// passes that together reproduce the sequential engine's profile exactly:
//
//  1. Functional pass — every task of the wave executes (values + recorded
//     access trace) on a pool of host worker threads, each owning a private
//     tracing Interpreter. Same-wave tasks are independent by the runtime's
//     contract, so their memory effects commute and execution order does not
//     matter.
//  2. Timing pass — single-threaded. The exact greedy min-time /
//     steal-from-longest-queue schedule of the original engine picks tasks,
//     and each chosen task's traces are replayed through the per-core L1/L2
//     and shared LLC in schedule order (runtime/Replay.h). Hit/miss outcomes
//     therefore never depend on host interleaving: profiles are bit-identical
//     for any --sim-threads value, including 1.
//
// The two passes are pipelined task by task (MachineConfig::ReplayOverlap):
// each wave is published to a slot before its functional pass starts, each
// task raises its own ready flag (release) once its traces are recorded,
// and a dedicated replay thread runs the wave's schedule meanwhile, waiting
// (acquire) on the flag of each task it picks. This is legal because
// functional execution depends only on prior waves' *memory* effects, never
// on timing, and all timing state — cache hierarchy, per-core clocks,
// profile order — is owned by the replay thread; the schedule and every add
// are the sequential engine's. It cannot deadlock: the producer never waits
// on the replay during a functional pass. Two alternating slots bound a run
// to one wave replayed and one produced, at every SimThreads count (up to
// SimThreads + 1 runnable threads); ReplayOverlap = false keeps the
// thread-free reference.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "ir/Function.h"
#include "runtime/ReplayEngine.h"
#include "sim/AccessTrace.h"
#include "sim/Interpreter.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

/// A reusable fork-join pool: run(Count, Fn) hands out indices [0, Count)
/// to Workers host threads, the caller participating as worker 0. Threads
/// are spawned once and parked between waves.
class WorkerPool {
public:
  explicit WorkerPool(unsigned Workers) : Workers(std::max(1u, Workers)) {
    for (unsigned W = 1; W != this->Workers; ++W)
      Threads.emplace_back([this, W] { workerLoop(W); });
  }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Quit = true;
      ++Generation;
    }
    Wake.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  unsigned workers() const { return Workers; }

  /// Runs Fn(Index, Worker) for every Index in [0, Count). Returns when all
  /// indices have completed. Fn must be safe to call concurrently for
  /// distinct indices.
  void run(std::size_t Count,
           const std::function<void(std::size_t, unsigned)> &Fn) {
    if (Count == 0)
      return;
    if (Workers == 1 || Count == 1) {
      for (std::size_t I = 0; I != Count; ++I)
        Fn(I, 0);
      return;
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      Job = &Fn;
      JobCount = Count;
      Next.store(0, std::memory_order_relaxed);
      Active = Workers - 1;
      ++Generation;
    }
    Wake.notify_all();
    drain(Fn, Count, 0);
    std::unique_lock<std::mutex> Lock(M);
    Done.wait(Lock, [this] { return Active == 0; });
    Job = nullptr;
  }

private:
  void drain(const std::function<void(std::size_t, unsigned)> &Fn,
             std::size_t Count, unsigned Worker) {
    for (;;) {
      std::size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Count)
        return;
      Fn(I, Worker);
    }
  }

  void workerLoop(unsigned Worker) {
    std::uint64_t SeenGeneration = 0;
    for (;;) {
      const std::function<void(std::size_t, unsigned)> *Fn;
      std::size_t Count;
      {
        std::unique_lock<std::mutex> Lock(M);
        Wake.wait(Lock, [&] { return Generation != SeenGeneration; });
        SeenGeneration = Generation;
        if (Quit)
          return;
        Fn = Job;
        Count = JobCount;
      }
      drain(*Fn, Count, Worker);
      {
        std::lock_guard<std::mutex> Lock(M);
        if (--Active == 0)
          Done.notify_one();
      }
    }
  }

  unsigned Workers;
  std::vector<std::thread> Threads;
  std::mutex M;
  std::condition_variable Wake, Done;
  std::uint64_t Generation = 0;
  bool Quit = false;
  const std::function<void(std::size_t, unsigned)> *Job = nullptr;
  std::size_t JobCount = 0;
  std::atomic<std::size_t> Next{0};
  unsigned Active = 0;
};

} // namespace

TaskRuntime::TaskRuntime(const MachineConfig &Cfg, Memory &Mem,
                         const sim::Loader &L)
    : Cfg(Cfg), Mem(Mem), Loader(L) {}

RunProfile TaskRuntime::execute(const std::vector<Task> &Tasks, bool RunAccess,
                                RunCapture *Capture, RunTraces *Traces) {
  const unsigned NumCores = Cfg.NumCores;

  if (Capture) {
    // Capture granularity is the (validated) L1 line size — the same
    // granularity the cache model indexes sets with, so oracle lines and
    // simulated lines can never disagree.
    Capture->LineBytes = Cfg.L1.LineBytes;
    Capture->Tasks.assign(Tasks.size(), TaskCapture());
  }

  // Compile every task function (and transitive callees) up front; the
  // program is read-only from here on and shared by all workers.
  CompiledProgram Program(Cfg, Loader);
  for (const Task &T : Tasks) {
    Program.add(*T.Execute);
    if (T.Access)
      Program.add(*T.Access);
  }

  WorkerPool Pool(Cfg.SimThreads);
  std::vector<std::unique_ptr<Interpreter>> Interps;
  Interps.reserve(Pool.workers());
  for (unsigned W = 0; W != Pool.workers(); ++W)
    Interps.push_back(
        std::make_unique<Interpreter>(Cfg, Mem, Loader, &Program));

  RunProfile Profile;
  Profile.NumCores = NumCores;
  Profile.Tasks.reserve(Tasks.size());

  // Group into dependency waves; the runtime barriers between them.
  std::map<unsigned, std::vector<const Task *>> Waves;
  for (const Task &T : Tasks)
    Waves[T.Wave].push_back(&T);

  ReplayEngine Replay(Cfg, NumCores, Profile, Capture, Tasks.data(), Traces);

  // Functional pass of one wave into \p Results (already sized), in
  // parallel across the pool: compute values and record access traces for
  // every task, raising the task's \p Ready flag, if any, as soon as its
  // result is complete. Wall-clock time is accumulated into the profile's
  // FunctionalSeconds so the bench drivers can report per-backend functional
  // throughput; RunFunctional is only ever called from this thread, so a
  // plain accumulator suffices.
  double FunctionalSecs = 0.0;
  auto RunFunctional = [&](const std::vector<const Task *> &WaveTasks,
                           std::vector<WaveResult> &Results,
                           std::atomic<bool> *Ready) {
    auto Start = std::chrono::steady_clock::now();
    Pool.run(WaveTasks.size(), [&](std::size_t I, unsigned Worker) {
      const Task &T = *WaveTasks[I];
      WaveResult &R = Results[I];
      Interpreter &Interp = *Interps[Worker];
      if (RunAccess && T.Access) {
        R.HasAccess = true;
        R.AccessTr.acquireFrom(TracePool::global());
        R.Access = Interp.runTraced(*T.Access, T.Args, R.AccessTr);
      }
      R.ExecTr.acquireFrom(TracePool::global());
      R.Execute = Interp.runTraced(*T.Execute, T.Args, R.ExecTr);
      if (Ready) {
        Ready[I].store(true, std::memory_order_release);
        Ready[I].notify_one();
      }
    });
    FunctionalSecs +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
            .count();
  };

  if (!Cfg.ReplayOverlap) {
    std::vector<WaveResult> Results;
    for (auto &[WaveId, WaveTasks] : Waves) {
      Results.clear();
      Results.resize(WaveTasks.size());
      RunFunctional(WaveTasks, Results, nullptr);
      Replay.replayWave(WaveId, WaveTasks, Results);
    }
  } else {
    // Two wave slots alternate between the producer (this thread: functional
    // pass) and the consumer (replay thread). A slot is published before its
    // wave's functional pass, and its per-task Ready flags hand each result
    // across; the replay thread visits slots in the same alternating order,
    // so waves replay strictly in order. The mutex orders slot reuse.
    struct WaveSlot {
      unsigned WaveId = 0;
      const std::vector<const Task *> *WaveTasks = nullptr;
      std::vector<WaveResult> Results;
      std::vector<std::atomic<bool>> Ready;
      bool Full = false;
    };
    WaveSlot Slots[2];
    std::mutex M;
    std::condition_variable SlotFull, SlotEmpty;
    bool NoMoreWaves = false;

    std::thread Replayer([&] {
      unsigned S = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> Lock(M);
          SlotFull.wait(Lock,
                        [&] { return Slots[S].Full || NoMoreWaves; });
          if (!Slots[S].Full)
            return; // NoMoreWaves and nothing pending in order.
        }
        Replay.replayWave(Slots[S].WaveId, *Slots[S].WaveTasks,
                          Slots[S].Results, Slots[S].Ready.data());
        {
          std::lock_guard<std::mutex> Lock(M);
          Slots[S].Full = false;
        }
        SlotEmpty.notify_one();
        S ^= 1;
      }
    });

    unsigned S = 0;
    for (auto &[WaveId, WaveTasks] : Waves) {
      WaveSlot &Slot = Slots[S];
      {
        std::unique_lock<std::mutex> Lock(M);
        SlotEmpty.wait(Lock, [&] { return !Slot.Full; });
        Slot.WaveId = WaveId;
        Slot.WaveTasks = &WaveTasks;
        Slot.Results.clear();
        Slot.Results.resize(WaveTasks.size());
        Slot.Ready = std::vector<std::atomic<bool>>(WaveTasks.size());
        Slot.Full = true;
      }
      SlotFull.notify_one();
      RunFunctional(WaveTasks, Slot.Results, Slot.Ready.data());
      S ^= 1;
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      NoMoreWaves = true;
    }
    SlotFull.notify_one();
    Replayer.join();
  }
  assert(Profile.Tasks.size() == Tasks.size() && "lost tasks");
  Profile.FunctionalSeconds = FunctionalSecs;

  if (Capture) {
    for (TaskCapture &TC : Capture->Tasks) {
      for (PhaseCapture *PC : {&TC.Access, &TC.Execute}) {
        std::sort(PC->Lines.begin(), PC->Lines.end());
        PC->Lines.erase(std::unique(PC->Lines.begin(), PC->Lines.end()),
                        PC->Lines.end());
      }
    }
  }
  return Profile;
}
