//===- runtime/ReplayEngine.cpp - Single-timeline timing replay --------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ReplayEngine.h"

#include <algorithm>
#include <deque>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

ReplayEngine::ReplayEngine(const MachineConfig &Cfg, unsigned NumCores,
                           RunProfile &Profile, RunCapture *Capture,
                           const Task *TaskBase, RunTraces *Traces)
    : Cfg(Cfg), Costs(Cfg), Caches(Cfg, NumCores), Profile(Profile),
      Capture(Capture), TaskBase(TaskBase), Traces(Traces),
      LineShift(lineShiftOf(Cfg.L1.LineBytes)), CoreTimeNs(NumCores, 0.0) {}

void ReplayEngine::replayWave(unsigned WaveId,
                              const std::vector<const Task *> &WaveTasks,
                              std::vector<WaveResult> &Results,
                              const std::atomic<bool> *Ready) {
  const unsigned NumCores = static_cast<unsigned>(CoreTimeNs.size());
  std::vector<std::deque<std::size_t>> Queues(NumCores);
  for (std::size_t I = 0; I != WaveTasks.size(); ++I)
    Queues[I % NumCores].push_back(I);

  std::size_t Remaining = WaveTasks.size();
  while (Remaining > 0) {
    // The core with the smallest simulated time runs next. Ordering uses
    // fmax; the evaluator reprices per policy afterwards.
    unsigned Core = 0;
    for (unsigned C = 1; C != NumCores; ++C)
      if (CoreTimeNs[C] < CoreTimeNs[Core])
        Core = C;

    std::size_t Chosen;
    if (!Queues[Core].empty()) {
      Chosen = Queues[Core].front();
      Queues[Core].pop_front();
    } else {
      unsigned Victim = NumCores;
      for (unsigned C = 0; C != NumCores; ++C)
        if (!Queues[C].empty() &&
            (Victim == NumCores || Queues[C].size() > Queues[Victim].size()))
          Victim = C;
      if (Victim == NumCores)
        break;
      Chosen = Queues[Victim].back();
      Queues[Victim].pop_back();
    }

    if (Ready)
      Ready[Chosen].wait(false, std::memory_order_acquire);
    WaveResult &R = Results[Chosen];
    TaskCapture *Cap = nullptr;
    if (Capture) {
      // Original task index: WaveTasks holds pointers into Tasks.
      Cap = &Capture->Tasks[WaveTasks[Chosen] - TaskBase];
    }
    TaskProfile TP;
    TP.Core = Core;
    TP.Wave = WaveId;
    if (R.HasAccess) {
      TP.HasAccess = true;
      TP.Access = R.Access;
      if (Cap)
        Cap->HasAccess = true;
      replayTrace(R.AccessTr, Caches, Core, Costs, TP.Access,
                  Cap ? &Cap->Access : nullptr, LineShift);
    }
    TP.Execute = R.Execute;
    replayTrace(R.ExecTr, Caches, Core, Costs, TP.Execute,
                Cap ? &Cap->Execute : nullptr, LineShift);

    // Trace disposal: recycle to the pool right after replay (the default),
    // or retain for a later multi-core timeline interleave. Retention is
    // observational — the replay above already happened identically.
    if (Traces) {
      TaskTraces TT;
      TT.HasAccess = R.HasAccess;
      TT.FunctionalAccess = R.Access;
      TT.FunctionalExecute = R.Execute;
      TT.Access = std::move(R.AccessTr);
      TT.Execute = std::move(R.ExecTr);
      Traces->Tasks.push_back(std::move(TT));
      R.AccessTr = sim::AccessTrace();
      R.ExecTr = sim::AccessTrace();
    } else {
      if (R.HasAccess)
        R.AccessTr.releaseTo(TracePool::global());
      R.ExecTr.releaseTo(TracePool::global());
    }

    CoreTimeNs[Core] += TP.Access.timeNs(Cfg.fmax()) +
                        TP.Execute.timeNs(Cfg.fmax()) +
                        Profile.PerTaskOverheadCycles / Cfg.fmax();
    Profile.Tasks.push_back(std::move(TP));
    --Remaining;
  }

  // Barrier: every core advances to the wave's completion time.
  double WaveEnd = *std::max_element(CoreTimeNs.begin(), CoreTimeNs.end());
  for (double &T : CoreTimeNs)
    T = WaveEnd;
}
