//===- runtime/ReplayEngine.h - Single-timeline timing replay ---*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timing half of the simulation engine, extracted from the task runtime
/// so the multi-core contention timeline (runtime/Timeline.h) can build on
/// the same seam. All state the replay mutates — cache hierarchy, per-core
/// clocks, the profile's task order, the oracle capture, the retained-trace
/// log — lives here and is only ever touched by one thread at a time: the
/// caller when replay is inline, the dedicated replay thread when the
/// pipeline is active (see Runtime.cpp and DESIGN.md, "Pipelined replay").
/// Pipelined, the replay streams task by task: a wave is handed over before
/// its functional pass has finished, and the schedule waits on the ready
/// flag of each task it picks. The wait changes only when a task replays in
/// host time, never which task or in what order — the schedule reads
/// simulated clocks alone — and it always ends, because the functional pass
/// that raises the flags never waits on the replay.
///
/// The engine replays one run's waves in order: the exact greedy min-time /
/// steal-from-longest-queue schedule picks tasks, and each chosen task's
/// traces stream through the per-core L1/L2 + shared LLC in schedule order,
/// so profiles are bit-identical for any host thread count. Task traces
/// replay atomically (the hierarchy is private to the run); interleaving
/// *across* runs at event granularity is the multi-core timeline's job.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_RUNTIME_REPLAYENGINE_H
#define DAECC_RUNTIME_REPLAYENGINE_H

#include "runtime/Replay.h"
#include "runtime/Runtime.h"
#include "sim/AccessTrace.h"
#include "sim/CacheSim.h"

#include <atomic>
#include <vector>

namespace dae {
namespace runtime {

/// One task's functional-pass output, waiting for its timing replay.
struct WaveResult {
  bool HasAccess = false;
  sim::PhaseStats Access, Execute;
  sim::AccessTrace AccessTr, ExecTr;
};

/// Greedy schedule + trace replay over one run's private hierarchy.
class ReplayEngine {
public:
  /// \p Profile receives one TaskProfile per replayed task, in schedule
  /// order. \p Capture (optional) collects per-phase line/miss sets at L1
  /// line granularity. \p Traces (optional) retains every task's traces and
  /// functional stats, index-aligned with Profile.Tasks. \p TaskBase anchors
  /// capture indexing (WaveTasks holds pointers into the original array).
  ReplayEngine(const sim::MachineConfig &Cfg, unsigned NumCores,
               RunProfile &Profile, RunCapture *Capture, const Task *TaskBase,
               RunTraces *Traces = nullptr);

  /// Replays one wave. Waves must be replayed in ascending order. With
  /// \p Ready (one flag per task), the wave may still be executing: the
  /// schedule waits for each chosen task's flag before reading its result.
  void replayWave(unsigned WaveId, const std::vector<const Task *> &WaveTasks,
                  std::vector<WaveResult> &Results,
                  const std::atomic<bool> *Ready = nullptr);

private:
  const sim::MachineConfig &Cfg;
  ReplayCostModel Costs;
  sim::CacheHierarchy Caches;
  RunProfile &Profile;
  RunCapture *Capture;
  const Task *TaskBase;
  RunTraces *Traces;
  unsigned LineShift;
  std::vector<double> CoreTimeNs;
};

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_REPLAYENGINE_H
