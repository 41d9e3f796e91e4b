//===- runtime/Timeline.cpp - Multi-core contention timeline -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Timeline.h"

#include "runtime/Replay.h"
#include "sim/CacheSim.h"
#include "sim/PowerModel.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

/// One phase of one stream, flattened into interleave order: the retained
/// trace, the pre-replay functional stats (the frequency-scalable work), and
/// the post-replay *solo* stats the oracle policy prices from.
struct PhaseRef {
  const AccessTrace *Trace = nullptr;
  const PhaseStats *Functional = nullptr;
  const PhaseStats *Solo = nullptr;
  bool IsAccess = false;
  /// Runtime bookkeeping charged after the phase (execute phases only).
  double OverheadCycles = 0.0;
};

/// Per-core interleave state: a cursor over the stream's flattened phases
/// plus the accumulators of the phase currently in flight.
struct CoreState {
  std::vector<PhaseRef> Phases;
  std::size_t PhaseIdx = 0;
  std::size_t EventIdx = 0;
  bool InPhase = false;

  double ClockNs = 0.0;
  double FreqGHz = 0.0;        ///< Hardware frequency (last programmed).
  double PhaseFreqGHz = 0.0;   ///< Frequency of the phase in flight.
  double PhaseStartNs = 0.0;
  double PhaseQueueNs = 0.0;
  double PerEventCycles = 0.0; ///< Functional compute spread per event.
  PhaseStats Acc;              ///< Phase stats under contention.

  CoreTimelineReport Report;
};

} // namespace

TimelineReport runtime::interleaveTimeline(const std::vector<CoreStream> &Streams,
                                           const MachineConfig &Cfg,
                                           const TimelineConfig &TC) {
  if (Streams.empty() || Streams.size() > Cfg.NumCores)
    throw std::invalid_argument("timeline stream count must be in [1, NumCores]");

  const unsigned NumCores = static_cast<unsigned>(Streams.size());
  const double TransNs =
      TC.TransitionNs >= 0.0 ? TC.TransitionNs : Cfg.DvfsTransitionNs;
  const bool IsGovernor = TC.Policy == TimelinePolicy::Ondemand ||
                          TC.Policy == TimelinePolicy::Conservative;

  PowerModel PM(Cfg);
  ReplayCostModel Costs(Cfg);
  CacheHierarchy Caches(Cfg, NumCores);
  DramChannel Dram(Cfg.DramBandwidthGBs, Cfg.L1.LineBytes);

  std::vector<GovernorState> Governors;
  if (IsGovernor)
    for (unsigned C = 0; C != NumCores; ++C)
      Governors.emplace_back(Cfg, C,
                             TC.Policy == TimelinePolicy::Conservative,
                             TC.Governor);

  // Flatten every stream into phase order. Solo profiles come from a
  // NumCores=1 replay, so profile order == sequential execution order and is
  // index-aligned with the retained traces by the engine's contract.
  std::vector<CoreState> Cores(NumCores);
  for (unsigned C = 0; C != NumCores; ++C) {
    const CoreStream &S = Streams[C];
    assert(S.Solo && S.Traces && "stream missing solo artifacts");
    if (S.Solo->Tasks.size() != S.Traces->Tasks.size())
      throw std::invalid_argument("solo profile / retained traces mismatch");
    CoreState &CS = Cores[C];
    CS.FreqGHz = Cfg.fmaxOf(C);
    CS.Phases.reserve(S.Traces->Tasks.size() * 2);
    for (std::size_t T = 0; T != S.Traces->Tasks.size(); ++T) {
      const TaskTraces &TT = S.Traces->Tasks[T];
      const TaskProfile &TP = S.Solo->Tasks[T];
      if (TT.HasAccess) {
        PhaseRef P;
        P.Trace = &TT.Access;
        P.Functional = &TT.FunctionalAccess;
        P.Solo = &TP.Access;
        P.IsAccess = true;
        CS.Phases.push_back(P);
      }
      PhaseRef P;
      P.Trace = &TT.Execute;
      P.Functional = &TT.FunctionalExecute;
      P.Solo = &TP.Execute;
      P.OverheadCycles = S.Solo->PerTaskOverheadCycles;
      CS.Phases.push_back(P);
    }
  }

  // Runtime bookkeeping stats (see Evaluator.cpp): same work per task, only
  // the pricing frequency varies.
  auto OverheadStats = [](double Cycles) {
    PhaseStats S;
    S.ComputeCycles = Cycles;
    S.Instructions = static_cast<std::uint64_t>(Cycles);
    return S;
  };

  // The frequency the policy picks for phase P on core C. Every case
  // returns; a policy added without one aborts instead of pricing phases at
  // an uninitialised frequency.
  auto PolicyFrequency = [&](unsigned C, const PhaseRef &P) -> double {
    switch (TC.Policy) {
    case TimelinePolicy::FixedMax:
      return Cfg.fmaxOf(C);
    case TimelinePolicy::DaeMinMax:
      return P.IsAccess ? Cfg.fminOf(C) : Cfg.fmaxOf(C);
    case TimelinePolicy::OracleEdp:
      return bestEdpFrequency(*P.Solo, Cfg, PM, C);
    case TimelinePolicy::Ondemand:
    case TimelinePolicy::Conservative:
      return Governors[C].frequency();
    }
    std::abort();
  };

  // Opens the next phase on core C: pick the policy frequency, pay the DVFS
  // transition if it changed, and spread the phase's functional compute
  // across its trace events.
  auto StartPhase = [&](unsigned C) {
    CoreState &CS = Cores[C];
    const PhaseRef &P = CS.Phases[CS.PhaseIdx];
    const double F = PolicyFrequency(C, P);
    if (std::abs(CS.FreqGHz - F) > 1e-9) {
      ++CS.Report.Transitions;
      if (TransNs > 0.0) {
        CS.ClockNs += TransNs;
        CS.Report.EnergyJ += PM.staticPowerPerCore(C, F) * TransNs * 1e-9;
      }
      CS.FreqGHz = F;
    }
    CS.PhaseFreqGHz = F;
    CS.PhaseStartNs = CS.ClockNs;
    CS.PhaseQueueNs = 0.0;
    CS.Acc = *P.Functional;
    std::size_t N = P.Trace->size();
    CS.PerEventCycles = N ? P.Functional->ComputeCycles / static_cast<double>(N)
                          : 0.0;
    CS.EventIdx = 0;
    CS.InPhase = true;
  };

  // Closes the phase in flight on core C: zero-event phases charge their
  // whole compute as one slice, then the phase's energy is priced over its
  // actual (contention-inflated) wall time, task overhead is appended after
  // execute phases, and the governor window observes the phase.
  auto FinishPhase = [&](unsigned C) {
    CoreState &CS = Cores[C];
    const PhaseRef &P = CS.Phases[CS.PhaseIdx];
    const double F = CS.PhaseFreqGHz;
    if (P.Trace->empty())
      CS.ClockNs += CS.Acc.ComputeCycles / F;
    double TimeNs = CS.ClockNs - CS.PhaseStartNs;
    if (TimeNs > 0.0) {
      double Ipc = static_cast<double>(CS.Acc.Instructions) / (TimeNs * F);
      CS.Report.EnergyJ += (PM.dynamicPower(C, F, Ipc) +
                            PM.staticPowerPerCore(C, F)) *
                           TimeNs * 1e-9;
    }
    CS.Report.ComputeNs += CS.Acc.ComputeCycles / F;
    CS.Report.StallNs += CS.Acc.StallNs;
    CS.Report.QueueNs += CS.PhaseQueueNs;
    CS.Report.Total += CS.Acc;

    double BusyNs = TimeNs;
    double ComputeNs = CS.Acc.ComputeCycles / F;
    if (P.OverheadCycles > 0.0) {
      double OverheadNs = P.OverheadCycles / F;
      CS.ClockNs += OverheadNs;
      CS.Report.EnergyJ += PM.phaseEnergy(C, OverheadStats(P.OverheadCycles), F);
      BusyNs += OverheadNs;
      ComputeNs += OverheadNs;
    }
    if (IsGovernor)
      Governors[C].account(ComputeNs, BusyNs);

    CS.InPhase = false;
    ++CS.PhaseIdx;
  };

  // Advances core C by one event through the shared hierarchy. Per-event
  // cost mirrors the solo replay loop (runtime/Replay.cpp) with the phase's
  // compute spread on top; DRAM misses additionally queue on the channel.
  auto StepEvent = [&](unsigned C) {
    CoreState &CS = Cores[C];
    const PhaseRef &P = CS.Phases[CS.PhaseIdx];
    const std::uint64_t Event = P.Trace->events()[CS.EventIdx];
    const unsigned Kind = static_cast<unsigned>(Event >> 62);
    const std::uint64_t Addr =
        (Event & AccessTrace::AddrMask) + Streams[C].AddrBias;
    HitLevel Level = Caches.access(C, Addr);
    unsigned Idx = Kind * 4 + static_cast<unsigned>(Level);
    assert(Idx < 12 && "unknown access kind");
    CS.Acc.ComputeCycles += Costs.CycleAdd[Idx];
    CS.Acc.StallNs += Costs.StallAdd[Idx];
    // Demand hits count per level; prefetch hits are free and uncounted, but
    // prefetch DRAM fills do count as memory accesses (see Replay.cpp).
    if (Kind != 2) {
      switch (Level) {
      case HitLevel::L1:
        ++CS.Acc.L1Hits;
        break;
      case HitLevel::L2:
        ++CS.Acc.L2Hits;
        break;
      case HitLevel::LLC:
        ++CS.Acc.LLCHits;
        break;
      case HitLevel::Memory:
        ++CS.Acc.MemAccesses;
        break;
      }
    } else if (Level == HitLevel::Memory) {
      ++CS.Acc.MemAccesses;
    }

    double Dt = (CS.PerEventCycles + Costs.CycleAdd[Idx]) / CS.PhaseFreqGHz +
                Costs.StallAdd[Idx];
    if (Level == HitLevel::Memory) {
      double Q = Dram.requestLine(CS.ClockNs);
      Dt += Q;
      CS.PhaseQueueNs += Q;
      ++CS.Report.DramMisses;
      // The hardware next-line prefetcher's fill rides the channel too; it
      // runs in the miss's shadow, so it occupies bandwidth without adding
      // to this core's stall.
      if (Cfg.HwNextLinePrefetch && Kind != 2)
        Dram.requestLine(CS.ClockNs);
    }
    CS.ClockNs += Dt;
    ++CS.EventIdx;
    if (CS.EventIdx == P.Trace->size())
      FinishPhase(C);
  };

  // The interleave proper: always advance the unfinished core with the
  // smallest clock (ties break toward the lowest index). One step is one
  // trace event — or one phase boundary for empty traces — so co-runners'
  // events hit the shared LLC and DRAM channel in global-timestamp order.
  for (;;) {
    unsigned Core = NumCores;
    for (unsigned C = 0; C != NumCores; ++C) {
      if (!Cores[C].InPhase && Cores[C].PhaseIdx == Cores[C].Phases.size())
        continue;
      if (Core == NumCores || Cores[C].ClockNs < Cores[Core].ClockNs)
        Core = C;
    }
    if (Core == NumCores)
      break;
    CoreState &CS = Cores[Core];
    if (!CS.InPhase) {
      StartPhase(Core);
      if (CS.Phases[CS.PhaseIdx].Trace->empty())
        FinishPhase(Core);
      continue;
    }
    StepEvent(Core);
  }

  TimelineReport R;
  R.Cores.resize(NumCores);
  for (unsigned C = 0; C != NumCores; ++C) {
    Cores[C].Report.FinishNs = Cores[C].ClockNs;
    R.Cores[C] = Cores[C].Report;
    R.MakespanNs = std::max(R.MakespanNs, Cores[C].ClockNs);
  }
  double Energy = 0.0;
  for (unsigned C = 0; C != NumCores; ++C) {
    Energy += R.Cores[C].EnergyJ;
    // Early finishers sleep until the slowest co-runner completes.
    Energy +=
        PM.sleepPowerPerCore(C) * (R.MakespanNs - R.Cores[C].FinishNs) * 1e-9;
  }
  Energy += PM.uncorePower() * R.MakespanNs * 1e-9;
  R.EnergyJ = Energy;
  R.EdpJs = R.MakespanNs * 1e-9 * R.EnergyJ;
  return R;
}
