//===- perfbench/cpp/PaperSuite.cpp - The paper_suite workload ------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The Figure 3 reproduction users run: harness::runSuite over the seven
// paper programs at full scale, all three schemes, on 2 jobs x 1 sim thread,
// then harness::priceFig3 at 500 ns and 0 ns. One operation is one such
// pass. The programs are fixed inputs, so the seed does not change them.
//
// The traced run times one untraced pass, then drives the same pipeline
// step by step through public functions (generation through a
// GenerationMemo, TaskRuntime::execute per scheme on a JobPool of the same
// width) so every layer gets its own span. Its profiles must fingerprint
// equal to the untraced pass's, and re-replaying each run's retained traces
// through runtime::replayTrace must reproduce the profile bit for bit.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "harness/JobPool.h"
#include "runtime/Replay.h"
#include "sim/AccessTrace.h"
#include "sim/CacheSim.h"
#include "support/MathUtil.h"

#include <cstdio>
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

using namespace dae;
using namespace perfbench;

namespace {

using WorkloadSet = std::vector<std::unique_ptr<workloads::Workload>>;

constexpr unsigned Jobs = 2;
constexpr unsigned SimThreads = 1;
const double TransitionsNs[2] = {500.0, 0.0};

struct PassOutcome {
  double WallS = 0.0;
  std::uint64_t Instructions = 0;
  double AutoOptEdp = 0.0;  ///< Geomean, 500 ns, normalized to CAE @ fmax.
  double AutoOptTime = 0.0; ///< Same, time.
  unsigned PriceCalls = 0;  ///< priceFig3 calls.
  double PoolS = 0.0; ///< Traced pass: first submit to Pool.wait().
  /// Traced pass: worker time in the pool phase outside any job.
  double PoolIdleS = 0.0;
  std::uint64_t Fingerprint = 0;
  std::vector<std::string> Mismatched; ///< Programs whose outputs differ.
};

void fnvMix(std::uint64_t &H, const void *Data, std::size_t N) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
}

static_assert(sizeof(sim::PhaseStats) == 10 * 8,
              "PhaseStats is compared and hashed as raw bytes");

bool sameStats(const sim::PhaseStats &A, const sim::PhaseStats &B) {
  return std::memcmp(&A, &B, sizeof(A)) == 0;
}

/// Folds one program's simulated results into \p H: every task profile of
/// the three schemes (host timings excluded) and the output bytes.
void fingerprintApp(std::uint64_t &H, const std::string &Name,
                    const runtime::RunProfile *const Profiles[3],
                    const std::vector<std::uint8_t> *const Outputs[3]) {
  fnvMix(H, Name.data(), Name.size());
  for (int S = 0; S != 3; ++S) {
    fnvMix(H, &Profiles[S]->NumCores, sizeof(unsigned));
    for (const runtime::TaskProfile &T : Profiles[S]->Tasks) {
      fnvMix(H, &T.Access, sizeof(T.Access));
      fnvMix(H, &T.Execute, sizeof(T.Execute));
      fnvMix(H, &T.Core, sizeof(T.Core));
      fnvMix(H, &T.Wave, sizeof(T.Wave));
      fnvMix(H, &T.HasAccess, sizeof(T.HasAccess));
    }
    fnvMix(H, Outputs[S]->data(), Outputs[S]->size());
  }
}

std::uint64_t instructionsOf(const runtime::RunProfile &P) {
  return P.totalAccess().Instructions + P.totalExecute().Instructions;
}

sim::MachineConfig suiteConfig() {
  sim::MachineConfig Cfg;
  Cfg.SimThreads = SimThreads;
  return Cfg;
}

/// Figure 3 pricing of one pass; the geomean Auto DAE Optimal-f bars at
/// 500 ns land in \p Out.
void priceFig3Pass(const std::vector<harness::AppResult> &Results,
                   const sim::MachineConfig &Cfg, PassOutcome &Out) {
  Scope S("runtime.price");
  for (double Ns : TransitionsNs) {
    std::vector<double> Edp, Time;
    for (const harness::AppResult &R : Results) {
      harness::Fig3Row Row = harness::priceFig3(R, Cfg, Ns);
      ++Out.PriceCalls;
      Time.push_back(Row.AutoOpt[0]);
      Edp.push_back(Row.AutoOpt[2]);
    }
    if (Ns == 500.0) {
      Out.AutoOptEdp = geometricMean(Edp);
      Out.AutoOptTime = geometricMean(Time);
    }
  }
}

/// One pass the way users run it.
PassOutcome untracedPass(WorkloadSet &Ws) {
  sim::MachineConfig Cfg = suiteConfig();
  std::vector<harness::SuiteItem> Items;
  for (auto &W : Ws)
    Items.push_back({W.get(), nullptr});
  GenerationMemo Memo;
  harness::SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.SimThreads = SimThreads;
  SC.Memo = &Memo;

  PassOutcome Out;
  auto T0 = Clock::now();
  std::vector<harness::AppResult> Results = harness::runSuite(Items, Cfg, SC);
  priceFig3Pass(Results, Cfg, Out);
  Out.WallS = secondsSince(T0);

  Out.Fingerprint = 0xcbf29ce484222325ull;
  for (const harness::AppResult &R : Results) {
    if (!R.OutputsMatch)
      Out.Mismatched.push_back(R.Name);
    Out.Instructions += instructionsOf(R.Cae) + instructionsOf(R.Manual) +
                        instructionsOf(R.Auto);
    const runtime::RunProfile *P[3] = {&R.Cae, &R.Manual, &R.Auto};
    const std::vector<std::uint8_t> *B[3] = {&R.CaeOutputs, &R.ManualOutputs,
                                             &R.AutoOutputs};
    fingerprintApp(Out.Fingerprint, R.Name, P, B);
  }
  return Out;
}

/// Per-layer totals of the traced pass.
struct Ledger {
  std::mutex M;
  double FunctionalS = 0.0;
  std::uint64_t FunctionalInstr = 0;
  double ReplayS = 0.0;
  std::uint64_t ReplayEvents = 0;
  std::uint64_t ReplayMismatches = 0;
  double QueueWaitS = 0.0;
  GenTally Gen; ///< Guarded by the traced pass's generation mutex.
};

std::vector<std::uint8_t> snapshotOutputs(const workloads::Workload &W,
                                          sim::Memory &Mem,
                                          const sim::Loader &L) {
  std::vector<std::uint8_t> Bytes;
  for (std::size_t G = 0; G != W.OutputGlobals.size(); ++G) {
    std::uint64_t Base = L.baseOf(W.OutputGlobals[G]);
    for (std::uint64_t Off = 0; Off != W.OutputSizes[G]; Off += 8) {
      std::int64_t V = Mem.loadI64(Base + Off);
      for (int B = 0; B != 8; ++B)
        Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * B)));
    }
  }
  return Bytes;
}

/// Re-replays a run's retained traces, in its schedule order, through a
/// fresh hierarchy; counts phases whose stats differ from \p P. The traces
/// go back to the TracePool afterwards, as the runtime itself does.
std::uint64_t rereplay(const runtime::RunProfile &P, runtime::RunTraces &Tr,
                       const sim::MachineConfig &Cfg, std::uint64_t &Events) {
  sim::CacheHierarchy Caches(Cfg, P.NumCores);
  runtime::ReplayCostModel Costs(Cfg);
  unsigned Shift = sim::lineShiftOf(Cfg.L1.LineBytes);
  std::uint64_t Mismatches = Tr.Tasks.size() == P.Tasks.size() ? 0 : 1;
  for (std::size_t I = 0; I != Tr.Tasks.size() && I != P.Tasks.size(); ++I) {
    runtime::TaskTraces &T = Tr.Tasks[I];
    const runtime::TaskProfile &TP = P.Tasks[I];
    if (T.HasAccess) {
      sim::PhaseStats S = T.FunctionalAccess;
      runtime::replayTrace(T.Access, Caches, TP.Core, Costs, S, nullptr,
                           Shift);
      Mismatches += !sameStats(S, TP.Access);
      Events += T.Access.size();
      T.Access.releaseTo(sim::TracePool::global());
    }
    sim::PhaseStats S = T.FunctionalExecute;
    runtime::replayTrace(T.Execute, Caches, TP.Core, Costs, S, nullptr, Shift);
    Mismatches += !sameStats(S, TP.Execute);
    Events += T.Execute.size();
    T.Execute.releaseTo(sim::TracePool::global());
  }
  return Mismatches;
}

/// Re-replays finished runs' traces on a thread of its own, so the
/// measurement neither lengthens the pool's jobs (and with them the pass's
/// critical path) nor retains more traces than the runs waiting for it.
class ReplayMeasurer {
public:
  ReplayMeasurer(const sim::MachineConfig &Cfg, Ledger &L)
      : Cfg(Cfg), L(L), Worker([this] { loop(); }) {}
  ~ReplayMeasurer() { finish(); }
  ReplayMeasurer(const ReplayMeasurer &) = delete;
  ReplayMeasurer &operator=(const ReplayMeasurer &) = delete;

  /// Queues \p P's traces; \p P must stay alive until finish() returns.
  void push(const runtime::RunProfile &P, runtime::RunTraces Tr,
            std::uint64_t Request) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Queue.push_back({&P, std::move(Tr), Request});
    }
    CV.notify_one();
  }

  /// Returns once every queued run is measured.
  void finish() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Done = true;
    }
    CV.notify_one();
    if (Worker.joinable())
      Worker.join();
  }

private:
  struct Item {
    const runtime::RunProfile *P;
    runtime::RunTraces Tr;
    std::uint64_t Request;
  };

  void loop() {
    Tracer &Tr = Tracer::get();
    Tr.nameTrack("replay-measure");
    for (;;) {
      Item I;
      {
        std::unique_lock<std::mutex> Lock(M);
        CV.wait(Lock, [this] { return !Queue.empty() || Done; });
        if (Queue.empty())
          return;
        I = std::move(Queue.front());
        Queue.pop_front();
      }
      Tr.setRequest(I.Request);
      std::uint64_t Events = 0, Mismatches;
      auto T0 = Clock::now();
      {
        Scope S("measure.replay");
        Mismatches = rereplay(*I.P, I.Tr, Cfg, Events);
      }
      double ReplayS = secondsSince(T0);
      std::lock_guard<std::mutex> Lock(L.M);
      L.ReplayS += ReplayS;
      L.ReplayEvents += Events;
      L.ReplayMismatches += Mismatches;
    }
  }

  const sim::MachineConfig Cfg;
  Ledger &L;
  std::mutex M;
  std::condition_variable CV;
  std::deque<Item> Queue;
  bool Done = false;
  std::thread Worker; ///< Last: starts once the members above exist.
};

/// The traced pass: runSuite's pipeline driven one layer call at a time.
PassOutcome tracedPass(WorkloadSet &Ws, Ledger &L) {
  Tracer &Tr = Tracer::get();
  harness::JobPool Pool(Jobs, SimThreads);
  sim::MachineConfig Cfg = suiteConfig();
  Cfg.SimThreads = Pool.simThreadsPerJob();
  GenerationMemo Memo;
  ReplayMeasurer Measurer(Cfg, L);
  // Generation is ~0.2% of the pass; serializing it lets GenTally tell each
  // call's memo hit from its miss.
  std::mutex GenMutex;

  struct AppSlot {
    workloads::Workload *W = nullptr;
    std::vector<runtime::Task> SchemeTasks[3];
    std::unique_ptr<sim::Loader> Loader;
    runtime::RunProfile Profiles[3];
    std::vector<std::uint8_t> Outputs[3];
  };
  std::vector<AppSlot> Slots(Ws.size());

  auto Submit = [&](std::uint64_t Request, std::int64_t Parent, auto Fn) {
    double SubmitUs = Tr.nowUs();
    Pool.submit([&, Request, Parent, SubmitUs, Fn] {
      double WaitS = (Tr.nowUs() - SubmitUs) * 1e-6;
      {
        std::lock_guard<std::mutex> Lock(L.M);
        L.QueueWaitS += WaitS;
      }
      Tr.nameTrack("jobpool-worker");
      Tr.setRequest(Request);
      Fn(Parent);
    });
  };

  auto RunScheme = [&](AppSlot &S, int Sch, std::uint64_t Request,
                       std::int64_t Parent) {
    Scope Job("harness.scheme", Parent);
    sim::Memory Mem;
    {
      Scope Init("workloads.init");
      S.W->Init(Mem, *S.Loader);
    }
    runtime::TaskRuntime RT(Cfg, Mem, *S.Loader);
    runtime::RunTraces Traces;
    {
      Scope Exec("runtime.execute");
      S.Profiles[Sch] =
          RT.execute(S.SchemeTasks[Sch], /*RunAccess=*/true, nullptr, &Traces);
    }
    {
      Scope Snap("harness.outputs");
      S.Outputs[Sch] = snapshotOutputs(*S.W, Mem, *S.Loader);
    }
    Measurer.push(S.Profiles[Sch], std::move(Traces), Request);
    std::lock_guard<std::mutex> Lock(L.M);
    L.FunctionalS += S.Profiles[Sch].FunctionalSeconds;
    L.FunctionalInstr += instructionsOf(S.Profiles[Sch]);
  };

  auto Prepare = [&](AppSlot &S, std::uint64_t Request) {
    Scope Job("harness.prepare", -1);
    workloads::Workload &W = *S.W;
    pm::FunctionAnalysisManager FAM;
    std::map<const ir::Function *, const ir::Function *> AutoAccess;
    for (ir::Function *F : W.taskFunctions()) {
      std::lock_guard<std::mutex> GenLock(GenMutex);
      AccessPhaseResult G = L.Gen.generate(Memo, *W.M, *F, W.Opts, FAM);
      if (G.AccessFn)
        AutoAccess[F] = G.AccessFn;
    }
    for (auto &List : S.SchemeTasks)
      List = W.Tasks;
    for (std::size_t I = 0; I != W.Tasks.size(); ++I) {
      S.SchemeTasks[0][I].Access = nullptr;
      auto MIt = W.ManualAccess.find(W.Tasks[I].Execute);
      S.SchemeTasks[1][I].Access =
          MIt == W.ManualAccess.end() ? nullptr : MIt->second;
      auto AIt = AutoAccess.find(W.Tasks[I].Execute);
      S.SchemeTasks[2][I].Access =
          AIt == AutoAccess.end() ? nullptr : AIt->second;
    }
    S.Loader = std::make_unique<sim::Loader>(*W.M);
    for (int Sch = 0; Sch != 3; ++Sch)
      Submit(Request, Job.id(),
             [&RunScheme, &S, Sch, Request](std::int64_t Parent) {
               RunScheme(S, Sch, Request, Parent);
             });
  };

  PassOutcome Out;
  auto T0 = Clock::now();
  for (std::size_t I = 0; I != Ws.size(); ++I) {
    Slots[I].W = Ws[I].get();
    Submit(I + 1, -1, [&Prepare, &Slots, I](std::int64_t) {
      Prepare(Slots[I], I + 1);
    });
  }
  Pool.wait();
  Out.PoolS = secondsSince(T0);
  // Jobs do not nest on a worker: a prepare job ends once it has submitted
  // its scheme jobs.
  double JobS = 0.0;
  for (const Span &Sp : Tr.spans())
    if (Sp.Name == "harness.prepare" || Sp.Name == "harness.scheme")
      JobS += (Sp.EndUs - Sp.StartUs) * 1e-6;
  Out.PoolIdleS = std::max(0.0, Jobs * Out.PoolS - JobS);
  auto Drain0 = Clock::now();
  Measurer.finish();
  double DrainS = secondsSince(Drain0);

  std::vector<harness::AppResult> Results(Slots.size());
  Out.Fingerprint = 0xcbf29ce484222325ull;
  for (std::size_t I = 0; I != Slots.size(); ++I) {
    AppSlot &S = Slots[I];
    harness::AppResult &R = Results[I];
    R.Name = S.W->Name;
    R.Cae = S.Profiles[0];
    R.Manual = S.Profiles[1];
    R.Auto = S.Profiles[2];
    if (S.Outputs[0] != S.Outputs[1] || S.Outputs[0] != S.Outputs[2])
      Out.Mismatched.push_back(R.Name);
    const runtime::RunProfile *P[3] = {&S.Profiles[0], &S.Profiles[1],
                                       &S.Profiles[2]};
    const std::vector<std::uint8_t> *B[3] = {&S.Outputs[0], &S.Outputs[1],
                                             &S.Outputs[2]};
    fingerprintApp(Out.Fingerprint, R.Name, P, B);
    Out.Instructions += instructionsOf(R.Cae) + instructionsOf(R.Manual) +
                        instructionsOf(R.Auto);
  }
  Tr.nameTrack("main");
  priceFig3Pass(Results, Cfg, Out);
  Out.WallS = secondsSince(T0) - DrainS;
  return Out;
}

WorkloadSet buildSet() {
  Scope S("workloads.build");
  return workloads::buildAll(workloads::Scale::Full);
}

/// Runs the suite once at test scale, so lazily built state (the job pool's
/// threads, the trace pool, code caches) exists before the timed passes.
void warmUp() {
  WorkloadSet Ws = workloads::buildAll(workloads::Scale::Test);
  std::vector<harness::SuiteItem> Items;
  for (auto &W : Ws)
    Items.push_back({W.get(), nullptr});
  harness::SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.SimThreads = SimThreads;
  harness::runSuite(Items, suiteConfig(), SC);
}

void checkPass(RunOutcome &R, const PassOutcome &P, std::uint64_t Expected,
               const char *What) {
  ++R.Attempted;
  bool Ok = true;
  for (const std::string &Name : P.Mismatched) {
    R.fail(std::string(What) + ": " + Name + " outputs differ across schemes");
    Ok = false;
  }
  if (P.Fingerprint != Expected) {
    R.fail(std::string(What) + ": profile fingerprint differs from the "
                               "first untraced pass");
    Ok = false;
  }
  R.Failed += !Ok;
}

} // namespace

RunOutcome perfbench::runPaperSuite(const Options &O) {
  RunOutcome R;
  std::fprintf(stderr, "perfbench: paper_suite uses the seven fixed paper "
                       "programs; the seed does not change its inputs\n");

  // Set-up, five times, reporting the median: build a workload set (a pass
  // consumes its set, since generation adds the access phases to the
  // modules) and warm the process with a test-scale suite pass.
  std::deque<WorkloadSet> Ready;
  std::vector<double> SetupTimes, BuildTimes;
  for (int I = 0; I != 5; ++I) {
    auto T0 = Clock::now();
    Ready.push_back(buildSet());
    BuildTimes.push_back(secondsSince(T0));
    warmUp();
    SetupTimes.push_back(secondsSince(T0));
  }
  double SetupS = median(SetupTimes);
  auto NextSet = [&Ready] {
    if (Ready.empty())
      return buildSet();
    WorkloadSet W = std::move(Ready.front());
    Ready.pop_front();
    return W;
  };

  // A run has few passes, so each reading is the median of three gauge runs
  // to keep the gauge's own jitter out of every pass's ratio.
  GaugedOps Ops(3);
  if (!O.Trace) {
    RssWindows Rss;
    double MeasuredS = 0.0;
    std::uint64_t Expected = 0;
    Ops.tick();
    while (Ops.opMs().empty() || MeasuredS < O.Seconds) {
      WorkloadSet Ws = NextSet();
      Rss.restart();
      PassOutcome P = untracedPass(Ws);
      Rss.cut();
      if (Ops.opMs().empty())
        Expected = P.Fingerprint;
      checkPass(R, P, Expected, "paper_suite pass");
      std::fprintf(stderr, "perfbench: pass %zu: %.3f s, %.2f Minstr/s\n",
                   Ops.opMs().size() + 1, P.WallS,
                   static_cast<double>(P.Instructions) / P.WallS / 1e6);
      Ops.record(P.WallS * 1e3);
      Ops.tick();
      MeasuredS += P.WallS;
    }
    addOpMetrics(R, Ops, MeasuredS, SetupS, Rss);
    return R;
  }

  // Traced run: one untraced pass for reference, then the traced pass.
  WorkloadSet Ws = NextSet();
  RssWindows Rss;
  Ops.tick();
  PassOutcome Plain = untracedPass(Ws);
  Rss.cut();
  Ops.record(Plain.WallS * 1e3);
  Ops.tick();
  checkPass(R, Plain, Plain.Fingerprint, "untraced pass");
  addOpMetrics(R, Ops, Plain.WallS, SetupS, Rss);

  WorkloadSet TracedWs = NextSet();
  Ledger L;
  PmSnapshot Pm0 = PmSnapshot::take();
  Tracer &Tr = Tracer::get();
  Tr.clear();
  Tr.setEnabled(true);
  PassOutcome Traced = tracedPass(TracedWs, L);
  Tr.setEnabled(false);
  checkPass(R, Traced, Plain.Fingerprint, "traced pass");
  if (L.ReplayMismatches)
    R.fail(std::to_string(L.ReplayMismatches) +
           " re-replayed phases differ from their profile");

  auto &M = R.Metrics;
  double PmPassS = addPmMetrics(M, Pm0, PmSnapshot::take());
  L.Gen.addMetrics(M);

  // Layer self times. Execute splits into the functional pass (timed by the
  // runtime), replay (timed by re-replaying the same traces) and the rest
  // (scheduling, compiling the task program, trace hand-off).
  std::map<std::string, double> Self = Tr.selfSeconds();
  double MeasureS = Self["measure.replay"];
  Self.erase("measure.replay");
  double ExecS = Self["runtime.execute"];
  Self.erase("runtime.execute");
  Self["sim.functional"] = L.FunctionalS;
  // The re-replay runs on its own thread alongside the pool and can take a
  // few percent longer than the in-run replay; in the table it is capped at
  // what execute leaves after the functional pass.
  double ReplayInRunS =
      std::min(L.ReplayS, std::max(0.0, ExecS - L.FunctionalS));
  Self["runtime.replay"] = ReplayInRunS;
  Self["runtime.sched"] = ExecS - L.FunctionalS - ReplayInRunS;
  Self["pm.pass"] = PmPassS;
  Self["dae.generate"] -= PmPassS;
  Self["harness.pool_idle"] = Traced.PoolIdleS;

  // Capacity: both workers for the whole pool phase, then the pricing on
  // the main thread. A worker idling while the other runs the pass's last
  // job is the pool's idle layer. The replay measurement runs on a track of
  // its own and is not part of the pass.
  double CapacityS = Jobs * Traced.PoolS + (Traced.WallS - Traced.PoolS);
  double Covered = 0.0;
  for (const auto &[Name, S] : Self)
    Covered += S;
  printLayerShares(Self, CapacityS);

  double OverheadS = Traced.WallS - Plain.WallS;
  std::fprintf(stderr,
               "perfbench: untraced pass %.3f s, traced pass %.3f s "
               "(tracing overhead %.3f s; re-replaying the traces on a "
               "separate thread took %.3f s)\n",
               Plain.WallS, Traced.WallS, OverheadS, MeasureS);

  M["sim_mips"] = static_cast<double>(Plain.Instructions) / Plain.WallS / 1e6;
  M["auto_opt_edp"] = Plain.AutoOptEdp;
  M["auto_opt_time"] = Plain.AutoOptTime;
  M["fail_ratio"] =
      static_cast<double>(R.Failed) / static_cast<double>(R.Attempted);
  M["workloads.build_s"] = median(BuildTimes);
  M["workloads.init_s"] = Self["workloads.init"];
  M["sim.functional_s"] = L.FunctionalS;
  M["sim.functional_mips"] =
      L.FunctionalS > 0.0
          ? static_cast<double>(L.FunctionalInstr) / L.FunctionalS / 1e6
          : 0.0;
  M["runtime.replay_s"] = L.ReplayS;
  M["runtime.replay_events"] = static_cast<double>(L.ReplayEvents);
  M["runtime.replay_mev_per_s"] =
      L.ReplayS > 0.0 ? static_cast<double>(L.ReplayEvents) / L.ReplayS / 1e6
                      : 0.0;
  M["runtime.replay_mismatches"] = static_cast<double>(L.ReplayMismatches);
  M["runtime.sched_s"] = Self["runtime.sched"];
  M["harness.queue_wait_s"] = L.QueueWaitS;
  M["harness.pool_idle_s"] = Traced.PoolIdleS;
  M["runtime.price_s"] = Self["runtime.price"];
  M["runtime.price_calls"] = Traced.PriceCalls;
  M["trace.peak_bytes"] =
      static_cast<double>(sim::TracePool::global().peakBytes());
  M["trace.wall_s"] = Traced.WallS;
  M["trace.overhead_s"] = OverheadS;
  M["trace.coverage"] = CapacityS > 0.0 ? Covered / CapacityS : 0.0;
  return R;
}
