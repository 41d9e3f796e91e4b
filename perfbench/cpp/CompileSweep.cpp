//===- perfbench/cpp/CompileSweep.cpp - The compile_sweep workload --------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The compiler's own compile time, as a generator-knob ablation exercises
// it: each of the seven programs (test-scale build) gets its access phases
// generated under a seeded set of distinct DaeOptions variants, through one
// GenerationMemo per pass, and verify::auditAccessPhase checks every
// generated phase. Nothing is simulated. One operation is one pass: every
// (program, variant) compiled once through a fresh memo, each compile being
// the generation of every task function plus the audits; building the
// pass's inputs is not part of it. Most single compiles are answered from
// the memo (see NOTES.md), so a compile's median would hide the generation
// work a pass contains. Each pass draws its own variants and compile order
// from the seed, so a run's median pass spans many draws of the knob space
// rather than resting on one. The memo hit ratio is a property of the knob
// space, not of run length. Single-threaded.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"
#include "Trace.h"

#include "dae/GenerationMemo.h"
#include "verify/AccessPhaseAudit.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <memory>
#include <optional>

using namespace dae;
using namespace perfbench;

namespace {

/// Knob variants per pass; a pass is 7 x this many compiles.
constexpr std::size_t VariantsPerPass = 128;

struct Compile {
  unsigned Program;
  unsigned Variant;
};

/// Inputs of one pass: a fresh workload per compile, since generation adds
/// the access phase to the workload's module.
using PassInputs = std::vector<std::unique_ptr<workloads::Workload>>;

struct Totals {
  std::uint64_t Compiles = 0, FailedCompiles = 0, Violations = 0;
  /// Compiles whose every generate call was a memo hit.
  std::uint64_t AllHitCompiles = 0;
  GenTally Gen;
  double AuditS = 0.0;
};

/// One pass: its knob variants and its compile order.
class Sweep {
public:
  /// Pass \p Pass of the run seeded \p Seed.
  Sweep(std::uint64_t Seed, unsigned Pass)
      : Variants(knobVariants(Seed * 0x100000001b3ull + Pass,
                              VariantsPerPass)) {
    for (unsigned P = 0; P != 7; ++P)
      for (unsigned V = 0; V != Variants.size(); ++V)
        Order.push_back({P, V});
    Rng R((Seed * 0x100000001b3ull + Pass) ^ 0x73776565ull);
    for (std::size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
  }

  PassInputs build() const {
    PassInputs In;
    for (const Compile &C : Order)
      In.push_back(workloads::buildByName(ProgramNames[C.Program],
                                          workloads::Scale::Test));
    return In;
  }

  /// Runs one pass over \p In; appends each compile's latency to
  /// \p CompileMs.
  void run(PassInputs &In, std::vector<double> &CompileMs, Totals &T) const {
    GenerationMemo Memo;
    for (std::size_t I = 0; I != Order.size(); ++I) {
      workloads::Workload &W = *In[I];
      DaeOptions Opts = W.Opts;
      Variants[Order[I].Variant].applyTo(Opts);
      auto T0 = Clock::now();
      compile(W, Opts, Memo, T);
      CompileMs.push_back(secondsSince(T0) * 1e3);
    }
  }

private:
  void compile(workloads::Workload &W, const DaeOptions &Opts,
               GenerationMemo &Memo, Totals &T) const {
    Scope Op("compile.op");
    pm::FunctionAnalysisManager FAM;
    std::vector<ir::Function *> Generated;
    std::uint64_t Hits0 = Memo.stats().Hits, Calls = 0;
    for (ir::Function *F : W.taskFunctions()) {
      AccessPhaseResult G = T.Gen.generate(Memo, *W.M, *F, Opts, FAM);
      ++Calls;
      if (G.AccessFn)
        Generated.push_back(G.AccessFn);
    }
    T.AllHitCompiles += Memo.stats().Hits - Hits0 == Calls;
    auto T0 = Clock::now();
    std::size_t Violations = 0;
    for (ir::Function *A : Generated) {
      Scope S("verify.audit");
      Violations += verify::auditAccessPhase(*A, FAM).Violations.size();
    }
    T.AuditS += secondsSince(T0);
    T.Violations += Violations;
    T.FailedCompiles += Violations != 0;
    ++T.Compiles;
  }

  std::vector<KnobVariant> Variants;
  std::vector<Compile> Order;
};

/// Latencies of a run's passes and of their single compiles.
struct Samples {
  std::vector<double> PassMs, CompileMs;
};

/// Runs passes 0, 1, ... of the run seeded \p Seed until \p Seconds of wall
/// time (builds and gauge readings included) have gone by, or exactly
/// \p Passes passes when it is non-zero. With \p Gauge, the host gauge is
/// read before the first pass and after each one.
unsigned runPasses(std::uint64_t Seed, double Seconds, unsigned Passes,
                   Samples &Out, Totals &T, RssWindows &Rss,
                   GaugedOps *Gauge) {
  auto T0 = Clock::now();
  unsigned Done = 0;
  if (Gauge)
    Gauge->tick();
  while (Passes ? Done < Passes : (Done == 0 || secondsSince(T0) < Seconds)) {
    std::optional<Sweep> Sw;
    PassInputs In;
    {
      // Constructing the pass, the first sizeable allocation after the
      // previous pass's inputs were freed, takes ~65 ms (the allocator
      // consolidating those frees); it is input handling, not compiling.
      Scope S("workloads.build");
      Sw.emplace(Seed, Done);
      In = Sw->build();
    }
    Rss.restart();
    auto P0 = Clock::now();
    Sw->run(In, Out.CompileMs, T);
    Out.PassMs.push_back(secondsSince(P0) * 1e3);
    Rss.cut();
    if (Gauge) {
      Gauge->record(Out.PassMs.back());
      Gauge->tick();
    }
    {
      Scope S("workloads.destroy");
      In.clear();
    }
    ++Done;
  }
  return Done;
}

double sumSeconds(const std::vector<double> &Ms) {
  double S = 0.0;
  for (double V : Ms)
    S += V * 1e-3;
  return S;
}

void checkTotals(RunOutcome &R, const Totals &T) {
  R.Attempted += T.Compiles;
  R.Failed += T.FailedCompiles;
  if (T.Violations)
    R.fail(std::to_string(T.Violations) +
           " audit violations in generated access phases");
  std::fprintf(stderr,
               "perfbench: %llu compiles, %.1f%% of them answered wholly "
               "from the memo\n",
               static_cast<unsigned long long>(T.Compiles),
               T.Compiles ? 100.0 * static_cast<double>(T.AllHitCompiles) /
                                static_cast<double>(T.Compiles)
                          : 0.0);
}

} // namespace

RunOutcome perfbench::runCompileSweep(const Options &O) {
  RunOutcome R;

  // Set-up, three times, reporting the median: build the first pass's
  // inputs and run that pass untimed, so lazily built state exists before
  // timing.
  Sweep Sw(O.Seed, 0);
  std::vector<double> SetupTimes;
  for (int I = 0; I != 3; ++I) {
    auto T0 = Clock::now();
    PassInputs In = Sw.build();
    std::vector<double> WarmMs;
    Totals Warm;
    Sw.run(In, WarmMs, Warm);
    SetupTimes.push_back(secondsSince(T0));
  }
  double SetupS = median(SetupTimes);

  if (!O.Trace) {
    Samples S;
    Totals T;
    RssWindows Rss;
    GaugedOps Ops;
    runPasses(O.Seed, O.Seconds, 0, S, T, Rss, &Ops);
    checkTotals(R, T);
    // Single-threaded: throughput over the time spent compiling.
    addOpMetrics(R, Ops, sumSeconds(S.PassMs), SetupS, Rss);
    return R;
  }

  // Traced run: untraced passes for half the time, then as many traced ones.
  Samples Plain;
  Totals PlainTotals;
  RssWindows Rss;
  GaugedOps Ops;
  unsigned Passes =
      runPasses(O.Seed, O.Seconds / 2, 0, Plain, PlainTotals, Rss, &Ops);
  checkTotals(R, PlainTotals);
  double PlainCompileS = sumSeconds(Plain.PassMs);
  addOpMetrics(R, Ops, PlainCompileS, SetupS, Rss);

  PmSnapshot Pm0 = PmSnapshot::take();
  Tracer &Tr = Tracer::get();
  Tr.clear();
  Tr.setEnabled(true);
  Tr.nameTrack("main");
  Samples TracedSamples;
  Totals Traced;
  auto TT0 = Clock::now();
  RssWindows TracedRss;
  runPasses(O.Seed, 0.0, Passes, TracedSamples, Traced, TracedRss, nullptr);
  double TracedWallS = secondsSince(TT0);
  Tr.setEnabled(false);
  checkTotals(R, Traced);
  auto &M = R.Metrics;
  double PmPassS = addPmMetrics(M, Pm0, PmSnapshot::take());
  Traced.Gen.addMetrics(M);

  std::map<std::string, double> Self = Tr.selfSeconds();
  double OpSelfS = Self["compile.op"];
  Self.erase("compile.op");
  Self["pm.pass"] = PmPassS;
  Self["dae.generate"] -= PmPassS;
  double Covered = 0.0;
  for (const auto &[Name, S] : Self)
    Covered += S;
  printLayerShares(Self, TracedWallS);
  double TracedCompileS = sumSeconds(TracedSamples.PassMs);
  std::fprintf(stderr,
               "perfbench: %u passes each: untraced compiles %.3f s, traced "
               "compiles %.3f s (tracing overhead %.3f s); unattributed "
               "compile bookkeeping %.4f s\n",
               Passes, PlainCompileS, TracedCompileS,
               TracedCompileS - PlainCompileS, OpSelfS);

  M["compiles_per_s"] =
      static_cast<double>(Plain.CompileMs.size()) / PlainCompileS;
  M["compile_p50_ms"] = percentile(Plain.CompileMs, 50.0);
  M["compile_p99_ms"] = percentile(Plain.CompileMs, 99.0);
  M["fail_ratio"] =
      static_cast<double>(R.Failed) / static_cast<double>(R.Attempted);
  M["workloads.build_s"] = Self["workloads.build"];
  M["verify.audit_s"] = Traced.AuditS;
  M["verify.audit_violations"] = static_cast<double>(Traced.Violations);
  M["trace.wall_s"] = TracedWallS;
  M["trace.overhead_s"] = TracedCompileS - PlainCompileS;
  M["trace.coverage"] = TracedWallS > 0.0 ? Covered / TracedWallS : 0.0;
  return R;
}
