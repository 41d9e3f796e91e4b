//===- bench/fig3_dae_vs_cae.cpp - Reproduces Figure 3 ---------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 3 of the paper: execution time (a), energy (b), and
/// EDP (c), normalized to coupled execution (CAE) at maximum frequency, for
/// five configurations — CAE with the Optimal-f policy, Manual DAE and
/// Compiler (Auto) DAE each with Min/Max-f and Optimal-f — per application
/// plus the geometric mean, at the 500 ns DVFS transition latency of current
/// hardware. Also prints the 0 ns "ideal future hardware" comparison of
/// section 6.1.
///
/// Paper headlines to match in shape:
///  * Auto DAE Optimal-f improves EDP by ~25% geomean (500 ns), ~29% (0 ns);
///    Manual DAE ~23% / ~25% — Auto beats Manual by a few points.
///  * DAE preserves performance (<~5% time penalty at 500 ns); CAE Optimal-f
///    saves energy but pays time.
///  * Memory-bound apps (LibQ, Cigar) gain the most EDP (up to ~50%).
///  * LBM: coupled execution's EDP gain exceeds the decoupled one.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ServeUtil.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "support/MathUtil.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace dae;
using namespace dae::bench;
using namespace dae::harness;

namespace {

void printPanel(const char *Title, const std::vector<Fig3Row> &Rows,
                int Metric) {
  std::printf("\n(%s) normalized to CAE @ max frequency\n", Title);
  std::printf("%-10s %10s %12s %12s %12s %12s\n", "App", "CAE(Opt)",
              "Man(MinMax)", "Man(Opt)", "Auto(MinMax)", "Auto(Opt)");
  printRule();
  std::vector<double> G[5];
  for (const Fig3Row &R : Rows) {
    std::printf("%-10s %10.3f %12.3f %12.3f %12.3f %12.3f\n", R.Name.c_str(),
                R.CaeOpt[Metric], R.ManualMinMax[Metric], R.ManualOpt[Metric],
                R.AutoMinMax[Metric], R.AutoOpt[Metric]);
    G[0].push_back(R.CaeOpt[Metric]);
    G[1].push_back(R.ManualMinMax[Metric]);
    G[2].push_back(R.ManualOpt[Metric]);
    G[3].push_back(R.AutoMinMax[Metric]);
    G[4].push_back(R.AutoOpt[Metric]);
  }
  printRule();
  std::printf("%-10s %10.3f %12.3f %12.3f %12.3f %12.3f\n", "G.Mean",
              geometricMean(G[0]), geometricMean(G[1]), geometricMean(G[2]),
              geometricMean(G[3]), geometricMean(G[4]));
}

/// Wall clock of one suite run like the main one (same jobs and sim
/// threads, fresh workloads and memo) with the pipelined replay disabled.
double timeNoOverlapRun(workloads::Scale S, sim::MachineConfig Cfg,
                        unsigned Jobs) {
  auto Workloads = workloads::buildAll(S);
  std::vector<SuiteItem> Items;
  for (auto &W : Workloads)
    Items.push_back({W.get(), nullptr});
  GenerationMemo Memo;
  Cfg.ReplayOverlap = false;
  SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.SimThreads = Cfg.SimThreads;
  SC.Memo = &Memo;
  auto T0 = std::chrono::steady_clock::now();
  runSuite(Items, Cfg, SC);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  if (Opts.Serve)
    return serveMain(Opts, "fig3_dae_vs_cae");
  workloads::Scale S = Opts.Scale;
  sim::MachineConfig Cfg = Opts.machineConfig();
  unsigned Jobs = Opts.Jobs;
  const bool PassStats = Opts.PassStats;
  const bool DaeVerify = Opts.DaeVerify;
  const bool DaeProfileGuided = Opts.DaeProfileGuided;
  const bool NoBaseline = Opts.NoBaseline;
  const bool MeasureBaseline = Opts.measureBaseline();

  std::printf("Figure 3: DAE vs regular task execution "
              "(quad-core, 500 ns DVFS transitions)\n");

  ThroughputReporter Throughput("fig3_dae_vs_cae", Cfg.SimThreads, Jobs);
  Throughput.setReplayOverlap(Cfg.ReplayOverlap);
  Throughput.setBackend(Cfg.Backend);
  auto Workloads = workloads::buildAll(S);
  std::vector<SuiteItem> Items;
  for (auto &W : Workloads)
    Items.push_back({W.get(), nullptr});

  GenerationMemo Memo;
  SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.SimThreads = Cfg.SimThreads;
  SC.Memo = &Memo;
  SC.DaeVerify = DaeVerify;
  SC.DaeProfileGuided = DaeProfileGuided;

  // Overlap-off reference for the replay_overlap speedup field, timed once
  // before the main run and once after it and averaged, so neither run
  // order nor warm process state (JIT code cache, trace pool) favours one
  // side. Only meaningful when the main run overlaps, which it does unless
  // --no-replay-overlap; skipped together with the jobs baseline via
  // --no-baseline.
  const bool MeasureNoOverlap = Cfg.ReplayOverlap && !NoBaseline;
  double NoOverlapSecs = MeasureNoOverlap ? timeNoOverlapRun(S, Cfg, Jobs) : 0;

  Throughput.start();
  std::vector<AppResult> Results = runSuite(Items, Cfg, SC);
  Throughput.stop();
  for (const AppResult &R : Results) {
    if (!R.OutputsMatch) {
      std::printf("WARNING: %s outputs differ across schemes!\n",
                  R.Name.c_str());
      Throughput.noteFailure();
    }
    Throughput.add(R.Cae);
    Throughput.add(R.Manual);
    Throughput.add(R.Auto);
    Throughput.addDaeVerify(R.Name, "manual", R.ManualVerify);
    Throughput.addDaeVerify(R.Name, "auto", R.AutoVerify);
    Throughput.addDaePg(R.Name, R.AutoPg);
  }

  // Sequential reference for the recorded speedup (skipped via
  // --no-baseline; same sim-thread request, fresh workloads and memo).
  if (MeasureBaseline) {
    auto BaseWorkloads = workloads::buildAll(S);
    std::vector<SuiteItem> BaseItems;
    for (auto &W : BaseWorkloads)
      BaseItems.push_back({W.get(), nullptr});
    GenerationMemo BaseMemo;
    SuiteConfig BaseSC;
    BaseSC.Jobs = 1;
    BaseSC.SimThreads = Cfg.SimThreads;
    BaseSC.Memo = &BaseMemo;
    auto T0 = std::chrono::steady_clock::now();
    std::vector<AppResult> BaseResults = runSuite(BaseItems, Cfg, BaseSC);
    auto T1 = std::chrono::steady_clock::now();
    Throughput.setBaseline(std::chrono::duration<double>(T1 - T0).count());
    (void)BaseResults;
  }

  if (MeasureNoOverlap)
    Throughput.setNoOverlapBaseline(
        (NoOverlapSecs + timeNoOverlapRun(S, Cfg, Jobs)) / 2.0);

  for (double Latency : {500.0, 0.0}) {
    std::printf("\n================ transition latency: %.0f ns "
                "================\n",
                Latency);
    std::vector<Fig3Row> Rows;
    for (const AppResult &R : Results)
      Rows.push_back(priceFig3(R, Cfg, Latency));
    printPanel("a: Time", Rows, 0);
    printPanel("b: Energy", Rows, 1);
    printPanel("c: EDP", Rows, 2);

    std::vector<double> ManOptEdp, AutoOptEdp;
    for (const Fig3Row &R : Rows) {
      ManOptEdp.push_back(R.ManualOpt[2]);
      AutoOptEdp.push_back(R.AutoOpt[2]);
    }
    std::printf("\nEDP improvement (Optimal-f, geomean): Manual DAE %.1f%%, "
                "Auto DAE %.1f%%\n",
                (1.0 - geometricMean(ManOptEdp)) * 100.0,
                (1.0 - geometricMean(AutoOptEdp)) * 100.0);
  }
  std::printf("\n(paper: 500 ns -> Manual 23%%, Auto 25%%; 0 ns -> Manual "
              "25%%, Auto 29%%)\n");
  Throughput.report();
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
