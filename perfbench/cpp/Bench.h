//===- perfbench/cpp/Bench.h - Shared benchmark declarations ----*- C++ -*-===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload runner shares: the metric tables (the names and
/// units BENCHMARK.json lists), the run outcome each runner fills, and
/// small timing helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "dae/GenerationMemo.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Printed by every workload with tracing off. An operation is one suite
/// pass (paper_suite), one pass over every (program, knob variant)
/// (compile_sweep) or one request (served_mix); its latency is reported
/// relative to the host gauge read around it (HostGauge).
extern const std::vector<MetricDef> EndToEndMetrics;

/// Printed by every workload's traced run; 0 where a layer does no work on
/// that workload. Besides the layers, it carries throughput, memory and the
/// workload-specific figures (sim_mips, hit_p50_ms, ...), measured by the
/// untraced half of the traced run.
extern const std::vector<MetricDef> PerLayerMetrics;

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory for scratch files (service cache, socket, trace JSON).
  std::string WorkDir;
};

/// What a runner reports back to main().
struct RunOutcome {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::map<std::string, double> Metrics;

  /// Records a correctness failure (printed to stderr).
  void fail(const std::string &Why);
};

RunOutcome runPaperSuite(const Options &O);
RunOutcome runCompileSweep(const Options &O);
RunOutcome runServedMix(const Options &O);

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Nearest-rank percentile (P in [0, 100]) of \p V; 0 for an empty sample.
double percentile(std::vector<double> V, double P);

/// Median of \p V; 0 for an empty sample.
inline double median(std::vector<double> V) { return percentile(V, 50.0); }

/// Peak resident set size of this process per measurement window (a pass,
/// or a one-second slice), in MB. Each window restarts the kernel's
/// high-water mark (/proc/self/clear_refs), so one window's peak does not
/// carry into the next; without that file every window reports the process
/// peak.
class RssWindows {
public:
  RssWindows() { restart(); }
  /// Starts a new window.
  void restart();
  /// Records the current window's peak and starts the next window.
  void cut();
  const std::vector<double> &peaksMb() const { return PeaksMb; }

private:
  std::vector<double> PeaksMb;
};

/// The host's speed, read by a fixed computation the benchmark owns: two
/// dependent walks over random cycles, one through an 8 MB table with
/// integer hashing at each step (shared-cache latency and the core's own
/// speed) and one through a 256 KB table (private-cache latency). No daecc
/// code runs in it, so a change to daecc does not move it, while a host that
/// slows down (neighbours in the shared caches and memory, clock) slows it
/// with the program.
class HostGauge {
public:
  HostGauge();
  /// Runs both walks once (~40 ms on a 4-vCPU Xeon VM) and returns their
  /// wall time in ms. An untimed sweep first brings the tables back into
  /// the caches, so what the operation before it left there does not change
  /// the reading.
  double runMs();

private:
  std::vector<std::uint32_t> Shared, Private;
  std::uint64_t Sink = 0;
};

/// A run's operation latencies with the host's speed around them. The gauge
/// is read between groups of operations (a pass, or a slice of requests)
/// while the program is idle, and each operation's time is divided by the
/// mean of the two readings around its group (the one before it, for a
/// group after the last reading).
class GaugedOps {
public:
  /// Each reading is the median of \p RunsPerReading gauge runs.
  explicit GaugedOps(unsigned RunsPerReading = 1)
      : RunsPerReading(RunsPerReading) {}

  /// Reads the gauge; operations recorded afterwards form the next group.
  void tick();
  /// Adds one operation's latency to the current group.
  void record(double Ms);

  const std::vector<double> &opMs() const { return OpMs; }
  const std::vector<double> &readingsMs() const { return ReadingsMs; }
  /// Each operation's latency over the readings around its group;
  /// operations recorded before the first reading are left out.
  std::vector<double> relative() const;

private:
  HostGauge Gauge;
  unsigned RunsPerReading;
  std::vector<double> OpMs, ReadingsMs;
  std::vector<std::size_t> GroupOf; ///< Readings taken before each op.
};

/// Adds the metrics every workload reports with tracing off: setup_s and
/// op_p50_rel (the median of \p Ops.relative()); and the ones the traced
/// run prints: op_p50_ms (median latency), host.gauge_ms (median reading),
/// ops_per_s (operations over \p Seconds) and peak_rss_mb (median window
/// peak). Raw latency, throughput and memory move with the host's speed
/// too much for a bound (see NOTES.md).
void addOpMetrics(RunOutcome &R, const GaugedOps &Ops, double Seconds,
                  double SetupS, const RssWindows &Rss);

/// Access-phase generation in a traced segment, split by memo outcome.
class GenTally {
public:
  /// Generates \p F's access phase through \p Memo inside a dae.generate
  /// span and tallies the call. The memo's hit counter tells hit from miss,
  /// so callers serialize generation.
  dae::AccessPhaseResult generate(dae::GenerationMemo &Memo,
                                  dae::ir::Module &M, dae::ir::Function &F,
                                  const dae::DaeOptions &Opts,
                                  dae::pm::FunctionAnalysisManager &FAM);
  /// dae.generate_hit_s, dae.generate_miss_s, dae.memo_hit_ratio and
  /// dae.hull_accept_ratio (accepted hulls over affine phases).
  void addMetrics(std::map<std::string, double> &M) const;

private:
  double HitS = 0.0, MissS = 0.0;
  std::uint64_t Calls = 0, Hits = 0, AffineResults = 0, HullAccepted = 0;
};

/// pm::PipelineStats totals at one instant.
struct PmSnapshot {
  double PassS = 0.0;
  std::uint64_t AnalysisHits = 0, AnalysisComputes = 0;
  static PmSnapshot take();
};

/// Adds pm.pass_s and pm.analysis_hit_ratio for the interval between two
/// snapshots; returns pm.pass_s.
double addPmMetrics(std::map<std::string, double> &M, const PmSnapshot &From,
                    const PmSnapshot &To);

/// Layer table of a traced segment: self seconds per layer name, printed to
/// stderr with each layer's share of \p CapacityS.
void printLayerShares(const std::map<std::string, double> &Layers,
                      double CapacityS);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
