//===- perfbench/cpp/Bench.cpp - Shared benchmark helpers -----------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "pm/Instrumentation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

const std::vector<MetricDef> perfbench::EndToEndMetrics = {
    {"setup_s", "s"},
    {"op_p50_rel", "ratio"},
};

const std::vector<MetricDef> perfbench::PerLayerMetrics = {
    // Workload-level figures from the untraced half of the traced run.
    {"op_p50_ms", "ms"},
    {"host.gauge_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"sim_mips", "Minstr/s"},
    {"auto_opt_edp", "ratio"},
    {"auto_opt_time", "ratio"},
    {"compiles_per_s", "1/s"},
    {"compile_p50_ms", "ms"},
    {"compile_p99_ms", "ms"},
    {"req_per_s", "1/s"},
    {"hit_p50_ms", "ms"},
    {"hit_p99_ms", "ms"},
    {"miss_p50_ms", "ms"},
    {"miss_p90_ms", "ms"},
    {"fail_ratio", "ratio"},
    // Layers of the traced half.
    {"workloads.build_s", "s"},
    {"workloads.init_s", "s"},
    {"sim.functional_s", "s"},
    {"sim.functional_mips", "Minstr/s"},
    {"runtime.replay_s", "s"},
    {"runtime.replay_events", "count"},
    {"runtime.replay_mev_per_s", "Mevent/s"},
    {"runtime.replay_mismatches", "count"},
    {"runtime.sched_s", "s"},
    {"harness.queue_wait_s", "s"},
    {"harness.pool_idle_s", "s"},
    {"runtime.price_s", "s"},
    {"runtime.price_calls", "count"},
    {"dae.generate_hit_s", "s"},
    {"dae.generate_miss_s", "s"},
    {"dae.memo_hit_ratio", "ratio"},
    {"dae.hull_accept_ratio", "ratio"},
    {"pm.pass_s", "s"},
    {"pm.analysis_hit_ratio", "ratio"},
    {"verify.audit_s", "s"},
    {"verify.audit_violations", "count"},
    {"service.parse_s", "s"},
    {"service.cache_get_s", "s"},
    {"service.deserialize_s", "s"},
    {"service.serialize_s", "s"},
    {"service.cache_put_s", "s"},
    {"service.hit_ratio", "ratio"},
    {"service.shared_ratio", "ratio"},
    {"service.reported_ms", "ms"},
    {"trace.peak_bytes", "bytes"},
    // The traced segment itself.
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
};

void RunOutcome::fail(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  std::size_t Idx = Rank < 1.0 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

void RssWindows::restart() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

void RssWindows::cut() {
  double Kib = 0.0;
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %lf kB", &Kib) == 1)
        break;
    std::fclose(F);
  }
  if (Kib == 0.0) {
    rusage U{};
    getrusage(RUSAGE_SELF, &U);
    Kib = static_cast<double>(U.ru_maxrss);
  }
  PeaksMb.push_back(Kib / 1024.0);
  restart();
}

namespace {

/// Sattolo's shuffle from a fixed seed: one cycle through all \p N entries.
std::vector<std::uint32_t> randomCycle(std::uint32_t N) {
  std::vector<std::uint32_t> Next(N);
  for (std::uint32_t I = 0; I != N; ++I)
    Next[I] = I;
  std::uint64_t X = 0x9e3779b97f4a7c15ull;
  for (std::size_t I = N - 1; I > 0; --I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    std::swap(Next[I], Next[X % I]);
  }
  return Next;
}

} // namespace

HostGauge::HostGauge()
    : Shared(randomCycle(1u << 21)), Private(randomCycle(1u << 16)) {}

double HostGauge::runMs() {
  std::uint64_t H = Sink;
  for (std::uint32_t V : Shared)
    H += V;
  for (std::uint32_t V : Private)
    H += V;
  auto T0 = Clock::now();
  std::uint32_t P = 0;
  for (int I = 0; I != 200000; ++I) {
    P = Shared[P];
    for (int K = 0; K != 8; ++K)
      H = (H ^ P) * 0x100000001b3ull + (H >> 29);
  }
  std::uint32_t Q = 0;
  for (int I = 0; I != 2000000; ++I)
    Q = Private[Q];
  double Ms = secondsSince(T0) * 1e3;
  Sink = H + P + Q;
  return Ms;
}

void GaugedOps::tick() {
  std::vector<double> Runs;
  for (unsigned I = 0; I != RunsPerReading; ++I)
    Runs.push_back(Gauge.runMs());
  ReadingsMs.push_back(median(Runs));
}

void GaugedOps::record(double Ms) {
  OpMs.push_back(Ms);
  GroupOf.push_back(ReadingsMs.size());
}

std::vector<double> GaugedOps::relative() const {
  std::vector<double> Rel;
  for (std::size_t I = 0; I != OpMs.size(); ++I) {
    std::size_t G = GroupOf[I];
    if (G == 0)
      continue; // No reading before it.
    double Ref = G < ReadingsMs.size()
                     ? (ReadingsMs[G - 1] + ReadingsMs[G]) / 2.0
                     : ReadingsMs[G - 1];
    Rel.push_back(OpMs[I] / Ref);
  }
  return Rel;
}

void perfbench::addOpMetrics(RunOutcome &R, const GaugedOps &Ops,
                             double Seconds, double SetupS,
                             const RssWindows &Rss) {
  R.Metrics["setup_s"] = SetupS;
  R.Metrics["op_p50_rel"] = median(Ops.relative());
  R.Metrics["op_p50_ms"] = median(Ops.opMs());
  R.Metrics["host.gauge_ms"] = median(Ops.readingsMs());
  R.Metrics["ops_per_s"] = static_cast<double>(Ops.opMs().size()) / Seconds;
  R.Metrics["peak_rss_mb"] = median(Rss.peaksMb());
  std::fprintf(stderr,
               "perfbench: %zu operations, median %.6g ms, host gauge "
               "median %.4g ms over %zu readings\n",
               Ops.opMs().size(), median(Ops.opMs()), median(Ops.readingsMs()),
               Ops.readingsMs().size());
}

dae::AccessPhaseResult
GenTally::generate(dae::GenerationMemo &Memo, dae::ir::Module &M,
                   dae::ir::Function &F, const dae::DaeOptions &Opts,
                   dae::pm::FunctionAnalysisManager &FAM) {
  std::uint64_t HitsBefore = Memo.stats().Hits;
  auto T0 = Clock::now();
  dae::AccessPhaseResult G;
  {
    Scope S("dae.generate");
    G = Memo.generate(M, F, Opts, FAM);
  }
  double Secs = secondsSince(T0);
  bool Hit = Memo.stats().Hits > HitsBefore;
  (Hit ? HitS : MissS) += Secs;
  Hits += Hit;
  ++Calls;
  if (G.Strategy == dae::analysis::TaskClass::Affine) {
    ++AffineResults;
    HullAccepted += G.UsedConvexUnion;
  }
  return G;
}

void GenTally::addMetrics(std::map<std::string, double> &M) const {
  auto Ratio = [](std::uint64_t N, std::uint64_t D) {
    return D ? static_cast<double>(N) / static_cast<double>(D) : 0.0;
  };
  M["dae.generate_hit_s"] = HitS;
  M["dae.generate_miss_s"] = MissS;
  M["dae.memo_hit_ratio"] = Ratio(Hits, Calls);
  M["dae.hull_accept_ratio"] = Ratio(HullAccepted, AffineResults);
}

PmSnapshot PmSnapshot::take() {
  PmSnapshot S;
  for (const auto &[Name, P] : dae::pm::PipelineStats::get().passes())
    S.PassS += P.Seconds;
  for (const auto &[Name, A] : dae::pm::PipelineStats::get().analyses()) {
    S.AnalysisHits += A.CacheHits;
    S.AnalysisComputes += A.Computes;
  }
  return S;
}

double perfbench::addPmMetrics(std::map<std::string, double> &M,
                               const PmSnapshot &From, const PmSnapshot &To) {
  double PassS = To.PassS - From.PassS;
  std::uint64_t Hits = To.AnalysisHits - From.AnalysisHits;
  std::uint64_t Queries = Hits + To.AnalysisComputes - From.AnalysisComputes;
  M["pm.pass_s"] = PassS;
  M["pm.analysis_hit_ratio"] =
      Queries ? static_cast<double>(Hits) / static_cast<double>(Queries) : 0.0;
  return PassS;
}

void perfbench::printLayerShares(const std::map<std::string, double> &Layers,
                                 double CapacityS) {
  std::vector<std::pair<double, std::string>> Rows;
  double Sum = 0.0;
  for (const auto &[Name, S] : Layers) {
    Rows.push_back({S, Name});
    Sum += S;
  }
  std::sort(Rows.rbegin(), Rows.rend());
  std::fprintf(stderr, "perfbench: layer self time (share of %.3f s)\n",
               CapacityS);
  for (const auto &[S, Name] : Rows)
    std::fprintf(stderr, "  %-26s %10.4f s %6.1f%%\n", Name.c_str(), S,
                 CapacityS > 0.0 ? 100.0 * S / CapacityS : 0.0);
  std::fprintf(stderr, "  %-26s %10.4f s %6.1f%%\n", "(attributed)", Sum,
               CapacityS > 0.0 ? 100.0 * Sum / CapacityS : 0.0);
}
