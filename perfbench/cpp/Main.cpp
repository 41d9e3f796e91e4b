//===- perfbench/cpp/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload {paper_suite,compile_sweep,served_mix} --seed N
//           --seconds S --trace {0,1} --work-dir DIR
// perfbench --list-metrics
//
// Prints one JSON object as the last line of stdout: correct, attempted,
// failed and metrics (the end-to-end set with --trace 0, the per-layer set
// with --trace 1). Exits 1 when any correctness check failed, 2 on bad
// arguments.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n"
               "       perfbench --list-metrics\n",
               Msg);
  std::exit(2);
}

bool parseUnsigned(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0' || errno == ERANGE || S[0] == '-')
    return false;
  Out = V;
  return true;
}

void printResult(const RunOutcome &R, bool Trace) {
  const std::vector<MetricDef> &Defs =
      Trace ? PerLayerMetrics : EndToEndMetrics;
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const MetricDef &D : Defs) {
    auto It = R.Metrics.find(D.Name);
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", D.Name, V, D.Unit);
    Out += Buf;
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--list-metrics") {
      for (const MetricDef &D : EndToEndMetrics)
        std::printf("end_to_end %s %s\n", D.Name, D.Unit);
      for (const MetricDef &D : PerLayerMetrics)
        std::printf("per_layer %s %s\n", D.Name, D.Unit);
      return 0;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    std::uint64_t N = 0;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, N))
        usage("--seed must be a non-negative integer");
      O.Seed = N;
    } else if (A == "--seconds") {
      if (!parseUnsigned(V, N) || N == 0 || N > 3600)
        usage("--seconds must be an integer in [1, 3600]");
      O.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        usage("--trace must be 0 or 1");
      O.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (O.Workload.empty() || !HaveSeconds || !HaveTrace || O.WorkDir.empty())
    usage("--workload, --seconds, --trace and --work-dir are required");

  RunOutcome R;
  try {
    if (O.Workload == "paper_suite")
      R = runPaperSuite(O);
    else if (O.Workload == "compile_sweep")
      R = runCompileSweep(O);
    else if (O.Workload == "served_mix")
      R = runServedMix(O);
    else
      usage("unknown workload (expected paper_suite, compile_sweep or "
            "served_mix)");
  } catch (const std::exception &E) {
    R.fail(std::string("exception: ") + E.what());
  }
  if (R.Attempted == 0)
    R.fail("no operation completed");

  if (O.Trace) {
    std::string Path = O.WorkDir + "/trace-" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + ".json";
    if (Tracer::get().writeChromeJson(Path))
      std::fprintf(stderr, "perfbench: trace events written to %s\n",
                   Path.c_str());
    else
      R.fail("cannot write " + Path);
  }
  printResult(R, O.Trace);
  return R.Correct ? 0 : 1;
}
