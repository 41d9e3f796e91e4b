//===- service/ResultPayload.cpp - Cacheable AppResult form -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ResultPayload.h"

#include "service/Json.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace dae;
using namespace dae::service;

namespace {

void appendPhase(std::string &Out, const sim::PhaseStats &S) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), " %" PRIu64 " %a %a %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64,
                S.Instructions, S.ComputeCycles, S.StallNs, S.Loads, S.Stores,
                S.Prefetches, S.L1Hits, S.L2Hits, S.LLCHits, S.MemAccesses);
  Out += Buf;
}

void appendProfile(std::string &Out, const char *Scheme,
                   const runtime::RunProfile &P) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "profile %s %u %a %zu\n", Scheme, P.NumCores,
                P.PerTaskOverheadCycles, P.Tasks.size());
  Out += Buf;
  for (const runtime::TaskProfile &T : P.Tasks) {
    std::snprintf(Buf, sizeof(Buf), "t %u %u %d", T.Core, T.Wave,
                  T.HasAccess ? 1 : 0);
    Out += Buf;
    appendPhase(Out, T.Access);
    appendPhase(Out, T.Execute);
    Out += '\n';
  }
}

void appendVerify(std::string &Out, const char *Scheme,
                  const harness::DaeVerifyResult &V) {
  char Buf[384];
  std::snprintf(Buf, sizeof(Buf),
                "verify %s %d %d %d %d %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %zu %zu %zu\n",
                Scheme, V.Ran ? 1 : 0, V.AuditPure ? 1 : 0,
                V.Diff.MemoryMatch ? 1 : 0, V.Diff.OutputsMatch ? 1 : 0,
                V.Diff.BaselineExecMisses, V.Diff.CoveredMisses,
                V.Diff.StrictCoveredMisses, V.Diff.PrefetchedLines,
                V.Diff.UnusedPrefetchedLines, V.Diff.DecoupledTasks,
                V.Diff.TotalTasks, V.AuditViolations.size());
  Out += Buf;
  for (const std::string &Viol : V.AuditViolations) {
    // JSON-escape folds embedded newlines, keeping the record line-oriented.
    Out += "viol " + jsonEscape(Viol) + "\n";
  }
}

void appendOutputs(std::string &Out, const char *Scheme,
                   const std::vector<std::uint8_t> &Bytes) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "outputs %s %zu %016" PRIx64 "\n", Scheme,
                Bytes.size(), fnv1a(Bytes.data(), Bytes.size()));
  Out += Buf;
}

/// Line reader over the payload; every read* helper fails sticky.
struct Reader {
  std::istringstream In;
  bool Ok = true;

  explicit Reader(const std::string &S) : In(S) {}

  bool line(std::string &Out) {
    if (!Ok || !std::getline(In, Out))
      return Ok = false;
    return true;
  }
};

bool parsePhase(const char *&P, sim::PhaseStats &S) {
  int N = 0;
  if (std::sscanf(P, " %" SCNu64 " %la %la %" SCNu64 " %" SCNu64 " %" SCNu64
                  " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 "%n",
                  &S.Instructions, &S.ComputeCycles, &S.StallNs, &S.Loads,
                  &S.Stores, &S.Prefetches, &S.L1Hits, &S.L2Hits, &S.LLCHits,
                  &S.MemAccesses, &N) != 10)
    return false;
  P += N;
  return true;
}

bool parseProfile(Reader &R, const std::string &Header, const char *Scheme,
                  runtime::RunProfile &Out) {
  char Name[16];
  std::size_t NumTasks = 0;
  if (std::sscanf(Header.c_str(), "profile %15s %u %la %zu", Name,
                  &Out.NumCores, &Out.PerTaskOverheadCycles, &NumTasks) != 4 ||
      std::strcmp(Name, Scheme) != 0)
    return false;
  Out.Tasks.clear();
  Out.Tasks.reserve(NumTasks);
  Out.FunctionalSeconds = 0.0;
  std::string Line;
  for (std::size_t I = 0; I != NumTasks; ++I) {
    if (!R.line(Line))
      return false;
    runtime::TaskProfile T;
    int Has = 0, N = 0;
    if (std::sscanf(Line.c_str(), "t %u %u %d%n", &T.Core, &T.Wave, &Has,
                    &N) != 3)
      return false;
    T.HasAccess = Has != 0;
    const char *P = Line.c_str() + N;
    if (!parsePhase(P, T.Access) || !parsePhase(P, T.Execute))
      return false;
    Out.Tasks.push_back(T);
  }
  return true;
}

bool parseVerify(Reader &R, const std::string &Header, const char *Scheme,
                 harness::DaeVerifyResult &V) {
  char Name[16];
  int Ran = 0, Audit = 0, Mm = 0, Om = 0;
  std::size_t NumViol = 0;
  if (std::sscanf(Header.c_str(),
                  "verify %15s %d %d %d %d %" SCNu64 " %" SCNu64 " %" SCNu64
                  " %" SCNu64 " %" SCNu64 " %zu %zu %zu",
                  Name, &Ran, &Audit, &Mm, &Om, &V.Diff.BaselineExecMisses,
                  &V.Diff.CoveredMisses, &V.Diff.StrictCoveredMisses,
                  &V.Diff.PrefetchedLines, &V.Diff.UnusedPrefetchedLines,
                  &V.Diff.DecoupledTasks, &V.Diff.TotalTasks,
                  &NumViol) != 13 ||
      std::strcmp(Name, Scheme) != 0)
    return false;
  V.Ran = Ran != 0;
  V.AuditPure = Audit != 0;
  V.Diff.MemoryMatch = Mm != 0;
  V.Diff.OutputsMatch = Om != 0;
  V.AuditViolations.clear();
  std::string Line;
  for (std::size_t I = 0; I != NumViol; ++I) {
    if (!R.line(Line) || Line.compare(0, 5, "viol ") != 0)
      return false;
    V.AuditViolations.push_back(Line.substr(5));
  }
  return true;
}

bool parseOutputs(const std::string &Line, const char *Scheme,
                  OutputsFingerprint &Fp) {
  char Name[16];
  if (std::sscanf(Line.c_str(), "outputs %15s %" SCNu64 " %" SCNx64, Name,
                  &Fp.Bytes, &Fp.Fnv) != 3 ||
      std::strcmp(Name, Scheme) != 0)
    return false;
  return true;
}

} // namespace

std::string service::serializeAppResult(const harness::AppResult &R) {
  std::string Out;
  Out.reserve(256 + R.Cae.Tasks.size() * 200 * 3);
  Out += "daecc-result 1\n";
  Out += "name " + R.Name + "\n";
  Out += R.OutputsMatch ? "outputs_match 1\n" : "outputs_match 0\n";
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "row %u %u %zu %a %a\n", R.Row.AffineLoops,
                R.Row.TotalLoops, R.Row.NumTasks, R.Row.AccessTimePercent,
                R.Row.AccessTimeUs);
  Out += Buf;
  appendOutputs(Out, "cae", R.CaeOutputs);
  appendOutputs(Out, "manual", R.ManualOutputs);
  appendOutputs(Out, "auto", R.AutoOutputs);
  appendVerify(Out, "manual", R.ManualVerify);
  appendVerify(Out, "auto", R.AutoVerify);
  appendProfile(Out, "cae", R.Cae);
  appendProfile(Out, "manual", R.Manual);
  appendProfile(Out, "auto", R.Auto);
  Out += "end\n";
  return Out;
}

bool service::deserializeResult(const std::string &Payload,
                                ResultRecord &Out) {
  Reader R(Payload);
  std::string Line;
  if (!R.line(Line) || Line != "daecc-result 1")
    return false;
  if (!R.line(Line) || Line.compare(0, 5, "name ") != 0)
    return false;
  Out.App.Name = Line.substr(5);
  if (!R.line(Line))
    return false;
  if (Line == "outputs_match 1")
    Out.App.OutputsMatch = true;
  else if (Line == "outputs_match 0")
    Out.App.OutputsMatch = false;
  else
    return false;
  if (!R.line(Line) ||
      std::sscanf(Line.c_str(), "row %u %u %zu %la %la",
                  &Out.App.Row.AffineLoops, &Out.App.Row.TotalLoops,
                  &Out.App.Row.NumTasks, &Out.App.Row.AccessTimePercent,
                  &Out.App.Row.AccessTimeUs) != 5)
    return false;
  Out.App.Row.Name = Out.App.Name;
  if (!R.line(Line) || !parseOutputs(Line, "cae", Out.CaeOut))
    return false;
  if (!R.line(Line) || !parseOutputs(Line, "manual", Out.ManualOut))
    return false;
  if (!R.line(Line) || !parseOutputs(Line, "auto", Out.AutoOut))
    return false;
  if (!R.line(Line) || !parseVerify(R, Line, "manual", Out.App.ManualVerify))
    return false;
  if (!R.line(Line) || !parseVerify(R, Line, "auto", Out.App.AutoVerify))
    return false;
  if (!R.line(Line) || !parseProfile(R, Line, "cae", Out.App.Cae))
    return false;
  if (!R.line(Line) || !parseProfile(R, Line, "manual", Out.App.Manual))
    return false;
  if (!R.line(Line) || !parseProfile(R, Line, "auto", Out.App.Auto))
    return false;
  if (!R.line(Line) || Line != "end")
    return false;
  return true;
}
