//===- service/ExperimentService.cpp - Long-lived experiment daemon ---------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ExperimentService.h"

#include "harness/Harness.h"
#include "runtime/Evaluator.h"
#include "service/ResultPayload.h"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

using namespace dae;
using namespace dae::service;

namespace {

const char *const WorkloadNames[] = {"lu",   "cholesky", "fft", "lbm",
                                     "libq", "cigar",    "cg"};

bool knownWorkload(const std::string &Name) {
  for (const char *W : WorkloadNames)
    if (Name == W)
      return true;
  return false;
}

/// Integral JSON number in [Lo, Hi]; false on non-number / fraction /
/// out-of-range.
bool asInt(const JsonValue &V, long long Lo, long long Hi, long long &Out) {
  if (!V.isNumber() || V.Num != std::floor(V.Num) ||
      V.Num < static_cast<double>(Lo) || V.Num > static_cast<double>(Hi))
    return false;
  Out = static_cast<long long>(V.Num);
  return true;
}

std::string badKey(const char *Where, const std::string &Key) {
  return std::string("unknown ") + Where + " key '" + Key + "'";
}

std::string parseOptions(const JsonValue &V, Request &Out) {
  if (!V.isObject())
    return "'options' must be an object";
  for (const auto &[Key, Val] : V.Obj) {
    long long N = 0;
    if (Key == "convex_union" || Key == "split_classes" ||
        Key == "merge_loop_nests" || Key == "simplify_cfg" ||
        Key == "prefetch_writes" || Key == "prefetch_per_line") {
      if (!Val.isBool())
        return "options." + Key + " must be a boolean";
      if (Key == "convex_union")
        Out.ConvexUnion = Val.B;
      else if (Key == "split_classes")
        Out.SplitClasses = Val.B;
      else if (Key == "merge_loop_nests")
        Out.MergeLoopNests = Val.B;
      else if (Key == "simplify_cfg")
        Out.SimplifyCfg = Val.B;
      else if (Key == "prefetch_writes")
        Out.PrefetchWrites = Val.B;
      else
        Out.PrefetchPerCacheLine = Val.B;
    } else if (Key == "hull_slack") {
      if (!asInt(Val, -1000000, 1000000, N))
        return "options.hull_slack must be an integer";
      Out.HullSlackThreshold = N;
    } else if (Key == "cache_line_bytes") {
      if (!asInt(Val, 1, 1 << 20, N))
        return "options.cache_line_bytes must be a positive integer";
      Out.CacheLineBytes = N;
    } else if (Key == "count_limit") {
      if (!asInt(Val, 1, 1LL << 60, N))
        return "options.count_limit must be a positive integer";
      Out.CountLimit = N;
    } else if (Key == "rep_args") {
      if (!Val.isArray())
        return "options.rep_args must be an array of integers";
      std::vector<std::int64_t> Args;
      for (const JsonValue &E : Val.Arr) {
        if (!asInt(E, 0, 1LL << 40, N))
          return "options.rep_args entries must be non-negative integers";
        Args.push_back(N);
      }
      Out.RepresentativeArgs = std::move(Args);
    } else {
      return badKey("options", Key);
    }
  }
  return "";
}

} // namespace

std::string service::parseRequest(const JsonValue &V, Request &Out) {
  bool HaveBig = false, HaveLittle = false;
  for (const auto &[Key, Val] : V.Obj) {
    long long N = 0;
    if (Key == "op") {
      continue; // dispatched by handleLine
    } else if (Key == "workload") {
      if (!Val.isString() || !knownWorkload(Val.Str))
        return "unknown workload '" + (Val.isString() ? Val.Str : "") +
               "' (expected lu, cholesky, fft, lbm, libq, cigar or cg)";
      Out.Workload = Val.Str;
    } else if (Key == "scale") {
      if (Val.isString() && Val.Str == "test")
        Out.Scale = workloads::Scale::Test;
      else if (Val.isString() && Val.Str == "full")
        Out.Scale = workloads::Scale::Full;
      else
        return "invalid scale (expected 'test' or 'full')";
    } else if (Key == "scheme") {
      if (!Val.isString() ||
          (Val.Str != "cae" && Val.Str != "manual" && Val.Str != "auto" &&
           Val.Str != "all"))
        return "invalid scheme (expected 'cae', 'manual', 'auto' or 'all')";
      Out.Scheme = Val.Str;
    } else if (Key == "policy") {
      if (!Val.isString() ||
          (Val.Str != "maxfreq" && Val.Str != "minmax" &&
           Val.Str != "optimal" && Val.Str != "ondemand" &&
           Val.Str != "conservative"))
        return "invalid policy (expected 'maxfreq', 'minmax', 'optimal', "
               "'ondemand' or 'conservative')";
      Out.Policy = Val.Str;
    } else if (Key == "transition_ns") {
      if (!Val.isNumber() || Val.Num < 0.0)
        return "transition_ns must be a non-negative number";
      Out.TransitionNs = Val.Num;
    } else if (Key == "cores") {
      if (!asInt(Val, 1, 1024, N))
        return "cores must be a positive integer";
      Out.Cores = static_cast<unsigned>(N);
    } else if (Key == "big_cores") {
      if (!asInt(Val, 1, 1024, N))
        return "big_cores must be a positive integer";
      Out.BigCores = static_cast<unsigned>(N);
      HaveBig = true;
    } else if (Key == "little_cores") {
      if (!asInt(Val, 1, 1024, N))
        return "little_cores must be a positive integer";
      Out.LittleCores = static_cast<unsigned>(N);
      HaveLittle = true;
    } else if (Key == "dae_verify") {
      if (!Val.isBool())
        return "dae_verify must be a boolean";
      Out.DaeVerify = Val.B;
    } else if (Key == "options") {
      std::string Err = parseOptions(Val, Out);
      if (!Err.empty())
        return Err;
    } else {
      // The CLI's exit-2 discipline: a typo'd knob silently ignored would
      // mislabel the caller's results, so reject it loudly.
      return badKey("request", Key);
    }
  }
  if (Out.Workload.empty())
    return "missing required 'workload'";
  if (HaveBig != HaveLittle)
    return "big_cores and little_cores must be given together";
  return "";
}

std::string service::canonicalKeyOf(const Request &R) {
  // Canonical text form of the compute parameters only (see header). Absent
  // overrides serialize as absent, not as their defaults, so "no override"
  // and "override to the current default" share an entry only when they are
  // the same bytes — defaults never silently leak into the key.
  std::string K = "daecc-compute 1|";
  K += R.Workload;
  K += R.Scale == workloads::Scale::Test ? "|test" : "|full";
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "|cores=%u|big=%u,%u|verify=%d", R.Cores,
                R.BigCores, R.LittleCores, R.DaeVerify ? 1 : 0);
  K += Buf;
  auto AddBool = [&K](const char *Name, const std::optional<bool> &V) {
    if (V)
      K += std::string("|") + Name + "=" + (*V ? "1" : "0");
  };
  AddBool("cu", R.ConvexUnion);
  AddBool("sc", R.SplitClasses);
  AddBool("ml", R.MergeLoopNests);
  AddBool("cfg", R.SimplifyCfg);
  AddBool("pw", R.PrefetchWrites);
  AddBool("pcl", R.PrefetchPerCacheLine);
  if (R.HullSlackThreshold)
    K += "|hs=" + std::to_string(*R.HullSlackThreshold);
  if (R.CacheLineBytes)
    K += "|clb=" + std::to_string(*R.CacheLineBytes);
  if (R.CountLimit)
    K += "|cl=" + std::to_string(*R.CountLimit);
  if (R.RepresentativeArgs) {
    K += "|rep=";
    for (std::int64_t A : *R.RepresentativeArgs)
      K += std::to_string(A) + ",";
  }
  return K;
}

ExperimentService::ExperimentService(Config Cin)
    : C(std::move(Cin)), Cache(C.CacheDir, C.MemCacheBytes),
      Pool(C.Jobs, C.SimThreads, /*AlwaysThreaded=*/true) {}

ExperimentService::~ExperimentService() = default;

namespace {

std::string errorJson(const char *Code, const std::string &Msg) {
  return std::string("{\"ok\": false, \"code\": \"") + Code +
         "\", \"error\": \"" + jsonEscape(Msg) + "\"}";
}

} // namespace

std::string ExperimentService::handleLine(const std::string &Line,
                                          unsigned ClientId, bool &Shutdown) {
  Shutdown = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Requests;
  }
  auto Fail = [this](const char *Code, const std::string &Msg) {
    std::lock_guard<std::mutex> Lock(M);
    ++Errors;
    return errorJson(Code, Msg);
  };
  JsonValue V;
  std::string Err;
  if (!parseJson(Line, V, Err))
    return Fail("bad_request", "invalid JSON: " + Err);
  if (!V.isObject())
    return Fail("bad_request", "request must be a JSON object");
  const JsonValue *Op = V.get("op");
  std::string OpName = Op ? (Op->isString() ? Op->Str : "\x01") : "run";
  if (OpName == "run")
    return handleRun(V, ClientId);
  if (OpName == "stats")
    return "{\"ok\": true, \"service\": " + statsJson() + "}";
  if (OpName == "shutdown") {
    Shutdown = true;
    return "{\"ok\": true, \"shutting_down\": true}";
  }
  return Fail("bad_request",
              "unknown op (expected 'run', 'stats' or 'shutdown')");
}

std::string ExperimentService::handleRun(const JsonValue &V,
                                         unsigned ClientId) {
  Request Req;
  std::string Err = parseRequest(V, Req);
  if (!Err.empty()) {
    std::lock_guard<std::mutex> Lock(M);
    ++Errors;
    return errorJson("bad_request", Err);
  }
  auto T0 = std::chrono::steady_clock::now();
  std::string Payload;
  const char *Tag = "miss";
  if (!obtainPayload(Req, ClientId, Payload, Tag, Err)) {
    std::lock_guard<std::mutex> Lock(M);
    ++Errors;
    return errorJson(std::strcmp(Tag, "busy") == 0 ? "busy" : "internal",
                     Err);
  }
  return priceReply(Req, Payload, Tag, T0);
}

bool ExperimentService::obtainPayload(const Request &Req, unsigned ClientId,
                                      std::string &Payload,
                                      const char *&CacheTag,
                                      std::string &Error) {
  const std::string Key = canonicalKeyOf(Req);
  switch (Cache.get(Key, Payload)) {
  case ResultCache::Source::Memory:
    CacheTag = "memory";
    return true;
  case ResultCache::Source::Disk:
    CacheTag = "disk";
    return true;
  case ResultCache::Source::Miss:
    break;
  }

  std::shared_ptr<ComputeSlot> Slot;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = InFlight.find(Key);
    if (It != InFlight.end()) {
      // Batched admission: identical request already computing — attach.
      Slot = It->second;
      ++SharedComputes;
      CacheTag = "shared";
    } else if (QueuedCount >= C.MaxQueue) {
      ++RejectedBusy;
      CacheTag = "busy";
      Error = "service busy: compute queue full (" +
              std::to_string(QueuedCount) + " pending)";
      return false;
    } else {
      Slot = std::make_shared<ComputeSlot>();
      InFlight.emplace(Key, Slot);
      Pending P;
      P.Key = Key;
      P.Req = Req;
      P.Slot = Slot;
      auto QIt = ClientQueues.begin();
      for (; QIt != ClientQueues.end(); ++QIt)
        if (QIt->first == ClientId)
          break;
      if (QIt == ClientQueues.end()) {
        ClientQueues.emplace_back(ClientId, std::deque<Pending>());
        QIt = ClientQueues.end() - 1;
      }
      QIt->second.push_back(std::move(P));
      ++QueuedCount;
      CacheTag = "miss";
      if (ActiveRunners < Pool.jobs()) {
        ++ActiveRunners;
        Pool.submit([this] { runnerLoop(); });
      }
    }
  }

  std::unique_lock<std::mutex> SL(Slot->M);
  Slot->CV.wait(SL, [&] { return Slot->Done; });
  if (!Slot->Ok) {
    Error = Slot->Error;
    return false;
  }
  Payload = Slot->Payload;
  return true;
}

void ExperimentService::runnerLoop() {
  for (;;) {
    Pending P;
    {
      std::lock_guard<std::mutex> Lock(M);
      if (!popNextLocked(P)) {
        --ActiveRunners;
        return;
      }
    }
    executeCompute(P);
  }
}

bool ExperimentService::popNextLocked(Pending &Out) {
  // Round-robin across clients: one sweep starting at the cursor, taking
  // the first non-empty queue. A client emptying its queue drops out of the
  // rotation entirely, so an idle sweep costs nothing.
  const std::size_t N = ClientQueues.size();
  for (std::size_t I = 0; I != N; ++I) {
    std::size_t Idx = (RrCursor + I) % N;
    auto &Q = ClientQueues[Idx].second;
    if (Q.empty())
      continue;
    Out = std::move(Q.front());
    Q.pop_front();
    --QueuedCount;
    if (Q.empty()) {
      ClientQueues.erase(ClientQueues.begin() + Idx);
      RrCursor = ClientQueues.empty() ? 0 : Idx % ClientQueues.size();
    } else {
      RrCursor = (Idx + 1) % N;
    }
    return true;
  }
  return false;
}

void ExperimentService::executeCompute(const Pending &P) {
  std::string Payload, Error;
  bool Ok = false;
  try {
    std::unique_ptr<workloads::Workload> W =
        workloads::buildByName(P.Req.Workload, P.Req.Scale);
    if (!W)
      throw std::runtime_error("workload registry returned null");
    sim::MachineConfig Cfg;
    Cfg.SimThreads = Pool.simThreadsPerJob();
    if (P.Req.BigCores + P.Req.LittleCores > 0)
      Cfg.makeBigLittle(P.Req.BigCores, P.Req.LittleCores);
    else if (P.Req.Cores)
      Cfg.NumCores = P.Req.Cores;

    DaeOptions O = W->Opts;
    bool HasOverrides = false;
    auto Apply = [&HasOverrides](auto &Field, const auto &Override) {
      if (Override) {
        Field = *Override;
        HasOverrides = true;
      }
    };
    Apply(O.UseConvexUnion, P.Req.ConvexUnion);
    Apply(O.SplitClasses, P.Req.SplitClasses);
    Apply(O.MergeLoopNests, P.Req.MergeLoopNests);
    Apply(O.SimplifyCfg, P.Req.SimplifyCfg);
    Apply(O.PrefetchWrites, P.Req.PrefetchWrites);
    Apply(O.PrefetchPerCacheLine, P.Req.PrefetchPerCacheLine);
    Apply(O.HullSlackThreshold, P.Req.HullSlackThreshold);
    Apply(O.CacheLineBytes, P.Req.CacheLineBytes);
    Apply(O.CountLimit, P.Req.CountLimit);
    Apply(O.RepresentativeArgs, P.Req.RepresentativeArgs);

    // No overrides -> pass null, the exact signature the one-shot drivers
    // use (identical either way; null is the reference identity).
    harness::AppResult R = harness::runApp(
        *W, Cfg, HasOverrides ? &O : nullptr, &Memo, P.Req.DaeVerify);
    Payload = serializeAppResult(R);
    Cache.put(P.Key, Payload);
    Ok = true;
  } catch (const std::exception &E) {
    Error = std::string("compute failed: ") + E.what();
  } catch (...) {
    Error = "compute failed: unknown error";
  }
  {
    std::lock_guard<std::mutex> Lock(M);
    InFlight.erase(P.Key);
  }
  {
    std::lock_guard<std::mutex> SL(P.Slot->M);
    P.Slot->Ok = Ok;
    P.Slot->Payload = std::move(Payload);
    P.Slot->Error = std::move(Error);
    P.Slot->Done = true;
  }
  P.Slot->CV.notify_all();
}

namespace {

void appendReport(std::string &Out, const char *Scheme,
                  const runtime::RunReport &R, const std::string &Policy) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "\"%s\": {\"policy\": \"%s\", \"time_sec\": \"%a\", "
      "\"energy_j\": \"%a\", \"edp_js\": \"%a\", "
      "\"access_time_sec\": \"%a\", \"execute_time_sec\": \"%a\", "
      "\"osi_time_sec\": \"%a\", \"num_tasks\": %zu, "
      "\"num_transitions\": %zu}",
      Scheme, Policy.c_str(), R.TimeSec, R.EnergyJ, R.EdpJs, R.AccessTimeSec,
      R.ExecuteTimeSec, R.OsiTimeSec, R.NumTasks, R.NumTransitions);
  Out += Buf;
}

void appendVerifyJson(std::string &Out, const char *Scheme,
                      const harness::DaeVerifyResult &V) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "\"%s\": {\"ran\": true, \"purity\": %s, \"audit_pure\": %s, "
      "\"baseline_misses\": %" PRIu64 ", \"covered_misses\": %" PRIu64
      ", \"strict_covered_misses\": %" PRIu64 ", \"prefetched_lines\": %" PRIu64
      ", \"unused_lines\": %" PRIu64 ", \"decoupled_tasks\": %zu}",
      Scheme, V.AuditPure && V.Diff.pure() ? "true" : "false",
      V.AuditPure ? "true" : "false", V.Diff.BaselineExecMisses,
      V.Diff.CoveredMisses, V.Diff.StrictCoveredMisses, V.Diff.PrefetchedLines,
      V.Diff.UnusedPrefetchedLines, V.Diff.DecoupledTasks);
  Out += Buf;
}

void appendOutputsJson(std::string &Out, const char *Scheme,
                       const OutputsFingerprint &Fp) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "\"%s\": {\"bytes\": %" PRIu64 ", \"fnv\": \"%016" PRIx64
                "\"}",
                Scheme, Fp.Bytes, Fp.Fnv);
  Out += Buf;
}

} // namespace

std::string ExperimentService::priceReply(const Request &Req,
                                          const std::string &Payload,
                                          const char *CacheTag,
                                          std::chrono::steady_clock::time_point
                                              Start) {
  ResultRecord Rec;
  if (!deserializeResult(Payload, Rec)) {
    std::lock_guard<std::mutex> Lock(M);
    ++Errors;
    return errorJson("internal", "result payload failed to deserialize");
  }

  sim::MachineConfig Cfg;
  if (Req.BigCores + Req.LittleCores > 0)
    Cfg.makeBigLittle(Req.BigCores, Req.LittleCores);
  else if (Req.Cores)
    Cfg.NumCores = Req.Cores;

  runtime::EvalConfig EC;
  if (Req.Policy == "maxfreq") {
    EC.Policy = runtime::FreqPolicy::Fixed;
    EC.AccessFreqGHz = Cfg.fmax();
    EC.ExecFreqGHz = Cfg.fmax();
    EC.TransitionNs = Req.TransitionNs;
  } else if (Req.Policy == "minmax") {
    EC = harness::minMaxConfig(Cfg, Req.TransitionNs);
  } else if (Req.Policy == "optimal") {
    EC = harness::optimalEdpConfig(Req.TransitionNs);
  } else {
    EC.Policy = Req.Policy == "ondemand"
                    ? runtime::FreqPolicy::Ondemand
                    : runtime::FreqPolicy::Conservative;
    EC.TransitionNs = Req.TransitionNs;
  }

  bool WantCae = Req.Scheme == "cae" || Req.Scheme == "all";
  bool WantManual = Req.Scheme == "manual" || Req.Scheme == "all";
  bool WantAuto = Req.Scheme == "auto" || Req.Scheme == "all";

  std::string Reports;
  if (WantCae)
    appendReport(Reports, "cae", runtime::evaluate(Rec.App.Cae, Cfg, EC),
                 Req.Policy);
  if (WantManual) {
    if (!Reports.empty())
      Reports += ", ";
    appendReport(Reports, "manual", runtime::evaluate(Rec.App.Manual, Cfg, EC),
                 Req.Policy);
  }
  if (WantAuto) {
    if (!Reports.empty())
      Reports += ", ";
    appendReport(Reports, "auto", runtime::evaluate(Rec.App.Auto, Cfg, EC),
                 Req.Policy);
  }

  std::string Verify;
  if (Rec.App.ManualVerify.Ran)
    appendVerifyJson(Verify, "manual", Rec.App.ManualVerify);
  if (Rec.App.AutoVerify.Ran) {
    if (!Verify.empty())
      Verify += ", ";
    appendVerifyJson(Verify, "auto", Rec.App.AutoVerify);
  }

  std::string Outputs;
  appendOutputsJson(Outputs, "cae", Rec.CaeOut);
  Outputs += ", ";
  appendOutputsJson(Outputs, "manual", Rec.ManualOut);
  Outputs += ", ";
  appendOutputsJson(Outputs, "auto", Rec.AutoOut);

  double LatencyMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
  {
    std::lock_guard<std::mutex> Lock(M);
    bool Hit = std::strcmp(CacheTag, "memory") == 0 ||
               std::strcmp(CacheTag, "disk") == 0;
    (Hit ? HitLatency : MissLatency).add(LatencyMs);
  }

  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"ok\": true, \"cache\": \"%s\", \"latency_ms\": %.3f, "
                "\"result\": {\"workload\": \"%s\", \"scale\": \"%s\", "
                "\"outputs_match\": %s, \"payload_fnv\": \"%016" PRIx64
                "\", \"row\": {\"affine_loops\": %u, \"total_loops\": %u, "
                "\"tasks\": %zu, \"ta_percent\": \"%a\", \"ta_us\": \"%a\"}",
                CacheTag, LatencyMs, Rec.App.Name.c_str(),
                Req.Scale == workloads::Scale::Test ? "test" : "full",
                Rec.App.OutputsMatch ? "true" : "false", fnv1a(Payload),
                Rec.App.Row.AffineLoops, Rec.App.Row.TotalLoops,
                Rec.App.Row.NumTasks, Rec.App.Row.AccessTimePercent,
                Rec.App.Row.AccessTimeUs);
  std::string Reply = Buf;
  Reply += ", \"outputs\": {" + Outputs + "}";
  Reply += ", \"reports\": {" + Reports + "}";
  Reply += ", \"verify\": {" + Verify + "}";
  Reply += "}}";
  return Reply;
}

std::string ExperimentService::statsJson() const {
  ResultCache::Stats CS = Cache.stats();
  GenerationMemo::Stats MS = Memo.stats();
  std::uint64_t Reqs, Errs, Shared, Busy;
  std::size_t Depth;
  LatencyAcc Hit, Miss;
  {
    std::lock_guard<std::mutex> Lock(M);
    Reqs = Requests;
    Errs = Errors;
    Shared = SharedComputes;
    Busy = RejectedBusy;
    Depth = QueuedCount;
    Hit = HitLatency;
    Miss = MissLatency;
  }
  auto Mean = [](const LatencyAcc &L) {
    return L.Count ? L.TotalMs / static_cast<double>(L.Count) : 0.0;
  };
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"requests\": %" PRIu64 ", \"errors\": %" PRIu64
      ", \"memory_hits\": %" PRIu64 ", \"disk_hits\": %" PRIu64
      ", \"misses\": %" PRIu64 ", \"corrupt_entries\": %" PRIu64
      ", \"cache_evictions\": %" PRIu64 ", \"cache_retained_bytes\": %" PRIu64
      ", \"shared_computes\": %" PRIu64 ", \"rejected_busy\": %" PRIu64
      ", \"queue_depth\": %zu, \"latency_ms\": "
      "{\"hit\": {\"count\": %" PRIu64 ", \"mean\": %.3f, \"max\": %.3f}, "
      "\"miss\": {\"count\": %" PRIu64 ", \"mean\": %.3f, \"max\": %.3f}}, "
      "\"memo\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64
      ", \"evictions\": %" PRIu64 "}}",
      Reqs, Errs, CS.MemoryHits, CS.DiskHits, CS.Misses, CS.CorruptEntries,
      CS.Evictions, CS.RetainedBytes, Shared, Busy, Depth, Hit.Count,
      Mean(Hit), Hit.MaxMs, Miss.Count, Mean(Miss), Miss.MaxMs, MS.Hits,
      MS.Misses, MS.Evictions);
  return Buf;
}
