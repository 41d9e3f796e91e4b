//===- perfbench/cpp/ServedMix.cpp - The served_mix workload --------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Request sweeps against the experiment daemon: an in-process
// service::Server + ExperimentService (2 jobs, a disk cache in a scratch
// directory), driven over its Unix socket by a closed loop of 3 client
// connections from this process, each sending its own seeded request
// stream. Most requests hit already-computed keys with varied
// policy/scheme/transition_ns; a seeded share are new keys, some with knob
// overrides and some with dae_verify. Set-up warms every program at test
// scale plus two cheap full-scale entries, so some hits carry large
// payloads. Hits exercise parse, cache get, deserialize and pricing;
// misses add build, generate, simulate, verify, serialize and the disk put.
//
// The daemon is opaque from here, so the traced run times its layers by
// repeating, on each client thread after the reply, the same public calls on
// the same inputs: parseJson + parseRequest, ResultCache::get,
// deserializeResult, runtime::evaluate, and for misses serializeAppResult
// and a ResultCache::put into a scratch cache.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"
#include "Trace.h"

#include "harness/Harness.h"
#include "runtime/Evaluator.h"
#include "service/ExperimentService.h"
#include "service/Json.h"
#include "service/ResultCache.h"
#include "service/ResultPayload.h"
#include "service/Server.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace dae;
using namespace perfbench;

namespace {

constexpr unsigned Clients = 3;

double secondsOf(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double>(T1 - T0).count();
}

/// The daemon under test, listening on a socket in its own directory.
class Daemon {
public:
  explicit Daemon(const std::string &Dir) : Dir(Dir) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    service::ExperimentService::Config C;
    C.CacheDir = Dir + "/cache";
    C.Jobs = 2;
    C.SimThreads = 1;
    Svc = std::make_unique<service::ExperimentService>(C);
    Srv = std::make_unique<service::Server>(
        Dir + "/sock", [this](const std::string &Line, unsigned Id,
                              bool &Shutdown) {
          return Svc->handleLine(Line, Id, Shutdown);
        });
    std::string Err;
    if (!Srv->start(Err))
      throw std::runtime_error("daemon: " + Err);
    Serving = std::thread([this] { Srv->serve(); });
  }

  ~Daemon() {
    Srv->requestStop();
    Serving.join();
    Srv.reset();
    Svc.reset();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  std::string socket() const { return Dir + "/sock"; }
  service::ExperimentService &service() { return *Svc; }

private:
  std::string Dir;
  std::unique_ptr<service::ExperimentService> Svc;
  std::unique_ptr<service::Server> Srv;
  std::thread Serving;
};

void connectOrThrow(service::Client &C, const std::string &Socket) {
  std::string Err;
  if (!C.connect(Socket, Err))
    throw std::runtime_error("client: " + Err);
}

/// Sends \p Line and parses the reply; false on a broken connection or a
/// reply that is not JSON.
bool roundTrip(service::Client &C, const std::string &Line,
               service::JsonValue &Reply) {
  std::string Text, Err;
  return C.request(Line, Text) && service::parseJson(Text, Reply, Err);
}

/// Warms the cache: every warm key once, the two full-scale computes on two
/// connections at once (the daemon has two jobs).
void warm(Daemon &D) {
  std::vector<std::string> Keys = warmRequests();
  std::vector<std::thread> Threads;
  std::atomic<bool> Ok{true};
  for (unsigned T = 0; T != 2; ++T)
    Threads.emplace_back([&, T] {
      service::Client C;
      connectOrThrow(C, D.socket());
      for (std::size_t I = T; I < Keys.size(); I += 2) {
        service::JsonValue R;
        const service::JsonValue *OkV = nullptr;
        if (!roundTrip(C, "{" + Keys[I] + "}", R) || !(OkV = R.get("ok")) ||
            !OkV->B)
          Ok = false;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  if (!Ok)
    throw std::runtime_error("daemon: warming request failed");
}

/// Cache counters from the daemon's stats op.
struct ServiceCounters {
  double Hits = 0.0, Misses = 0.0, Shared = 0.0;
};

ServiceCounters statsOf(const std::string &Socket) {
  service::Client C;
  connectOrThrow(C, Socket);
  service::JsonValue R;
  if (!roundTrip(C, "{\"op\": \"stats\"}", R) || !R.get("service"))
    throw std::runtime_error("daemon: stats op failed");
  const service::JsonValue &S = *R.get("service");
  auto Num = [&S](const char *K) {
    const service::JsonValue *V = S.get(K);
    return V && V->isNumber() ? V->Num : 0.0;
  };
  return {Num("memory_hits") + Num("disk_hits"), Num("misses"),
          Num("shared_computes")};
}

/// Layer times of the traced segment, from the repeated calls.
struct Shadow {
  double ParseS = 0, GetS = 0, DeserializeS = 0, PriceS = 0, SerializeS = 0,
         PutS = 0;
  std::uint64_t PriceCalls = 0;

  Shadow &operator+=(const Shadow &O) {
    ParseS += O.ParseS;
    GetS += O.GetS;
    DeserializeS += O.DeserializeS;
    PriceS += O.PriceS;
    SerializeS += O.SerializeS;
    PutS += O.PutS;
    PriceCalls += O.PriceCalls;
    return *this;
  }
};

/// What one client saw in one segment.
struct ClientLog {
  std::vector<double> AllMs, HitMs, MissMs, ReportedHitMs;
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  Shadow Sh;
};

/// payload_fnv of every key seen so far, shared by the clients.
class PayloadLedger {
public:
  /// False when \p Key was seen before with another payload.
  bool agree(const std::string &Key, const std::string &Fnv) {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, New] = Seen.emplace(Key, Fnv);
    return New || It->second == Fnv;
  }

private:
  std::mutex M;
  std::map<std::string, std::string> Seen;
};

runtime::EvalConfig evalConfigOf(const service::Request &Req,
                                 const sim::MachineConfig &Cfg) {
  runtime::EvalConfig EC;
  if (Req.Policy == "maxfreq") {
    EC.Policy = runtime::FreqPolicy::Fixed;
    EC.AccessFreqGHz = Cfg.fmax();
    EC.ExecFreqGHz = Cfg.fmax();
  } else if (Req.Policy == "minmax") {
    EC = harness::minMaxConfig(Cfg, Req.TransitionNs);
  } else if (Req.Policy == "optimal") {
    EC = harness::optimalEdpConfig(Req.TransitionNs);
  } else {
    EC.Policy = Req.Policy == "ondemand" ? runtime::FreqPolicy::Ondemand
                                         : runtime::FreqPolicy::Conservative;
  }
  EC.TransitionNs = Req.TransitionNs;
  return EC;
}

/// Repeats the daemon's per-request layer calls for \p Line (see the file
/// comment) and adds their times to \p Sh.
void shadowRequest(const std::string &Line, bool Miss,
                   service::ExperimentService &Svc,
                   service::ResultCache &Scratch, Shadow &Sh) {
  auto T0 = Clock::now();
  service::JsonValue V;
  service::Request Req;
  std::string Err;
  {
    Scope S("service.parse");
    service::parseJson(Line, V, Err);
    service::parseRequest(V, Req);
  }
  auto T1 = Clock::now();
  std::string Key = service::canonicalKeyOf(Req), Payload;
  {
    Scope S("service.cache_get");
    Svc.cache().get(Key, Payload);
  }
  auto T2 = Clock::now();
  service::ResultRecord Rec;
  {
    Scope S("service.deserialize");
    service::deserializeResult(Payload, Rec);
  }
  auto T3 = Clock::now();
  {
    Scope S("runtime.price");
    sim::MachineConfig Cfg;
    if (Req.Cores)
      Cfg.NumCores = Req.Cores;
    runtime::EvalConfig EC = evalConfigOf(Req, Cfg);
    const runtime::RunProfile *Profiles[3] = {&Rec.App.Cae, &Rec.App.Manual,
                                              &Rec.App.Auto};
    const char *Names[3] = {"cae", "manual", "auto"};
    for (int I = 0; I != 3; ++I)
      if (Req.Scheme == "all" || Req.Scheme == Names[I]) {
        runtime::evaluate(*Profiles[I], Cfg, EC);
        ++Sh.PriceCalls;
      }
  }
  auto T4 = Clock::now();
  Sh.ParseS += secondsOf(T0, T1);
  Sh.GetS += secondsOf(T1, T2);
  Sh.DeserializeS += secondsOf(T2, T3);
  Sh.PriceS += secondsOf(T3, T4);
  if (!Miss)
    return;
  {
    Scope S("service.serialize");
    service::serializeAppResult(Rec.App);
  }
  auto T5 = Clock::now();
  {
    Scope S("service.cache_put");
    Scratch.put(Key, Payload);
  }
  Sh.SerializeS += secondsOf(T4, T5);
  Sh.PutS += secondsOf(T5, Clock::now());
}

/// One closed-loop client: sends its stream's next request as soon as the
/// previous reply is in, until \p Deadline.
void runClient(unsigned Id, service::Client &Conn, RequestStream &Stream,
               Clock::time_point Deadline, PayloadLedger &Ledger,
               service::ExperimentService *ShadowSvc,
               service::ResultCache *Scratch, std::atomic<std::uint64_t> &Ids,
               ClientLog &Log) {
  Tracer &Tr = Tracer::get();
  if (ShadowSvc)
    Tr.nameTrack("client-" + std::to_string(Id));
  while (Clock::now() < Deadline) {
    StreamRequest Q = Stream.next();
    Tr.setRequest(++Ids);
    service::JsonValue Reply;
    auto T0 = Clock::now();
    bool Got;
    {
      Scope S("client.request", -1);
      Got = roundTrip(Conn, Q.Line, Reply);
    }
    double Ms = std::chrono::duration<double, std::milli>(Clock::now() - T0)
                    .count();
    ++Log.Attempted;
    Log.AllMs.push_back(Ms);

    const service::JsonValue *Ok = Got ? Reply.get("ok") : nullptr;
    const service::JsonValue *Cache = Got ? Reply.get("cache") : nullptr;
    const service::JsonValue *Res = Got ? Reply.get("result") : nullptr;
    const service::JsonValue *Match = Res ? Res->get("outputs_match") : nullptr;
    const service::JsonValue *Fnv = Res ? Res->get("payload_fnv") : nullptr;
    std::string Why;
    if (!Got)
      Why = "no reply";
    else if (!Ok || !Ok->B || !Cache || !Match || !Fnv)
      Why = "error reply";
    else if (!Match->B)
      Why = "outputs differ across schemes";
    else if (!Ledger.agree(Q.Key, Fnv->Str))
      Why = "payload_fnv differs from an earlier reply for the same key";
    if (!Why.empty()) {
      ++Log.Failed;
      if (Log.Failures.size() < 5)
        Log.Failures.push_back(Why + ": " + Q.Line);
      continue;
    }
    bool Hit = Cache->Str == "memory" || Cache->Str == "disk";
    (Hit ? Log.HitMs : Log.MissMs).push_back(Ms);
    if (Hit)
      if (const service::JsonValue *L = Reply.get("latency_ms"))
        Log.ReportedHitMs.push_back(L->Num);
    if (ShadowSvc)
      shadowRequest(Q.Line, !Hit, *ShadowSvc, *Scratch, Log.Sh);
  }
}

struct Segment {
  ClientLog Merged;
  double WallS = 0.0;
  RssWindows Rss; ///< One-second windows.
};

/// Runs every client for \p Seconds and adds what they saw to \p S; with
/// \p Scratch the clients also repeat each request's layer calls (the traced
/// segment).
void runSegment(Daemon &D, std::vector<service::Client> &Conns,
                std::vector<RequestStream> &Streams, double Seconds,
                PayloadLedger &Ledger, service::ResultCache *Scratch,
                std::atomic<std::uint64_t> &Ids, Segment &S) {
  std::vector<ClientLog> Logs(Clients);
  std::vector<std::thread> Threads;
  auto T0 = Clock::now();
  auto Deadline =
      T0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Seconds));
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      runClient(C, Conns[C], Streams[C], Deadline, Ledger,
                Scratch ? &D.service() : nullptr, Scratch, Ids, Logs[C]);
    });
  S.Rss.restart();
  for (auto T = T0; T < Deadline;) {
    T = std::min(T + std::chrono::seconds(1), Deadline);
    std::this_thread::sleep_until(T);
    S.Rss.cut();
  }
  for (std::thread &T : Threads)
    T.join();
  S.WallS += secondsSince(T0);
  for (ClientLog &L : Logs) {
    auto Append = [](std::vector<double> &To, const std::vector<double> &F) {
      To.insert(To.end(), F.begin(), F.end());
    };
    Append(S.Merged.AllMs, L.AllMs);
    Append(S.Merged.HitMs, L.HitMs);
    Append(S.Merged.MissMs, L.MissMs);
    Append(S.Merged.ReportedHitMs, L.ReportedHitMs);
    S.Merged.Attempted += L.Attempted;
    S.Merged.Failed += L.Failed;
    for (std::string &F : L.Failures)
      S.Merged.Failures.push_back(std::move(F));
    S.Merged.Sh += L.Sh;
  }
}

/// Untraced: runs every client for \p Seconds in slices of about
/// SliceSeconds, reading the host gauge before the first slice and after
/// each one, while no request is in flight.
Segment runGauged(Daemon &D, std::vector<service::Client> &Conns,
                  std::vector<RequestStream> &Streams, double Seconds,
                  PayloadLedger &Ledger, std::atomic<std::uint64_t> &Ids,
                  GaugedOps &Ops) {
  constexpr double SliceSeconds = 3.0;
  unsigned Slices =
      std::max(1u, static_cast<unsigned>(Seconds / SliceSeconds + 0.5));
  Segment S;
  Ops.tick();
  for (unsigned I = 0; I != Slices; ++I) {
    std::size_t Before = S.Merged.AllMs.size();
    runSegment(D, Conns, Streams, Seconds / Slices, Ledger, nullptr, Ids, S);
    for (std::size_t J = Before; J != S.Merged.AllMs.size(); ++J)
      Ops.record(S.Merged.AllMs[J]);
    Ops.tick();
  }
  return S;
}

void record(RunOutcome &R, const Segment &S) {
  R.Attempted += S.Merged.Attempted;
  R.Failed += S.Merged.Failed;
  if (S.Merged.Failed)
    R.fail(std::to_string(S.Merged.Failed) + " failed requests");
  for (const std::string &F : S.Merged.Failures)
    std::fprintf(stderr, "perfbench:   %s\n", F.c_str());
}

} // namespace

RunOutcome perfbench::runServedMix(const Options &O) {
  RunOutcome R;
  const std::string Base =
      O.WorkDir + "/served-" + std::to_string(::getpid());

  // Set-up: start a daemon on an empty cache and warm it, three times; the
  // last one serves the run.
  std::unique_ptr<Daemon> D;
  std::vector<double> SetupS;
  for (int I = 0; I != 3; ++I) {
    D.reset();
    auto T0 = Clock::now();
    D = std::make_unique<Daemon>(Base + "-" + std::to_string(I));
    warm(*D);
    SetupS.push_back(secondsSince(T0));
  }

  std::vector<service::Client> Conns(Clients);
  std::vector<RequestStream> Streams;
  for (unsigned C = 0; C != Clients; ++C) {
    connectOrThrow(Conns[C], D->socket());
    Streams.emplace_back(O.Seed, C);
  }
  PayloadLedger Ledger;
  std::atomic<std::uint64_t> Ids{0};

  GaugedOps Ops(3);
  if (!O.Trace) {
    Segment S = runGauged(*D, Conns, Streams, O.Seconds, Ledger, Ids, Ops);
    record(R, S);
    addOpMetrics(R, Ops, S.WallS, median(SetupS), S.Rss);
    std::fprintf(stderr, "perfbench: %zu hits, %zu misses\n",
                 S.Merged.HitMs.size(), S.Merged.MissMs.size());
    return R;
  }

  // Traced run: an untraced half for the end-to-end figures and the
  // daemon's own counters, then a traced half repeating the layer calls.
  ServiceCounters C0 = statsOf(D->socket());
  Segment Plain =
      runGauged(*D, Conns, Streams, O.Seconds / 2, Ledger, Ids, Ops);
  ServiceCounters C1 = statsOf(D->socket());
  record(R, Plain);
  addOpMetrics(R, Ops, Plain.WallS, median(SetupS), Plain.Rss);

  service::ResultCache Scratch(Base + "-shadow-cache");
  Tracer &Tr = Tracer::get();
  Tr.clear();
  Tr.setEnabled(true);
  Segment Traced;
  runSegment(*D, Conns, Streams, O.Seconds / 2, Ledger, &Scratch, Ids,
             Traced);
  Tr.setEnabled(false);
  record(R, Traced);
  std::error_code Ec;
  std::filesystem::remove_all(Base + "-shadow-cache", Ec);

  const ClientLog &P = Plain.Merged;
  const Shadow &Sh = Traced.Merged.Sh;
  double PlainRate = static_cast<double>(P.AllMs.size()) / Plain.WallS;
  double Runs = (C1.Hits - C0.Hits) + (C1.Misses - C0.Misses);
  double ReportedMs = median(P.ReportedHitMs);
  std::fprintf(stderr,
               "perfbench: untraced %zu requests (%zu hits, %zu misses) in "
               "%.3f s; hit latency: client p50 %.4f ms, daemon-reported "
               "p50 %.4f ms\n",
               P.AllMs.size(), P.HitMs.size(), P.MissMs.size(), Plain.WallS,
               percentile(P.HitMs, 50.0), ReportedMs);
  std::map<std::string, double> Layers = {
      {"service.parse", Sh.ParseS},
      {"service.cache_get", Sh.GetS},
      {"service.deserialize", Sh.DeserializeS},
      {"runtime.price", Sh.PriceS},
      {"service.serialize", Sh.SerializeS},
      {"service.cache_put", Sh.PutS},
      {"client.request", Tr.selfSeconds()["client.request"]},
  };
  printLayerShares(Layers, Traced.WallS * Clients);

  auto &M = R.Metrics;
  M["req_per_s"] = PlainRate;
  M["hit_p50_ms"] = percentile(P.HitMs, 50.0);
  M["hit_p99_ms"] = percentile(P.HitMs, 99.0);
  M["miss_p50_ms"] = percentile(P.MissMs, 50.0);
  M["miss_p90_ms"] = percentile(P.MissMs, 90.0);
  M["fail_ratio"] =
      static_cast<double>(R.Failed) / static_cast<double>(R.Attempted);
  M["runtime.price_s"] = Sh.PriceS;
  M["runtime.price_calls"] = static_cast<double>(Sh.PriceCalls);
  M["service.parse_s"] = Sh.ParseS;
  M["service.cache_get_s"] = Sh.GetS;
  M["service.deserialize_s"] = Sh.DeserializeS;
  M["service.serialize_s"] = Sh.SerializeS;
  M["service.cache_put_s"] = Sh.PutS;
  M["service.hit_ratio"] = Runs > 0 ? (C1.Hits - C0.Hits) / Runs : 0.0;
  M["service.shared_ratio"] = Runs > 0 ? (C1.Shared - C0.Shared) / Runs : 0.0;
  M["service.reported_ms"] = ReportedMs;
  M["trace.wall_s"] = Traced.WallS;
  // Net of the repeated layer calls, which the clients spend on top of the
  // requests themselves.
  double ShadowS = Sh.ParseS + Sh.GetS + Sh.DeserializeS + Sh.PriceS +
                   Sh.SerializeS + Sh.PutS;
  M["trace.overhead_s"] =
      Traced.WallS -
      static_cast<double>(Traced.Merged.AllMs.size()) / PlainRate -
      ShadowS / Clients;
  return R;
}
