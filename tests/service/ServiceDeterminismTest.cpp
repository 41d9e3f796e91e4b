//===- tests/service/ServiceDeterminismTest.cpp - Daemon determinism -------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The experiment daemon's load-bearing property: a served result is
// bit-identical to the same request run one-shot through harness::runApp.
// That is what makes results cacheable at all, so it is asserted payload-
// for-payload across every workload, across cache levels (miss / memory /
// disk), across a daemon restart, and after deliberate cache corruption.
// The transport (Server/Client over a Unix socket) and the failure surface
// (structured error replies, bounded-queue backpressure) ride along.
//
//===----------------------------------------------------------------------===//

#include "service/ExperimentService.h"
#include "service/ResultPayload.h"
#include "service/Server.h"

#include "harness/Harness.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace dae;
using namespace dae::service;

namespace {

constexpr const char *AllWorkloads[] = {"lu",   "cholesky", "fft", "lbm",
                                        "libq", "cigar",    "cg"};

std::string runRequest(const std::string &Workload) {
  return "{\"op\": \"run\", \"workload\": \"" + Workload +
         "\", \"scale\": \"test\", \"scheme\": \"all\", \"policy\": "
         "\"minmax\"}";
}

/// Sends one line to the service and parses the reply JSON.
JsonValue handle(ExperimentService &Svc, const std::string &Line,
                 unsigned Client = 0) {
  bool Shutdown = false;
  std::string Reply = Svc.handleLine(Line, Client, Shutdown);
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Reply, V, Err)) << Err << "\nreply: " << Reply;
  return V;
}

std::string strField(const JsonValue &V, const char *Key) {
  const JsonValue *F = V.get(Key);
  return F && F->isString() ? F->Str : std::string();
}

/// The reply's "result" object re-serialized key order and all — identical
/// requests must produce identical results regardless of which cache level
/// answered, so everything except the latency field must match.
std::string resultFingerprint(const JsonValue &Reply) {
  const JsonValue *R = Reply.get("result");
  if (!R)
    return "";
  std::string Out;
  std::function<void(const JsonValue &)> Dump = [&](const JsonValue &V) {
    switch (V.K) {
    case JsonValue::Kind::Null:
      Out += "null";
      break;
    case JsonValue::Kind::Bool:
      Out += V.B ? "true" : "false";
      break;
    case JsonValue::Kind::Number:
      Out += hexDouble(V.Num);
      break;
    case JsonValue::Kind::String:
      Out += "\"" + V.Str + "\"";
      break;
    case JsonValue::Kind::Array:
      Out += "[";
      for (const JsonValue &E : V.Arr)
        Dump(E);
      Out += "]";
      break;
    case JsonValue::Kind::Object:
      Out += "{";
      for (const auto &[K, E] : V.Obj) {
        Out += K + ":";
        Dump(E);
      }
      Out += "}";
      break;
    }
  };
  Dump(*R);
  return Out;
}

class TempDir {
public:
  explicit TempDir(const char *Name)
      : Path(std::filesystem::temp_directory_path() /
             (std::string("daecc_") + Name + "_" +
              std::to_string(::getpid()))) {
    std::filesystem::remove_all(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
  std::string str() const { return Path.string(); }

private:
  std::filesystem::path Path;
};

// A result served by the daemon is bit-identical to the one-shot pipeline:
// the reply's payload_fnv equals the FNV of serializeAppResult(runApp(...))
// computed inline, for every workload.
TEST(ServiceDeterminismTest, ServedEqualsOneShotForEveryWorkload) {
  ExperimentService::Config C;
  ExperimentService Svc(C);
  for (const char *Name : AllWorkloads) {
    JsonValue Reply = handle(Svc, runRequest(Name));
    ASSERT_TRUE(Reply.get("ok") && Reply.get("ok")->B) << Name;

    auto W = workloads::buildByName(Name, workloads::Scale::Test);
    ASSERT_NE(W, nullptr);
    sim::MachineConfig Cfg;
    harness::AppResult Inline = harness::runApp(*W, Cfg);
    char Want[32];
    std::snprintf(Want, sizeof(Want), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(serializeAppResult(Inline))));
    EXPECT_EQ(strField(*Reply.get("result"), "payload_fnv"), Want) << Name;
    EXPECT_TRUE(Reply.get("result")->get("outputs_match")->B) << Name;
  }
}

// The serialized payload round-trips losslessly: pricing a deserialized
// profile gives the same hexfloat-exact numbers as pricing the original.
TEST(ServiceDeterminismTest, PayloadRoundTripsBitExactly) {
  auto W = workloads::buildByName("cholesky", workloads::Scale::Test);
  sim::MachineConfig Cfg;
  harness::AppResult R = harness::runApp(*W, Cfg, nullptr, nullptr,
                                         /*DaeVerify=*/true);
  std::string Payload = serializeAppResult(R);
  ResultRecord Rec;
  ASSERT_TRUE(deserializeResult(Payload, Rec));
  // Outputs travel as fingerprints, not bytes; they must match the
  // originals exactly.
  EXPECT_EQ(Rec.AutoOut.Bytes, R.AutoOutputs.size());
  EXPECT_EQ(Rec.AutoOut.Fnv,
            fnv1a(R.AutoOutputs.data(), R.AutoOutputs.size()));
  EXPECT_EQ(Rec.CaeOut.Fnv, Rec.ManualOut.Fnv);
  // Re-serializing the deserialized record (with the byte snapshots put
  // back) reproduces the payload verbatim — nothing else was lossy.
  Rec.App.CaeOutputs = R.CaeOutputs;
  Rec.App.ManualOutputs = R.ManualOutputs;
  Rec.App.AutoOutputs = R.AutoOutputs;
  EXPECT_EQ(serializeAppResult(Rec.App), Payload);

  runtime::EvalConfig EC = harness::minMaxConfig(Cfg, -1.0);
  runtime::RunReport A = runtime::evaluate(R.Auto, Cfg, EC);
  runtime::RunReport B = runtime::evaluate(Rec.App.Auto, Cfg, EC);
  EXPECT_EQ(A.TimeSec, B.TimeSec);
  EXPECT_EQ(A.EnergyJ, B.EnergyJ);
  EXPECT_EQ(A.EdpJs, B.EdpJs);
  EXPECT_EQ(A.NumTransitions, B.NumTransitions);
  // Verify verdicts survive too.
  EXPECT_EQ(Rec.App.AutoVerify.Ran, R.AutoVerify.Ran);
  EXPECT_EQ(Rec.App.AutoVerify.Diff.BaselineExecMisses,
            R.AutoVerify.Diff.BaselineExecMisses);
}

// Repeating a request hits the memory cache, reports it, and serves the
// identical result at a fraction of the compute latency.
TEST(ServiceDeterminismTest, RepeatHitsMemoryCacheWithIdenticalResult) {
  ExperimentService::Config C;
  ExperimentService Svc(C);
  JsonValue First = handle(Svc, runRequest("libq"));
  EXPECT_EQ(strField(First, "cache"), "miss");
  JsonValue Second = handle(Svc, runRequest("libq"));
  EXPECT_EQ(strField(Second, "cache"), "memory");
  EXPECT_EQ(resultFingerprint(First), resultFingerprint(Second));
  ASSERT_FALSE(resultFingerprint(First).empty());

  // The hit must be at least 10x faster than the compute (the issue's bar;
  // in practice it is 100-1000x). Latencies come from the service's own
  // counters so the assertion covers the instrumented path end to end.
  JsonValue Stats = handle(Svc, "{\"op\": \"stats\"}");
  const JsonValue *S = Stats.get("service");
  ASSERT_NE(S, nullptr);
  const JsonValue *Lat = S->get("latency_ms");
  double HitMean = Lat->get("hit")->get("mean")->Num;
  double MissMean = Lat->get("miss")->get("mean")->Num;
  EXPECT_GT(MissMean, 0.0);
  EXPECT_LT(HitMean, MissMean / 10.0);
  EXPECT_EQ(S->get("memory_hits")->Num, 1.0);
  EXPECT_EQ(S->get("misses")->Num, 1.0);
}

// Same compute under different pricing: the second request must reuse the
// cached simulation (pricing is excluded from the key) and still price
// differently.
TEST(ServiceDeterminismTest, PricingIsExcludedFromTheComputeKey) {
  ExperimentService::Config C;
  ExperimentService Svc(C);
  JsonValue MinMax = handle(Svc, runRequest("cigar"));
  JsonValue Stats1 = handle(Svc, "{\"op\": \"stats\"}");
  JsonValue Opt = handle(
      Svc, "{\"op\": \"run\", \"workload\": \"cigar\", \"scale\": \"test\", "
           "\"scheme\": \"all\", \"policy\": \"optimal\"}");
  EXPECT_EQ(strField(Opt, "cache"), "memory");
  // Same simulation, different policy outcome.
  EXPECT_EQ(strField(*MinMax.get("result"), "payload_fnv"),
            strField(*Opt.get("result"), "payload_fnv"));
  const JsonValue *RepA =
      MinMax.get("result")->get("reports")->get("auto");
  const JsonValue *RepB = Opt.get("result")->get("reports")->get("auto");
  EXPECT_EQ(strField(*RepA, "policy"), "minmax");
  EXPECT_EQ(strField(*RepB, "policy"), "optimal");
  (void)Stats1;
}

// Disk persistence: a fresh service instance on the same cache directory
// serves the identical result from disk; corrupting the entry afterwards is
// detected, counted, recomputed, and the rewritten entry is valid again.
TEST(ServiceDeterminismTest, DiskCacheSurvivesRestartAndCorruption) {
  TempDir Dir("svc_disk");
  std::string Fp1;
  {
    ExperimentService::Config C;
    C.CacheDir = Dir.str();
    ExperimentService Svc(C);
    JsonValue R = handle(Svc, runRequest("cg"));
    EXPECT_EQ(strField(R, "cache"), "miss");
    Fp1 = resultFingerprint(R);
    ASSERT_FALSE(Fp1.empty());
  }

  // Restart: served from disk, bit-identical.
  {
    ExperimentService::Config C;
    C.CacheDir = Dir.str();
    ExperimentService Svc(C);
    JsonValue R = handle(Svc, runRequest("cg"));
    EXPECT_EQ(strField(R, "cache"), "disk");
    EXPECT_EQ(resultFingerprint(R), Fp1);
  }

  // Corrupt the entry (truncate): next service detects it, recomputes, and
  // the result is still identical.
  std::filesystem::path Entry;
  for (const auto &E : std::filesystem::directory_iterator(Dir.str()))
    if (E.path().extension() == ".res")
      Entry = E.path();
  ASSERT_FALSE(Entry.empty());
  std::filesystem::resize_file(Entry, 10);
  {
    ExperimentService::Config C;
    C.CacheDir = Dir.str();
    ExperimentService Svc(C);
    JsonValue R = handle(Svc, runRequest("cg"));
    EXPECT_EQ(strField(R, "cache"), "miss");
    EXPECT_EQ(resultFingerprint(R), Fp1);
    JsonValue Stats = handle(Svc, "{\"op\": \"stats\"}");
    EXPECT_EQ(Stats.get("service")->get("corrupt_entries")->Num, 1.0);
  }
  // And the recompute rewrote a valid entry.
  {
    ExperimentService::Config C;
    C.CacheDir = Dir.str();
    ExperimentService Svc(C);
    JsonValue R = handle(Svc, runRequest("cg"));
    EXPECT_EQ(strField(R, "cache"), "disk");
    EXPECT_EQ(resultFingerprint(R), Fp1);
  }
}

std::string entryPathFor(const std::string &Dir, const std::string &Key) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.res",
                static_cast<unsigned long long>(fnv1a(Key)));
  return Dir + "/" + Name;
}

// A 64-bit fingerprint collision between two distinct canonical keys must
// degrade to a miss, never serve the other request's bit-exact-looking
// payload. Simulated by copying key A's valid, checksummed disk entry onto
// the path key B's fingerprint would name: the stored canonical key no
// longer matches the lookup, so B misses while A still hits.
TEST(ServiceDeterminismTest, FingerprintCollisionIsAMissNotAWrongResult) {
  TempDir Dir("svc_coll");
  const std::string KeyA = "daecc-compute 1|lu|test|cores=1";
  const std::string KeyB = "daecc-compute 1|fft|test|cores=2";
  const std::string PayloadA = "payload-for-A";
  {
    ResultCache C(Dir.str());
    C.put(KeyA, PayloadA);
  }
  std::filesystem::copy_file(entryPathFor(Dir.str(), KeyA),
                             entryPathFor(Dir.str(), KeyB));

  ResultCache C(Dir.str());
  std::string P;
  EXPECT_EQ(C.get(KeyB, P), ResultCache::Source::Miss);
  EXPECT_TRUE(P.empty());
  // A collision is not corruption: the entry is valid for *its* key, stays
  // on disk, and key A still hits it.
  EXPECT_EQ(C.stats().CorruptEntries, 0u);
  EXPECT_EQ(C.get(KeyA, P), ResultCache::Source::Disk);
  EXPECT_EQ(P, PayloadA);
  // The promoted memory entry is keyed by the full canonical string too:
  // B still misses after A's promotion.
  P.clear();
  EXPECT_EQ(C.get(KeyB, P), ResultCache::Source::Miss);
  EXPECT_TRUE(P.empty());
}

// Entries from the keyless daecc1 format (or any other version skew) are
// corrupt, not servable: counted, removed, and recomputed — never trusted
// without a canonical-key comparison.
TEST(ServiceDeterminismTest, StaleFormatEntryIsCorruptNotServed) {
  TempDir Dir("svc_stale");
  const std::string Key = "daecc-compute 1|lu|test|cores=1";
  std::filesystem::create_directories(Dir.str());
  const std::string Path = entryPathFor(Dir.str(), Key);
  {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    const std::string Old = "old-format-payload";
    std::fprintf(F, "daecc1 %016llx %llu\n",
                 static_cast<unsigned long long>(fnv1a(Old)),
                 static_cast<unsigned long long>(Old.size()));
    std::fwrite(Old.data(), 1, Old.size(), F);
    std::fclose(F);
  }
  ResultCache C(Dir.str());
  std::string P;
  EXPECT_EQ(C.get(Key, P), ResultCache::Source::Miss);
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path));
  // Rewriting under the current format round-trips.
  C.put(Key, "fresh");
  ResultCache C2(Dir.str());
  EXPECT_EQ(C2.get(Key, P), ResultCache::Source::Disk);
  EXPECT_EQ(P, "fresh");
}

// Every CLI exit-2 class error is a structured reply, and the daemon keeps
// serving afterwards.
TEST(ServiceDeterminismTest, MalformedRequestsGetStructuredErrors) {
  ExperimentService::Config C;
  ExperimentService Svc(C);
  auto ExpectBad = [&](const std::string &Line, const char *Code) {
    JsonValue R = handle(Svc, Line);
    ASSERT_TRUE(R.get("ok")) << Line;
    EXPECT_FALSE(R.get("ok")->B) << Line;
    EXPECT_EQ(strField(R, "code"), Code) << Line;
    EXPECT_FALSE(strField(R, "error").empty()) << Line;
  };
  ExpectBad("this is not json", "bad_request");
  ExpectBad("[1, 2, 3]", "bad_request");
  ExpectBad("{\"op\": \"fly\"}", "bad_request");
  ExpectBad("{\"op\": \"run\"}", "bad_request"); // missing workload
  ExpectBad("{\"op\": \"run\", \"workload\": \"doom\"}", "bad_request");
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"scale\": \"huge\"}",
            "bad_request");
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"scheme\": \"best\"}",
            "bad_request");
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"policy\": \"warp\"}",
            "bad_request");
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"cores\": 0}",
            "bad_request");
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"cores\": 2.5}",
            "bad_request");
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"big_cores\": 2}",
            "bad_request"); // little_cores missing
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"turbo\": true}",
            "bad_request"); // unknown key
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"options\": "
            "{\"warp\": 1}}",
            "bad_request"); // unknown knob
  ExpectBad("{\"op\": \"run\", \"workload\": \"lu\", \"transition_ns\": -5}",
            "bad_request");
  // Nesting past MaxJsonDepth is refused before it can exhaust the stack.
  ExpectBad(std::string(2000000, '['), "bad_request");

  // Still alive and correct after the error volley.
  JsonValue Good = handle(Svc, runRequest("lu"));
  EXPECT_TRUE(Good.get("ok")->B);
  JsonValue Stats = handle(Svc, "{\"op\": \"stats\"}");
  EXPECT_EQ(Stats.get("service")->get("errors")->Num, 15.0);
}

// The nesting cap is exact: MaxJsonDepth levels parse, one more fails.
TEST(ServiceDeterminismTest, JsonNestingCapIsExact) {
  auto Nested = [](unsigned Depth) {
    return std::string(Depth, '[') + std::string(Depth, ']');
  };
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Nested(MaxJsonDepth), V, Err)) << Err;
  EXPECT_FALSE(parseJson(Nested(MaxJsonDepth + 1), V, Err));
  EXPECT_NE(Err.find("nesting too deep"), std::string::npos) << Err;
  EXPECT_FALSE(parseJson("{\"a\": " + Nested(MaxJsonDepth) + "}", V, Err));
}

// Generator-knob overrides change the compute key and the result; the same
// override twice shares one cache entry.
TEST(ServiceDeterminismTest, OptionOverridesAreKeyedSeparately) {
  ExperimentService::Config C;
  ExperimentService Svc(C);
  std::string Base = runRequest("lu");
  std::string Hull =
      "{\"op\": \"run\", \"workload\": \"lu\", \"scale\": \"test\", "
      "\"scheme\": \"all\", \"policy\": \"minmax\", \"options\": "
      "{\"convex_union\": false}}";
  JsonValue R1 = handle(Svc, Base);
  JsonValue R2 = handle(Svc, Hull);
  EXPECT_EQ(strField(R2, "cache"), "miss"); // distinct compute
  JsonValue R3 = handle(Svc, Hull);
  EXPECT_EQ(strField(R3, "cache"), "memory");
  EXPECT_EQ(resultFingerprint(R2), resultFingerprint(R3));
}

// A zero-length admission queue means immediate structured backpressure.
TEST(ServiceDeterminismTest, BoundedQueueRejectsWithBusy) {
  ExperimentService::Config C;
  C.MaxQueue = 0;
  ExperimentService Svc(C);
  JsonValue R = handle(Svc, runRequest("lu"));
  EXPECT_FALSE(R.get("ok")->B);
  EXPECT_EQ(strField(R, "code"), "busy");
  JsonValue Stats = handle(Svc, "{\"op\": \"stats\"}");
  EXPECT_EQ(Stats.get("service")->get("rejected_busy")->Num, 1.0);
}

// Concurrent identical requests coalesce onto one in-flight compute.
TEST(ServiceDeterminismTest, ConcurrentIdenticalRequestsShareTheCompute) {
  ExperimentService::Config C;
  C.Jobs = 2;
  ExperimentService Svc(C);
  std::string Fp[4];
  std::vector<std::thread> Ts;
  for (int I = 0; I != 4; ++I)
    Ts.emplace_back([&, I] {
      bool Shutdown = false;
      std::string Reply =
          Svc.handleLine(runRequest("fft"), static_cast<unsigned>(I),
                         Shutdown);
      JsonValue V;
      std::string Err;
      ASSERT_TRUE(parseJson(Reply, V, Err));
      ASSERT_TRUE(V.get("ok")->B);
      Fp[I] = resultFingerprint(V);
    });
  for (std::thread &T : Ts)
    T.join();
  for (int I = 1; I != 4; ++I)
    EXPECT_EQ(Fp[0], Fp[I]);
  // However the race resolved, at most one compute ran: every request was
  // answered by the miss itself, an attach to it, or the cache right after.
  JsonValue Stats = handle(Svc, "{\"op\": \"stats\"}");
  EXPECT_EQ(Stats.get("service")->get("misses")->Num +
                Stats.get("service")->get("memory_hits")->Num,
            4.0);
}

// A long-lived daemon must not hold one thread handle per connection ever
// accepted: finished connections retire their handle and the accept loop
// reaps it, so the tracked set converges to the open connections.
TEST(ServiceDeterminismTest, FinishedConnectionThreadsAreReaped) {
  TempDir Dir("svc_reap");
  std::filesystem::create_directories(Dir.str());
  std::string Sock = Dir.str() + "/r.sock";
  Server Srv(Sock, [](const std::string &Line, unsigned, bool &) {
    return Line; // echo — the transport is what is under test
  });
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  std::thread ServeThread([&] { Srv.serve(); });

  for (int I = 0; I != 8; ++I) {
    Client C;
    ASSERT_TRUE(C.connect(Sock, Err)) << Err;
    std::string Reply;
    ASSERT_TRUE(C.request("ping", Reply));
    EXPECT_EQ(Reply, "ping");
  }
  // Reaping happens on accept, and a just-closed connection's thread may
  // not have retired its handle yet — poke the accept loop until the
  // tracked set shrinks to at most the poking connection plus a straggler.
  std::size_t Tracked = 1000;
  for (int Tries = 0; Tries != 100 && Tracked > 2; ++Tries) {
    Client C;
    ASSERT_TRUE(C.connect(Sock, Err)) << Err;
    std::string Reply;
    ASSERT_TRUE(C.request("ping", Reply));
    C.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Tracked = Srv.trackedThreads();
  }
  EXPECT_LE(Tracked, 2u);
  Srv.requestStop();
  ServeThread.join();
  EXPECT_EQ(Srv.trackedThreads(), 0u);
}

// A line past Server::MaxLineBytes gets one structured too_large reply, and
// then the connection closes; the server keeps serving other connections.
TEST(ServiceDeterminismTest, OverlongLineGetsTooLargeAndCloses) {
  TempDir Dir("svc_long");
  std::filesystem::create_directories(Dir.str());
  std::string Sock = Dir.str() + "/l.sock";
  Server Srv(Sock, [](const std::string &Line, unsigned, bool &) {
    return Line;
  });
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  std::thread ServeThread([&] { Srv.serve(); });

  // Raw socket, no newline: the server refuses once the unterminated line
  // passes the cap, which needs every byte sent here.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Sock.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  const std::string Long(Server::MaxLineBytes + 1, 'x');
  for (std::size_t Sent = 0; Sent != Long.size();) {
    ssize_t W = ::send(Fd, Long.data() + Sent, Long.size() - Sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(W, 0);
    Sent += static_cast<std::size_t>(W);
  }
  std::string Got;
  char Chunk[4096];
  for (ssize_t N; (N = ::read(Fd, Chunk, sizeof(Chunk))) > 0;)
    Got.append(Chunk, static_cast<std::size_t>(N));
  ::close(Fd); // read() returned 0: the server closed the connection
  ASSERT_FALSE(Got.empty());
  EXPECT_EQ(Got.back(), '\n');
  Got.pop_back();
  JsonValue R;
  ASSERT_TRUE(parseJson(Got, R, Err)) << Got;
  EXPECT_FALSE(R.get("ok")->B);
  EXPECT_EQ(strField(R, "code"), "too_large");

  Client C;
  ASSERT_TRUE(C.connect(Sock, Err)) << Err;
  std::string Reply;
  ASSERT_TRUE(C.request("ping", Reply));
  EXPECT_EQ(Reply, "ping");
  C.close();
  Srv.requestStop();
  ServeThread.join();
}

// Full transport round trip: daemon on a Unix socket, two clients, repeat
// request served from cache, shutdown op stops the server.
TEST(ServiceDeterminismTest, SocketRoundTripServesAndShutsDown) {
  TempDir Dir("svc_sock");
  std::filesystem::create_directories(Dir.str());
  std::string Sock = Dir.str() + "/d.sock";
  ExperimentService::Config C;
  ExperimentService Svc(C);
  Server Srv(Sock, [&](const std::string &Line, unsigned Id, bool &Down) {
    return Svc.handleLine(Line, Id, Down);
  });
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  std::thread ServeThread([&] { Srv.serve(); });

  Client C1, C2;
  ASSERT_TRUE(C1.connect(Sock, Err)) << Err;
  ASSERT_TRUE(C2.connect(Sock, Err)) << Err;
  std::string Reply1, Reply2;
  ASSERT_TRUE(C1.request(runRequest("lbm"), Reply1));
  ASSERT_TRUE(C2.request(runRequest("lbm"), Reply2));
  JsonValue V1, V2;
  ASSERT_TRUE(parseJson(Reply1, V1, Err));
  ASSERT_TRUE(parseJson(Reply2, V2, Err));
  EXPECT_TRUE(V1.get("ok")->B);
  EXPECT_EQ(strField(V2, "cache"), "memory");
  EXPECT_EQ(resultFingerprint(V1), resultFingerprint(V2));

  std::string Bye;
  ASSERT_TRUE(C1.request("{\"op\": \"shutdown\"}", Bye));
  EXPECT_NE(Bye.find("shutting_down"), std::string::npos);
  ServeThread.join();
  // The socket file is gone after a clean shutdown.
  EXPECT_FALSE(std::filesystem::exists(Sock));
}

} // namespace
