//===- service/ExperimentService.h - Long-lived experiment daemon *- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon mode's core: accepts experiment requests (workload + machine
/// shape + generator knobs + pricing policy), executes them on a shared
/// harness::JobPool, and serves repeats from a persistent ResultCache. A
/// served result is bit-identical to the same request run one-shot through
/// harness::runApp — the determinism property the whole repo is built on is
/// exactly what makes results cacheable.
///
/// Request protocol (one JSON object per line; see service/Server.h for
/// framing):
///
///   {"op": "run", "workload": "lu", "scale": "test", "scheme": "all",
///    "policy": "minmax", "transition_ns": 500, "cores": 4,
///    "dae_verify": false, "options": {"simplify_cfg": true, ...}}
///
/// ops: "run" (default), "stats" (service counters), "shutdown".
/// Validation follows BenchOptions::parse semantics: every exit-2 class
/// error of the CLI surface (unknown workload, bad policy name, zero core
/// count, unknown request key, ...) becomes a structured
/// {"ok": false, "code": "bad_request", "error": ...} reply — the daemon
/// never exits on a bad request.
///
/// Cache key: the canonical string of the *compute* parameters only —
/// workload, scale, machine shape, generator-knob overrides, dae_verify —
/// compared in full on every lookup (its FNV-1a fingerprint only names the
/// disk file, so a fingerprint collision degrades to a miss, never a wrong
/// result).
/// Pricing parameters (scheme/policy/transition_ns) are deliberately
/// excluded: profiles are priced analytically per request (the paper's
/// one-simulation-per-scheme methodology), so a policy sweep over one
/// workload costs one simulation plus N cheap evaluations. Backend,
/// sim-threads and jobs are also excluded — simulated results are
/// bit-identical across all of them by construction.
///
/// Batched admission: requests for the same key attach to the in-flight
/// computation instead of queueing a duplicate (shared_computes counter);
/// distinct computations queue per client and are admitted round-robin
/// across clients (a flooding sweep cannot starve an interactive request),
/// with a bounded total queue — beyond it requests get an immediate
/// structured "busy" reply (rejected_busy) rather than unbounded latency.
/// Queued work shares one GenerationMemo, so admitted configs that differ
/// only in knobs a workload never exercises share generation work too.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SERVICE_EXPERIMENTSERVICE_H
#define DAECC_SERVICE_EXPERIMENTSERVICE_H

#include "dae/GenerationMemo.h"
#include "harness/JobPool.h"
#include "service/Json.h"
#include "service/ResultCache.h"
#include "workloads/Workload.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dae {
namespace service {

/// One validated "run" request.
struct Request {
  // --- Compute parameters (cache-key relevant) ---
  std::string Workload;                        ///< Registry name.
  workloads::Scale Scale = workloads::Scale::Test;
  unsigned Cores = 0;                          ///< 0 = machine default.
  unsigned BigCores = 0, LittleCores = 0;      ///< big.LITTLE topology.
  bool DaeVerify = false;
  /// Generator-knob overrides, applied over the workload's own DaeOptions.
  /// Absent fields keep the workload default (and wildcard in the key).
  std::optional<bool> ConvexUnion, SplitClasses, MergeLoopNests, SimplifyCfg,
      PrefetchWrites, PrefetchPerCacheLine;
  std::optional<std::int64_t> HullSlackThreshold, CacheLineBytes;
  std::optional<long long> CountLimit;
  std::optional<std::vector<std::int64_t>> RepresentativeArgs;

  // --- Pricing parameters (per-request, never in the key) ---
  std::string Scheme = "all"; ///< cae | manual | auto | all.
  /// maxfreq | minmax | optimal | ondemand | conservative.
  std::string Policy = "minmax";
  double TransitionNs = -1.0; ///< <0 keeps the machine default (500 ns).
};

/// Parses and validates a "run" request object. Returns an empty string on
/// success, else the validation error message (unknown workload, bad value,
/// unknown key, ...).
std::string parseRequest(const JsonValue &V, Request &Out);

/// The canonical compute-key string of \p R (see file comment for what is
/// and is not included). This full string — not its 64-bit fingerprint —
/// identifies a cache entry and an in-flight compute, so two distinct
/// requests whose fingerprints collide still never share a result; the
/// FNV-1a fingerprint only names the disk file (ResultCache).
std::string canonicalKeyOf(const Request &R);

class ExperimentService {
public:
  struct Config {
    std::string CacheDir;     ///< Empty = no disk persistence.
    unsigned Jobs = 1;        ///< Concurrent compute jobs.
    unsigned SimThreads = 1;  ///< Per-job functional threads (pool-clamped).
    std::size_t MaxQueue = 64;           ///< Pending-compute bound.
    std::size_t MemCacheBytes = std::size_t(256) << 20;
  };

  explicit ExperimentService(Config C);
  ~ExperimentService();
  ExperimentService(const ExperimentService &) = delete;
  ExperimentService &operator=(const ExperimentService &) = delete;

  /// Handles one request line from \p ClientId and returns the reply line
  /// (no trailing newline). Sets \p Shutdown when the request asked the
  /// daemon to stop. Never throws, never exits: every failure is a
  /// structured error reply.
  std::string handleLine(const std::string &Line, unsigned ClientId,
                         bool &Shutdown);

  /// The `service` JSON block (BENCH_*.json schema): request/latency/cache/
  /// queue/memo counters.
  std::string statsJson() const;

  ResultCache &cache() { return Cache; }

private:
  struct ComputeSlot {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    bool Ok = false;
    std::string Payload;
    std::string Error;
  };
  struct Pending {
    std::string Key; ///< Canonical compute-key string.
    Request Req;
    std::shared_ptr<ComputeSlot> Slot;
  };
  struct LatencyAcc {
    std::uint64_t Count = 0;
    double TotalMs = 0.0;
    double MaxMs = 0.0;
    void add(double Ms) {
      ++Count;
      TotalMs += Ms;
      if (Ms > MaxMs)
        MaxMs = Ms;
    }
  };

  std::string handleRun(const JsonValue &V, unsigned ClientId);
  /// Computes (or attaches to) \p Req's result; returns the payload or an
  /// error via \p Error. \p CacheTag reports where it came from.
  bool obtainPayload(const Request &Req, unsigned ClientId,
                     std::string &Payload, const char *&CacheTag,
                     std::string &Error);
  void runnerLoop();
  bool popNextLocked(Pending &Out);
  void executeCompute(const Pending &P);
  /// Deserializes and prices \p Payload into the reply. The reply's
  /// latency_ms, and the hit/miss latency stats, run from \p Start to just
  /// before the reply is formatted, so they include deserialize and pricing.
  std::string priceReply(const Request &Req, const std::string &Payload,
                         const char *CacheTag,
                         std::chrono::steady_clock::time_point Start);

  Config C;
  GenerationMemo Memo;
  ResultCache Cache;

  mutable std::mutex M;
  /// In-flight computes by canonical key string (not fingerprint — attach
  /// must never coalesce two distinct requests across a hash collision).
  std::map<std::string, std::shared_ptr<ComputeSlot>> InFlight;
  /// Per-client admission queues, swept round-robin by the runners.
  std::vector<std::pair<unsigned, std::deque<Pending>>> ClientQueues;
  std::size_t RrCursor = 0;
  std::size_t QueuedCount = 0;
  unsigned ActiveRunners = 0;

  std::uint64_t Requests = 0;
  std::uint64_t Errors = 0;
  std::uint64_t SharedComputes = 0;
  std::uint64_t RejectedBusy = 0;
  LatencyAcc HitLatency, MissLatency;

  /// Declared last so its destructor runs first: the pool joins its workers
  /// (draining queued runner jobs) while Memo/Cache are still alive.
  harness::JobPool Pool;
};

} // namespace service
} // namespace dae

#endif // DAECC_SERVICE_EXPERIMENTSERVICE_H
