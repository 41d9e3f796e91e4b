//===- service/ResultPayload.h - Cacheable AppResult form -------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serialized form of one computed harness::AppResult — the unit the
/// experiment service caches (in memory and on disk) and prices per
/// request. The format is a line-oriented text record with every double in
/// C99 hexfloat, so a payload deserialized from the cache reproduces the
/// original profiles *bit for bit*: pricing a cached result under any
/// EvalConfig yields exactly the RunReport the one-shot run would have
/// produced. That is the property that lets the cache key exclude pricing
/// parameters entirely (service/ExperimentService.h).
///
/// Deliberate exclusions, both documented as telemetry/diagnostics rather
/// than results:
///  * RunProfile::FunctionalSeconds (host wall clock; excluded from
///    determinism comparisons everywhere) serializes as zero, keeping the
///    payload content-deterministic for identical requests.
///  * AppResult::Generation (per-task diagnostics holding IR pointers) is
///    not serialized; the scheme profiles and Table1Row carry everything
///    the pricing and figure paths consume.
///  * Output byte snapshots are stored as (length, FNV-1a) fingerprints —
///    enough to assert end-to-end bit-identity against an inline run
///    without persisting megabytes of array data per entry.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SERVICE_RESULTPAYLOAD_H
#define DAECC_SERVICE_RESULTPAYLOAD_H

#include "harness/Harness.h"
#include "support/Hash.h"

#include <cstdint>
#include <string>

namespace dae {
namespace service {

/// The result cache's fingerprints (disk-entry names and checks, output
/// snapshots) use daecc's one content hash.
using support::fnv1a;

/// (length, FNV-1a) fingerprint of one scheme's output byte snapshot.
struct OutputsFingerprint {
  std::uint64_t Bytes = 0;
  std::uint64_t Fnv = 0;
};

/// A deserialized payload: the AppResult (with empty output byte vectors —
/// only their fingerprints persist) plus the per-scheme output
/// fingerprints.
struct ResultRecord {
  harness::AppResult App;
  OutputsFingerprint CaeOut, ManualOut, AutoOut;
};

/// Serialized form of one AppResult (see file comment for exclusions).
/// Deterministic: identical results produce byte-identical payloads.
std::string serializeAppResult(const harness::AppResult &R);

/// Inverse of serializeAppResult. Returns false (leaving \p Out in an
/// unspecified state) on any malformed input — the cache layer treats that
/// as a corrupt entry and recomputes.
bool deserializeResult(const std::string &Payload, ResultRecord &Out);

} // namespace service
} // namespace dae

#endif // DAECC_SERVICE_RESULTPAYLOAD_H
