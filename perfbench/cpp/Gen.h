//===- perfbench/cpp/Gen.h - Seeded input generators ------------*- C++ -*-===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark feeds daecc is drawn here from the run's seed:
/// the generator-knob variants of compile_sweep and the request streams of
/// served_mix. The same seed gives the same inputs on every host (the
/// generator is splitmix64, not a library distribution whose mapping is
/// implementation-defined).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include "dae/DaeOptions.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, N); N > 0.
  std::uint64_t below(std::uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t State;
};

/// The seven paper programs, by registry name, in Table 1 order.
extern const char *const ProgramNames[7];

/// One point of the generator-knob space compile_sweep walks.
struct KnobVariant {
  bool ConvexUnion = true;
  bool SplitClasses = true;
  bool MergeLoopNests = true;
  bool SimplifyCfg = true;
  bool PrefetchWrites = false;
  bool PrefetchPerLine = false;
  std::int64_t HullSlack = 0;

  /// Overrides the knobs of \p O (a workload's own options), keeping its
  /// representative arguments.
  void applyTo(dae::DaeOptions &O) const;
  std::string str() const;
  bool operator==(const KnobVariant &Other) const = default;
};

/// \p Count distinct variants drawn without replacement from the knob space
/// (six booleans x eight hull-slack values); Count <= 512.
std::vector<KnobVariant> knobVariants(std::uint64_t Seed, std::size_t Count);

/// Compute keys warmed before the measured loop: each program at test
/// scale, plus two cheap full-scale entries whose hits carry large payloads.
std::vector<std::string> warmRequests();

/// One request line of a client's stream.
struct StreamRequest {
  std::string Line;
  /// The compute fields of Line (workload, scale, machine, knobs), written
  /// in one fixed order: equal exactly when the daemon's cache keys are.
  std::string Key;
  bool NewKey = false;
  bool Full = false;
};

/// A client's seeded request stream. Streams of different clients of one
/// run differ; new keys never repeat within a stream. Its shares are
/// documented in Gen.cpp and perfbench/NOTES.md.
class RequestStream {
public:
  RequestStream(std::uint64_t Seed, unsigned Client);
  StreamRequest next();

private:
  std::string newKeyFields();

  Rng R;
  std::vector<std::string> Warm;
  std::set<std::string> Issued;
};

} // namespace perfbench

#endif // PERFBENCH_GEN_H
