//===- perfbench/cpp/Gen.cpp - Seeded input generators --------------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include <numeric>

using namespace perfbench;

const char *const perfbench::ProgramNames[7] = {"lu",   "cholesky", "fft",
                                                "lbm",  "libq",     "cigar",
                                                "cg"};

std::uint64_t Rng::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

/// Hull-slack values of the knob space: the paper's default 0, a few
/// thresholds that flip individual guards, and "guard off".
const std::int64_t HullSlacks[8] = {0, 1, 4, 16, 64, 256, 4096, 1 << 20};

/// The pricing grid a hit draws from: every scheme and policy the request
/// protocol accepts, and the transition latencies bench/ablation_latency
/// sweeps.
const char *const Schemes[4] = {"cae", "manual", "auto", "all"};
const char *const Policies[5] = {"maxfreq", "minmax", "optimal", "ondemand",
                                 "conservative"};
const int TransitionsNs[7] = {0, 100, 250, 500, 1000, 2000, 4000};

/// New compute keys: one per pricing-grid point, as when each computed
/// result is priced once at every point of the grid.
constexpr double MissShare = 1.0 / (4 * 5 * 7);
/// Hits on the two warmed full-scale entries. Assumed: the repository's
/// daemon sweeps run at test scale only.
constexpr double FullHitShare = 0.03;
/// Of new keys: with dae_verify, and with knob overrides. Assumed.
constexpr double VerifyShare = 0.3;
constexpr double KnobShare = 0.7;

} // namespace

void KnobVariant::applyTo(dae::DaeOptions &O) const {
  O.UseConvexUnion = ConvexUnion;
  O.SplitClasses = SplitClasses;
  O.MergeLoopNests = MergeLoopNests;
  O.SimplifyCfg = SimplifyCfg;
  O.PrefetchWrites = PrefetchWrites;
  O.PrefetchPerCacheLine = PrefetchPerLine;
  O.HullSlackThreshold = HullSlack;
}

std::string KnobVariant::str() const {
  std::string S;
  S += ConvexUnion ? "cu" : "range";
  S += SplitClasses ? "+split" : "";
  S += MergeLoopNests ? "+merge" : "";
  S += SimplifyCfg ? "+cfg" : "";
  S += PrefetchWrites ? "+writes" : "";
  S += PrefetchPerLine ? "+line" : "";
  return S + "/slack=" + std::to_string(HullSlack);
}

std::vector<KnobVariant> perfbench::knobVariants(std::uint64_t Seed,
                                                 std::size_t Count) {
  std::vector<unsigned> Space(64 * 8);
  std::iota(Space.begin(), Space.end(), 0u);
  Rng R(Seed ^ 0x6b6e6f62ull);
  std::vector<KnobVariant> Out;
  for (std::size_t I = 0; I != Count && I != Space.size(); ++I) {
    // Partial Fisher-Yates: a draw without replacement.
    std::size_t J = I + R.below(Space.size() - I);
    std::swap(Space[I], Space[J]);
    unsigned Bits = Space[I] & 63, Slack = Space[I] >> 6;
    KnobVariant V;
    V.ConvexUnion = Bits & 1;
    V.SplitClasses = Bits & 2;
    V.MergeLoopNests = Bits & 4;
    V.SimplifyCfg = Bits & 8;
    V.PrefetchWrites = Bits & 16;
    V.PrefetchPerLine = Bits & 32;
    V.HullSlack = HullSlacks[Slack];
    Out.push_back(V);
  }
  return Out;
}

std::vector<std::string> perfbench::warmRequests() {
  std::vector<std::string> Out;
  for (const char *P : ProgramNames)
    Out.push_back(std::string("\"workload\": \"") + P +
                  "\", \"scale\": \"test\"");
  Out.push_back("\"workload\": \"cigar\", \"scale\": \"full\"");
  Out.push_back("\"workload\": \"cholesky\", \"scale\": \"full\"");
  return Out;
}

RequestStream::RequestStream(std::uint64_t Seed, unsigned Client)
    : R(Seed * 0x100000001b3ull + Client + 1), Warm(warmRequests()) {}

std::string RequestStream::newKeyFields() {
  for (;;) {
    std::string F = std::string("\"workload\": \"") +
                    ProgramNames[R.below(7)] +
                    "\", \"scale\": \"test\", \"cores\": " +
                    std::to_string(1 + R.below(8));
    if (R.unit() < VerifyShare)
      F += ", \"dae_verify\": true";
    if (R.unit() < KnobShare) {
      static const char *const Bools[6] = {
          "convex_union", "split_classes",   "merge_loop_nests",
          "simplify_cfg", "prefetch_writes", "prefetch_per_line"};
      std::string Knobs;
      for (const char *K : Bools)
        if (R.below(2))
          Knobs += std::string(Knobs.empty() ? "" : ", ") + "\"" + K +
                   "\": " + (R.below(2) ? "true" : "false");
      Knobs += std::string(Knobs.empty() ? "" : ", ") + "\"hull_slack\": " +
               std::to_string(R.below(100000));
      F += ", \"options\": {" + Knobs + "}";
    }
    if (Issued.insert(F).second)
      return F;
  }
}

StreamRequest RequestStream::next() {
  StreamRequest Q;
  double U = R.unit();
  if (U < MissShare) {
    Q.NewKey = true;
    Q.Key = newKeyFields();
  } else {
    Q.Full = U < MissShare + FullHitShare;
    // The last two warm entries are the full-scale ones.
    Q.Key = Q.Full ? Warm[Warm.size() - 2 + R.below(2)]
                   : Warm[R.below(Warm.size() - 2)];
  }
  Q.Line = "{" + Q.Key + ", \"scheme\": \"" + Schemes[R.below(4)] +
           "\", \"policy\": \"" + Policies[R.below(5)] +
           "\", \"transition_ns\": " +
           std::to_string(TransitionsNs[R.below(7)]) + "}";
  return Q;
}
