//===- perfbench/tests/GenTest.cpp - Seeded generator tests ---------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The benchmark's inputs must be a function of its seed alone: the same seed
// gives the same knob variants and request streams, another seed gives
// others, and every generated request is one the daemon accepts.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include "service/ExperimentService.h"
#include "service/Json.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace perfbench;

namespace {

std::vector<StreamRequest> take(std::uint64_t Seed, unsigned Client,
                                std::size_t N) {
  RequestStream S(Seed, Client);
  std::vector<StreamRequest> Out;
  for (std::size_t I = 0; I != N; ++I)
    Out.push_back(S.next());
  return Out;
}

std::vector<std::string> lines(const std::vector<StreamRequest> &Qs) {
  std::vector<std::string> Out;
  for (const StreamRequest &Q : Qs)
    Out.push_back(Q.Line);
  return Out;
}

} // namespace

TEST(KnobVariants, SameSeedSameVariants) {
  EXPECT_EQ(knobVariants(7, 16), knobVariants(7, 16));
}

TEST(KnobVariants, SeedsDiffer) {
  EXPECT_NE(knobVariants(7, 16), knobVariants(8, 16));
}

TEST(KnobVariants, DistinctWithinASet) {
  std::vector<KnobVariant> V = knobVariants(3, 64);
  ASSERT_EQ(V.size(), 64u);
  std::set<std::string> Names;
  for (const KnobVariant &K : V)
    Names.insert(K.str());
  EXPECT_EQ(Names.size(), V.size());
}

TEST(RequestStream, SameSeedSameStream) {
  EXPECT_EQ(lines(take(11, 0, 500)), lines(take(11, 0, 500)));
}

TEST(RequestStream, SeedsAndClientsDiffer) {
  EXPECT_NE(lines(take(11, 0, 200)), lines(take(12, 0, 200)));
  EXPECT_NE(lines(take(11, 0, 200)), lines(take(11, 1, 200)));
}

TEST(RequestStream, RequestsAreValidKeyedAndNewKeysNeverRepeat) {
  std::set<std::string> NewKeys;
  std::map<std::string, std::string> KeyOf;
  std::size_t News = 0, Hits = 0;
  for (const StreamRequest &Q : take(5, 2, 4000)) {
    dae::service::JsonValue V;
    std::string Err;
    ASSERT_TRUE(dae::service::parseJson(Q.Line, V, Err)) << Q.Line;
    dae::service::Request R;
    ASSERT_EQ(dae::service::parseRequest(V, R), "") << Q.Line;
    // Key names the daemon's cache key: equal keys, equal canonical keys.
    std::string Canon = dae::service::canonicalKeyOf(R);
    auto [It, New] = KeyOf.emplace(Q.Key, Canon);
    EXPECT_EQ(It->second, Canon) << Q.Line;
    if (Q.NewKey) {
      ++News;
      EXPECT_TRUE(NewKeys.insert(Canon).second) << Q.Line;
    } else {
      ++Hits;
    }
  }
  // The default shape: a few percent new keys, the rest hits.
  EXPECT_GT(News, 8u);
  EXPECT_LT(News, 40u);
  EXPECT_GT(Hits, 3900u);
}
