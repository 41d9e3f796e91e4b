//===- sim/Memory.cpp - Simulated flat memory -------------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Memory.h"

#include "ir/Module.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace dae;
using namespace dae::sim;

std::uint8_t *Memory::pageFor(std::uint64_t PageIdx) {
  Shard &S = Shards[shardOf(PageIdx)];
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Pages.find(PageIdx);
  if (It == S.Pages.end()) {
    auto Mem = std::make_unique<std::uint8_t[]>(PageSize);
    std::memset(Mem.get(), 0, PageSize);
    It = S.Pages.emplace(PageIdx, std::move(Mem)).first;
  }
  return It->second.get();
}

size_t Memory::pagesTouched() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.Pages.size();
  }
  return N;
}

std::uint64_t Memory::imageHash() const {
  // Collect nonzero pages across shards, then hash in page-index order so
  // the result is independent of sharding and allocation order.
  std::vector<std::pair<std::uint64_t, const std::uint8_t *>> Nonzero;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const auto &[Idx, Page] : S.Pages) {
      const std::uint8_t *P = Page.get();
      bool AllZero = true;
      for (std::uint64_t B = 0; B != PageSize && AllZero; ++B)
        AllZero = P[B] == 0;
      if (!AllZero)
        Nonzero.emplace_back(Idx, P);
    }
  }
  std::sort(Nonzero.begin(), Nonzero.end());

  std::uint64_t H = support::FnvOffsetBasis;
  for (const auto &[Idx, P] : Nonzero) {
    H = support::fnv1a(&Idx, sizeof(Idx), H);
    H = support::fnv1a(P, PageSize, H);
  }
  return H;
}

namespace {

/// True when [Addr, Addr+8) stays within one page.
bool withinPage(std::uint64_t Addr) {
  return (Addr & 0xfff) <= 0xff8;
}

} // namespace

std::int64_t Memory::loadI64(std::uint64_t Addr) {
  assert(withinPage(Addr) && "unaligned cross-page access");
  std::int64_t V;
  std::memcpy(&V, pagePtr(Addr), sizeof(V));
  return V;
}

double Memory::loadF64(std::uint64_t Addr) {
  assert(withinPage(Addr) && "unaligned cross-page access");
  double V;
  std::memcpy(&V, pagePtr(Addr), sizeof(V));
  return V;
}

void Memory::storeI64(std::uint64_t Addr, std::int64_t V) {
  assert(withinPage(Addr) && "unaligned cross-page access");
  std::memcpy(pagePtr(Addr), &V, sizeof(V));
}

void Memory::storeF64(std::uint64_t Addr, double V) {
  assert(withinPage(Addr) && "unaligned cross-page access");
  std::memcpy(pagePtr(Addr), &V, sizeof(V));
}

Loader::Loader(const ir::Module &M, std::uint64_t Base) {
  std::uint64_t Cursor = Base;
  for (const auto &G : M.globals()) {
    Bases[G.get()] = Cursor;
    ByName[G->getName()] = Cursor;
    // Line-align and pad so unrelated arrays never share a cache line.
    std::uint64_t Size = (G->getSizeInBytes() + 63) & ~63ull;
    Cursor += Size + 64;
  }
}

std::uint64_t Loader::baseOf(const ir::GlobalVariable *G) const {
  auto It = Bases.find(G);
  assert(It != Bases.end() && "global not loaded");
  return It->second;
}

std::uint64_t Loader::baseOf(const std::string &Name) const {
  auto It = ByName.find(Name);
  assert(It != ByName.end() && "global not loaded");
  return It->second;
}
