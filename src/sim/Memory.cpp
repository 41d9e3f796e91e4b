//===- sim/Memory.cpp - Simulated flat memory -------------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Memory.h"

#include "ir/Module.h"
#include "support/Hash.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sys/mman.h>

using namespace dae;
using namespace dae::sim;

namespace {

std::uint8_t *mapArena() {
  void *P = ::mmap(nullptr, Memory::Capacity, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED) {
    std::perror("daecc: cannot map the simulated memory arena");
    std::abort();
  }
  return static_cast<std::uint8_t *>(P);
}

/// True when the page at \p P holds a nonzero byte.
bool nonzeroPage(const std::uint8_t *P) {
  static const std::uint8_t Zero[Memory::PageSize] = {};
  return std::memcmp(P, Zero, Memory::PageSize) != 0;
}

} // namespace

Memory::Memory() : Base(mapArena()) {}

Memory::~Memory() { ::munmap(Base, Capacity); }

void Memory::grow(std::uint64_t Addr) {
  if (Addr > Capacity - 8) {
    std::fprintf(stderr,
                 "daecc: simulated address 0x%llx lies past the %llu MiB "
                 "memory arena\n",
                 static_cast<unsigned long long>(Addr),
                 static_cast<unsigned long long>(Capacity >> 20));
    std::abort();
  }
  const std::uint64_t Want = (Addr + 8 + ExtentStep - 1) & ~(ExtentStep - 1);
  std::uint64_t Cur = Extent.load(std::memory_order_relaxed);
  while (Cur < Want &&
         !Extent.compare_exchange_weak(Cur, Want, std::memory_order_relaxed))
    ;
}

std::uint64_t Memory::imageHash() const {
  // Pages above the extent were never touched, so they are zero and hash
  // like absent ones.
  const std::uint64_t Pages = Extent.load(std::memory_order_relaxed) >>
                              PageBits;
  std::uint64_t H = support::FnvOffsetBasis;
  for (std::uint64_t Idx = 0; Idx != Pages; ++Idx) {
    const std::uint8_t *P = Base + (Idx << PageBits);
    if (!nonzeroPage(P))
      continue;
    H = support::fnv1a(&Idx, sizeof(Idx), H);
    H = support::fnv1a(P, PageSize, H);
  }
  return H;
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
