//===- sim/Memory.h - Simulated flat memory ---------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulated byte-addressed memory plus a tiny loader that assigns base
/// addresses to module globals. Workloads initialize their arrays through it
/// and every backend reads/writes through it.
///
/// The memory is one flat arena: a fixed-capacity private anonymous mapping
/// reserved without swap accounting, which the kernel zero-fills and commits
/// page by page on first touch. Simulated address A lives at base() + A, and
/// the base never moves. A grow-only atomic extent bounds what has been
/// touched, so imageHash() scans only that prefix; an access past the extent
/// takes one out-of-line slow path that raises it, or aborts with a
/// diagnostic when the address lies past Capacity. Same-wave tasks write
/// disjoint addresses by the runtime's independence contract, so the arena
/// needs no locks.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_MEMORY_H
#define DAECC_SIM_MEMORY_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>

namespace dae {

namespace ir {
class Module;
class GlobalVariable;
} // namespace ir

namespace sim {

/// Flat simulated memory (zero-initialised, committed on touch).
class Memory {
public:
  static constexpr std::uint64_t PageBits = 12;
  static constexpr std::uint64_t PageSize = 1ull << PageBits;
  /// Largest simulated address space; an access past it aborts.
  static constexpr std::uint64_t Capacity = 1ull << 30;
  /// The extent grows in steps of this many bytes.
  static constexpr std::uint64_t ExtentStep = 1ull << 20;

  Memory();
  ~Memory();
  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;

  std::int64_t loadI64(std::uint64_t Addr) {
    std::int64_t V;
    std::memcpy(&V, at(Addr), sizeof(V));
    return V;
  }
  double loadF64(std::uint64_t Addr) {
    double V;
    std::memcpy(&V, at(Addr), sizeof(V));
    return V;
  }
  void storeI64(std::uint64_t Addr, std::int64_t V) {
    std::memcpy(at(Addr), &V, sizeof(V));
  }
  void storeF64(std::uint64_t Addr, double V) {
    std::memcpy(at(Addr), &V, sizeof(V));
  }

  /// Host address of simulated address 0.
  std::uint8_t *base() const { return Base; }

  /// Highest address whose 8-byte access lies inside the current extent.
  std::uint64_t limit() const {
    return Extent.load(std::memory_order_relaxed) - 8;
  }

  /// Slow path of every access above a cached limit(): raises the extent to
  /// cover the 8 bytes at \p Addr, or aborts with a diagnostic if they lie
  /// past Capacity. Thread safe.
  void grow(std::uint64_t Addr);

  /// FNV-1a hash of the program-visible memory image: every 4 KiB page of
  /// the extent with any nonzero byte, in page-index order, hashed as
  /// (index, contents). All-zero pages hash like untouched ones, so two runs
  /// differ only when they produced different *values* — an access phase
  /// that merely touches extra memory, which a pure prefetcher may, cannot
  /// change the hash. Not thread safe against concurrent writers; call
  /// between runs.
  std::uint64_t imageHash() const;

private:
  std::uint8_t *at(std::uint64_t Addr) {
    if (Addr > limit()) [[unlikely]]
      grow(Addr);
    return Base + Addr;
  }

  std::uint8_t *const Base;
  std::atomic<std::uint64_t> Extent{ExtentStep};
};

/// Assigns non-overlapping, line-aligned base addresses to every global of a
/// module and resolves them by name.
class Loader {
public:
  explicit Loader(const ir::Module &M, std::uint64_t Base = 0x10000);

  std::uint64_t baseOf(const ir::GlobalVariable *G) const;
  std::uint64_t baseOf(const std::string &Name) const;

private:
  std::map<const ir::GlobalVariable *, std::uint64_t> Bases;
  std::map<std::string, std::uint64_t> ByName;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_MEMORY_H
