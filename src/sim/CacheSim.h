//===- sim/CacheSim.h - Set-associative cache hierarchy ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic set-associative LRU cache model: private L1/L2 per core and a
/// shared LLC. Only tags are modeled (data lives in sim::Memory). The paper's
/// whole premise rides on this state: the access phase warms the private
/// hierarchy so the execute phase becomes compute-bound (section 3.1).
///
/// The hierarchy is only ever advanced by the runtime's single-threaded
/// timing replay (see AccessTrace.h) so hit/miss outcomes stay deterministic;
/// each Cache is nonetheless cache-line aligned and stored by value so the
/// per-core mutable state (the LRU Tick in particular) of different simulated
/// cores never shares a host cache line.
///
/// The tag store is struct-of-arrays (tags and LRU stamps in separate dense
/// vectors) and access() is inline with a same-line-as-last-access short
/// circuit and a single hit-or-victim scan per set, because the replay loop
/// streams tens of millions of events through it per simulated run. All are
/// pure layout/speed changes: every Tick increment, LRU stamp, hit and
/// victim choice is identical to the scalar reference (first invalid way,
/// else least recently used), so simulated profiles are bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_CACHESIM_H
#define DAECC_SIM_CACHESIM_H

#include "sim/MachineConfig.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace dae {
namespace sim {

/// Where an access was satisfied.
enum class HitLevel { L1, L2, LLC, Memory };

/// One set-associative LRU cache level (tag store only).
class alignas(64) Cache {
public:
  /// Throws std::invalid_argument when Cfg.LineBytes is zero or not a power
  /// of two (see lineShiftOf; a silently rounded-up shift would desynchronize
  /// set indexing from every line-granular consumer).
  explicit Cache(const CacheConfig &Cfg);

  /// True on hit; on miss the line is installed (evicting LRU).
  bool access(std::uint64_t Addr) {
    std::uint64_t LineAddr = Addr >> LineShift;
    std::uint64_t Now = ++Tick;
    // Same-line fast path: the last-touched line is always resident (it was
    // installed even on a miss), so only its LRU stamp needs refreshing.
    if (LineAddr == LastLineAddr) {
      Lrus[LastWay] = Now;
      return true;
    }
    std::size_t Base =
        static_cast<std::size_t>(LineAddr & (NumSets - 1)) * Assoc;
    std::uint64_t *SetTags = Tags.data() + Base;
    std::uint64_t *SetLrus = Lrus.data() + Base;
    // One scan finds the hit or the victim: the first way with the minimum
    // stamp. Invalid ways carry stamp 0 and valid ones a unique stamp >= 1,
    // so that is the first invalid way, else the least recently used.
    unsigned Way = 0;
    for (unsigned W = 0; W != Assoc; ++W) {
      if (SetTags[W] == LineAddr) {
        SetLrus[W] = Now;
        LastLineAddr = LineAddr;
        LastWay = Base + W;
        return true;
      }
      if (SetLrus[W] < SetLrus[Way])
        Way = W;
    }
    SetTags[Way] = LineAddr;
    SetLrus[Way] = Now;
    LastLineAddr = LineAddr;
    LastWay = Base + Way;
    return false;
  }

  /// True when the line is present (no state change).
  bool probe(std::uint64_t Addr) const {
    std::uint64_t LineAddr = Addr >> LineShift;
    std::uint64_t Set = LineAddr & (NumSets - 1);
    std::size_t Base = static_cast<std::size_t>(Set) * Assoc;
    for (unsigned W = 0; W != Assoc; ++W)
      if (Tags[Base + W] == LineAddr)
        return true;
    return false;
  }

  /// Drops all lines.
  void flush();

private:
  /// Tag sentinel for an invalid way. Simulated line addresses are bounded
  /// by AccessTrace's 62-bit address space so a real tag can never collide.
  static constexpr std::uint64_t InvalidTag = ~0ull;

  unsigned LineShift;
  std::uint64_t NumSets;
  unsigned Assoc;
  /// Struct-of-arrays tag store: Tags[set*Assoc + way] / Lrus[...], so the
  /// hit scan touches one dense tag run instead of strided {Tag,Lru,Valid}
  /// records. Validity is Tags[I] != InvalidTag.
  std::vector<std::uint64_t> Tags;
  std::vector<std::uint64_t> Lrus;
  /// Pre-incremented on every access and never reset, so a valid way's
  /// stamp is unique and >= 1 while invalid ways keep stamp 0.
  std::uint64_t Tick = 0;
  /// Same-line short-circuit state (see access()).
  std::uint64_t LastLineAddr = InvalidTag;
  std::size_t LastWay = 0;
};

/// Shared DRAM channel bandwidth queue for the multi-core timeline: every
/// LLC miss occupies the channel for LineBytes / BandwidthGBs ns, so
/// concurrent misses from different cores serialize and the latecomer pays a
/// queuing delay on top of its DRAM latency. Purely deterministic: state is
/// one next-free timestamp, advanced in the global-time order the timeline
/// replays events in. BandwidthGBs <= 0 disables the queue (the
/// single-workload engine's infinite-bandwidth model).
class DramChannel {
public:
  /// Ceiling on the per-line occupancy. A subnormal BandwidthGBs can
  /// overflow LineBytes / BandwidthGBs to +inf, which would saturate
  /// NextFreeNs on the first request and poison every later queuing delay
  /// (inf, or NaN once subtracted). 1e18 ns (~31 simulated years per line)
  /// is far beyond any meaningful configuration yet leaves ~1e290 requests
  /// of headroom before the queue clock itself could overflow.
  static constexpr double MaxOccupancyNs = 1e18;

  DramChannel(double BandwidthGBs, unsigned LineBytes) {
    if (BandwidthGBs > 0.0) {
      double Occ = static_cast<double>(LineBytes) / BandwidthGBs;
      // !(Occ <= Max) also catches NaN from a pathological division.
      if (!(Occ <= MaxOccupancyNs))
        Occ = MaxOccupancyNs;
      OccupancyNs = Occ;
    }
    // BandwidthGBs <= 0 (or NaN): channel disabled, OccupancyNs stays 0 and
    // requestLine is byte-identical to having no channel at all.
  }

  /// Books a line transfer issued at \p NowNs; returns the queuing delay
  /// (ns) the requester waits before its DRAM latency starts.
  double requestLine(double NowNs) {
    if (OccupancyNs == 0.0)
      return 0.0;
    double Start = NowNs > NextFreeNs ? NowNs : NextFreeNs;
    NextFreeNs = Start + OccupancyNs;
    return Start - NowNs;
  }

  /// Channel time (ns) one line transfer occupies; 0 when unmodeled.
  double occupancyNs() const { return OccupancyNs; }

private:
  double OccupancyNs = 0.0;
  double NextFreeNs = 0.0;
};

/// Per-core L1/L2 over a shared LLC.
class CacheHierarchy {
public:
  CacheHierarchy(const MachineConfig &Cfg, unsigned NumCores);

  /// Performs a (read or write) access from \p Core; returns the level that
  /// satisfied it and installs the line in every level above. On a DRAM
  /// miss, the hardware next-line prefetcher (when configured) also installs
  /// the successor line into the core's L2.
  HitLevel access(unsigned Core, std::uint64_t Addr) {
    assert(Core < L1s.size() && "core index out of range");
    if (L1s[Core].access(Addr))
      return HitLevel::L1;
    if (L2s[Core].access(Addr))
      return HitLevel::L2;
    if (Llc.access(Addr))
      return HitLevel::LLC;
    if (NextLinePrefetch) {
      // Pull the successor line toward the core so a sequential stream only
      // pays DRAM latency on every other line.
      std::uint64_t NextLine = Addr + LineBytes;
      L2s[Core].access(NextLine);
      Llc.access(NextLine);
    }
    return HitLevel::Memory;
  }

  /// Drops all lines everywhere.
  void flush();

  Cache &l1(unsigned Core) { return L1s[Core]; }
  Cache &l2(unsigned Core) { return L2s[Core]; }
  Cache &llc() { return Llc; }

private:
  bool NextLinePrefetch;
  unsigned LineBytes;
  std::vector<Cache> L1s, L2s;
  Cache Llc;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_CACHESIM_H
