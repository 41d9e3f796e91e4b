//===- sim/CacheSim.cpp - Set-associative cache hierarchy ------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CacheSim.h"

#include <cassert>

using namespace dae;
using namespace dae::sim;

Cache::Cache(const CacheConfig &Cfg)
    : LineShift(lineShiftOf(Cfg.LineBytes)),
      NumSets(Cfg.SizeBytes / (Cfg.LineBytes * Cfg.Assoc)), Assoc(Cfg.Assoc),
      Tags(NumSets * Cfg.Assoc, InvalidTag), Lrus(NumSets * Cfg.Assoc, 0) {
  assert(NumSets > 0 && (NumSets & (NumSets - 1)) == 0 &&
         "set count must be a power of two");
}

void Cache::flush() {
  Tags.assign(Tags.size(), InvalidTag);
  Lrus.assign(Lrus.size(), 0);
  LastLineAddr = InvalidTag;
  LastWay = 0;
}

CacheHierarchy::CacheHierarchy(const MachineConfig &Cfg, unsigned NumCores)
    : NextLinePrefetch(Cfg.HwNextLinePrefetch), LineBytes(Cfg.L1.LineBytes),
      Llc(Cfg.LLC) {
  L1s.reserve(NumCores);
  L2s.reserve(NumCores);
  for (unsigned I = 0; I != NumCores; ++I) {
    L1s.emplace_back(Cfg.L1);
    L2s.emplace_back(Cfg.L2);
  }
}

void CacheHierarchy::flush() {
  for (Cache &C : L1s)
    C.flush();
  for (Cache &C : L2s)
    C.flush();
  Llc.flush();
}
