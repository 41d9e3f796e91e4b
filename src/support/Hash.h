//===- support/Hash.h - FNV-1a content hashing ------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one content hash daecc uses: 64-bit FNV-1a. It fingerprints
/// simulated memory images (Memory::imageHash), keys the native code cache
/// and names and checks the result cache's disk entries and output
/// fingerprints. The last two are persisted (daecc2 cache files, SnapshotTest
/// goldens), so the offset basis, prime and byte order are fixed for good.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SUPPORT_HASH_H
#define DAECC_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dae {
namespace support {

constexpr std::uint64_t FnvOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t FnvPrime = 1099511628211ull;

/// Folds the bytes [Data, Data + N) into the running hash \p H; chain calls
/// to hash several ranges as one stream.
inline std::uint64_t fnv1a(const void *Data, std::size_t N,
                           std::uint64_t H = FnvOffsetBasis) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

inline std::uint64_t fnv1a(std::string_view S) {
  return fnv1a(S.data(), S.size());
}

} // namespace support
} // namespace dae

#endif // DAECC_SUPPORT_HASH_H
