//===- support/EnvParse.h - Validated environment parsing -------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One validated parse for every DAECC_* environment knob. The contract is
/// the one BenchOptions::parse and TracePool::maxTotalBytesFromEnv
/// established: a value that is set but malformed is a hard configuration
/// error (exit 2), never a silent fall-back to the default — a sweep that
/// exported DAECC_JOBS=8x and silently ran sequentially would mislabel its
/// own results. Unset variables return the caller's default.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SUPPORT_ENVPARSE_H
#define DAECC_SUPPORT_ENVPARSE_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace dae {
namespace support {

/// Strict positive integer from the environment. Unset returns \p Default;
/// garbage (non-numeric, trailing junk, zero, negative, or out of range for
/// unsigned — strtoll saturates on overflow, and a saturated or too-wide
/// value truncated through the cast would silently misconfigure, e.g.
/// DAECC_JOBS=4294967297 reading as 1) exits 2 with a diagnostic naming the
/// variable.
inline unsigned envUnsignedOr(const char *Name, unsigned Default) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return Default;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Env, &End, 10);
  if (End == Env || *End != '\0' || errno == ERANGE || N <= 0 ||
      N > static_cast<long long>(std::numeric_limits<unsigned>::max())) {
    std::fprintf(stderr,
                 "error: invalid %s value '%s' (expected a positive "
                 "integer)\n",
                 Name, Env);
    std::exit(2);
  }
  return static_cast<unsigned>(N);
}

/// Strict boolean from the environment, accepting only "0" and "1". Unset
/// returns \p Default; anything else ("true", "yes", "2", "") exits 2 — the
/// historical `Env[0] == '1'` parse silently read DAECC_DAE_VERIFY=true as
/// *off*, the exact inversion of what the user asked for.
inline bool envBool01Or(const char *Name, bool Default) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return Default;
  if (std::strcmp(Env, "0") == 0)
    return false;
  if (std::strcmp(Env, "1") == 0)
    return true;
  std::fprintf(stderr, "error: invalid %s value '%s' (expected 0 or 1)\n",
               Name, Env);
  std::exit(2);
}

/// Strict positive byte count from a MiB-denominated environment variable.
/// Unset returns \p DefaultBytes; garbage exits 2, as does a count whose
/// byte value would not fit std::size_t (the << 20 must not overflow).
inline std::size_t envMiBOr(const char *Name, std::size_t DefaultBytes) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return DefaultBytes;
  char *End = nullptr;
  errno = 0;
  long long Mb = std::strtoll(Env, &End, 10);
  if (End == Env || *End != '\0' || errno == ERANGE || Mb <= 0 ||
      static_cast<unsigned long long>(Mb) >
          (std::numeric_limits<std::size_t>::max() >> 20)) {
    std::fprintf(stderr,
                 "error: invalid %s value '%s' (expected a positive integer "
                 "number of MiB)\n",
                 Name, Env);
    std::exit(2);
  }
  return static_cast<std::size_t>(Mb) << 20;
}

/// Strict name-valued knob from the environment. Unset returns \p Default;
/// a value \p FromName rejects (it returns false, like
/// sim::simBackendFromName) exits 2 with a diagnostic naming the variable
/// and the \p Expected spellings.
template <class T, class FromNameFn>
T envNamedOr(const char *Name, T Default, FromNameFn FromName,
             const char *Expected) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return Default;
  T Value;
  if (FromName(Env, Value))
    return Value;
  std::fprintf(stderr, "error: unknown %s value '%s' (expected %s)\n", Name,
               Env, Expected);
  std::exit(2);
}

} // namespace support
} // namespace dae

#endif // DAECC_SUPPORT_ENVPARSE_H
