//===- perfbench/cpp/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into daecc's layers.
/// Every span carries a name, start, end, the span that caused it and a
/// request id; each host thread gets its own track (one per JobPool worker
/// or client thread). Spans stay in memory and are written once, as Chrome
/// trace-event JSON, when the run ends. With tracing off a Scope costs one
/// branch, so the untraced end-to-end runs measure the program alone.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  double StartUs = 0.0; ///< Since the tracer's epoch.
  double EndUs = -1.0;  ///< -1 while open.
  std::int64_t Parent = -1;
  unsigned Track = 0;
  std::uint64_t Request = 0;
};

class Tracer {
public:
  /// Parent value meaning "the innermost open span of this thread".
  static constexpr std::int64_t InheritParent = -2;

  static Tracer &get();

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Microseconds since the tracer was created.
  double nowUs() const;

  /// Names the calling thread's track in the written trace.
  void nameTrack(const std::string &Name);
  /// Request id stamped on the calling thread's subsequent spans.
  void setRequest(std::uint64_t Id);

  /// Opens a span on the calling thread; returns its id.
  std::int64_t open(const char *Name, std::int64_t Parent = InheritParent);
  void close(std::int64_t Id);
  /// Innermost open span of the calling thread, or -1.
  std::int64_t current() const;

  /// Drops every span (the traced segment starts from a clean slate).
  void clear();

  std::vector<Span> spans() const;

  /// Self seconds per span name: each span's duration minus the parts of it
  /// covered by child spans nested in it on the same track (a child that ran
  /// on another track, or later on the same one, is not subtracted).
  std::map<std::string, double> selfSeconds() const;

  /// Writes the spans as Chrome trace-event JSON (Perfetto and
  /// about://tracing open it). False when the file cannot be written.
  bool writeChromeJson(const std::string &Path) const;

private:
  Tracer();
  unsigned trackOfThisThread();

  std::atomic<bool> Enabled{false};
  const std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
  std::map<unsigned, std::string> TrackNames;
  unsigned NextTrack = 0;
};

/// RAII span; a no-op while tracing is off.
class Scope {
public:
  explicit Scope(const char *Name,
                 std::int64_t Parent = Tracer::InheritParent);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  std::int64_t id() const { return Id; }

private:
  std::int64_t Id = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
