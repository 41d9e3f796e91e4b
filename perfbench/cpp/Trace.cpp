//===- perfbench/cpp/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace perfbench;

namespace {

struct ThreadState {
  int Track = -1;
  std::vector<std::int64_t> Open;
  std::uint64_t Request = 0;
};

ThreadState &threadState() {
  thread_local ThreadState S;
  return S;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

unsigned Tracer::trackOfThisThread() {
  ThreadState &S = threadState();
  if (S.Track < 0) {
    std::lock_guard<std::mutex> Lock(Mutex);
    S.Track = static_cast<int>(NextTrack++);
  }
  return static_cast<unsigned>(S.Track);
}

void Tracer::nameTrack(const std::string &Name) {
  unsigned T = trackOfThisThread();
  std::lock_guard<std::mutex> Lock(Mutex);
  TrackNames[T] = Name;
}

void Tracer::setRequest(std::uint64_t Id) { threadState().Request = Id; }

std::int64_t Tracer::current() const {
  const ThreadState &S = threadState();
  return S.Open.empty() ? -1 : S.Open.back();
}

std::int64_t Tracer::open(const char *Name, std::int64_t Parent) {
  ThreadState &S = threadState();
  Span Sp;
  Sp.Name = Name;
  Sp.Parent = Parent == InheritParent ? current() : Parent;
  Sp.Track = trackOfThisThread();
  Sp.Request = S.Request;
  Sp.StartUs = nowUs();
  std::int64_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Id = static_cast<std::int64_t>(Spans.size());
    Spans.push_back(std::move(Sp));
  }
  S.Open.push_back(Id);
  return Id;
}

void Tracer::close(std::int64_t Id) {
  double End = nowUs();
  ThreadState &S = threadState();
  if (!S.Open.empty() && S.Open.back() == Id)
    S.Open.pop_back();
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Id >= 0 && static_cast<std::size_t>(Id) < Spans.size())
    Spans[static_cast<std::size_t>(Id)].EndUs = End;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.clear();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<Span> All = spans();
  std::vector<double> Self(All.size(), 0.0);
  for (std::size_t I = 0; I != All.size(); ++I)
    if (All[I].EndUs >= 0.0)
      Self[I] = All[I].EndUs - All[I].StartUs;
  for (const Span &S : All) {
    if (S.EndUs < 0.0 || S.Parent < 0)
      continue;
    const Span &P = All[static_cast<std::size_t>(S.Parent)];
    bool Nested = P.Track == S.Track && S.StartUs >= P.StartUs &&
                  S.EndUs <= P.EndUs;
    if (Nested)
      Self[static_cast<std::size_t>(S.Parent)] -= S.EndUs - S.StartUs;
  }
  std::map<std::string, double> Out;
  for (std::size_t I = 0; I != All.size(); ++I)
    Out[All[I].Name] += Self[I] * 1e-6;
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::map<unsigned, std::string> Names;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Names = TrackNames;
  }
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool First = true;
  for (const auto &[Track, Name] : Names) {
    std::fprintf(F,
                 "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": %u, \"args\": {\"name\": %s}}",
                 First ? "" : ",\n", Track, jsonString(Name).c_str());
    First = false;
  }
  for (std::size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    if (S.EndUs < 0.0)
      continue;
    std::fprintf(F,
                 "%s{\"ph\": \"X\", \"name\": %s, \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"request\": %llu}}",
                 First ? "" : ",\n", jsonString(S.Name).c_str(), S.Track,
                 S.StartUs, S.EndUs - S.StartUs, I,
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

Scope::Scope(const char *Name, std::int64_t Parent) {
  Tracer &T = Tracer::get();
  if (T.enabled())
    Id = T.open(Name, Parent);
}

Scope::~Scope() {
  if (Id >= 0)
    Tracer::get().close(Id);
}
