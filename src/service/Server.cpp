//===- service/Server.cpp - Unix-socket line server -------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace dae;
using namespace dae::service;

namespace {

/// write() until done; false on a broken pipe.
bool writeAll(int Fd, const char *Data, std::size_t N) {
  while (N != 0) {
    ssize_t W = ::write(Fd, Data, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += W;
    N -= static_cast<std::size_t>(W);
  }
  return true;
}

bool fillSockAddr(const std::string &Path, sockaddr_un &Addr,
                  std::string &Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path must be 1.." +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes: '" + Path + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

Server::Server(std::string SocketPath, Handler H)
    : SocketPath(std::move(SocketPath)), Handle(std::move(H)) {}

Server::~Server() {
  requestStop();
  for (std::thread &T : takeAllThreads())
    T.join();
  closeListenFd();
}

std::size_t Server::trackedThreads() {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  return Threads.size() + DoneThreads.size();
}

std::vector<std::thread> Server::takeAllThreads() {
  std::vector<std::thread> Out;
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (auto &[Id, T] : Threads)
    Out.push_back(std::move(T));
  Threads.clear();
  for (std::thread &T : DoneThreads)
    Out.push_back(std::move(T));
  DoneThreads.clear();
  return Out;
}

bool Server::start(std::string &Err) {
  sockaddr_un Addr;
  if (!fillSockAddr(SocketPath, Addr, Err))
    return false;
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A crashed daemon leaves its socket file behind; a bind on it would fail
  // with EADDRINUSE forever. Unlink first — a *live* daemon still holds the
  // listening socket, so two daemons racing one path still collide at
  // connect time rather than corrupting each other.
  ::unlink(SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = "bind '" + SocketPath + "': " + std::strerror(errno);
    closeListenFd();
    return false;
  }
  if (::listen(ListenFd, 16) != 0) {
    Err = "listen '" + SocketPath + "': " + std::strerror(errno);
    closeListenFd();
    return false;
  }
  return true;
}

void Server::serve() {
  while (!Stop.load()) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listening socket closed by requestStop()
    }
    // Reap connections that finished since the last accept: each moved its
    // handle into DoneThreads on exit, so these joins are instant and the
    // handle count tracks open connections, not total ever accepted.
    std::vector<std::thread> Finished;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      Finished.swap(DoneThreads);
      unsigned Id = NextClientId++;
      OpenConns.push_back(Fd);
      Threads.emplace(Id, std::thread([this, Fd, Id] {
                        connectionLoop(Fd, Id);
                      }));
    }
    for (std::thread &T : Finished)
      T.join();
  }
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int Fd : OpenConns)
      ::shutdown(Fd, SHUT_RDWR);
  }
  for (std::thread &T : takeAllThreads())
    T.join();
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    OpenConns.clear();
  }
  closeListenFd();
  ::unlink(SocketPath.c_str());
}

void Server::requestStop() {
  if (Stop.exchange(true))
    return;
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR); // unblocks accept()
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (int Fd : OpenConns)
    ::shutdown(Fd, SHUT_RDWR);
}

void Server::closeListenFd() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
}

void Server::connectionLoop(int Fd, unsigned ClientId) {
  std::string Buffer;
  std::size_t Scanned = 0; // Buffer[0, Scanned) holds no newline.
  char Chunk[4096];
  bool Shutdown = false;
  bool TooLarge = false;
  while (!Shutdown && !TooLarge) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Buffer.append(Chunk, static_cast<std::size_t>(N));
    std::size_t Start = 0, Pos;
    while (!Shutdown &&
           (Pos = Buffer.find('\n', Scanned)) != std::string::npos) {
      if (Pos - Start > MaxLineBytes) {
        TooLarge = true;
        break;
      }
      std::string Line = Buffer.substr(Start, Pos - Start);
      Start = Scanned = Pos + 1;
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      std::string Reply = Handle(Line, ClientId, Shutdown);
      Reply += '\n';
      if (!writeAll(Fd, Reply.data(), Reply.size())) {
        Shutdown = false;
        goto done; // client went away; only *it* is done, not the server
      }
    }
    Buffer.erase(0, Start);
    Scanned = Buffer.size();
    TooLarge = TooLarge || Buffer.size() > MaxLineBytes;
  }
  if (TooLarge) {
    const std::string Reply = "{\"ok\": false, \"code\": \"too_large\", "
                              "\"error\": \"request line exceeds " +
                              std::to_string(MaxLineBytes) + " bytes\"}\n";
    writeAll(Fd, Reply.data(), Reply.size());
  }
done:
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    // Erase before close: once the fd is closed the kernel may recycle the
    // number, and a concurrent requestStop() walking OpenConns must never
    // shutdown() an unrelated descriptor that happens to reuse it.
    for (std::size_t I = 0; I != OpenConns.size(); ++I)
      if (OpenConns[I] == Fd) {
        OpenConns.erase(OpenConns.begin() + I);
        break;
      }
    // Retire this connection's own handle for the accept loop to join; the
    // shutdown drain may already have claimed it, in which case serve() is
    // the joiner and there is nothing to move.
    auto It = Threads.find(ClientId);
    if (It != Threads.end()) {
      DoneThreads.push_back(std::move(It->second));
      Threads.erase(It);
    }
  }
  ::close(Fd);
  if (Shutdown)
    requestStop();
}

Client::~Client() { close(); }

bool Client::connect(const std::string &SocketPath, std::string &Err) {
  close();
  sockaddr_un Addr;
  if (!fillSockAddr(SocketPath, Addr, Err))
    return false;
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "connect '" + SocketPath + "': " + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

bool Client::request(const std::string &Line, std::string &Reply) {
  if (Fd < 0)
    return false;
  std::string Out = Line;
  Out += '\n';
  if (!writeAll(Fd, Out.data(), Out.size()))
    return false;
  char Chunk[4096];
  for (;;) {
    std::size_t Pos = Buffered.find('\n');
    if (Pos != std::string::npos) {
      Reply = Buffered.substr(0, Pos);
      Buffered.erase(0, Pos + 1);
      return true;
    }
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffered.append(Chunk, static_cast<std::size_t>(N));
  }
}

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Buffered.clear();
}
