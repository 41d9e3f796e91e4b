//===- service/Server.h - Unix-socket line server ---------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Line-framed Unix-domain-socket transport for the experiment daemon: one
/// JSON object per newline-terminated line in, one reply line out, requests
/// on the same connection answered in order. The server owns the accept
/// loop and one thread per connection; what a line *means* lives entirely in
/// the handler (service/ExperimentService.h), so the transport is testable
/// with a trivial echo handler and the service without any socket at all.
/// A line longer than Server::MaxLineBytes gets a structured `too_large`
/// error reply, and then the connection closes.
///
/// Lifecycle: serve() blocks until a handler sets its Shutdown flag or
/// requestStop() is called from another thread, then drains: the listening
/// socket closes first (no new connections), every open connection is shut
/// down, connection threads are joined, and the socket file is unlinked. A
/// stale socket file from a crashed daemon is unlinked before bind — two
/// live daemons on one path lose the race at bind time, not silently.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SERVICE_SERVER_H
#define DAECC_SERVICE_SERVER_H

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dae {
namespace service {

class Server {
public:
  /// Longest request line accepted, newline excluded.
  static constexpr std::size_t MaxLineBytes = 1 << 20;

  /// Handles one request line (no newline) from connection \p ClientId and
  /// returns the reply line. Setting \p Shutdown stops the server after the
  /// reply is written.
  using Handler =
      std::function<std::string(const std::string &Line, unsigned ClientId,
                                bool &Shutdown)>;

  Server(std::string SocketPath, Handler H);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens. False (with \p Err set) on an unusable path; the
  /// daemon should exit 2 — this is a configuration error, not a request
  /// error.
  bool start(std::string &Err);

  /// Accept/dispatch loop; returns after shutdown and join. Call after a
  /// successful start().
  void serve();

  /// Asynchronous stop (signal-safe enough for a test harness: a flag plus
  /// a socket shutdown). serve() returns once in-flight replies are out.
  void requestStop();

  const std::string &socketPath() const { return SocketPath; }

  /// Connection-thread handles currently tracked (live + finished awaiting
  /// their join). Test visibility for the accept-loop reaping: an always-on
  /// daemon must hold handles for open connections, not for every
  /// connection ever accepted.
  std::size_t trackedThreads();

private:
  void connectionLoop(int Fd, unsigned ClientId);
  void closeListenFd();

  /// Moves every live and finished connection-thread handle out of the
  /// tracking containers (under ConnMutex) for the caller to join.
  std::vector<std::thread> takeAllThreads();

  std::string SocketPath;
  Handler Handle;
  int ListenFd = -1;
  std::atomic<bool> Stop{false};
  std::mutex ConnMutex;
  std::vector<int> OpenConns; ///< Fds to shut down on stop.
  /// Live connection threads by client id. A connection moves its own
  /// handle into DoneThreads when it finishes, and the accept loop joins
  /// DoneThreads on every accept — an always-on daemon holds one handle per
  /// *open* connection, not one per connection ever accepted.
  std::map<unsigned, std::thread> Threads;
  std::vector<std::thread> DoneThreads; ///< Finished, awaiting a cheap join.
  unsigned NextClientId = 0;
};

/// Blocking client for the same framing: connect once, then request() per
/// line. Used by the daecc-client tool and the service tests.
class Client {
public:
  Client() = default;
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to \p SocketPath; false (with \p Err) when the daemon is not
  /// there.
  bool connect(const std::string &SocketPath, std::string &Err);

  /// Sends \p Line (newline appended) and blocks for the reply line. False
  /// on a broken connection.
  bool request(const std::string &Line, std::string &Reply);

  void close();

private:
  int Fd = -1;
  std::string Buffered; ///< Bytes past the last reply's newline.
};

} // namespace service
} // namespace dae

#endif // DAECC_SERVICE_SERVER_H
