// Reactor: one epoll thread serving every inbound connection of a fabric.
//
// The TcpFabric's only inbound read path: listening sockets and accepted
// connections are nonblocking and edge-triggered; a single thread accepts,
// reads in 64 KiB chunks, and decodes frames with wire::StreamFrameDecoder.
// Socket buffers stay at the kernel default.
//
// Inbound sockets are simplex here: a fabric link is one direction of one
// (src, dst) pair, written by the sender's own threads under the link
// mutex, so the reactor never needs write readiness — EPOLLOUT is unused
// by design.
//
// The reactor delivers each decoded frame itself, through the listening
// machine's SinkSlot (net/sink.hpp): the node's routing runs on this
// thread.  After Fabric::detach() it reads and drops that machine's frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/sink.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::net {

class Reactor {
 public:
  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Register a listening socket; connections it accepts deliver through
  /// `slot`.  The caller keeps ownership of `listen_fd` (and closes it to
  /// stop new accepts); the reactor owns every fd it accepts.  The fd
  /// must already be nonblocking.  Thread-safe.
  void add_listener(int listen_fd, std::shared_ptr<SinkSlot> slot);

  /// Stop the reactor thread and close all accepted connections.
  /// Idempotent.  Callers close their listening fds first so no new
  /// connections race the teardown.
  void stop();

 private:
  struct Conn;

  void run();
  void do_accept(int listen_fd, const std::shared_ptr<SinkSlot>& slot);
  /// Drain one readable connection; returns false when it must close
  /// (EOF, error, malformed stream).
  bool do_read(Conn& conn);
  void close_conn(int fd);
  void wake();

  /// Bytes pulled per read() syscall while a connection is readable.
  static constexpr std::size_t kReadChunk = 64 * 1024;

  std::vector<std::uint8_t> read_buf_;  // reactor-thread only
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: nudges epoll_wait for stop()
  std::thread thread_;  // oopp-lint: allow(raw-thread-primitive) joined in stop()

  util::CheckedMutex mu_{"net.Reactor.state"};
  std::unordered_map<int, std::shared_ptr<SinkSlot>> listeners_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace oopp::net
