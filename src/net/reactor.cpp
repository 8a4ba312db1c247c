#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>

#include <atomic>
#include <cstring>

#include "net/tcp_wire.hpp"
#include "telemetry/metrics.hpp"
#include "util/assert.hpp"

namespace oopp::net {

namespace {

/// net.reactor scope: the event loop's own instruments.
struct ReactorMetrics {
  telemetry::Counter& accepts;
  telemetry::Counter& closes;
  telemetry::Counter& wakeups;  // epoll_wait returns
  telemetry::Counter& frames;
  telemetry::Counter& bytes;
};

ReactorMetrics& reactor_metrics() {
  static ReactorMetrics m = [] {
    auto& s = telemetry::Metrics::scope_for("net.reactor");
    return ReactorMetrics{s.counter("accepts"), s.counter("closes"),
                          s.counter("wakeups"), s.counter("frames"),
                          s.counter("bytes")};
  }();
  return m;
}

}  // namespace

struct Reactor::Conn {
  int fd = -1;
  std::shared_ptr<SinkSlot> slot;
  wire::StreamFrameDecoder decoder;
};

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  OOPP_CHECK_MSG(epoll_fd_ >= 0,
                 "epoll_create1 failed: " << std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  OOPP_CHECK_MSG(wake_fd_ >= 0, "eventfd failed: " << std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  OOPP_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

Reactor::~Reactor() {
  stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void Reactor::add_listener(int listen_fd, std::shared_ptr<SinkSlot> slot) {
  {
    std::lock_guard lock(mu_);
    OOPP_CHECK_MSG(!stopped_, "add_listener on a stopped reactor");
    listeners_.emplace(listen_fd, std::move(slot));
    if (!started_) {
      started_ = true;
      // oopp-lint: allow(raw-thread-primitive) — joined in stop().
      thread_ = std::thread([this] { run(); });
    }
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = listen_fd;
  OOPP_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd, &ev) == 0,
                 "epoll_ctl(listener) failed: " << std::strerror(errno));
}

void Reactor::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mu_);
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  listeners_.clear();
}

void Reactor::do_accept(int listen_fd,
                        const std::shared_ptr<SinkSlot>& slot) {
  // Edge-triggered: accept until the backlog is dry.
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener closed
    }
    wire::set_nodelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->slot = slot;
    {
      std::lock_guard lock(mu_);
      conns_.emplace(fd, std::move(conn));
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close_conn(fd);
      continue;
    }
    reactor_metrics().accepts.add(1);
  }
}

bool Reactor::do_read(Conn& conn) {
  auto& rm = reactor_metrics();
  // Reused across events: only the reactor thread enters do_read.
  std::vector<std::uint8_t>& buf = read_buf_;
  if (buf.empty()) buf.resize(kReadChunk);
  std::vector<Message> ms;
  // Edge-triggered: read until EAGAIN, EOF, or error.
  for (;;) {
    const ssize_t r = ::read(conn.fd, buf.data(), buf.size());
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (r == 0) return false;  // EOF
    rm.bytes.add(static_cast<std::uint64_t>(r));
    ms.clear();
    if (!conn.decoder.feed(buf.data(), static_cast<std::size_t>(r), ms))
      return false;  // malformed stream: drop the connection
    if (ms.empty()) continue;
    rm.frames.add(ms.size());
    // Frames of one connection are delivered one at a time, in order: on
    // one link, that is issue order.
    for (auto& m : ms) conn.slot->deliver(std::move(m));
  }
  return true;
}

void Reactor::close_conn(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  {
    std::lock_guard lock(mu_);
    conns_.erase(fd);  // Conn owns no fd resource; close below
  }
  ::close(fd);
  reactor_metrics().closes.add(1);
}

void Reactor::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: tearing down
    }
    reactor_metrics().wakeups.add(1);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        (void)!::read(wake_fd_, &drain, sizeof(drain));
        std::lock_guard lock(mu_);
        if (stopped_) return;
        continue;
      }
      std::shared_ptr<SinkSlot> listener_slot;
      Conn* conn = nullptr;
      {
        std::lock_guard lock(mu_);
        if (auto it = listeners_.find(fd); it != listeners_.end()) {
          listener_slot = it->second;
        } else if (auto ct = conns_.find(fd); ct != conns_.end()) {
          conn = ct->second.get();
        }
      }
      if (listener_slot != nullptr) {
        do_accept(fd, listener_slot);
      } else if (conn != nullptr) {
        // Only this thread reads or erases connections, so the pointer
        // stays valid without holding mu_ across the (potentially long)
        // read loop.
        if (!do_read(*conn)) close_conn(fd);
      }
    }
  }
}

}  // namespace oopp::net
