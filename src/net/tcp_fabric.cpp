#include "net/tcp_fabric.hpp"

#include <netdb.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/tcp_wire.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace oopp::net {

namespace {

std::uint64_t link_key(MachineId src, MachineId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// Resolve `ep` and connect, redialing until `patience` runs out; returns
/// the connected fd, or -1 if the peer never accepted.
int dial(const Endpoint& ep, std::chrono::milliseconds patience) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  OOPP_CHECK_MSG(
      ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res) == 0,
      "cannot resolve " << ep.host);
  const auto deadline = steady_clock::now() + patience;
  int fd = -1;
  for (;;) {
    fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    OOPP_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
    if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
    if (steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::freeaddrinfo(res);
  return fd;
}

}  // namespace

struct TcpFabric::Link {
  util::CheckedMutex mu{"net.TcpFabric.link"};
  int fd = -1;
  BatchQueue batch;  // guarded by mu
  ~Link() {
    if (fd >= 0) ::close(fd);
  }
};

TcpFabric::TcpFabric(std::vector<Endpoint> endpoints, FabricOptions opts)
    : opts_(opts),
      endpoints_(std::move(endpoints)),
      listeners_(endpoints_.size()),
      batch_opts_(opts.batch) {
  OOPP_CHECK_MSG(!endpoints_.empty(), "empty endpoint table");
}

TcpFabric::~TcpFabric() { shutdown(); }

void TcpFabric::attach(MachineId id, Sink* sink) {
  OOPP_CHECK(id < endpoints_.size());
  Listener& l = listeners_[id];
  OOPP_CHECK_MSG(l.fd < 0, "machine " << id << " attached twice");
  l.slot->attach(sink);

  // Port 0 is a single-process machine: an ephemeral loopback port.  A
  // configured port is a deployment endpoint, reachable on any address.
  Endpoint& ep = endpoints_[id];
  l.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  OOPP_CHECK_MSG(l.fd >= 0, "socket() failed: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(l.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ep.port == 0 ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(ep.port);
  OOPP_CHECK_MSG(
      ::bind(l.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind to port " << ep.port << " failed: " << std::strerror(errno));
  OOPP_CHECK(::listen(l.fd, 64) == 0);
  socklen_t len = sizeof(addr);
  OOPP_CHECK(
      ::getsockname(l.fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  ep.port = ntohs(addr.sin_port);
  reactor_.add_listener(l.fd, l.slot);
}

void TcpFabric::detach(MachineId id) {
  if (id >= listeners_.size()) return;
  listeners_[id].slot->detach_and_wait();
}

void TcpFabric::reconfigure(const FabricOptions& opts) {
  batch_opts_.store(opts.batch);
}

std::uint16_t TcpFabric::port(MachineId id) const {
  OOPP_CHECK(id < endpoints_.size());
  return endpoints_[id].port;
}

TcpFabric::Link& TcpFabric::link_for(MachineId src, MachineId dst) {
  const std::uint64_t key = link_key(src, dst);
  {
    std::lock_guard lock(links_mu_);
    auto it = links_.find(key);
    if (it != links_.end()) return *it->second;
  }

  // Dial outside the lock: a peer process that is not up yet keeps this
  // thread redialing for up to connect_deadline.
  const Endpoint& ep = endpoints_[dst];
  const int fd = dial(ep, opts_.connect_deadline);
  OOPP_CHECK_MSG(fd >= 0, "cannot connect to machine "
                              << dst << " at " << ep.host << ":" << ep.port);
  wire::set_nodelay(fd);

  std::lock_guard lock(links_mu_);
  std::unique_ptr<Link>& link = links_[key];
  if (link) {
    ::close(fd);  // lost a dial race: keep the established link
    return *link;
  }
  link = std::make_unique<Link>();
  link->fd = fd;
  return *link;
}

void TcpFabric::send(Message m) {
  const MachineId src = m.header.src;
  const MachineId dst = m.header.dst;
  OOPP_CHECK_MSG(dst < endpoints_.size(), "send to unknown machine " << dst);
  account(m);

  if (dst == src) {
    // Loopback without touching the kernel — never batched: there is no
    // syscall to amortize, and delaying it would only add latency.
    listeners_[dst].slot->deliver(std::move(m));
    return;
  }

  const BatchOptions bo = batch_opts_.load();
  Link& link = link_for(src, dst);

  if (!bo.enabled) {
    std::lock_guard lock(link.mu);
    // Drain leftovers from when batching was on (runtime switch-off).
    OOPP_CHECK_MSG(link.batch.flush(link.fd, FlushTrigger::kDrain),
                   "frame write to machine " << dst << " failed");
    OOPP_CHECK_MSG(wire::send_framev(link.fd, m),
                   "frame write to machine " << dst << " failed");
    return;
  }

  bool arm = false;
  time_point deadline{};
  {
    std::lock_guard lock(link.mu);
    arm = link.batch.add(std::move(m), bo);
    deadline = link.batch.deadline;
    if (link.batch.due_for_size_flush(bo)) {
      OOPP_CHECK_MSG(link.batch.flush(link.fd, FlushTrigger::kSize),
                     "frame write to machine " << dst << " failed");
      arm = false;
    }
  }
  // The flusher registry lock is only ever taken with no link lock held.
  if (arm) flusher_.schedule(link_key(src, dst), deadline);
}

void TcpFabric::flush_link(std::uint64_t key) {
  std::lock_guard links_lock(links_mu_);
  auto it = links_.find(key);
  if (it == links_.end()) return;
  Link& link = *it->second;
  time_point again{};
  {
    std::lock_guard lock(link.mu);
    if (link.batch.empty()) return;
    if (link.batch.deadline <= steady_clock::now()) {
      OOPP_CHECK_MSG(link.batch.flush(link.fd, FlushTrigger::kDeadline),
                     "frame write to machine "
                         << static_cast<MachineId>(key) << " failed");
      return;
    }
    // A size flush emptied the queue and a younger batch started since
    // this deadline was armed: come back when that one matures.
    again = link.batch.deadline;
  }
  flusher_.schedule(key, again);
}

void TcpFabric::shutdown() {
  if (down_) return;
  down_ = true;
  flusher_.stop();
  {
    std::lock_guard lock(links_mu_);
    for (auto& [key, link] : links_) {
      std::lock_guard link_lock(link->mu);
      (void)link->batch.flush(link->fd, FlushTrigger::kDrain);
    }
    links_.clear();  // closes outgoing sockets; peers' reactors see EOF
  }
  // Listening fds close before the reactor stops, so no accept races the
  // teardown; accepted fds are owned and closed by the reactor itself.
  for (Listener& l : listeners_) {
    if (l.fd < 0) continue;
    ::shutdown(l.fd, SHUT_RDWR);
    ::close(l.fd);
    l.fd = -1;
  }
  reactor_.stop();
}

std::vector<Endpoint> load_endpoints(const std::string& path) {
  std::ifstream in(path);
  OOPP_CHECK_MSG(in.good(), "cannot open endpoints file " << path);
  std::vector<Endpoint> out;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    Endpoint ep;
    unsigned port = 0;
    if (ls >> ep.host >> port) {
      OOPP_CHECK_MSG(port > 0 && port < 65536, "bad port in " << path);
      ep.port = static_cast<std::uint16_t>(port);
      out.push_back(std::move(ep));
    }
  }
  OOPP_CHECK_MSG(!out.empty(), "no endpoints in " << path);
  return out;
}

}  // namespace oopp::net
