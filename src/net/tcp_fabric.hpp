// TCP fabric: machines exchange frames over real sockets.
//
// The fabric is built on an endpoint table: one host and port per machine
// id.  Two constructors fill it:
//
//  * TcpFabric(machines) — every machine lives in this process; each one
//    listens on 127.0.0.1 with an ephemeral port chosen at attach().
//  * TcpFabric(endpoints) — the deployment table every process of a
//    multi-process cluster shares (Cluster's mesh mode, oopp_noded);
//    attach() binds the machine's configured port on any address.
//
// Everything else is one code path.  One epoll reactor thread
// (net/reactor.hpp) serves the inbound connections of every attached
// machine.  Outgoing links are dialed lazily on first send — resolve the
// peer, then redial until FabricOptions::connect_deadline, since the
// processes of one cluster may start in any order — and cached per
// (src, dst) pair; a per-link mutex keeps frames atomic on the socket and
// guards the link's BatchQueue.
//
// A message a machine sends to itself is delivered on the sender's thread
// without touching a socket.  Every
// cross-machine message really crosses the kernel socket layer, byte for
// byte, like the MPI substrate in the paper's own experiments: the
// runtime's semantics do not depend on shared memory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/batcher.hpp"
#include "net/fabric.hpp"
#include "net/fabric_options.hpp"
#include "net/reactor.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::net {

/// Where one machine listens.  Port 0 asks for an ephemeral loopback port,
/// chosen when the machine attaches.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parse an endpoints file: one "host port" pair per line, machine id =
/// line number; '#' starts a comment.
std::vector<Endpoint> load_endpoints(const std::string& path);

class TcpFabric final : public Fabric {
 public:
  explicit TcpFabric(std::size_t machines)
      : TcpFabric(machines, FabricOptions{}) {}
  TcpFabric(std::size_t machines, FabricOptions opts)
      : TcpFabric(std::vector<Endpoint>(machines), opts) {}
  TcpFabric(std::vector<Endpoint> endpoints, FabricOptions opts);
  ~TcpFabric() override;

  /// Bind and listen on machine `id`'s endpoint.  A process attaches the
  /// machines it hosts: all of them, or one per process in a deployment.
  void attach(MachineId id, Sink* sink) override;
  void detach(MachineId id) override;
  void send(Message m) override;
  void reconfigure(const FabricOptions& opts) override;
  void shutdown() override;

  /// The options this fabric runs with (batch reflects reconfigure()).
  [[nodiscard]] FabricOptions options() const {
    FabricOptions o = opts_;
    o.batch = batch_opts_.load();
    return o;
  }

  /// Port the given machine listens on (known once it has attached).
  [[nodiscard]] std::uint16_t port(MachineId id) const;

 private:
  struct Listener {
    int fd = -1;
    // Shared with the reactor's connections.
    std::shared_ptr<SinkSlot> slot = std::make_shared<SinkSlot>();
  };
  struct Link;  // cached outgoing connection for one (src, dst) pair

  Link& link_for(MachineId src, MachineId dst);
  /// Deadline-flush callback (runs on the flusher thread).
  void flush_link(std::uint64_t key);

  FabricOptions opts_;  // construction-time snapshot (batch lives below)
  std::vector<Endpoint> endpoints_;  // ephemeral ports filled in by attach()
  std::vector<Listener> listeners_;
  Reactor reactor_;
  util::CheckedMutex links_mu_{"net.TcpFabric.links"};
  std::unordered_map<std::uint64_t, std::unique_ptr<Link>> links_;
  bool down_ = false;

  AtomicBatchOptions batch_opts_;
  BatchFlusher flusher_{[this](std::uint64_t key) { flush_link(key); }};
};

}  // namespace oopp::net
