// Fabric: the interconnect abstraction.
//
// A Fabric moves Messages between machines.  Two implementations ship:
//
//  * InProcFabric — machines live in one address space; the fabric applies
//    an alpha-beta CostModel so communication costs are visible (this is
//    the default substrate standing in for the paper's physical cluster).
//  * TcpFabric    — machines exchange frames over real sockets, read by one
//    epoll reactor; every cross-machine byte genuinely crosses the kernel
//    socket layer.  Its endpoint table puts the machines in this process
//    (loopback) or in separate processes (a mesh deployment).
//
// Node code is fabric-agnostic: it is the Sink a fabric delivers into
// (net/sink.hpp), and it calls send().
#pragma once

#include <atomic>
#include <cstdint>

#include "net/message.hpp"
#include "net/sink.hpp"
#include "telemetry/metrics.hpp"

namespace oopp::net {

struct FabricOptions;  // net/fabric_options.hpp

class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Register the sink that receives messages addressed to machine `id`.
  /// Must be called for every machine before any send() targeting it.
  virtual void attach(MachineId id, Sink* sink) = 0;

  /// Unregister machine `id`'s sink, waiting out deliveries inside it:
  /// once this returns none starts, even while peers keep sending (their
  /// messages are dropped), so the sink may be destroyed.  Not from inside
  /// that sink's deliver().  Safe for an id never attached.  Idempotent.
  virtual void detach(MachineId /*id*/) {}

  /// Deliver `m` to the machine in m.header.dst, possibly running its
  /// sink's deliver() on this thread.  Thread-safe.
  virtual void send(Message m) = 0;

  /// Apply the runtime-changeable subset of FabricOptions (today: the
  /// batching knobs) to subsequent sends.  Construction-time fields
  /// (reactor, buffers) are ignored.  Thread-safe.
  virtual void reconfigure(const FabricOptions& /*opts*/) {}

  /// Tear down background resources (threads, sockets).  Idempotent.
  virtual void shutdown() {}

  // -- traffic accounting (used by benches and tests) ----------------------
  [[nodiscard]] std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

 protected:
  void account(const Message& m) {
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(m.wire_size(), std::memory_order_relaxed);
    // Process-wide mirror of the per-fabric counters so a metrics report
    // covers traffic even after a fabric is destroyed.
    static auto& scope = telemetry::Metrics::scope_for("net");
    static auto& msgs = scope.counter("messages_sent");
    static auto& bytes = scope.counter("bytes_sent");
    msgs.add(1);
    bytes.add(m.wire_size());
  }

 private:
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
};

}  // namespace oopp::net
