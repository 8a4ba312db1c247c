// Network cost model for the in-process fabric.
//
// The paper's experiments presuppose a cluster whose interconnect has real
// latency and finite bandwidth — that is what makes "move the computation
// to the data" beat "move the data to the computation" (§3), and what the
// communication-avoiding motivation in §1 is about.  Running everything in
// one address space would hide those effects, so the in-process fabric
// charges each message the classic alpha-beta cost:
//
//     delay(bytes) = alpha + bytes / beta + per_message_cpu
//
// Delivery order per (src, dst) link is kept FIFO even when a small
// message's computed delay undercuts a large predecessor's.
#pragma once

#include <chrono>
#include <cstdint>

namespace oopp::net {

struct CostModel {
  /// One-way message latency (alpha), nanoseconds.
  std::int64_t latency_ns = 0;
  /// Link bandwidth (beta), bytes per microsecond.  0 = infinite.
  double bytes_per_us = 0.0;
  /// Fixed per-message CPU cost (packetization), nanoseconds.
  std::int64_t per_message_ns = 0;
  /// Sender NIC injection bandwidth (the LogGP "G"), bytes per
  /// microsecond; 0 = infinite.  Unlike the in-flight terms above, egress
  /// time *occupies the sender*: a machine's outgoing messages serialize
  /// on its NIC.  This is what makes a flat fan-out from one machine cost
  /// N x (bytes/G) while a tree spreads the injection load (experiment
  /// E11).
  double egress_bytes_per_us = 0.0;
  /// Fixed per-message sender occupancy (the LogGP "o"), nanoseconds.
  std::int64_t egress_per_message_ns = 0;

  [[nodiscard]] std::int64_t delay_ns(std::size_t bytes) const {
    std::int64_t d = latency_ns + per_message_ns;
    if (bytes_per_us > 0.0)
      d += static_cast<std::int64_t>(static_cast<double>(bytes) /
                                     bytes_per_us * 1e3);
    return d;
  }

  /// Receiver NIC drain bandwidth, bytes per microsecond; 0 = infinite.
  /// Messages addressed to one machine serialize on its ingress port —
  /// the "incast" effect that makes a flat gather/reduce at one root cost
  /// ~N x (bytes/G) (experiment E11).
  double ingress_bytes_per_us = 0.0;
  std::int64_t ingress_per_message_ns = 0;

  /// Time the sender's NIC is busy injecting this message.
  [[nodiscard]] std::int64_t egress_ns(std::size_t bytes) const {
    std::int64_t d = egress_per_message_ns;
    if (egress_bytes_per_us > 0.0)
      d += static_cast<std::int64_t>(static_cast<double>(bytes) /
                                     egress_bytes_per_us * 1e3);
    return d;
  }

  /// Time the receiver's NIC is busy draining this message.
  [[nodiscard]] std::int64_t ingress_ns(std::size_t bytes) const {
    std::int64_t d = ingress_per_message_ns;
    if (ingress_bytes_per_us > 0.0)
      d += static_cast<std::int64_t>(static_cast<double>(bytes) /
                                     ingress_bytes_per_us * 1e3);
    return d;
  }

  /// A model that adds no artificial delay — raw framework overhead.
  static CostModel zero() { return {}; }

  bool operator==(const CostModel&) const = default;

  /// A model resembling a commodity cluster interconnect:
  /// ~25 us latency, ~1.2 GB/s effective bandwidth.
  static CostModel commodity_cluster() {
    return {.latency_ns = 25'000, .bytes_per_us = 1200.0,
            .per_message_ns = 500};
  }

  /// A model resembling an HPC fabric: ~2 us latency, ~10 GB/s.
  static CostModel hpc_fabric() {
    return {.latency_ns = 2'000, .bytes_per_us = 10'000.0,
            .per_message_ns = 100};
  }
};

}  // namespace oopp::net
