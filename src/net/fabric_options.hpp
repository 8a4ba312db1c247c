// FabricOptions: the one transport configuration surface.
//
// Cluster::Options carries a single `transport` value, so code configuring
// a fabric does not need to know which concrete fabric it is talking to.
#pragma once

#include <chrono>

#include "net/batcher.hpp"

namespace oopp::net {

struct FabricOptions {
  /// Per-peer send coalescing (see net/batcher.hpp).  Off by default: the
  /// wire stream is then byte-identical to the pre-batching framing.
  /// Runtime-reconfigurable via Fabric::reconfigure().
  BatchOptions batch{};

  /// How long send() keeps redialing a peer that refuses connections
  /// (mesh deployments; peers of one cluster may start in any order).
  std::chrono::milliseconds connect_deadline{10'000};
};

}  // namespace oopp::net
