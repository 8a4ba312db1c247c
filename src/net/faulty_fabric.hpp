// FaultyFabric: a fault-injecting decorator over any Fabric.
//
// Wraps an inner fabric and, per message, may drop it (models loss /
// partition) or flip one payload byte (models corruption).  Combined with
// Node::Options::checksums and Future::get_for deadlines, the tests prove
// the framework's failure behaviour is *typed*:
//
//   corruption → rpc::BadFrame at the caller (request or response side);
//   loss       → rpc::CallTimeout on a deadline (no silent hang forever,
//                no wrong answer).
//
// Deterministic: all randomness comes from the seeded generator, and
// fault kinds can be restricted to requests or responses.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "net/fabric.hpp"
#include "net/fabric_options.hpp"
#include "util/checked_mutex.hpp"
#include "util/prng.hpp"

namespace oopp::net {

class FaultyFabric final : public Fabric {
 public:
  struct Faults {
    double drop_probability = 0.0;     // [0, 1]
    double corrupt_probability = 0.0;  // [0, 1]
    bool affect_requests = true;
    bool affect_responses = true;
    std::uint64_t seed = 0x5eed;
  };

  FaultyFabric(std::unique_ptr<Fabric> inner, Faults faults)
      : inner_(std::move(inner)), faults_(faults), rng_(faults.seed) {}

  void attach(MachineId id, Sink* sink) override { inner_->attach(id, sink); }

  void detach(MachineId id) override { inner_->detach(id); }

  void reconfigure(const FabricOptions& opts) override {
    inner_->reconfigure(opts);
  }

  void send(Message m) override {
    account(m);
    {
      // The whole fault decision sits under mu_: the eligibility flags are
      // part of faults_ and must be read against the same configuration
      // the probabilities come from (set_faults can swap it concurrently).
      std::lock_guard lock(mu_);
      const bool eligible =
          (m.header.kind == MsgKind::kRequest && faults_.affect_requests) ||
          (m.header.kind == MsgKind::kResponse && faults_.affect_responses);
      if (eligible) {
        if (faults_.drop_probability > 0.0 &&
            rng_.uniform() < faults_.drop_probability) {
          dropped_.fetch_add(1, std::memory_order_relaxed);
          return;  // the network ate it
        }
        if (faults_.corrupt_probability > 0.0 && !m.payload.empty() &&
            rng_.uniform() < faults_.corrupt_probability) {
          const auto pos = rng_.below(m.payload.size());
          // Copy-on-write: the sender's retry/dedup copies share these
          // payload slices and must keep the intact bytes.
          m.payload.mutate_byte(pos, std::byte{0x40});
          corrupted_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    inner_->send(std::move(m));
  }

  void shutdown() override { inner_->shutdown(); }

  /// Reconfigure at runtime (e.g. run a healthy setup phase, then turn
  /// the network hostile).
  void set_faults(Faults faults) {
    std::lock_guard lock(mu_);
    faults_ = faults;
  }

  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t corrupted() const {
    return corrupted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Fabric& inner() { return *inner_; }

 private:
  std::unique_ptr<Fabric> inner_;
  Faults faults_;
  util::CheckedMutex mu_{"net.FaultyFabric"};
  Xoshiro256 rng_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> corrupted_{0};
};

}  // namespace oopp::net
