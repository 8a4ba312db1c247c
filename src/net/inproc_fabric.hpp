// In-process fabric: the default cluster substrate.
//
// Over a free network (CostModel::zero()), and for a machine's send to
// itself, send() delivers on the sender's own thread.  Otherwise it stamps
// the message with a delivery time computed from the CostModel and parks
// it in the fabric's one delay queue; a timer thread delivers it when due.
// The sender never blocks, so N simultaneous transfers overlap exactly as
// they would on N independent links — this is what makes the paper's §4
// split-loop experiment reproduce.
//
// The timer delivers the first due message in send order, not blindly the
// oldest: a due message from one link must not sit behind an undue one
// from another.  FIFO per link holds — each (src, dst) pair's delivery
// timestamps are forced to be non-decreasing.  detach() collapses the
// delays of the machine's backlog: all of it is delivered before detach()
// returns.
#pragma once

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "net/cost_model.hpp"
#include "net/fabric.hpp"
#include "util/assert.hpp"
#include "util/checked_mutex.hpp"
#include "util/clock.hpp"

namespace oopp::net {

class InProcFabric final : public Fabric {
 public:
  explicit InProcFabric(std::size_t machines, CostModel cost = CostModel::zero())
      : cost_(cost),
        slots_(machines),
        links_(machines * machines),
        egress_(machines),
        ingress_(machines),
        queued_(machines, 0),
        flushing_(machines, false) {}

  ~InProcFabric() override { shutdown(); }

  void attach(MachineId id, Sink* sink) override {
    OOPP_CHECK(id < slots_.size());
    slots_[id].attach(sink);
  }

  void detach(MachineId id) override {
    if (id >= slots_.size()) return;
    {
      // The backlog is due now; wait until the timer has delivered it.
      std::unique_lock lock(delay_mu_);
      flushing_[id] = true;
      due_cv_.notify_all();
      drained_cv_.wait(lock, [&] { return queued_[id] == 0 || stopping_; });
    }
    slots_[id].detach_and_wait();
  }

  void send(Message m) override {
    const MachineId src = m.header.src;
    const MachineId dst = m.header.dst;
    OOPP_CHECK_MSG(dst < slots_.size(), "send to unknown machine " << dst);
    account(m);

    // Loopback has no NIC and no link; a free network delays nothing.
    if (src == dst || cost_ == CostModel::zero()) {
      slots_[dst].deliver(std::move(m));
      return;
    }

    const auto now = steady_clock::now();

    // Sender NIC occupancy: this machine's outgoing messages serialize on
    // its egress port.  The message enters the network only when the NIC
    // finishes injecting it.
    auto injected_at = now;
    const auto egress = cost_.egress_ns(m.wire_size());
    if (egress > 0) {
      Egress& port = egress_[src];
      std::lock_guard lock(port.mu);
      const auto start = std::max(now, port.busy_until);
      port.busy_until = start + std::chrono::nanoseconds(egress);
      injected_at = port.busy_until;
    }

    const auto delay = std::chrono::nanoseconds(cost_.delay_ns(m.wire_size()));
    auto deliver_at = injected_at + delay;

    // Receiver NIC occupancy: messages addressed to one machine drain
    // through its ingress port one at a time (incast).
    const auto ingress = cost_.ingress_ns(m.wire_size());
    if (ingress > 0) {
      Egress& port = ingress_[dst];
      std::lock_guard lock(port.mu);
      const auto start = std::max(deliver_at, port.busy_until);
      port.busy_until = start + std::chrono::nanoseconds(ingress);
      deliver_at = port.busy_until;
    }

    Link& link = links_[src * slots_.size() + dst];
    {
      std::lock_guard lock(link.mu);
      if (deliver_at <= link.last)
        deliver_at = link.last + std::chrono::nanoseconds(1);
      link.last = deliver_at;
    }
    if (telemetry::enabled()) {
      static auto& delay_hist =
          telemetry::Metrics::scope_for("net").histogram("inproc_delay_ns");
      delay_hist.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(deliver_at -
                                                               now)
              .count()));
    }
    {
      std::lock_guard lock(delay_mu_);
      if (stopping_ || flushing_[dst]) return;  // a dead host or network
      delayed_.push_back(Delayed{std::move(m), deliver_at});
      ++queued_[dst];
      if (!timer_.joinable()) {
        // oopp-lint: allow(raw-thread-primitive) — joined in shutdown().
        timer_ = std::thread([this] { run_timer(); });
      }
    }
    due_cv_.notify_one();
  }

  /// Stop the delay timer; messages still queued are dropped.  Idempotent.
  void shutdown() override {
    {
      std::lock_guard lock(delay_mu_);
      stopping_ = true;
    }
    due_cv_.notify_all();
    drained_cv_.notify_all();
    if (timer_.joinable()) timer_.join();
  }

  [[nodiscard]] const CostModel& cost_model() const { return cost_; }

  /// Swap the cost model between phases.  Benches build their fixture
  /// over a free network, then dial in the modeled NIC for the measured
  /// section (and back off for teardown).  Deliberately unsynchronized
  /// with send(): only call at a quiet moment, with no messages in
  /// flight.
  void set_cost_model(const CostModel& c) { cost_ = c; }

 private:
  struct Link {
    util::CheckedMutex mu{"net.InProcFabric.link"};
    time_point last{};
  };
  struct Egress {
    util::CheckedMutex mu{"net.InProcFabric.port"};
    time_point busy_until{};
  };
  struct Delayed {
    Message msg;
    time_point due;
  };

  void run_timer() {
    std::unique_lock lock(delay_mu_);
    for (;;) {
      due_cv_.wait(lock, [this] { return stopping_ || !delayed_.empty(); });
      if (stopping_) return;
      const auto now = steady_clock::now();
      time_point earliest = time_point::max();
      auto it = delayed_.begin();
      for (; it != delayed_.end(); ++it) {
        if (it->due <= now || flushing_[it->msg.header.dst]) break;
        earliest = std::min(earliest, it->due);
      }
      if (it == delayed_.end()) {
        // oopp-lint: allow(condvar-wait-no-predicate) delay sleep; the
        due_cv_.wait_until(lock, earliest);  // loop re-scans the queue
        continue;
      }
      Message m = std::move(it->msg);
      delayed_.erase(it);
      const MachineId dst = m.header.dst;
      lock.unlock();
      slots_[dst].deliver(std::move(m));
      lock.lock();
      if (--queued_[dst] == 0) drained_cv_.notify_all();
    }
  }

  CostModel cost_;
  std::vector<SinkSlot> slots_;
  std::vector<Link> links_;
  std::vector<Egress> egress_;
  std::vector<Egress> ingress_;

  util::CheckedMutex delay_mu_{"net.InProcFabric.delay"};
  util::CondVar due_cv_;      // timer: a message was queued or fell due
  util::CondVar drained_cv_;  // detach(): a machine's backlog emptied
  std::deque<Delayed> delayed_;  // in send order
  std::vector<std::size_t> queued_;  // per machine: queued or being delivered
  std::vector<bool> flushing_;       // per machine: detach() in progress
  bool stopping_ = false;
  std::thread timer_;  // oopp-lint: allow(raw-thread-primitive)
};

}  // namespace oopp::net
