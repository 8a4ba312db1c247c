// Sink and SinkSlot: where a fabric hands over an inbound message.
//
// Each machine's node is a Sink.  The fabric calls deliver() on whichever
// thread the message reaches the machine on: the sender's own (a loopback
// send, or any in-process send over a free network), the in-process delay
// timer, or the TCP reactor.  deliver() must be quick and never block:
// that thread carries other machines' traffic too.
//
// SinkSlot alone knows the detach rule: it counts the deliveries inside
// the sink, detach_and_wait() waits until none is in flight, and after it
// returns none starts, so the sink may be destroyed.
#pragma once

#include <cstddef>
#include <mutex>

#include "net/message.hpp"
#include "util/assert.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::net {

class Sink {
 public:
  /// Messages of one link arrive one at a time, in send order.
  virtual void deliver(Message m) = 0;

 protected:
  ~Sink() = default;
};

class SinkSlot {
 public:
  void attach(Sink* sink) {
    std::lock_guard lock(mu_);
    sink_ = sink;
    attached_once_ = true;
  }

  /// Hand `m` to the sink, outside the slot lock.  A detached machine
  /// drops it, as a network drops traffic to a dead host.
  void deliver(Message m) {
    Sink* sink = nullptr;
    {
      std::lock_guard lock(mu_);
      OOPP_CHECK_MSG(attached_once_, "delivery to an unattached machine");
      if (sink_ == nullptr) return;
      sink = sink_;
      ++in_flight_;
    }
    sink->deliver(std::move(m));
    std::lock_guard lock(mu_);
    if (--in_flight_ == 0 && sink_ == nullptr) idle_.notify_all();
  }

  /// Idempotent.  Must not be called from inside this slot's deliver().
  void detach_and_wait() {
    std::unique_lock lock(mu_);
    sink_ = nullptr;
    idle_.wait(lock, [this] { return in_flight_ == 0; });
  }

 private:
  util::CheckedMutex mu_{"net.SinkSlot"};
  util::CondVar idle_;
  Sink* sink_ = nullptr;  // null before attach and after detach
  std::size_t in_flight_ = 0;
  bool attached_once_ = false;
};

}  // namespace oopp::net
