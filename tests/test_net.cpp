// Tests for the network substrate: the cost model, delivery into an
// attached sink (on the sender's thread over a free network, through the
// in-process delay queue under a CostModel, from the TCP reactor), and the
// detach contract every fabric keeps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "collect_sink.hpp"
#include "net/cost_model.hpp"
#include "net/inproc_fabric.hpp"
#include "net/tcp_fabric.hpp"
#include "util/clock.hpp"

namespace net = oopp::net;
using namespace std::chrono_literals;

namespace {

net::Message make_msg(net::MachineId src, net::MachineId dst,
                      net::SeqNum seq, std::size_t payload = 0) {
  return net::make_request(
      src, dst, seq, /*object=*/0, /*method=*/0,
      std::vector<std::byte>(payload, std::byte{0xab}), /*checksum=*/false);
}

/// 1 byte per microsecond: a message's delay is its wire size in µs.
const net::CostModel kSlowLink{.latency_ns = 0, .bytes_per_us = 1.0,
                               .per_message_ns = 0};

TEST(CostModel, ZeroModelHasNoDelay) {
  EXPECT_EQ(net::CostModel::zero().delay_ns(1 << 20), 0);
}

TEST(CostModel, AlphaBetaShape) {
  net::CostModel m{.latency_ns = 1000, .bytes_per_us = 1000.0,
                   .per_message_ns = 0};
  EXPECT_EQ(m.delay_ns(0), 1000);
  // 1e6 bytes at 1000 bytes/us = 1e3 us = 1e6 ns, plus latency.
  EXPECT_NEAR(static_cast<double>(m.delay_ns(1'000'000)), 1'001'000.0, 1.0);
  // Delay is monotone in size.
  EXPECT_LT(m.delay_ns(100), m.delay_ns(100'000));
}

TEST(InProcFabric, DeliversToAttachedInbox) {
  CollectSink a, b;
  net::InProcFabric fabric(2);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.send(make_msg(0, 1, 7, 64));
  auto m = b.pop();
  EXPECT_EQ(m.header.seq, 7u);
  EXPECT_EQ(m.payload.size(), 64u);
  EXPECT_EQ(fabric.messages_sent(), 1u);
  EXPECT_GT(fabric.bytes_sent(), 64u);
}

TEST(InProcFabric, FreeNetworkDeliversOnSendersThreadInSendOrder) {
  CollectSink a, b;
  net::InProcFabric fabric(2);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.send(make_msg(0, 1, 1));
  fabric.send(make_msg(0, 1, 2));
  fabric.send(make_msg(0, 1, 3));
  // Each send delivered before it returned: no queue, no other thread.
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.pop().header.seq, 1u);
  EXPECT_EQ(b.pop().header.seq, 2u);
  EXPECT_EQ(b.pop().header.seq, 3u);
}

TEST(InProcFabric, PerLinkFifoEvenWithSizeDependentDelay) {
  // A big message (slow) followed by a tiny one (fast) on the same link
  // must still arrive in order.
  CollectSink a, b;
  net::InProcFabric fabric(2, kSlowLink);  // big = visible delay
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.send(make_msg(0, 1, 1, 20'000));  // ~20 ms
  fabric.send(make_msg(0, 1, 2, 0));       // ~0 ms, would overtake w/o FIFO
  EXPECT_EQ(b.pop().header.seq, 1u);
  EXPECT_EQ(b.pop().header.seq, 2u);
}

TEST(InProcFabric, CostModelDelaysDelivery) {
  net::CostModel cost{.latency_ns = 30'000'000, .bytes_per_us = 0.0,
                      .per_message_ns = 0};  // 30 ms latency
  CollectSink a, b;
  net::InProcFabric fabric(2, cost);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  const auto t0 = oopp::steady_clock::now();
  fabric.send(make_msg(0, 1, 1));
  (void)b.pop();
  EXPECT_GE(oopp::steady_clock::now() - t0, 25ms);
}

TEST(InProcFabric, HonorsDeliveryTime) {
  // The delay queue holds a message until its due time, then delivers it
  // without a sender around to push it along.
  net::CostModel cost{.latency_ns = 30'000'000};  // 30 ms
  CollectSink a, b;
  net::InProcFabric fabric(2, cost);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  const auto t0 = oopp::steady_clock::now();
  fabric.send(make_msg(0, 1, 1));
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.pop().header.seq, 1u);
  EXPECT_GE(oopp::steady_clock::now() - t0, 25ms);
}

TEST(InProcFabric, DueMessageNotBlockedBehindUndueOne) {
  // Two links with independent delays: link 0 -> 1's message is due far in
  // the future, link 2 -> 1's almost now.  The delay queue must deliver the
  // due one promptly instead of head-of-line blocking on send order.
  CollectSink a, b, c;
  net::InProcFabric fabric(3, kSlowLink);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.attach(2, &c);
  const auto t0 = oopp::steady_clock::now();
  fabric.send(make_msg(0, 1, 1, 200'000));  // ~200 ms
  fabric.send(make_msg(2, 1, 2));           // ~0.1 ms

  EXPECT_EQ(b.pop().header.seq, 2u);
  EXPECT_LT(oopp::steady_clock::now() - t0, 150ms);
  EXPECT_EQ(b.pop().header.seq, 1u);
  EXPECT_GE(oopp::steady_clock::now() - t0, 195ms);
}

TEST(InProcFabric, PerLinkFifoSurvivesEarliestDuePop) {
  // One slow link and one fast link into machine 1.  The fast link's
  // message is delivered first; the slow link's three stay FIFO even though
  // the later two would be due earlier on their own sizes.
  CollectSink a, b, c;
  net::InProcFabric fabric(3, kSlowLink);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.attach(2, &c);
  fabric.send(make_msg(0, 1, 1, 20'000));  // ~20 ms
  fabric.send(make_msg(0, 1, 2, 5'000));   // ~5 ms on its own
  fabric.send(make_msg(0, 1, 3));          // ~0.1 ms on its own
  fabric.send(make_msg(2, 1, 4));
  EXPECT_EQ(b.pop().header.seq, 4u);
  EXPECT_EQ(b.pop().header.seq, 1u);
  EXPECT_EQ(b.pop().header.seq, 2u);
  EXPECT_EQ(b.pop().header.seq, 3u);
}

TEST(InProcFabric, DetachReleasesDelayedBacklog) {
  // Everything queued for a machine before detach() is delivered before
  // detach() returns, despite pending simulated delays; nothing sent after
  // is delivered.
  net::CostModel cost{.latency_ns = 10'000'000'000};  // 10 s
  CollectSink a, b;
  net::InProcFabric fabric(2, cost);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  for (int i = 0; i < 32; ++i)
    fabric.send(make_msg(0, 1, static_cast<net::SeqNum>(i)));
  const auto t0 = oopp::steady_clock::now();
  fabric.detach(1);  // must not wait 10 seconds
  EXPECT_LT(oopp::steady_clock::now() - t0, 5s);
  ASSERT_EQ(b.size(), 32u);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(b.pop().header.seq, static_cast<net::SeqNum>(i));

  fabric.send(make_msg(0, 1, 99));  // dropped: the machine is gone
  EXPECT_EQ(b.size(), 0u);
}

TEST(InProcFabric, EgressSerializesSenderMessages) {
  // 4 messages of 10'000 bytes at 1 byte/us egress: the last one cannot
  // be injected before ~40 ms even though the network itself is free.
  net::CostModel cost{};
  cost.egress_bytes_per_us = 1.0;
  CollectSink a, b, c;
  net::InProcFabric fabric(3, cost);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.attach(2, &c);
  const auto t0 = oopp::steady_clock::now();
  // Fan out to two different destinations: egress is per-sender, so they
  // still serialize.
  fabric.send(make_msg(0, 1, 1, 10'000));
  fabric.send(make_msg(0, 2, 2, 10'000));
  fabric.send(make_msg(0, 1, 3, 10'000));
  fabric.send(make_msg(0, 2, 4, 10'000));
  (void)b.pop();
  (void)c.pop();
  (void)b.pop();
  (void)c.pop();
  const auto elapsed = oopp::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 35ms);
}

TEST(InProcFabric, EgressDoesNotCoupleDifferentSenders) {
  net::CostModel cost{};
  cost.egress_bytes_per_us = 1.0;
  CollectSink a, b, c;
  net::InProcFabric fabric(3, cost);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.attach(2, &c);
  const auto t0 = oopp::steady_clock::now();
  // Two senders inject ~10 ms each concurrently: total ~10 ms, not 20.
  fabric.send(make_msg(0, 2, 1, 10'000));
  fabric.send(make_msg(1, 2, 2, 10'000));
  (void)c.pop();
  (void)c.pop();
  const auto elapsed = oopp::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 18ms);
}

// -- the detach contract, on every delivering thread --------------------------

/// A sink whose deliver() parks until released, and which counts any
/// delivery that starts after the test has seen detach() return.
class ParkingSink final : public net::Sink {
 public:
  void deliver(net::Message) override {
    std::unique_lock<std::mutex> lk(mu_);
    if (detached_) ++late_;
    ++entered_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return released_; });
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lk(mu_);
    ASSERT_TRUE(cv_.wait_for(lk, 10s, [&] { return entered_ > 0; }));
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }
  void mark_detached() {
    std::lock_guard<std::mutex> lk(mu_);
    detached_ = true;
  }
  int entered() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entered_;
  }
  int late() const {
    std::lock_guard<std::mutex> lk(mu_);
    return late_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  bool detached_ = false;
  int entered_ = 0;
  int late_ = 0;
};

/// Park a delivery to machine 1 inside its sink, detach machine 1 from
/// another thread, and check detach() waits for the delivery and that
/// nothing reaches the sink after it returns.
void detach_waits_for_delivery_in_flight(net::Fabric& fabric) {
  CollectSink a;
  ParkingSink b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  std::thread sender([&] { fabric.send(make_msg(0, 1, 1)); });
  b.wait_entered();

  std::atomic<bool> returned{false};
  std::thread detacher([&] {
    fabric.detach(1);
    b.mark_detached();
    returned = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(returned.load()) << "detach() returned mid-delivery";
  b.release();
  detacher.join();
  sender.join();
  EXPECT_TRUE(returned.load());

  for (int i = 0; i < 8; ++i)
    fabric.send(make_msg(0, 1, static_cast<net::SeqNum>(10 + i)));
  std::this_thread::sleep_for(50ms);  // give the network time to misdeliver
  EXPECT_EQ(b.entered(), 1);
  EXPECT_EQ(b.late(), 0);
  fabric.detach(0);
  fabric.shutdown();
}

TEST(InProcFabric, DetachWaitsForDeliveryInFlight) {
  {
    SCOPED_TRACE("free network: the sender's thread delivers");
    net::InProcFabric fabric(2);
    detach_waits_for_delivery_in_flight(fabric);
  }
  {
    SCOPED_TRACE("cost model: the delay timer delivers");
    net::InProcFabric fabric(2, net::CostModel{.latency_ns = 1'000'000});
    detach_waits_for_delivery_in_flight(fabric);
  }
}

TEST(TcpFabric, DetachWaitsForDeliveryInFlight) {
  // The reactor itself is parked inside the sink.
  net::TcpFabric fabric(2);
  detach_waits_for_delivery_in_flight(fabric);
}

TEST(TcpFabric, RoundTripsFrames) {
  CollectSink a, b;
  net::TcpFabric fabric(2);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  EXPECT_GT(fabric.port(0), 0);
  EXPECT_GT(fabric.port(1), 0);

  // This test exercises the wire codec itself, so it hand-sets every
  // header field on purpose.
  auto m = make_msg(0, 1, 99, 0);
  m.header.object = 42;                            // oopp-lint: allow(raw-message-header)
  m.header.method = 0x1234567890abcdefULL;         // oopp-lint: allow(raw-message-header)
  m.header.kind = net::MsgKind::kResponse;         // oopp-lint: allow(raw-message-header)
  m.header.status = net::CallStatus::kRemoteException;  // oopp-lint: allow(raw-message-header)
  std::vector<std::byte> payload(1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i & 0xff);
  m.payload = net::Buffer(std::move(payload));
  fabric.send(std::move(m));

  auto got = b.pop();
  EXPECT_EQ(got.header.seq, 99u);
  EXPECT_EQ(got.header.object, 42u);
  EXPECT_EQ(got.header.method, 0x1234567890abcdefULL);
  EXPECT_EQ(got.header.kind, net::MsgKind::kResponse);
  EXPECT_EQ(got.header.status, net::CallStatus::kRemoteException);
  ASSERT_EQ(got.payload.size(), 1024u);
  for (std::size_t i = 0; i < got.payload.size(); ++i)
    ASSERT_EQ(got.payload[i], static_cast<std::byte>(i & 0xff));
  fabric.shutdown();
}

TEST(TcpFabric, ManyMessagesBothDirections) {
  CollectSink a, b;
  net::TcpFabric fabric(2);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    fabric.send(make_msg(0, 1, static_cast<net::SeqNum>(i), 100));
    fabric.send(make_msg(1, 0, static_cast<net::SeqNum>(1000 + i), 100));
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(b.pop().header.seq, static_cast<net::SeqNum>(i));
    EXPECT_EQ(a.pop().header.seq, static_cast<net::SeqNum>(1000 + i));
  }
  fabric.shutdown();
}

TEST(TcpFabric, EmptyPayload) {
  CollectSink a, b;
  net::TcpFabric fabric(2);
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.send(make_msg(0, 1, 5, 0));
  EXPECT_EQ(b.pop().payload.size(), 0u);
  fabric.shutdown();
}

}  // namespace
