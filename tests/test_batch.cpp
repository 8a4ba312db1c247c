// Zero-copy buffers and per-peer send coalescing: net::Buffer semantics,
// the batch wire codec, both flush triggers on a live TcpFabric, and the
// composition with checksums (FaultyFabric) and retry/dedup — batching
// must never weaken the PR 3 fault-tolerance invariants.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "collect_sink.hpp"
#include "core/oopp.hpp"
#include "net/batcher.hpp"
#include "net/buffer.hpp"
#include "net/faulty_fabric.hpp"
#include "net/tcp_fabric.hpp"
#include "net/tcp_wire.hpp"
#include "rpc/call_policy.hpp"
#include "wire_socket.hpp"

namespace net = oopp::net;
namespace wire = oopp::net::wire;
using net::test::read_frames;
using net::test::read_n;
using net::test::SocketPair;
using namespace std::chrono_literals;

namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i + salt) & 0xff);
  return v;
}

net::Message req(net::SeqNum seq, std::size_t payload,
                 std::uint8_t salt = 0) {
  return net::make_request(0, 1, seq, /*object=*/7, /*method=*/9,
                           pattern(payload, salt), /*checksum=*/true);
}

// -- net::Buffer ------------------------------------------------------------

TEST(Buffer, AdoptsVectorWithoutReshaping) {
  auto v = pattern(100);
  const auto ref = v;
  net::Buffer b(std::move(v));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.slice_count(), 1u);
  EXPECT_EQ(b.to_vector(), ref);
  // Single-slice bytes() points straight at the adopted storage.
  EXPECT_EQ(b.bytes().data(), b.slice(0).data());
}

TEST(Buffer, ViewSlicesSharedStoreZeroCopy) {
  auto store =
      std::make_shared<const std::vector<std::byte>>(pattern(64));
  auto b = net::Buffer::view(store, 16, 32);
  EXPECT_EQ(b.size(), 32u);
  EXPECT_EQ(b.bytes().data(), store->data() + 16);  // no copy happened
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_EQ(b[i], (*store)[16 + i]);
}

TEST(Buffer, AppendConcatenatesAndFlattensLazily) {
  net::Buffer b(pattern(10, 1));
  b.append(net::Buffer(pattern(10, 2)));
  EXPECT_EQ(b.slice_count(), 2u);
  EXPECT_EQ(b.size(), 20u);
  auto expect = pattern(10, 1);
  auto tail = pattern(10, 2);
  expect.insert(expect.end(), tail.begin(), tail.end());
  EXPECT_EQ(b.to_vector(), expect);
  // Checksum over slices equals checksum over the flattened bytes.
  EXPECT_EQ(b.checksum(), net::Buffer(std::move(expect)).checksum());
}

TEST(Buffer, MutateByteIsCopyOnWrite) {
  net::Buffer a(pattern(32));
  net::Buffer b = a;  // shares the slice
  b.mutate_byte(5, std::byte{0x40});
  EXPECT_EQ(a[5], pattern(32)[5]) << "mutation leaked into a sharer";
  EXPECT_EQ(b[5], pattern(32)[5] ^ std::byte{0x40});
  EXPECT_NE(a.checksum(), b.checksum());
}

// -- wire codec -------------------------------------------------------------

TEST(WireCodec, SendFramevMatchesSendFrameByteForByte) {
  auto m = req(42, 300);
  const std::size_t wire_bytes = wire::kFrameHeaderSize + m.payload.size();

  SocketPair classic, gathered;
  ASSERT_TRUE(wire::send_frame(classic.a, m));
  ASSERT_TRUE(wire::send_framev(gathered.a, m));
  EXPECT_EQ(read_n(classic.b, wire_bytes), read_n(gathered.b, wire_bytes));
}

TEST(WireCodec, SendFramevHandlesMultiSlicePayloads) {
  auto m = req(1, 0);
  // Three slices, and more slices than the stack iovec array holds (a
  // batch of pages carries two per page).
  for (int slices : {3, 150}) {
    net::Buffer p;
    for (int i = 0; i < slices; ++i)
      p.append(net::Buffer(pattern(50, static_cast<std::uint8_t>(i))));
    ASSERT_EQ(p.slice_count(), static_cast<std::size_t>(slices));
    m.payload = p;

    SocketPair sp;
    ASSERT_TRUE(wire::send_framev(sp.a, m));
    const auto got = read_frames(sp.b, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].payload.to_vector(), p.to_vector());
  }
}

TEST(WireCodec, BatchRoundTripsThroughFrameReader) {
  std::vector<net::Message> frames;
  for (int i = 0; i < 5; ++i)
    frames.push_back(req(static_cast<net::SeqNum>(i), 40 + 10 * i,
                         static_cast<std::uint8_t>(i)));

  SocketPair sp;
  ASSERT_TRUE(wire::send_batch(sp.a, frames.data(), frames.size()));
  const auto got = read_frames(sp.b, frames.size());
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].header.seq, frames[i].header.seq);
    EXPECT_EQ(got[i].header.payload_crc, frames[i].header.payload_crc);
    EXPECT_EQ(got[i].payload.to_vector(), frames[i].payload.to_vector());
  }
}

TEST(WireCodec, FrameReaderAcceptsMixedPlainAndBatchUnits) {
  SocketPair sp;
  auto lone = req(100, 64);
  ASSERT_TRUE(wire::send_framev(sp.a, lone));
  std::vector<net::Message> batch{req(101, 16), req(102, 16)};
  ASSERT_TRUE(wire::send_batch(sp.a, batch.data(), batch.size()));
  ASSERT_TRUE(wire::send_framev(sp.a, req(103, 8)));

  const auto got = read_frames(sp.b, 4);
  ASSERT_EQ(got.size(), 4u);
  for (net::SeqNum want = 100; want <= 103; ++want)
    EXPECT_EQ(got[want - 100].header.seq, want);
}

TEST(WireCodec, MalformedBatchHeaderIsRejected) {
  std::uint8_t hdr[wire::kBatchHeaderSize];
  wire::encode_batch_header(3, 3 * wire::kFrameHeaderSize, hdr);
  std::uint32_t count = 0;
  std::uint64_t len = 0;
  EXPECT_TRUE(wire::decode_batch_header(hdr, count, len));
  EXPECT_EQ(count, 3u);

  auto bad = [&](auto mutate) {
    std::uint8_t h[wire::kBatchHeaderSize];
    std::memcpy(h, hdr, sizeof(h));
    mutate(h);
    std::uint32_t c = 0;
    std::uint64_t l = 0;
    return wire::decode_batch_header(h, c, l);
  };
  EXPECT_FALSE(bad([](std::uint8_t* h) { h[0] = 0x00; }));  // wrong magic
  EXPECT_FALSE(bad([](std::uint8_t* h) { h[1] = 9; }));     // wrong version
  EXPECT_FALSE(bad([](std::uint8_t* h) {                    // zero count
    std::uint32_t z = 0;
    std::memcpy(h + 4, &z, 4);
  }));
  EXPECT_FALSE(bad([](std::uint8_t* h) {  // payload shorter than headers
    std::uint64_t z = wire::kFrameHeaderSize;
    std::memcpy(h + 8, &z, 8);
  }));
}

// -- TcpFabric flush behaviour ----------------------------------------------

struct FabricPair {
  CollectSink a, b;  // outlive the fabric's reactor
  net::TcpFabric fabric;
  explicit FabricPair(net::BatchOptions batch)
      : fabric(2, net::FabricOptions{.batch = batch}) {
    fabric.attach(0, &a);
    fabric.attach(1, &b);
  }
  ~FabricPair() { fabric.shutdown(); }
};

TEST(TcpBatching, FlushOnFrameCountDespiteFarDeadline) {
  const auto size_flushes_before =
      net::batch_metrics().flush_size.value();
  // A deadline no test should ever hit: only the size trigger can flush.
  FabricPair fp({.enabled = true, .max_frames = 4, .max_delay = 10s});
  for (int i = 0; i < 4; ++i)
    fp.fabric.send(req(static_cast<net::SeqNum>(i), 32));
  for (net::SeqNum want = 0; want < 4; ++want)
    EXPECT_EQ(fp.b.pop().header.seq, want);
  EXPECT_GT(net::batch_metrics().flush_size.value(), size_flushes_before);
}

TEST(TcpBatching, FlushOnByteThresholdDespiteFarDeadline) {
  FabricPair fp({.enabled = true,
                 .max_bytes = 2 * 1024,
                 .max_frames = 1000,
                 .max_delay = 10s});
  // Two 1.5 KiB frames cross the 2 KiB threshold.
  fp.fabric.send(req(0, 1536));
  fp.fabric.send(req(1, 1536));
  EXPECT_EQ(fp.b.pop().header.seq, 0u);
  EXPECT_EQ(fp.b.pop().header.seq, 1u);
}

TEST(TcpBatching, FlushOnDeadlineForLoneSmallFrame) {
  const auto deadline_flushes_before =
      net::batch_metrics().flush_deadline.value();
  FabricPair fp({.enabled = true, .max_frames = 1000, .max_delay = 2ms});
  const auto t0 = oopp::steady_clock::now();
  fp.fabric.send(req(7, 16));  // far below every size threshold
  EXPECT_EQ(fp.b.pop().header.seq, 7u);
  // Arrived via the deadline flusher, not a size trip.
  EXPECT_GE(oopp::steady_clock::now() - t0, 1ms);
  EXPECT_GT(net::batch_metrics().flush_deadline.value(),
            deadline_flushes_before);
}

TEST(TcpBatching, MixedRequestsAndResponsesCoalesceInOrder) {
  FabricPair fp({.enabled = true, .max_frames = 6, .max_delay = 10s});
  for (net::SeqNum s = 0; s < 6; ++s) {
    if (s % 2 == 0) {
      fp.fabric.send(req(s, 24));
    } else {
      auto r = req(s, 24);
      auto resp = net::make_response(r.header, net::CallStatus::kOk,
                                     pattern(24), /*checksum=*/true);
      // make_response replies to the request's origin; re-aim it at 1.
      std::swap(resp.header.src, resp.header.dst);  // oopp-lint: allow(raw-message-header)
      resp.header.seq = s;                          // oopp-lint: allow(raw-message-header)
      fp.fabric.send(std::move(resp));
    }
  }
  for (net::SeqNum want = 0; want < 6; ++want) {
    auto got = fp.b.pop();
    EXPECT_EQ(got.header.seq, want);
    EXPECT_EQ(got.header.kind, want % 2 == 0 ? net::MsgKind::kRequest
                                             : net::MsgKind::kResponse);
  }
}

TEST(TcpBatching, RuntimeToggleDrainsAndKeepsDelivering) {
  FabricPair fp({.enabled = true, .max_frames = 1000, .max_delay = 10s});
  fp.fabric.send(req(1, 16));  // parked in the queue (no trigger near)
  // Turning batching off must drain the parked frame on the next send.
  fp.fabric.reconfigure(net::FabricOptions{.batch = {.enabled = false}});
  fp.fabric.send(req(2, 16));
  EXPECT_EQ(fp.b.pop().header.seq, 1u);
  EXPECT_EQ(fp.b.pop().header.seq, 2u);

  fp.fabric.reconfigure(
      net::FabricOptions{.batch = {.enabled = true, .max_frames = 2}});
  fp.fabric.send(req(3, 16));
  fp.fabric.send(req(4, 16));
  EXPECT_EQ(fp.b.pop().header.seq, 3u);
  EXPECT_EQ(fp.b.pop().header.seq, 4u);
}

TEST(TcpBatching, ShutdownDrainsParkedFramesWithoutHanging) {
  // Delivery after shutdown is inherently racy against reader teardown;
  // what is guaranteed is that shutdown *attempts* the drain (the bytes
  // hit the socket) and never hangs on a parked queue.
  const auto drains_before = net::batch_metrics().flush_drain.value();
  {
    CollectSink a, b;
    net::TcpFabric fabric(2, net::FabricOptions{.batch = {.enabled = true,
                                                          .max_frames = 1000,
                                                          .max_delay = 10s}});
    fabric.attach(0, &a);
    fabric.attach(1, &b);
    fabric.send(req(9, 16));
    fabric.shutdown();
  }
  EXPECT_GT(net::batch_metrics().flush_drain.value(), drains_before);
}

}  // namespace

// -- end-to-end: batching composed with checksums and retry/dedup -----------

namespace {

class Counter {
 public:
  int bump() { return ++n_; }
  int count() const { return n_; }
  std::vector<double> echo(const std::vector<double>& v) { return v; }

 private:
  int n_ = 0;
};

}  // namespace

template <>
struct oopp::rpc::class_def<Counter> {
  static std::string name() { return "batch.Counter"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Counter::bump>("bump");
    b.template method<&Counter::count>("count");
    b.template method<&Counter::echo>("echo");
  }
};

namespace {

/// A 2-machine cluster on a real batching TcpFabric, optionally wrapped
/// in a FaultyFabric.  max_delay is kept tiny so sequential round trips
/// stay fast.
struct BatchedCluster {
  net::FaultyFabric* fabric = nullptr;
  std::unique_ptr<oopp::Cluster> cluster;

  explicit BatchedCluster(net::FaultyFabric::Faults faults = {}) {
    oopp::Cluster::Options opts;
    opts.machines = 2;
    opts.node.checksums = true;
    opts.fabric_factory = [&](std::size_t machines) {
      auto tcp = std::make_unique<net::TcpFabric>(
          machines,
          net::FabricOptions{.batch = {.enabled = true, .max_delay = 50us}});
      auto faulty =
          std::make_unique<net::FaultyFabric>(std::move(tcp), faults);
      fabric = faulty.get();
      return faulty;
    };
    cluster = std::make_unique<oopp::Cluster>(opts);
  }
};

TEST(BatchedCluster, RemoteCallsWorkOverBatchingFabric) {
  BatchedCluster bc;
  auto c = bc.cluster->make_remote<Counter>(1);
  for (int i = 1; i <= 20; ++i) EXPECT_EQ(c.call<&Counter::bump>(), i);
  std::vector<double> v{1.5, 2.5, 3.5};
  EXPECT_EQ(c.call<&Counter::echo>(v), v);
}

TEST(BatchedCluster, AsyncBurstCoalescesAndCompletes) {
  BatchedCluster bc;
  auto c = bc.cluster->make_remote<Counter>(1);
  const auto frames_before = net::batch_metrics().frames_batched.value();
  std::vector<oopp::Future<int>> futs;
  futs.reserve(200);
  for (int i = 0; i < 200; ++i) futs.push_back(c.async<&Counter::bump>());
  int last = 0;
  for (auto& f : futs) last = std::max(last, f.get_for(10s));
  EXPECT_EQ(last, 200);  // FIFO servant order survived batching
  EXPECT_GT(net::batch_metrics().frames_batched.value(), frames_before)
      << "a 200-call async burst never produced a single multi-frame batch";
}

TEST(BatchedCluster, PerSubFrameChecksumCatchesCorruptionInsideBatches) {
  BatchedCluster bc;
  auto c = bc.cluster->make_remote<Counter>(1);
  bc.fabric->set_faults({.corrupt_probability = 0.5, .seed = 7});

  std::vector<double> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i) * 0.5;
  int ok = 0, bad = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      ASSERT_EQ(c.call<&Counter::echo>(v), v);
      ++ok;
    } catch (const oopp::rpc::BadFrame&) {
      ++bad;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);
  EXPECT_GT(bc.fabric->corrupted(), 0u);
}

TEST(BatchedCluster, RetryAndDedupKeepExactlyOnceAtFivePercentLoss) {
  BatchedCluster bc;
  oopp::rpc::CallPolicy p = oopp::rpc::resilient_policy(100ms, 8);
  p.backoff_initial = 1ms;
  p.backoff_max = 10ms;
  auto c = bc.cluster->make_remote<Counter>(1).with_policy(p);
  bc.fabric->set_faults({.drop_probability = 0.05, .seed = 23});

  for (int i = 0; i < 1000; ++i)
    ASSERT_NO_THROW((void)c.call<&Counter::bump>()) << "call " << i;
  EXPECT_GT(bc.fabric->dropped(), 0u) << "fault injection never fired";

  bc.fabric->set_faults({});
  EXPECT_EQ(c.call<&Counter::count>(), 1000);  // exactly once each
}

}  // namespace
