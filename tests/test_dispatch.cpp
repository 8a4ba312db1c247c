// N:M dispatch tests (docs/DISPATCH.md): delivery routes each request,
// on the transport thread it arrived on, onto its object's FIFO command
// queue, drained on the worker pool.  These pin the contract — per-object
// FIFO order survives N concurrent clients, control verbs keep their place
// in an object's issue order, M distinct objects demonstrably execute in
// parallel, a racing shutdown cannot deliver into a destroyed node, a
// bounded object queue refuses overflow with PeerUnavailable (and over TCP
// never wedges the reactor doing so), and the reactor's incremental frame
// decoder parses exactly the bytes the senders write.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "core/future.hpp"
#include "core/remote_ptr.hpp"
#include "net/inproc_fabric.hpp"
#include "net/tcp_fabric.hpp"
#include "net/tcp_wire.hpp"
#include "rpc/binding.hpp"
#include "rpc/errors.hpp"
#include "rpc/node.hpp"

namespace rpc = oopp::rpc;
namespace net = oopp::net;
namespace wire = oopp::net::wire;
using oopp::Future;
using oopp::make_remote;
using oopp::remote_ptr;
using namespace std::chrono_literals;

namespace {

// ---------------------------------------------------------------------------
// Test servants
// ---------------------------------------------------------------------------

/// Appends every call's tag to a log.  Per-object FIFO dispatch is what
/// makes the unguarded vector race-free: if two invocations of one
/// Recorder ever overlapped, TSan (and the test's ordering check) would
/// catch it.
class Recorder {
 public:
  int record(int tag) {
    log_.push_back(tag);
    return tag;
  }
  std::vector<int> log() const { return log_; }

 private:
  std::vector<int> log_;
};

/// A rendezvous: arrive() blocks until `expected` concurrent invocations
/// (across distinct objects) are all inside it, proving the invocations
/// overlap in time.  Serial execution would park the first arrival until
/// the timeout and return 0.
class Gate {
 public:
  explicit Gate(int expected) : expected_(expected) {}

  int arrive() {
    std::unique_lock<std::mutex> lk(mu());
    ++arrived();
    cv().notify_all();
    const bool all = cv().wait_for(lk, std::chrono::seconds(20), [&] {
      return arrived() >= expected_;
    });
    return all ? 1 : 0;
  }

  static void reset() {
    std::lock_guard<std::mutex> lk(mu());
    arrived() = 0;
  }

 private:
  // Shared across all Gate instances in this process (the M objects of
  // one test); plain std:: primitives are fine in test code.
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static std::condition_variable& cv() {
    static std::condition_variable c;
    return c;
  }
  static int& arrived() {
    static int a = 0;
    return a;
  }
  int expected_;
};

/// Holds each invocation for `ms`, so a storm of calls stacks up in the
/// object's command queue.
class Sleeper {
 public:
  int nap(int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return ms;
  }
};

/// hold() parks its object until release(), so the object's command queue
/// can only fill while it runs.
class Latch {
 public:
  int hold() {
    std::unique_lock<std::mutex> lk(mu());
    held() = true;
    cv().notify_all();
    cv().wait(lk, [] { return released(); });
    return 1;
  }
  int ping() { return 2; }

  static void wait_held() {
    std::unique_lock<std::mutex> lk(mu());
    cv().wait(lk, [] { return held(); });
  }
  static void release() {
    std::lock_guard<std::mutex> lk(mu());
    released() = true;
    cv().notify_all();
  }

 private:
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static std::condition_variable& cv() {
    static std::condition_variable c;
    return c;
  }
  static bool& held() {
    static bool h = false;
    return h;
  }
  static bool& released() {
    static bool r = false;
    return r;
  }
};

/// A persistent counter: migrate() checkpoints it, so the migrated total
/// shows whether every add() issued before the migrate ran first.
class Tally {
 public:
  Tally() = default;
  explicit Tally(oopp::serial::IArchive& ia) { ia(total_); }
  void oopp_save(oopp::serial::OArchive& oa) const { oa(total_); }

  int add(int x) { return total_ += x; }
  int total() const { return total_; }

 private:
  int total_ = 0;
};

}  // namespace

template <>
struct oopp::rpc::class_def<Recorder> {
  static std::string name() { return "test.dispatch.Recorder"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Recorder::record>("record");
    b.template method<&Recorder::log>("log");
  }
};

template <>
struct oopp::rpc::class_def<Gate> {
  static std::string name() { return "test.dispatch.Gate"; }
  using ctors = ctor_list<ctor<int>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Gate::arrive>("arrive");
  }
};

template <>
struct oopp::rpc::class_def<Sleeper> {
  static std::string name() { return "test.dispatch.Sleeper"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Sleeper::nap>("nap");
  }
};

template <>
struct oopp::rpc::class_def<Latch> {
  static std::string name() { return "test.dispatch.Latch"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Latch::hold>("hold");
    b.template method<&Latch::ping>("ping");
  }
};

template <>
struct oopp::rpc::class_def<Tally> {
  static std::string name() { return "test.dispatch.Tally"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Tally::add>("add");
    b.template method<&Tally::total>("total");
    b.persistent();
  }
};

namespace {

// ---------------------------------------------------------------------------
// Per-client FIFO through the full reactor + object-queue chain
// ---------------------------------------------------------------------------

// N client threads share one Recorder over real TCP (reactor inbound
// path).  Each thread issues its calls in order, so the chain link FIFO
// -> object FIFO must preserve each client's subsequence even though
// clients interleave arbitrarily.
TEST(Dispatch, NClientsOneObjectObserveStrictFifo) {
  constexpr int kClients = 4;
  constexpr int kCalls = 48;
  constexpr int kStride = 1000;  // tag = client * kStride + seq

  net::TcpFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node n1(1, fabric);
  n0.start();
  n1.start();

  remote_ptr<Recorder> rec;
  {
    rpc::Node::ContextGuard guard(&n0);
    rec = make_remote<Recorder>(1);
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      rpc::Node::ContextGuard guard(&n0);
      std::vector<Future<int>> futs;
      futs.reserve(kCalls);
      for (int s = 0; s < kCalls; ++s)
        futs.push_back(rec.async<&Recorder::record>(c * kStride + s));
      for (auto& f : futs)
        (void)f.get_for(std::chrono::seconds(30));
    });
  }
  for (auto& t : clients) t.join();

  std::vector<int> log;
  {
    rpc::Node::ContextGuard guard(&n0);
    log = rec.call<&Recorder::log>();
    rec.destroy();
  }

  ASSERT_EQ(log.size(), static_cast<std::size_t>(kClients * kCalls));
  std::vector<int> next_seq(kClients, 0);
  for (int tag : log) {
    const int c = tag / kStride;
    const int s = tag % kStride;
    ASSERT_GE(c, 0);
    ASSERT_LT(c, kClients);
    // Each client's subsequence arrives in exactly the order it was sent.
    EXPECT_EQ(s, next_seq[c]) << "client " << c << " reordered";
    next_seq[c] = s + 1;
  }

  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// Control verbs keep their place in an object's issue order
// ---------------------------------------------------------------------------

// Paper §2: delete terminates the process only after the commands issued
// before it, and migrate checkpoints only once the queued work is done.
// Every round must hold on both fabrics, whatever the interleaving.
void control_verbs_keep_issue_order(oopp::Cluster::FabricKind fabric) {
  constexpr int kRounds = 50;
  constexpr int kCalls = 32;
  constexpr auto kWait = std::chrono::seconds(30);
  oopp::Cluster cluster(
      oopp::Cluster::Options{.machines = 3, .fabric = fabric});

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    auto victim = cluster.make_remote<Tally>(1);
    std::vector<Future<int>> before;
    before.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i)
      before.push_back(victim.async<&Tally::add>(1));
    auto destroyed = victim.async_destroy();
    auto after = victim.async<&Tally::add>(1);
    for (auto& f : before) EXPECT_NO_THROW((void)f.get_for(kWait));
    EXPECT_NO_THROW(destroyed.get_for(kWait));
    EXPECT_THROW((void)after.get_for(kWait), rpc::ObjectNotFound);

    auto mover = cluster.make_remote<Tally>(1);
    std::vector<Future<int>> adds;
    adds.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i)
      adds.push_back(mover.async<&Tally::add>(1));
    auto moved = cluster.migrate(mover, 2);
    for (auto& f : adds) EXPECT_NO_THROW((void)f.get_for(kWait));
    EXPECT_EQ(moved.call<&Tally::total>(), kCalls);
    moved.destroy();
  }
}

TEST(Dispatch, ControlVerbsKeepIssueOrder) {
  control_verbs_keep_issue_order(oopp::Cluster::FabricKind::kInProc);
  control_verbs_keep_issue_order(oopp::Cluster::FabricKind::kTcp);
}

// ---------------------------------------------------------------------------
// M distinct objects on one node execute in parallel
// ---------------------------------------------------------------------------

TEST(Dispatch, MObjectsOnOneNodeExecuteInParallel) {
  constexpr int kObjects = 8;
  Gate::reset();

  net::InProcFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node n1(1, fabric);
  n0.start();
  n1.start();
  rpc::Node::ContextGuard guard(&n0);

  std::vector<remote_ptr<Gate>> gates;
  gates.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i)
    gates.push_back(make_remote<Gate>(1, kObjects));

  // One blocking arrive() per object; they only ever return 1 if all
  // kObjects invocations are inside the rendezvous simultaneously.
  std::vector<Future<int>> futs;
  futs.reserve(kObjects);
  for (auto& g : gates) futs.push_back(g.async<&Gate::arrive>());
  for (auto& f : futs)
    EXPECT_EQ(f.get_for(std::chrono::seconds(30)), 1);

  for (auto& g : gates) g.destroy();

  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
}

// ---------------------------------------------------------------------------
// Racing shutdown: frames arriving during/after detach() must be dropped,
// never delivered into a destroyed node
// ---------------------------------------------------------------------------

TEST(Dispatch, RacingShutdownReactor) {
  net::TcpFabric fabric(2);
  auto n0 = std::make_unique<rpc::Node>(0, fabric);
  auto n1 = std::make_unique<rpc::Node>(1, fabric);
  n0->start();
  n1->start();

  remote_ptr<Recorder> rec;
  {
    rpc::Node::ContextGuard guard(n0.get());
    rec = make_remote<Recorder>(1);
  }

  // Storm the victim with calls while it shuts down and is destroyed.
  // Once node 1 is gone every outcome is legal — timeout, unavailable,
  // aborted — except a crash or a write into freed memory.
  std::atomic<bool> stop{false};
  std::thread storm([&] {
    rpc::Node::ContextGuard guard(n0.get());
    int tag = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        auto f = rec.async<&Recorder::record>(tag++);
        (void)f.get_for(std::chrono::milliseconds(20));
      } catch (...) {
        // expected once the peer is down
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  n1->stop_receiving();  // detaches from the fabric first
  n1->fail_pending();
  n1->stop_pool();
  n1.reset();  // node destroyed while the storm keeps sending
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  stop.store(true);
  storm.join();

  n0->stop_receiving();
  n0->fail_pending();
  n0->stop_pool();
  n0.reset();
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// Bounded object queues refuse overflow with PeerUnavailable
// ---------------------------------------------------------------------------

TEST(Dispatch, QueueBoundRejectsOverflowWithPeerUnavailable) {
  net::InProcFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node::Options opts;
  opts.dispatch.queue_bound = 2;
  rpc::Node n1(1, fabric, opts);
  n0.start();
  n1.start();
  rpc::Node::ContextGuard guard(&n0);

  auto sleeper = make_remote<Sleeper>(1);

  constexpr int kCalls = 24;
  std::vector<Future<int>> futs;
  futs.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i)
    futs.push_back(sleeper.async<&Sleeper::nap>(30));

  int ok = 0, unavailable = 0;
  for (auto& f : futs) {
    try {
      (void)f.get_for(std::chrono::seconds(30));
      ++ok;
    } catch (const rpc::PeerUnavailable&) {
      ++unavailable;
    }
  }
  // The queue admits some calls (the in-flight one plus queue_bound) and
  // must refuse the rest instead of growing without limit.
  EXPECT_GE(ok, 1);
  EXPECT_GE(unavailable, 1);
  EXPECT_EQ(ok + unavailable, kCalls);

  const auto stats = n1.stats();
  EXPECT_GE(stats.queue_depth_hwm, 1u);   // the storm stacked the queue
  EXPECT_GE(stats.pool_threads, opts.dispatch.workers);

  sleeper.destroy();
  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
}

/// Bytes one fresh loopback TCP connection absorbs, written in
/// `chunk`-sized pieces, while nothing reads its far end.
std::size_t loopback_capacity(std::size_t chunk) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(0, ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), len));
  EXPECT_EQ(0, ::listen(lfd, 1));
  EXPECT_EQ(0, ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len));
  const int wfd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_EQ(0, ::connect(wfd, reinterpret_cast<sockaddr*>(&addr), len));
  const int rfd = ::accept(lfd, nullptr, nullptr);
  int one = 1;
  ::setsockopt(wfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(wfd, F_SETFL, O_NONBLOCK);
  const std::vector<char> buf(chunk);
  std::size_t total = 0;
  // Stop once the buffers have stayed full for 20 ms: the kernel may grow
  // the send buffer while the acknowledgements come in.
  for (int idle_ms = 0; idle_ms < 20;) {
    const ssize_t n = ::write(wfd, buf.data(), buf.size());
    if (n > 0) {
      total += static_cast<std::size_t>(n);
      idle_ms = 0;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++idle_ms;
    }
  }
  for (const int fd : {wfd, rfd, lfd}) ::close(fd);
  return total;
}

// On TCP the reactor routes every request, and it is the only reader of
// every inbound socket in the process.  Flood an object whose queue_bound
// of 1 is full with calls it refuses, sending back twice the refusal bytes
// a loopback connection absorbs.  Eight clients with batched sends outrun
// the reactor, so one read burst carries more refusals than the reply
// socket holds: a refusal written on the reactor thread would block on a
// socket only the reactor could drain.  Sent from the pool, every refusal
// arrives and every future settles.
TEST(Dispatch, TcpQueueFullRefusalsSettleBeyondSocketBuffers) {
  // A refusal frame: the fixed header plus the serialized reason string.
  constexpr std::size_t kRefusalBytes =
      wire::kFrameHeaderSize + sizeof(std::uint64_t) +
      sizeof("object command queue full") - 1;
  constexpr int kClients = 8;
  const auto calls_per_client = static_cast<int>(
      2 * loopback_capacity(kRefusalBytes) / kRefusalBytes / kClients + 1);

  rpc::Node::Options node;
  node.dispatch.queue_bound = 1;
  oopp::Cluster cluster(oopp::Cluster::Options{
      .machines = 2,
      .fabric = oopp::Cluster::FabricKind::kTcp,
      .node = node,
      .transport = {.batch = {.enabled = true}}});
  auto latch = cluster.make_remote<Latch>(1);
  auto held = latch.async<&Latch::hold>();
  Latch::wait_held();
  auto queued = latch.async<&Latch::ping>();  // fills the one queue slot

  const auto deadline = std::chrono::steady_clock::now() + 60s;
  std::atomic<int> refused{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto guard = cluster.use(0);
      std::vector<Future<int>> futs;
      futs.reserve(static_cast<std::size_t>(calls_per_client));
      for (int i = 0; i < calls_per_client; ++i)
        futs.push_back(latch.async<&Latch::ping>());
      for (auto& f : futs) {
        try {
          (void)f.get_for(deadline - std::chrono::steady_clock::now());
          other.fetch_add(1);
        } catch (const rpc::PeerUnavailable&) {
          refused.fetch_add(1);
        } catch (...) {
          other.fetch_add(1);  // a timeout: the reactor wedged
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(refused.load(), kClients * calls_per_client);
  EXPECT_EQ(other.load(), 0);

  Latch::release();
  EXPECT_EQ(held.get_for(30s), 1);
  EXPECT_EQ(queued.get_for(30s), 2);
  latch.destroy();
}

// ---------------------------------------------------------------------------
// StreamFrameDecoder parses exactly what the blocking writer emits
// ---------------------------------------------------------------------------

net::Buffer bytes_of(std::initializer_list<std::uint8_t> v) {
  std::vector<std::byte> b;
  b.reserve(v.size());
  for (auto x : v) b.push_back(std::byte{x});
  return net::Buffer(std::move(b));
}

void expect_same_message(const net::Message& got, const net::Message& want) {
  EXPECT_EQ(got.header.kind, want.header.kind);
  EXPECT_EQ(got.header.status, want.header.status);
  EXPECT_EQ(got.header.src, want.header.src);
  EXPECT_EQ(got.header.dst, want.header.dst);
  EXPECT_EQ(got.header.seq, want.header.seq);
  EXPECT_EQ(got.header.object, want.header.object);
  EXPECT_EQ(got.header.method, want.header.method);
  EXPECT_EQ(got.header.trace_id, want.header.trace_id);
  EXPECT_EQ(got.header.span_id, want.header.span_id);
  EXPECT_EQ(got.header.attempt, want.header.attempt);
  EXPECT_EQ(got.header.held.count, want.header.held.count);
  for (std::uint8_t i = 0; i < want.header.held.count; ++i)
    EXPECT_EQ(got.header.held.ids[i], want.header.held.ids[i]);
  const auto gb = got.payload.bytes();
  const auto wb = want.payload.bytes();
  ASSERT_EQ(gb.size(), wb.size());
  for (std::size_t i = 0; i < wb.size(); ++i) EXPECT_EQ(gb[i], wb[i]);
}

// Feed the exact bytes send_frame/send_batch put on the wire into the
// reactor's incremental decoder one byte at a time — the worst possible
// read() fragmentation — and require exactly the message sequence that
// was sent: plain frames, an empty payload, a held-locks header extension,
// and a 0xB5 batch.
TEST(Dispatch, StreamFrameDecoderByteAtATimeMatchesWire) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));

  std::vector<net::Message> sent;
  sent.push_back(net::make_request(0, 1, 7, 42, 3,
                                   bytes_of({1, 2, 3, 4, 5}), true));
  sent.push_back(net::make_request(1, 0, 8, 43, 4, net::Buffer{}, false));
  net::LockSet held;
  held.count = 2;
  held.ids[0] = 0x11111111;
  held.ids[1] = 0x22222222;
  sent.push_back(net::make_request(0, 1, 9, 44, 5, bytes_of({9, 8, 7}),
                                   false, /*trace_id=*/0xABCD,
                                   /*span_id=*/0xEF01, /*attempt=*/2, held));
  std::vector<net::Message> batch;
  for (int i = 0; i < 3; ++i)
    batch.push_back(net::make_request(
        0, 1, static_cast<net::SeqNum>(100 + i), 50,
        static_cast<net::MethodId>(i),
        bytes_of({static_cast<std::uint8_t>(i), 0xFF}), false));

  for (const auto& m : sent) ASSERT_TRUE(wire::send_frame(sv[0], m));
  ASSERT_TRUE(wire::send_batch(sv[0], batch.data(), batch.size()));
  ::shutdown(sv[0], SHUT_WR);

  std::vector<std::uint8_t> stream;
  std::uint8_t chunk[512];
  for (;;) {
    const ssize_t n = ::read(sv[1], chunk, sizeof(chunk));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    stream.insert(stream.end(), chunk, chunk + n);
  }
  ::close(sv[0]);
  ::close(sv[1]);

  wire::StreamFrameDecoder decoder;
  std::vector<net::Message> got;
  for (std::uint8_t b : stream) ASSERT_TRUE(decoder.feed(&b, 1, got));

  std::vector<net::Message> want = sent;
  for (auto& m : batch) want.push_back(std::move(m));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_message(got[i], want[i]);
  }
}

}  // namespace
