// Distributed lock-order analysis end to end: the held-locks wire
// piggyback (byte-identical framing when disabled, roundtrip when on),
// the RemoteHeldScope dispatch context and cross-node edge store, the
// per-process JSON dump, and the offline cycle detector
// (tools/oopp_graph.py) — including the two-node deadlock cycle that no
// single node's online lockdep can see.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/oopp.hpp"
#include "net/message.hpp"
#include "net/tcp_wire.hpp"
#include "util/checked_mutex.hpp"
#include "wire_socket.hpp"

using oopp::Cluster;
using oopp::util::CheckedMutex;
namespace net = oopp::net;
namespace wire = oopp::net::wire;
namespace lockcheck = oopp::util::lockcheck;

namespace {

// -- test servant -----------------------------------------------------------

// Shared across driver and servant code: the process hosts every machine,
// so the same two lock instances are visible from both call paths.
CheckedMutex& dist_l1() {
  static CheckedMutex m("test.dist.L1");
  return m;
}
CheckedMutex& dist_l2() {
  static CheckedMutex m("test.dist.L2");
  return m;
}

class DistServant {
 public:
  DistServant() = default;
  int take_l1() {
    std::lock_guard l(dist_l1());
    return 1;
  }
  int take_l2() {
    std::lock_guard l(dist_l2());
    return 2;
  }
};

}  // namespace

template <>
struct oopp::rpc::class_def<DistServant> {
  static std::string name() { return "test.DistServant"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&DistServant::take_l1>("take_l1");
    b.template method<&DistServant::take_l2>("take_l2");
  }
};

namespace {

/// Scoped OOPP_DIST_LOCK_CHECK override; restores "off" on exit.
class DistCheckOn {
 public:
  DistCheckOn() { lockcheck::set_distributed_enabled(true); }
  ~DistCheckOn() { lockcheck::set_distributed_enabled(false); }
};

// Captures lockdep reports instead of aborting (same harness as
// test_checked_mutex.cpp).
class CaptureFailures {
 public:
  CaptureFailures() {
    reports().clear();
    prev_ = lockcheck::set_failure_handler(&record);
  }
  ~CaptureFailures() { lockcheck::set_failure_handler(prev_); }

  static std::vector<std::string>& reports() {
    static std::vector<std::string> r;
    return r;
  }

 private:
  static void record(const std::string& report) {
    reports().push_back(report);
  }
  lockcheck::FailureHandler prev_ = nullptr;
};

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// -- wire format ------------------------------------------------------------

net::Message req_with_held(std::initializer_list<std::uint32_t> ids) {
  net::LockSet held;
  for (auto id : ids) held.ids[held.count++] = id;
  return net::make_request(0, 1, /*seq=*/42, /*object=*/7, /*method=*/9,
                           net::Buffer(std::vector<std::byte>(16)),
                           /*checksum=*/true, /*trace_id=*/0, /*span_id=*/0,
                           /*attempt=*/0, held);
}

TEST(HeldLocksWire, EmptySetKeepsLegacyLayout) {
  // The interop guarantee: with nothing piggybacked the frame header is
  // byte-for-byte today's fixed layout — same size, no flag bit, and the
  // fixed-prefix decoder consumes it completely.
  auto m = req_with_held({});
  EXPECT_EQ(wire::header_wire_size(m.header), wire::kFrameHeaderSize);
  EXPECT_EQ(m.wire_size(),
            sizeof(net::MessageHeader) - sizeof(net::LockSet) +
                m.payload.size());

  std::uint8_t buf[wire::kMaxFrameHeaderSize];
  ASSERT_EQ(wire::encode_header(m.header, m.payload.size(), buf),
            wire::kFrameHeaderSize);
  EXPECT_EQ(buf[0] & wire::kHeldLocksFlag, 0);

  net::MessageHeader h;
  std::uint64_t payload_len = 0;
  EXPECT_FALSE(wire::decode_fixed_header(buf, h, payload_len));
  EXPECT_EQ(payload_len, m.payload.size());
  EXPECT_EQ(h.kind, net::MsgKind::kRequest);
  EXPECT_EQ(h.seq, m.header.seq);
  EXPECT_TRUE(h.held.empty());
}

TEST(HeldLocksWire, HeldSetRoundTripsThroughCodec) {
  auto m = req_with_held({0xdeadbeefu, 17u, 0xffffffffu});
  EXPECT_EQ(wire::header_wire_size(m.header),
            wire::kFrameHeaderSize + 1 + 4 * 3);
  EXPECT_EQ(m.wire_size(),
            sizeof(net::MessageHeader) - sizeof(net::LockSet) +
                m.payload.size() + 1 + 4 * 3);

  std::uint8_t buf[wire::kMaxFrameHeaderSize];
  const std::size_t hlen =
      wire::encode_header(m.header, m.payload.size(), buf);
  ASSERT_EQ(hlen, wire::kFrameHeaderSize + 13);
  EXPECT_NE(buf[0] & wire::kHeldLocksFlag, 0);

  net::MessageHeader h;
  std::uint64_t payload_len = 0;
  ASSERT_EQ(wire::decode_header(buf, hlen, h, payload_len), hlen);
  EXPECT_EQ(h.kind, net::MsgKind::kRequest);  // flag masked back out
  ASSERT_EQ(h.held.count, 3);
  EXPECT_EQ(h.held.ids[0], 0xdeadbeefu);
  EXPECT_EQ(h.held.ids[1], 17u);
  EXPECT_EQ(h.held.ids[2], 0xffffffffu);
}

TEST(HeldLocksWire, MalformedExtensionIsRejected) {
  auto m = req_with_held({1, 2});
  std::uint8_t buf[wire::kMaxFrameHeaderSize];
  const std::size_t hlen =
      wire::encode_header(m.header, m.payload.size(), buf);

  // Truncated extension: the decoder must not read past `avail`.
  net::MessageHeader h;
  std::uint64_t payload_len = 0;
  EXPECT_EQ(wire::decode_header(buf, hlen - 1, h, payload_len), 0u);

  // Flag set but a count the header can never carry.
  buf[wire::kFrameHeaderSize] = 9;  // > kMaxHeldClasses
  EXPECT_EQ(wire::decode_header(buf, sizeof(buf), h, payload_len), 0u);
  buf[wire::kFrameHeaderSize] = 0;  // flagged frames must carry >= 1
  EXPECT_EQ(wire::decode_header(buf, sizeof(buf), h, payload_len), 0u);
}

TEST(HeldLocksWire, RoundTripsThroughSocketAndFrameReader) {
  net::test::SocketPair sp;
  ASSERT_TRUE(wire::send_framev(sp.a, req_with_held({5, 6})));
  const auto one = net::test::read_frames(sp.b, 1);
  ASSERT_EQ(one.size(), 1u);
  const net::Message& got = one[0];
  ASSERT_EQ(got.header.held.count, 2);
  EXPECT_EQ(got.header.held.ids[0], 5u);
  EXPECT_EQ(got.header.held.ids[1], 6u);

  // A batch mixing flagged and plain frames slices back correctly.
  std::vector<net::Message> frames{req_with_held({0xabcdu}),
                                   req_with_held({}),
                                   req_with_held({1, 2, 3, 4})};
  ASSERT_TRUE(wire::send_batch(sp.a, frames.data(), frames.size()));
  const auto out = net::test::read_frames(sp.b, frames.size());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].header.held.count, 1);
  EXPECT_EQ(out[0].header.held.ids[0], 0xabcdu);
  EXPECT_TRUE(out[1].header.held.empty());
  EXPECT_EQ(out[2].header.held.count, 4);
}

// -- cross-edge store -------------------------------------------------------

TEST(DistLockCheck, HeldClassHashesReflectHeldStack) {
  DistCheckOn on;
  CheckedMutex a("test.piggyback.A");
  CheckedMutex b("test.piggyback.B");
  std::uint32_t out[lockcheck::kMaxHeldClasses];
  EXPECT_EQ(lockcheck::held_class_hashes(out, std::size(out)), 0u);
  {
    std::lock_guard la(a);
    std::lock_guard lb(b);
    ASSERT_EQ(lockcheck::held_class_hashes(out, std::size(out)), 2u);
    EXPECT_EQ(out[0], lockcheck::class_hash("test.piggyback.A"));
    EXPECT_EQ(out[1], lockcheck::class_hash("test.piggyback.B"));
  }
  EXPECT_EQ(lockcheck::held_class_hashes(out, std::size(out)), 0u);
}

TEST(DistLockCheck, RemoteHeldScopeRecordsCrossEdge) {
  DistCheckOn on;
  CaptureFailures capture;
  const std::uint32_t remote = lockcheck::class_hash("test.cross.K");
  {
    lockcheck::RemoteHeldScope scope(&remote, 1, /*peer=*/3, /*node=*/1,
                                     "test_method");
    CheckedMutex local("test.cross.L");
    std::lock_guard l(local);
  }
  const std::string json = lockcheck::dump_graph_json(1);
  EXPECT_NE(json.find("\"to\": \"test.cross.L\""), std::string::npos);
  EXPECT_NE(json.find("\"method\": \"test_method\""), std::string::npos);
  EXPECT_NE(json.find("\"peer\": 3"), std::string::npos);
  // The cross edge is offline-only evidence: the online checker stays
  // silent (a remote holder is not a local cycle).
  EXPECT_TRUE(CaptureFailures::reports().empty());
}

TEST(DistLockCheck, DisabledRecordsNothing) {
  lockcheck::set_distributed_enabled(false);
  const std::uint32_t remote = lockcheck::class_hash("test.crossoff.K");
  {
    lockcheck::RemoteHeldScope scope(&remote, 1, 3, 1, "method_off");
    CheckedMutex local("test.crossoff.L");
    std::lock_guard l(local);
  }
  EXPECT_EQ(lockcheck::dump_graph_json(1).find("method_off"),
            std::string::npos);
}

TEST(DistLockCheck, SameClassAcrossNodesIsNotAnEdge) {
  // Two instances of one class on two machines carry no ordering
  // information — the same exclusion the local checker applies.
  DistCheckOn on;
  const std::uint32_t remote = lockcheck::class_hash("test.samecross.M");
  {
    lockcheck::RemoteHeldScope scope(&remote, 1, 2, 1, "same_class_m");
    CheckedMutex local("test.samecross.M");
    std::lock_guard l(local);
  }
  EXPECT_EQ(lockcheck::dump_graph_json(1).find("same_class_m"),
            std::string::npos);
}

// -- the acceptance scenario ------------------------------------------------

// Machine A holds L1 while calling into B; B's handler takes L2.  The
// reverse path holds L2 while calling back into A, whose handler takes
// L1.  Each process's own order graph sees only one edge — no local
// report — but the merged graph has the cycle L1 -> L2 -> L1 and
// oopp_graph.py --check must find it, with both call paths.
TEST(DistLockCheck, TwoNodeCycleFoundOnlyByMergedGraph) {
  lockcheck::reset_for_testing();
  DistCheckOn on;
  CaptureFailures capture;

  Cluster::Options opts;
  opts.machines = 2;
  opts.fabric = Cluster::FabricKind::kTcp;
  Cluster cluster(opts);
  auto on_b = cluster.make_remote<DistServant>(1);
  auto on_a = cluster.make_remote<DistServant>(0);

  {
    // Path 1 (driver = machine 0): hold L1, call B, B takes L2.  The
    // held set is captured when the request is issued; releasing before
    // collecting keeps the online blocking-call check quiet.
    std::unique_lock l1(dist_l1());
    auto f = on_b.async<&DistServant::take_l2>();
    l1.unlock();
    EXPECT_EQ(f.get(), 2);
  }
  {
    // Path 2 (machine 1): hold L2, call back into A, A takes L1.
    auto ctx = cluster.use(1);
    std::unique_lock l2(dist_l2());
    auto f = on_a.async<&DistServant::take_l1>();
    l2.unlock();
    EXPECT_EQ(f.get(), 1);
  }

  // No single node's lockdep saw a cycle.
  EXPECT_TRUE(CaptureFailures::reports().empty());
  // The Cluster telemetry hook counted the recorded cross edges.
  EXPECT_NE(cluster.metrics_report().find("cross_edges_recorded"),
            std::string::npos);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-lockgraph-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ASSERT_EQ(cluster.dump_lockgraph(dir), 1u);

  const auto out = dir / "check_output.txt";
  const std::string base = "python3 " OOPP_GRAPH_TOOL " --check ";
  // Local edges alone: clean (exactly what each node's checker saw).
  EXPECT_EQ(std::system((base + "--local-only " + dir.string() + " > " +
                         (dir / "local.txt").string() + " 2>&1")
                            .c_str()),
            0);
  // The merged graph must fail the gate and name both classes, the rpc
  // methods, and the cross-node provenance of each edge.
  const int rc = std::system(
      (base + dir.string() + " > " + out.string() + " 2>&1").c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1) << slurp(out);
  const std::string report = slurp(out);
  EXPECT_NE(report.find("cycle"), std::string::npos) << report;
  EXPECT_NE(report.find("test.dist.L1"), std::string::npos) << report;
  EXPECT_NE(report.find("test.dist.L2"), std::string::npos) << report;
  EXPECT_NE(report.find("take_l1"), std::string::npos) << report;
  EXPECT_NE(report.find("take_l2"), std::string::npos) << report;
  EXPECT_NE(report.find("cross-node"), std::string::npos) << report;

  on_b.destroy();
  on_a.destroy();
  std::filesystem::remove_all(dir);
}

}  // namespace
