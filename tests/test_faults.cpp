// Fault-injection tests: under a lossy / corrupting interconnect the
// framework's failure behaviour must be *typed* — corruption surfaces as
// rpc::BadFrame (thanks to payload checksums), loss as rpc::CallTimeout
// on a deadline.  Never a silent wrong answer, never undefined behaviour.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "collect_sink.hpp"
#include "core/oopp.hpp"
#include "net/faulty_fabric.hpp"
#include "net/inproc_fabric.hpp"
#include "util/checked_mutex.hpp"

using namespace oopp;

namespace {

/// CI hook (the faults-smoke job): OOPP_LOCKGRAPH_OUT=<path> dumps this
/// process's lock-order graph (run with OOPP_DIST_LOCK_CHECK=1 so the
/// cross-node edges are recorded); tools/oopp_graph.py merges the dumps
/// and gates on cycles.
class LockgraphDumpEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* out = std::getenv("OOPP_LOCKGRAPH_OUT");
    if (!out) return;
    const auto parent = std::filesystem::path(out).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    std::ofstream(out) << util::lockcheck::dump_graph_json(0) << "\n";
  }
};
const auto* const kLockgraphDump =
    ::testing::AddGlobalTestEnvironment(new LockgraphDumpEnv);

class Echoer {
 public:
  Echoer() = default;
  std::vector<double> echo(const std::vector<double>& v) { return v; }
  int poke() { return 42; }
};

}  // namespace

template <>
struct oopp::rpc::class_def<Echoer> {
  static std::string name() { return "faults.Echoer"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Echoer::echo>("echo");
    b.template method<&Echoer::poke>("poke");
  }
};

namespace {

struct FaultyCluster {
  net::FaultyFabric* fabric = nullptr;  // owned by the cluster
  std::unique_ptr<Cluster> cluster;

  explicit FaultyCluster(net::FaultyFabric::Faults initial = {}) {
    Cluster::Options opts;
    opts.machines = 2;
    opts.node.checksums = true;
    opts.fabric_factory = [&](std::size_t machines) {
      auto faulty = std::make_unique<net::FaultyFabric>(
          std::make_unique<net::InProcFabric>(machines), initial);
      fabric = faulty.get();
      return faulty;
    };
    cluster = std::make_unique<Cluster>(opts);
  }
};

TEST(Faults, HealthyFaultyFabricIsTransparent) {
  FaultyCluster fc;
  auto e = fc.cluster->make_remote<Echoer>(1);
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(e.call<&Echoer::echo>(v), v);
  EXPECT_EQ(fc.fabric->dropped(), 0u);
  EXPECT_EQ(fc.fabric->corrupted(), 0u);
}

TEST(Faults, CorruptionIsDetectedNeverSilent) {
  FaultyCluster fc;
  auto e = fc.cluster->make_remote<Echoer>(1);
  // Turn the network hostile: corrupt half of all payloads.
  fc.fabric->set_faults({.corrupt_probability = 0.5, .seed = 7});

  std::vector<double> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i) * 0.25;

  int ok = 0, bad = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      // Either the exact right answer comes back, or a typed error — a
      // corrupted frame may never alter data undetected.
      ASSERT_EQ(e.call<&Echoer::echo>(v), v);
      ++ok;
    } catch (const rpc::BadFrame&) {
      ++bad;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);
  EXPECT_GT(fc.fabric->corrupted(), 0u);
}

TEST(Faults, CorruptedResponseSurfacesAtCaller) {
  FaultyCluster fc;
  auto e = fc.cluster->make_remote<Echoer>(1);
  // Corrupt only responses: the request executes, the reply is mangled.
  fc.fabric->set_faults({.corrupt_probability = 1.0,
                         .affect_requests = false,
                         .seed = 11});
  std::vector<double> v{5.0, 6.0};
  EXPECT_THROW((void)e.call<&Echoer::echo>(v), rpc::BadFrame);
}

TEST(Faults, LossSurfacesAsTimeoutNotHang) {
  FaultyCluster fc;
  auto e = fc.cluster->make_remote<Echoer>(1);
  fc.fabric->set_faults({.drop_probability = 1.0, .seed = 13});

  auto fut = e.async<&Echoer::poke>();
  EXPECT_THROW((void)fut.get_for(std::chrono::milliseconds(50)),
               rpc::CallTimeout);
  EXPECT_GT(fc.fabric->dropped(), 0u);

  // Heal the network: the object is intact and reachable again.
  fc.fabric->set_faults({});
  EXPECT_EQ(e.call<&Echoer::poke>(), 42);
}

TEST(Faults, ChecksumsCoverControlPlane) {
  FaultyCluster fc;
  fc.fabric->set_faults({.corrupt_probability = 1.0, .seed = 17});
  // Spawn arguments travel in a control request; corruption must be
  // rejected, not misinterpreted.
  EXPECT_THROW(fc.cluster->make_remote<Echoer>(1), rpc::BadFrame);
}

TEST(Faults, SetFaultsConcurrentWithSendIsRaceFree) {
  // Regression (run under TSan): send() used to read the eligibility
  // flags before taking the fabric mutex, racing with set_faults().  The
  // whole fault decision now sits under the lock.
  CollectSink a, b;
  net::FaultyFabric fabric(std::make_unique<net::InProcFabric>(2),
                           net::FaultyFabric::Faults{});
  fabric.attach(0, &a);
  fabric.attach(1, &b);

  std::thread sender([&] {
    for (int i = 0; i < 2000; ++i) {
      fabric.send(net::make_request(0, 1, static_cast<net::SeqNum>(i),
                                    /*object=*/1, /*method=*/1,
                                    std::vector<std::byte>(16),
                                    /*checksum=*/false));
    }
  });
  for (int i = 0; i < 400; ++i) {
    fabric.set_faults({.drop_probability = (i % 2) ? 0.5 : 0.0,
                       .corrupt_probability = (i % 3) ? 0.25 : 0.0,
                       .affect_requests = (i % 3) != 0,
                       .affect_responses = (i % 2) != 0,
                       .seed = static_cast<std::uint64_t>(i)});
  }
  sender.join();
  fabric.shutdown();
}

TEST(Faults, DroppedTrafficDoesNotPoisonLaterCalls) {
  FaultyCluster fc;
  auto e = fc.cluster->make_remote<Echoer>(1);
  fc.fabric->set_faults({.drop_probability = 0.6, .seed = 19});

  int delivered = 0;
  std::vector<Future<int>> stuck;
  for (int i = 0; i < 50; ++i) {
    auto fut = e.async<&Echoer::poke>();
    if (fut.wait_for(std::chrono::milliseconds(20))) {
      EXPECT_EQ(fut.get(), 42);
      ++delivered;
    } else {
      stuck.push_back(std::move(fut));  // lost; abandoned deliberately
    }
  }
  EXPECT_GT(delivered, 0);
  EXPECT_FALSE(stuck.empty());

  fc.fabric->set_faults({});
  EXPECT_EQ(e.call<&Echoer::poke>(), 42);
}

}  // namespace
