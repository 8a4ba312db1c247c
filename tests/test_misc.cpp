// Edge cases across modules that the focused suites do not reach:
// endpoint-file parsing, ingress cost modeling, teardown with in-flight
// work, trace on failures, element types of remote_data, and counters.
#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include "core/oopp.hpp"
#include "kv/kv_store.hpp"
#include "net/tcp_fabric.hpp"

using namespace oopp;

namespace {

class Napper {
 public:
  Napper() = default;
  int nap(int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return ms;
  }
  void fail() { throw std::runtime_error("planned"); }
};

}  // namespace

template <>
struct oopp::rpc::class_def<Napper> {
  static std::string name() { return "misc.Napper"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Napper::nap>("nap");
    b.template method<&Napper::fail>("fail");
  }
};

namespace {

TEST(Endpoints, ParsesHostsPortsAndComments) {
  const std::string path =
      "/tmp/oopp-endpoints-" + std::to_string(::getpid());
  {
    std::ofstream out(path);
    out << "# machines of the test mesh\n"
        << "127.0.0.1 5001\n"
        << "\n"
        << "10.0.0.2 5002  # rack 2\n"
        << "hostname.example 65535\n";
  }
  auto eps = net::load_endpoints(path);
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].host, "127.0.0.1");
  EXPECT_EQ(eps[0].port, 5001);
  EXPECT_EQ(eps[1].host, "10.0.0.2");
  EXPECT_EQ(eps[1].port, 5002);
  EXPECT_EQ(eps[2].host, "hostname.example");
  EXPECT_EQ(eps[2].port, 65535);
  ::unlink(path.c_str());
}

TEST(Endpoints, RejectsMissingAndEmptyFiles) {
  EXPECT_THROW(net::load_endpoints("/no/such/file"), oopp::check_error);
  const std::string path =
      "/tmp/oopp-endpoints-empty-" + std::to_string(::getpid());
  {
    std::ofstream out(path);
    out << "# nothing but comments\n";
  }
  EXPECT_THROW(net::load_endpoints(path), oopp::check_error);
  ::unlink(path.c_str());
}

TEST(CostModel, IngressAndEgressTerms) {
  net::CostModel m{};
  m.egress_bytes_per_us = 100.0;
  m.egress_per_message_ns = 500;
  m.ingress_bytes_per_us = 50.0;
  EXPECT_EQ(m.egress_ns(0), 500);
  EXPECT_NEAR(double(m.egress_ns(100'000)), 500.0 + 1e6, 1.0);
  EXPECT_NEAR(double(m.ingress_ns(50'000)), 1e6, 1.0);
  EXPECT_EQ(net::CostModel::zero().egress_ns(1 << 20), 0);
  EXPECT_EQ(net::CostModel::zero().ingress_ns(1 << 20), 0);
}

TEST(Teardown, InFlightCallsFailTyped) {
  std::vector<Future<int>> futs;
  {
    Cluster cluster(2);
    auto n = cluster.make_remote<Napper>(1);
    for (int i = 0; i < 4; ++i) futs.push_back(n.async<&Napper::nap>(300));
    // Cluster dies with naps outstanding.
  }
  int aborted = 0, finished = 0;
  for (auto& f : futs) {
    try {
      (void)f.get();
      ++finished;  // a nap that completed before teardown
    } catch (const rpc::CallAborted&) {
      ++aborted;
    }
  }
  EXPECT_EQ(aborted + finished, 4);
  EXPECT_GT(aborted, 0);
}

TEST(Trace, RecordsFailuresWithStatus) {
  Cluster cluster(2);
  std::mutex mu;
  std::vector<net::CallStatus> statuses;
  cluster.node(1).set_trace([&](const rpc::CallTrace& t) {
    std::lock_guard lock(mu);
    statuses.push_back(t.status);
  });
  auto n = cluster.make_remote<Napper>(1);
  n.call<&Napper::nap>(0);
  try {
    n.call<&Napper::fail>();
  } catch (const rpc::RemoteError&) {
  }
  std::lock_guard lock(mu);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0], net::CallStatus::kOk);
  EXPECT_EQ(statuses[1], net::CallStatus::kRemoteException);
}

TEST(RemoteData, WorksForSeveralElementTypes) {
  Cluster cluster(2);
  auto ints = cluster.make_remote_array<int>(1, 8);
  ints[3] = -5;
  EXPECT_EQ(static_cast<int>(ints[3]), -5);
  EXPECT_EQ(ints.sum(), -5);

  auto floats = cluster.make_remote_array<float>(1, 4);
  floats.fill(0.5f);
  EXPECT_FLOAT_EQ(floats.sum(), 2.0f);

  auto longs = cluster.make_remote_array<std::uint64_t>(
      1, std::vector<std::uint64_t>{1, 2, 3});
  EXPECT_EQ(longs.to_vector(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Checksums, NoFalsePositivesUnderLoad) {
  Cluster::Options opts;
  opts.machines = 2;
  opts.node.checksums = true;
  Cluster cluster(opts);
  auto data = cluster.make_remote_array<double>(1, 4096);
  std::vector<double> buf(4096, 1.0);
  for (int i = 0; i < 50; ++i) {
    data.assign(0, buf);
    ASSERT_EQ(data.to_vector(), buf);
  }
}

TEST(Group, EmptyGroupOperationsAreNoOps) {
  Cluster cluster(1);
  ProcessGroup<Napper> group;
  group.barrier();
  group.destroy_all();
  auto futs = group.async<&Napper::nap>(1);
  EXPECT_TRUE(futs.empty());
}

TEST(Watchdog, DetectsLifeAndDeath) {
  Cluster cluster(3);
  // The watchdog is itself a remote process (on machine 2), actively
  // probing objects on other machines from its own internal thread.
  auto dog = cluster.make_remote<Watchdog>(2, std::uint32_t{20});
  auto a = cluster.make_remote<Napper>(0);
  auto b = cluster.make_remote<Napper>(1);
  dog.call<&Watchdog::watch>(a.ref());
  dog.call<&Watchdog::watch>(b.ref());

  // Give it a few probe rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (dog.call<&Watchdog::rounds>() < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  auto reports = dog.call<&Watchdog::status>();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) EXPECT_EQ(r.state, WatchState::kAlive);

  // Kill one; the watchdog must flag it within a few periods.
  b.destroy();
  const auto r0 = dog.call<&Watchdog::rounds>();
  while (dog.call<&Watchdog::rounds>() < r0 + 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  for (const auto& r : dog.call<&Watchdog::status>()) {
    if (r.target == b.ref()) {
      EXPECT_EQ(r.state, WatchState::kDead);
      EXPECT_GT(r.failures, 0u);
    } else {
      EXPECT_EQ(r.state, WatchState::kAlive);
    }
  }

  EXPECT_TRUE(dog.call<&Watchdog::unwatch>(b.ref()));
  EXPECT_FALSE(dog.call<&Watchdog::unwatch>(b.ref()));
  dog.destroy();  // joins the prober cleanly
}

TEST(Watchdog, RewatchDuringProbeRoundDoesNotResurrectStaleCounts) {
  // Regression: probe_loop snapshots reports_, probes unlocked, then used
  // to merge whole WatchReport copies back.  A target unwatched and
  // re-watched while a round was in flight got its fresh counters
  // overwritten by the stale pre-unwatch snapshot.  The merge is now
  // delta-only.
  Cluster cluster(2);
  auto ctx = cluster.use(0);
  auto slow = cluster.make_remote<Napper>(1);
  Watchdog dog(10);
  dog.watch(slow.ref());

  // Accumulate probe history the bug would resurrect.
  while (dog.rounds() < 8)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Stall the next round: its ping waits behind a long nap in the
  // target's command queue.
  auto nap = slow.async<&Napper::nap>(300);
  const auto r0 = dog.rounds();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Reset the entry while the stalled round (carrying the old snapshot)
  // is still executing.
  ASSERT_TRUE(dog.unwatch(slow.ref()));
  dog.watch(slow.ref());

  (void)nap.get();
  while (dog.rounds() < r0 + 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto reports = dog.status();
  ASSERT_EQ(reports.size(), 1u);
  // Fresh entry + in-flight round's delta + a couple of fast rounds: far
  // below the >= 9 probes the stale snapshot would have restored.
  EXPECT_LT(reports[0].probes, 6u);
}

TEST(Watchdog, DrivesKvFailover) {
  // Supervision loop: watchdog detects a dead primary, the driver reacts
  // by promoting the backup — detection + recovery end to end.
  Cluster cluster(4);
  auto store = kv::KvStore::create(
      kv::KvStore::Config{.shards = 2, .replicate = true},
      [&](int s) { return static_cast<oopp::net::MachineId>(s % 4); },
      [&](int s) { return static_cast<oopp::net::MachineId>((s + 1) % 4); });
  store.put("k", "v");

  auto dog = cluster.make_remote<Watchdog>(3, std::uint32_t{15});
  for (int s = 0; s < store.shards(); ++s)
    dog.call<&Watchdog::watch>(store.primary(s).ref());

  store.primary(1).destroy();  // silent failure

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    for (const auto& r : dog.call<&Watchdog::status>()) {
      if (r.state == WatchState::kDead) {
        // Identify the shard and fail over.
        for (int s = 0; s < store.shards(); ++s) {
          if (store.primary(s).ref() == r.target) {
            store.promote_backup(s);
            dog.call<&Watchdog::unwatch>(r.target);
            dog.call<&Watchdog::watch>(store.primary(s).ref());
            recovered = true;
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(store.get("k"), std::optional<std::string>("v"));
  dog.destroy();
  store.destroy();
}

TEST(Ping, StandalonePingAndAsyncPing) {
  Cluster cluster(2);
  auto n = cluster.make_remote<Napper>(1);
  n.ping();
  auto f = n.async_ping();
  f.get();
  n.destroy();
  EXPECT_THROW(n.ping(), rpc::ObjectNotFound);
}

}  // namespace
