// Fault-tolerant remote calls: retry/backoff rides out message loss, the
// server-side dedup cache keeps retried non-reentrant methods at-most-once
// (so with a completing retry: exactly-once), circuit breakers convert a
// dead peer into fast typed failures, and the partial-failure group
// operations contain one member's death to one typed error.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "array/block_storage.hpp"
#include "core/expected.hpp"
#include "core/group.hpp"
#include "core/oopp.hpp"
#include "fft/fft3d.hpp"
#include "fft/out_of_core.hpp"
#include "net/faulty_fabric.hpp"
#include "net/inproc_fabric.hpp"
#include "storage/page_device.hpp"
#include "storage/replicated_page_device.hpp"
#include "telemetry/metrics.hpp"
#include "util/prng.hpp"

using namespace oopp;
using namespace std::chrono_literals;

namespace {

/// CI hook (the faults-smoke job): OOPP_METRICS_OUT=<path> dumps the
/// process-global metrics registry — rpc.retry / rpc.breaker counters
/// included — once the suite finishes.
class MetricsDumpEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* out = std::getenv("OOPP_METRICS_OUT");
    if (!out) return;
    std::ofstream(out) << telemetry::Metrics::instance().json() << "\n";
  }
};
const auto* const kMetricsDump =
    ::testing::AddGlobalTestEnvironment(new MetricsDumpEnv);

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

/// Non-reentrant counter: every execution of bump() is observable, which
/// is what lets the tests count *executions* (not responses) and prove
/// the at-most-once guarantee.
class Counter {
 public:
  Counter() = default;
  int bump() { return ++n_; }
  int count() const { return n_; }

 private:
  int n_ = 0;
};

class Pinger {
 public:
  Pinger() = default;
  int poke() { return 42; }
  std::vector<double> echo(const std::vector<double>& v) { return v; }
};

}  // namespace

template <>
struct oopp::rpc::class_def<Counter> {
  static std::string name() { return "recovery.Counter"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Counter::bump>("bump");
    b.template method<&Counter::count>("count");
  }
};

template <>
struct oopp::rpc::class_def<Pinger> {
  static std::string name() { return "recovery.Pinger"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Pinger::poke>("poke");
    b.template method<&Pinger::echo>("echo");
  }
};

namespace {

struct FaultyCluster {
  net::FaultyFabric* fabric = nullptr;  // owned by the cluster
  std::unique_ptr<Cluster> cluster;

  explicit FaultyCluster(std::size_t machines = 2,
                         rpc::Node::Options node_opts = {.checksums = true}) {
    Cluster::Options opts;
    opts.machines = machines;
    opts.node = node_opts;
    opts.node.checksums = true;
    opts.fabric_factory = [&](std::size_t n) {
      auto faulty = std::make_unique<net::FaultyFabric>(
          std::make_unique<net::InProcFabric>(n), net::FaultyFabric::Faults{});
      fabric = faulty.get();
      return faulty;
    };
    cluster = std::make_unique<Cluster>(opts);
  }
};

/// Retry policy tuned for the in-process fabric: round trips are tens of
/// microseconds, so a 50 ms attempt timeout only fires on genuine loss.
rpc::CallPolicy test_policy(std::uint32_t max_attempts = 8) {
  rpc::CallPolicy p = rpc::resilient_policy(50ms, max_attempts);
  p.backoff_initial = 1ms;
  p.backoff_max = 10ms;
  return p;
}

// The issue's acceptance gate: 1000 calls over a fabric dropping 5% of
// requests AND 5% of responses complete with zero caller-visible errors,
// and the non-reentrant method executed exactly once per call.
TEST(Recovery, ThousandCallsRideOutFivePercentLoss) {
  FaultyCluster fc;
  auto c = fc.cluster->make_remote<Counter>(1).with_policy(test_policy());
  fc.fabric->set_faults({.drop_probability = 0.05, .seed = 23});

  for (int i = 0; i < 1000; ++i) {
    ASSERT_NO_THROW((void)c.call<&Counter::bump>()) << "call " << i;
  }
  EXPECT_GT(fc.fabric->dropped(), 0u) << "fault injection never fired";

  fc.fabric->set_faults({});
  EXPECT_EQ(c.call<&Counter::count>(), 1000);  // exactly once each
}

// The batched slab reads behind the prefetch pipeline ride the same
// retry/dedup machinery as scalar calls: under 5% loss every batch
// completes, returns intact data, and the device's operation counter
// shows each page was served exactly once — a replayed batch never
// re-executes (and never double-charges the seek accounting).
TEST(Recovery, BatchedPageReadsRideOutLossExactlyOnce) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-recovery-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  FaultyCluster fc;
  auto dev = fc.cluster
                 ->make_remote<storage::PageDevice>(
                     1, (dir / "pages.bin").string(), 16, 256)
                 .with_policy(test_policy());

  std::vector<std::int32_t> all(16);
  for (int i = 0; i < 16; ++i) all[i] = i;
  std::vector<storage::Page> seed;
  for (int i = 0; i < 16; ++i) {
    storage::Page p(256);
    for (std::size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<unsigned char>((i * 7 + j) % 251);
    seed.push_back(std::move(p));
  }
  dev.call<&storage::PageDevice::write_pages>(seed, all);

  fc.fabric->set_faults({.drop_probability = 0.05, .seed = 47});
  constexpr int kBatches = 50;
  for (int r = 0; r < kBatches; ++r) {
    std::vector<storage::Page> got;
    ASSERT_NO_THROW(got = dev.call<&storage::PageDevice::read_pages>(all))
        << "batch " << r;
    ASSERT_EQ(got.size(), seed.size());
    for (int i = 0; i < 16; ++i)
      ASSERT_EQ(got[i], seed[i]) << "batch " << r << " page " << i;
  }
  EXPECT_GT(fc.fabric->dropped(), 0u) << "fault injection never fired";

  fc.fabric->set_faults({});
  // One batched write of 16 + kBatches batched reads of 16, exactly once.
  EXPECT_EQ(dev.call<&storage::PageDevice::operations>(),
            16u + 16u * kBatches);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Dedup proof in isolation: with every response destroyed, the request
// executes once, every retry replays the cached (lost) response, and the
// server-side counter still reads 1.
TEST(Recovery, DedupCachePreventsDoubleExecution) {
  FaultyCluster fc;
  auto c = fc.cluster->make_remote<Counter>(1);
  fc.fabric->set_faults({.drop_probability = 1.0,
                         .affect_requests = false,
                         .seed = 29});

  rpc::CallPolicy p = test_policy(/*max_attempts=*/4);
  p.attempt_timeout = 20ms;
  auto retried = c.with_policy(p);
  EXPECT_THROW((void)retried.call<&Counter::bump>(), rpc::CallTimeout);

  fc.fabric->set_faults({});
  EXPECT_EQ(c.call<&Counter::count>(), 1)
      << "a retried non-reentrant call executed more than once";
}

// Corrupted frames are retried too (retry_bad_frame): a mangled response
// is replayed from the dedup cache without re-executing; a mangled
// request was never executed and simply runs on the retry.
TEST(Recovery, BadFramesHealUnderRetry) {
  FaultyCluster fc;
  auto c = fc.cluster->make_remote<Counter>(1).with_policy(test_policy());
  fc.fabric->set_faults({.corrupt_probability = 0.3, .seed = 31});

  for (int i = 0; i < 200; ++i) {
    ASSERT_NO_THROW((void)c.call<&Counter::bump>()) << "call " << i;
  }
  EXPECT_GT(fc.fabric->corrupted(), 0u);

  fc.fabric->set_faults({});
  EXPECT_EQ(c.call<&Counter::count>(), 200);
}

// The node-level default policy applies to calls that carry none.
TEST(Recovery, NodeDefaultPolicyApplies) {
  FaultyCluster fc;
  auto p = fc.cluster->make_remote<Pinger>(1);
  fc.cluster->node(0).set_default_policy(test_policy());
  fc.fabric->set_faults({.drop_probability = 0.1, .seed = 37});

  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(p.call<&Pinger::poke>(), 42) << "call " << i;
  }
}

// Breaker lifecycle: consecutive retry-layer failures open it (fast
// typed failures without touching the network), the cooldown admits a
// half-open probe, and a successful probe closes it again.
TEST(Recovery, BreakerOpensFastFailsAndRecovers) {
  rpc::Node::Options node_opts;
  node_opts.breaker_threshold = 3;
  node_opts.breaker_cooldown = 100ms;
  FaultyCluster fc(2, node_opts);
  auto p = fc.cluster->make_remote<Pinger>(1);
  fc.fabric->set_faults({.drop_probability = 1.0, .seed = 41});

  rpc::CallPolicy pol = test_policy(/*max_attempts=*/2);
  pol.attempt_timeout = 15ms;
  auto retried = p.with_policy(pol);

  // Burn through calls until the accumulated lost attempts trip the
  // breaker; every failure is typed (timeout before it opens,
  // PeerUnavailable after).
  bool opened = false;
  for (int i = 0; i < 10 && !opened; ++i) {
    try {
      (void)retried.call<&Pinger::poke>();
      FAIL() << "call succeeded on a fabric dropping everything";
    } catch (const rpc::PeerUnavailable&) {
      opened = true;
    } catch (const rpc::CallTimeout&) {
    }
  }
  ASSERT_TRUE(opened) << "breaker never opened";
  EXPECT_EQ(fc.cluster->node(0).peer_health(1).state,
            rpc::BreakerState::kOpen);

  // Open breaker = fast fail: no attempt timeout is paid.
  const auto t0 = steady_clock::now();
  EXPECT_THROW((void)retried.call<&Pinger::poke>(), rpc::PeerUnavailable);
  EXPECT_LT(steady_clock::now() - t0, 10ms);

  // Heal the network, wait out the cooldown: the next call is the
  // half-open probe, it succeeds, and the breaker closes.
  fc.fabric->set_faults({});
  std::this_thread::sleep_for(120ms);
  EXPECT_EQ(retried.call<&Pinger::poke>(), 42);
  EXPECT_EQ(fc.cluster->node(0).peer_health(1).state,
            rpc::BreakerState::kClosed);
}

// Partial gather: one deleted member costs one typed per-member error,
// not the whole operation.  (gather<> on the same group would throw.)
TEST(Recovery, PartialGatherContainsOneDeadMember) {
  Cluster cluster(4);
  std::vector<remote_ptr<Pinger>> members;
  for (net::MachineId m = 0; m < 4; ++m)
    members.push_back(cluster.make_remote<Pinger>(m));
  ProcessGroup<Pinger> group(std::move(members));

  group[2].destroy();

  auto results = group.gather_partial<&Pinger::poke>();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(failed_indices(results), std::vector<std::size_t>{2});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].has_value());
      EXPECT_EQ(results[i].error_code(), net::CallStatus::kObjectNotFound);
      EXPECT_THROW((void)results[i].value(), rpc::ObjectNotFound);
    } else {
      ASSERT_TRUE(results[i].has_value()) << "member " << i;
      EXPECT_EQ(results[i].value(), 42);
    }
  }

  // The all-or-nothing spelling still throws, as documented.
  EXPECT_THROW((void)group.gather<&Pinger::poke>(), rpc::ObjectNotFound);
}

TEST(Recovery, PartialBarrierReportsFailedMembers) {
  Cluster cluster(3);
  std::vector<remote_ptr<Pinger>> members;
  for (net::MachineId m = 0; m < 3; ++m)
    members.push_back(cluster.make_remote<Pinger>(m));
  ProcessGroup<Pinger> group(std::move(members));

  group[1].destroy();

  auto results = group.barrier_partial();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].has_value());
  EXPECT_FALSE(results[1].has_value());
  EXPECT_EQ(results[1].error_code(), net::CallStatus::kObjectNotFound);
  EXPECT_TRUE(results[2].has_value());
}

TEST(Recovery, PartialGatherIndexedKeepsResults) {
  Cluster cluster(3);
  std::vector<remote_ptr<Pinger>> members;
  for (net::MachineId m = 0; m < 3; ++m)
    members.push_back(cluster.make_remote<Pinger>(m));
  ProcessGroup<Pinger> group(std::move(members));

  auto results = group.gather_indexed_partial<&Pinger::echo>(
      [](std::size_t i) {
        return std::make_tuple(std::vector<double>{double(i)});
      });
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i].value(), std::vector<double>{double(i)});
  }
}

// -- replicated durability under faults (ReplicaRecovery) -------------------
//
// The CI replica-kill lane runs exactly this suite
// (--gtest_filter=ReplicaRecovery.*) and gates on the storage.replica
// counters it leaves behind: quorum_reads > 0 and failovers >= 1.

std::uint64_t replica_counter(std::string_view name) {
  return telemetry::Metrics::scope_for("storage.replica")
      .counter(name)
      .value();
}

/// An out-of-core FFT over k=3 replicated storage, one replica (the leased
/// primary of the first coordinator's first page range) killed mid-pass,
/// must complete with output byte-identical to the same transform on plain
/// storage — and the failover stall a caller observed stays bounded.
/// Which path first notices the dead replica (a write, a watchdog round or
/// a read) depends on timing here; ReadOfKilledPrimaryFallsBackToQuorum
/// pins the read path.
TEST(ReplicaRecovery, ReplicaKilledMidFftCompletesByteIdentical) {
  namespace arr = oopp::array;
  namespace fft = oopp::fft;
  Cluster cluster(4);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-replica-fft-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const oopp::Extents3 e{8, 6, 10};
  const oopp::Extents3 b{4, 3, 5};
  const oopp::Extents3 grid{2, 2, 2};
  const arr::PageMapSpec spec{arr::PageMapKind::kRoundRobin};
  arr::BlockStorageConfig cfg;
  cfg.devices = 4;
  cfg.pages_per_device =
      static_cast<std::int32_t>(spec.pages_per_device(grid, 4));
  cfg.n1 = static_cast<int>(b.n1);
  cfg.n2 = static_cast<int>(b.n2);
  cfg.n3 = static_cast<int>(b.n3);
  // Simulated device service time stretches the pass so the mid-run kill
  // lands while slabs are still in flight.
  cfg.device_options.service_us = 300;

  auto make_plain = [&](const std::string& tag) {
    auto c = cfg;
    c.file_prefix = (dir / tag).string();
    return arr::Array(e.n1, e.n2, e.n3, b.n1, b.n2, b.n3,
                      arr::create_block_storage(c,
                                                [&](std::int32_t i) {
                                                  return static_cast<
                                                      net::MachineId>(
                                                      i % cluster.size());
                                                }),
                      spec);
  };
  auto make_replicated = [&](const std::string& tag) {
    auto c = cfg;
    c.file_prefix = (dir / tag).string();
    return arr::Array(
        e.n1, e.n2, e.n3, b.n1, b.n2, b.n3,
        arr::create_replicated_block_storage(
            c, storage::ReplicaOptions{.replicas = 3, .lease_ms = 50},
            [&](std::int32_t i) {
              return static_cast<net::MachineId>(i % cluster.size());
            },
            [&](std::int32_t i, std::int32_t j) {
              return static_cast<net::MachineId>((i + j) % cluster.size());
            }),
        spec);
  };

  const auto whole = arr::Domain::whole(e);
  oopp::Xoshiro256 rng(97);
  std::vector<double> re0(static_cast<std::size_t>(e.volume()));
  std::vector<double> im0(re0.size());
  for (auto& x : re0) x = rng.uniform(-1, 1);
  for (auto& x : im0) x = rng.uniform(-1, 1);

  // Reference pass on plain single-copy storage.
  auto re_plain = make_plain("plain-re");
  auto im_plain = make_plain("plain-im");
  re_plain.write(re0, whole);
  im_plain.write(im0, whole);
  const fft::OutOfCoreOptions ooc{.max_bytes = 4000};
  fft::fft3d_out_of_core(re_plain, im_plain, -1, ooc);
  const auto re_expect = re_plain.read(whole);
  const auto im_expect = im_plain.read(whole);

  // Replicated pass with a mid-run replica kill.
  auto re = make_replicated("repl-re");
  auto im = make_replicated("repl-im");
  re.write(re0, whole);
  im.write(im0, whole);

  const auto failovers0 = replica_counter("failovers");
  const auto writes_mark = replica_counter("replica_writes");

  // First storage slot of the re array is a replicated coordinator.
  remote_ptr<storage::ReplicatedPageDevice> coord(
      re.storage()[0].machine(), re.storage()[0].id());
  std::thread killer([&cluster, coord, writes_mark] {
    auto guard = cluster.use(0);
    // Wait until the transform is demonstrably under way...
    while (replica_counter("replica_writes") < writes_mark + 16)
      std::this_thread::sleep_for(1ms);
    // ...then kill the replica holding the lease on the first page range.
    const auto status =
        coord.call<&storage::ReplicatedPageDevice::replica_status>();
    const auto refs =
        coord.call<&storage::ReplicatedPageDevice::replica_refs>();
    const auto primary = status.range_primary.empty()
                             ? 0
                             : std::max(status.range_primary[0], 0);
    refs[static_cast<std::size_t>(primary)].destroy();
  });

  fft::fft3d_out_of_core(re, im, -1, ooc);
  killer.join();

  const auto re_out = re.read(whole);
  const auto im_out = im.read(whole);
  ASSERT_EQ(re_out.size(), re_expect.size());
  for (std::size_t i = 0; i < re_out.size(); ++i) {
    ASSERT_EQ(re_out[i], re_expect[i]) << "re[" << i << "]";  // bit-exact
    ASSERT_EQ(im_out[i], im_expect[i]) << "im[" << i << "]";
  }

  EXPECT_EQ(coord.call<&storage::ReplicatedPageDevice::alive_replicas>(), 2);
  EXPECT_GE(replica_counter("failovers") - failovers0, 1u)
      << "the killed replica never triggered a failover";
  // Bounded stall: the p99 of time callers spent riding out a failover.
  EXPECT_LT(telemetry::Metrics::scope_for("storage.replica")
                .histogram("stall_ns")
                .percentile(99.0),
            2'000'000'000u);
  std::filesystem::remove_all(dir);
}

// The first read to reach a killed leased primary — before any write or
// watchdog round has marked it dead — falls back to a quorum of the
// survivors and returns the acknowledged bytes.  The order is fixed: no
// other traffic runs, and the lease (also the watchdog period) outlasts
// the test.
TEST(ReplicaRecovery, ReadOfKilledPrimaryFallsBackToQuorum) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-replica-quorum-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Cluster cluster(3);

  std::vector<remote_ptr<storage::ArrayPageDevice>> replicas;
  for (int j = 0; j < 3; ++j) {
    replicas.push_back(cluster.make_remote<storage::ArrayPageDevice>(
        static_cast<net::MachineId>(j),
        (dir / ("dev.r" + std::to_string(j))).string(), 8, 4, 4, 4,
        storage::DeviceOptions{}));
  }
  auto coord = cluster.make_remote<storage::ReplicatedPageDevice>(
      0, replicas, storage::ReplicaOptions{.replicas = 3, .lease_ms = 600'000});

  const std::size_t bytes = 4 * 4 * 4 * sizeof(double);
  std::vector<storage::Page> pages;
  std::vector<std::int32_t> indices;
  for (int i = 0; i < 8; ++i) {
    storage::Page p(bytes);
    for (std::size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<unsigned char>((i * 29 + j) % 251);
    pages.push_back(std::move(p));
    indices.push_back(i);
  }
  coord.call<&storage::PageDevice::write_pages>(pages, indices);
  // Leases are elected on the read path.
  (void)coord.call<&storage::PageDevice::read_pages>(indices);
  const auto status =
      coord.call<&storage::ReplicatedPageDevice::replica_status>();
  ASSERT_FALSE(status.range_primary.empty());
  const auto primary = status.range_primary[0];
  ASSERT_GE(primary, 0);

  const auto failovers0 = replica_counter("failovers");
  const auto quorum0 = replica_counter("quorum_reads");
  replicas[static_cast<std::size_t>(primary)].destroy();
  const auto got = coord.call<&storage::PageDevice::read_pages>(
      std::vector<std::int32_t>{0});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], pages[0]);
  EXPECT_GE(replica_counter("quorum_reads") - quorum0, 1u)
      << "the read of the dead primary's range did not fall back to a quorum";
  EXPECT_GE(replica_counter("failovers") - failovers0, 1u);
  EXPECT_EQ(coord.call<&storage::ReplicatedPageDevice::alive_replicas>(), 2);
  std::filesystem::remove_all(dir);
}

// Replicated writes ride the same retry/dedup machinery as everything
// else: under 5% message loss every quorum write completes, and each
// replica executed every page write exactly once — a replayed replicated
// write is never applied twice anywhere.
TEST(ReplicaRecovery, ReplicatedWritesExactlyOncePerReplicaUnderLoss) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-replica-loss-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FaultyCluster fc(3);

  std::vector<remote_ptr<storage::ArrayPageDevice>> replicas;
  for (int j = 0; j < 3; ++j) {
    replicas.push_back(fc.cluster->make_remote<storage::ArrayPageDevice>(
        static_cast<net::MachineId>(j),
        (dir / ("dev.r" + std::to_string(j))).string(), 8, 4, 4, 4,
        storage::DeviceOptions{}));
  }
  auto coord = fc.cluster->make_remote<storage::ReplicatedPageDevice>(
      0, replicas, storage::ReplicaOptions{.replicas = 3});
  // Retries for both hops: client -> coordinator (handle policy) and
  // coordinator -> replica (node-level default on the coordinator's node).
  fc.cluster->node(0).set_default_policy(test_policy());
  auto handle = coord.with_policy(test_policy());

  const std::size_t bytes = 4 * 4 * 4 * sizeof(double);
  std::vector<storage::Page> pages;
  std::vector<std::int32_t> indices;
  for (int i = 0; i < 8; ++i) {
    storage::Page p(bytes);
    for (std::size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<unsigned char>((i * 13 + j) % 251);
    pages.push_back(std::move(p));
    indices.push_back(i);
  }

  fc.fabric->set_faults({.drop_probability = 0.05, .seed = 53});
  constexpr int kRounds = 40;
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_NO_THROW(
        handle.call<&storage::PageDevice::write_pages>(pages, indices))
        << "round " << r;
  }
  EXPECT_GT(fc.fabric->dropped(), 0u) << "fault injection never fired";
  fc.fabric->set_faults({});

  // No replica was marked dead, every acknowledged write landed on all
  // three, and nobody executed a page write twice.
  EXPECT_EQ(coord.call<&storage::ReplicatedPageDevice::alive_replicas>(), 3);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(replicas[j].call<&storage::PageDevice::operations>(),
              static_cast<std::uint64_t>(8 * kRounds))
        << "replica " << j;
    const auto stamps =
        replicas[j].call<&storage::PageDevice::page_stamps>(indices);
    for (const auto s : stamps) EXPECT_EQ(s, std::uint64_t{kRounds});
  }
  auto got = coord.call<&storage::PageDevice::read_pages>(indices);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[i], pages[i]) << "page " << i;
  std::filesystem::remove_all(dir);
}

// Policies are a property of the handle: they survive serialization of
// the *local* handle object but are not part of the remote identity.
TEST(Recovery, PolicyIsHandleLocal) {
  Cluster cluster(2);
  auto p = cluster.make_remote<Pinger>(1);
  auto retried = p.with_policy(test_policy());
  EXPECT_EQ(p, retried);  // identity: same remote object
  EXPECT_FALSE(p.policy().has_value());
  ASSERT_TRUE(retried.policy().has_value());
  EXPECT_EQ(retried.policy()->max_attempts, test_policy().max_attempts);

  serial::OArchive oa;
  oa(retried);
  EXPECT_TRUE(retried.policy().has_value()) << "serializing wiped the policy";
  serial::IArchive ia(oa.bytes());
  auto wire = ia.read<remote_ptr<Pinger>>();
  EXPECT_EQ(wire, p);
  EXPECT_FALSE(wire.policy().has_value()) << "policy leaked onto the wire";
}

}  // namespace
