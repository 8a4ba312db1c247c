// The collectives engine and the Communicator BLAS layer: tree shape,
// reduction and cost-model selection units, every allreduce algorithm
// checked against a local model over a size sweep, tree broadcast/reduce
// checked against the flat forms over a sweep of group shapes, slab
// kernels against in-memory references, telemetry counters, faults (5%
// message loss must yield exact results — never a silent wrong answer; a
// failing member must fail the collective, not wedge the group), and
// concurrent scalar collectives on one group.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "array/array.hpp"
#include "array/block_storage.hpp"
#include "array/page_map.hpp"
#include "coll/communicator.hpp"
#include "core/oopp.hpp"
#include "net/faulty_fabric.hpp"
#include "net/inproc_fabric.hpp"
#include "rpc/call_policy.hpp"
#include "telemetry/metrics.hpp"
#include "util/prng.hpp"

using namespace oopp;
using namespace std::chrono_literals;
namespace coll = oopp::coll;
namespace arr = oopp::array;
namespace fs = std::filesystem;
using coll::Algo;
using coll::Communicator;
using coll::CostHints;
using coll::ReduceKind;

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("oopp-comm-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
  static inline std::atomic<int> counter_{0};
};

// ---------------------------------------------------------------------------
// Units: tree shape, reduction, algorithm selection, segmenting
// ---------------------------------------------------------------------------

TEST(CommUnit, TreeShapeIsConsistent) {
  for (std::int64_t n = 1; n <= 24; ++n) {
    int edges = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      const coll::TreeShape t = coll::tree_shape(r, n);
      if (r == 0) {
        EXPECT_EQ(t.parent, -1);
      } else {
        ASSERT_GE(t.parent, 0) << "n=" << n << " rel=" << r;
        ASSERT_LT(t.parent, r) << "parents precede children";
        // The parent lists r among its children.
        const coll::TreeShape p = coll::tree_shape(t.parent, n);
        bool found = false;
        for (std::int32_t c : p.children) found |= (c == r);
        EXPECT_TRUE(found) << "n=" << n << " rel=" << r;
      }
      for (std::int32_t c : t.children) {
        ASSERT_GT(c, r);
        ASSERT_LT(c, n);
        EXPECT_EQ(coll::tree_shape(c, n).parent, r);
        ++edges;
      }
    }
    EXPECT_EQ(edges, n - 1) << "a tree over n members has n-1 edges";
  }
}

TEST(CommUnit, CombineOne) {
  EXPECT_EQ(coll::combine_one(ReduceKind::kSum, 2.0, 3.0), 5.0);
  EXPECT_EQ(coll::combine_one(ReduceKind::kProd, 2.0, 3.0), 6.0);
  EXPECT_EQ(coll::combine_one(ReduceKind::kMin, 2.0, 3.0), 2.0);
  EXPECT_EQ(coll::combine_one(ReduceKind::kMax, 2.0, 3.0), 3.0);
}

TEST(CommUnit, ChooseAllreduceBySizeAndShape) {
  // E11-flavoured hints: 20 us per message, finite per-byte cost.
  const CostHints h{/*alpha_ns=*/20'000.0, /*byte_ns=*/0.1};
  // Tiny payloads are latency-bound: fewest rounds wins.  On powers of
  // two, halving ties two-pass on rounds and carries fewer bytes, so it
  // wins at every size; off powers of two the tree is the only
  // log-round algorithm left.
  EXPECT_EQ(coll::choose_allreduce(8, 16, h), Algo::kHalving);
  EXPECT_EQ(coll::choose_allreduce(8, 13, h), Algo::kTwoPass);
  // n <= 2: the tree and the ring are the same graph; take fewest messages.
  EXPECT_EQ(coll::choose_allreduce(8u << 20, 2, h), Algo::kTwoPass);
  // Large payloads are bandwidth-bound: halving on powers of two...
  EXPECT_EQ(coll::choose_allreduce(8u << 20, 16, h), Algo::kHalving);
  // ...ring everywhere else.
  EXPECT_EQ(coll::choose_allreduce(8u << 20, 12, h), Algo::kRing);
}

TEST(CommUnit, ChooseSegmentsIsBoundedAndMonotone) {
  const CostHints h{20'000.0, 0.1};
  EXPECT_EQ(coll::choose_segments(0, h), 1u);
  EXPECT_EQ(coll::choose_segments(1u << 30, h), 16u);
  std::uint32_t prev = 0;
  for (std::size_t b = 1024; b <= (64u << 20); b *= 4) {
    const std::uint32_t s = coll::choose_segments(b, h);
    EXPECT_GE(s, prev);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 16u);
    prev = s;
  }
}

// ---------------------------------------------------------------------------
// Member-resident vector collectives
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> random_chunks(int n, int len,
                                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<double>> data(static_cast<std::size_t>(n));
  for (auto& v : data) {
    v.resize(static_cast<std::size_t>(len));
    for (auto& x : v) x = rng.uniform(-4.0, 4.0);
  }
  return data;
}

std::vector<double> reduce_reference(
    const std::vector<std::vector<double>>& data, ReduceKind kind) {
  std::vector<double> ref = data[0];
  for (std::size_t i = 1; i < data.size(); ++i)
    for (std::size_t j = 0; j < ref.size(); ++j)
      ref[j] = coll::combine_one(kind, ref[j], data[i][j]);
  return ref;
}

struct CommFixture {
  Cluster cluster{4};

  Communicator comm(int n) {
    std::vector<net::MachineId> machines;
    for (int i = 0; i < n; ++i)
      machines.push_back(static_cast<net::MachineId>(i % cluster.size()));
    return Communicator::on_machines(machines);
  }
};

struct AllreduceCase {
  int n;
  int len;
  ReduceKind kind;
  Algo algo;
  // The test's name is a dump of these bytes; an explicit zeroed tail keeps
  // uninitialised padding (which varies from run to run) out of it.
  std::uint16_t pad = 0;
};
static_assert(sizeof(AllreduceCase) == 12, "AllreduceCase has padding");

class AllreduceSweep : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceSweep, MatchesLocalModel) {
  const auto& c = GetParam();
  CommFixture fx;
  auto comm = fx.comm(c.n);
  const auto data = random_chunks(
      c.n, c.len, static_cast<std::uint64_t>(c.n * 1009 + c.len));
  comm.set_member_data(data);
  const auto ref = reduce_reference(data, c.kind);

  const Algo ran = comm.allreduce_members(c.kind, c.algo);
  if (c.algo != Algo::kAuto) {
    // A forced algorithm runs as forced, except halving on a non-power-
    // of-two group, which degrades to the ring.
    const Algo want = (c.algo == Algo::kHalving && !coll::is_pow2(c.n))
                          ? Algo::kRing
                          : c.algo;
    EXPECT_EQ(ran, want);
  }
  for (const auto& got : comm.member_data()) {
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t j = 0; j < ref.size(); ++j)
      EXPECT_NEAR(got[j], ref[j], 1e-9) << "element " << j;
  }
  comm.destroy();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllreduceSweep,
    ::testing::Values(
        AllreduceCase{2, 64, ReduceKind::kSum, Algo::kTwoPass},
        AllreduceCase{3, 97, ReduceKind::kSum, Algo::kRing},
        AllreduceCase{4, 64, ReduceKind::kSum, Algo::kHalving},
        AllreduceCase{5, 96, ReduceKind::kMax, Algo::kRing},
        AllreduceCase{5, 1, ReduceKind::kSum, Algo::kRing},
        AllreduceCase{5, 0, ReduceKind::kSum, Algo::kTwoPass},
        AllreduceCase{6, 100, ReduceKind::kMin, Algo::kHalving},  // -> ring
        AllreduceCase{8, 256, ReduceKind::kSum, Algo::kHalving},
        AllreduceCase{8, 130, ReduceKind::kProd, Algo::kRing},
        AllreduceCase{13, 83, ReduceKind::kSum, Algo::kRing},
        AllreduceCase{13, 83, ReduceKind::kSum, Algo::kTwoPass},
        AllreduceCase{16, 256, ReduceKind::kSum, Algo::kHalving},
        AllreduceCase{16, 64, ReduceKind::kMax, Algo::kAuto},
        AllreduceCase{1, 16, ReduceKind::kSum, Algo::kAuto}));

TEST(Communicator, RepeatedAllreducesOnOneGroup) {
  // Epochs isolate back-to-back collectives; the result of one feeds the
  // next, exercising the staging GC between rounds.
  CommFixture fx;
  auto comm = fx.comm(5);
  auto data = random_chunks(5, 48, 77);
  comm.set_member_data(data);
  std::vector<double> ref = reduce_reference(data, ReduceKind::kSum);
  for (int round = 0; round < 4; ++round) {
    const Algo forced = (round % 2) ? Algo::kRing : Algo::kTwoPass;
    comm.allreduce_members(ReduceKind::kSum, forced);
    // After a sum-allreduce every member holds ref, so the next round
    // sums n identical copies.
    const auto got = comm.member_data();
    for (const auto& v : got) {
      ASSERT_EQ(v.size(), ref.size());
      for (std::size_t j = 0; j < ref.size(); ++j)
        ASSERT_NEAR(v[j], ref[j], 1e-7) << "round " << round;
    }
    for (auto& x : ref) x *= 5.0;
  }
  comm.destroy();
}

/// Group shapes for the tree broadcast and reduce: every size up to 9 and
/// a few larger irregular ones, each with one of the four reductions.
struct Shape {
  int n;
  int len;
  ReduceKind kind;
};
constexpr Shape kShapes[] = {
    {1, 4, ReduceKind::kProd},  {2, 3, ReduceKind::kSum},
    {3, 1, ReduceKind::kMax},   {4, 8, ReduceKind::kSum},
    {5, 2, ReduceKind::kMin},   {6, 33, ReduceKind::kSum},
    {7, 4, ReduceKind::kMax},   {8, 4, ReduceKind::kSum},
    {9, 5, ReduceKind::kProd},  {13, 2, ReduceKind::kSum},
    {16, 1, ReduceKind::kMax}};

TEST(Communicator, BcastDeliversRootVector) {
  CommFixture fx;
  for (const Shape& s : kShapes) {
    SCOPED_TRACE("n=" + std::to_string(s.n));
    auto comm = fx.comm(s.n);
    // The other members hold vectors of another length, which the
    // broadcast replaces.
    auto chunks = random_chunks(s.n, 2, static_cast<std::uint64_t>(s.n));
    chunks[0] = random_chunks(1, s.len, 100 + s.n)[0];
    comm.set_member_data(chunks);
    comm.bcast_members(s.len);
    for (const auto& v : comm.member_data()) EXPECT_EQ(v, chunks[0]);
    comm.destroy();
  }
}

TEST(Communicator, ReduceLandsAtRootOnly) {
  CommFixture fx;
  for (const Shape& s : kShapes) {
    SCOPED_TRACE("n=" + std::to_string(s.n));
    auto comm = fx.comm(s.n);
    const auto data = random_chunks(
        s.n, s.len, static_cast<std::uint64_t>(s.n * 1009 + s.len));
    comm.set_member_data(data);
    // The flat reduce: every member's vector gathered to the master and
    // combined there.
    const auto flat = reduce_reference(comm.member_data(), s.kind);
    comm.reduce_members(s.kind, s.len);
    const auto got = comm.member_data();
    ASSERT_EQ(got[0].size(), flat.size());
    for (std::size_t j = 0; j < flat.size(); ++j)
      EXPECT_NEAR(got[0][j], flat[j], 1e-9);
    // MPI semantics: non-root buffers are unspecified after a reduce
    // (interior tree members combine in place) — leaves keep their data.
    for (int r = 1; r < s.n; ++r) {
      if (coll::tree_shape(r, s.n).children.empty()) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)],
                  data[static_cast<std::size_t>(r)]);
      }
    }
    comm.destroy();
  }
}

TEST(Communicator, UnwiredPeerRejectsCollectives) {
  CommFixture fx;
  auto p = fx.cluster.make_remote<coll::Peer>(1, std::int32_t{0});
  EXPECT_THROW((void)p.call<&coll::Peer::allreduce>(
                   std::uint64_t{1}, ReduceKind::kSum, Algo::kAuto),
               rpc::RemoteError);
  p.destroy();
}

TEST(Communicator, TelemetryCountersAdvance) {
  auto& ring =
      telemetry::Metrics::scope_for("coll").counter("allreduce_ring");
  auto& bytes = telemetry::Metrics::scope_for("coll").counter("bytes_moved");
  const auto ring0 = ring.value();
  const auto bytes0 = bytes.value();

  CommFixture fx;
  auto comm = fx.comm(4);
  comm.set_member_data(random_chunks(4, 64, 5));
  comm.allreduce_members(ReduceKind::kSum, Algo::kRing);
  comm.destroy();

  // In-process cluster: every member's counters land in this process.
  EXPECT_EQ(ring.value() - ring0, 4u);  // one per member
  EXPECT_GE(bytes.value() - bytes0, 4u * 3u * 16u * sizeof(double));
}

// ---------------------------------------------------------------------------
// BLAS kernels over Arrays
// ---------------------------------------------------------------------------

struct BlasFixture {
  TempDir tmp;
  Cluster cluster{4};
  std::vector<arr::BlockStorage> storages;  // keep devices alive

  /// A kBlocked array: each device owns one contiguous run of pages, the
  /// layout the Communicator's slab partitioning requires.
  arr::Array make(Extents3 n, Extents3 b, int devices) {
    const Extents3 grid{oopp::ceil_div(n.n1, b.n1),
                        oopp::ceil_div(n.n2, b.n2),
                        oopp::ceil_div(n.n3, b.n3)};
    arr::BlockStorageConfig cfg;
    cfg.file_prefix =
        tmp.file("dev" + std::to_string(storages.size()));
    cfg.devices = devices;
    cfg.pages_per_device = static_cast<std::int32_t>(
        arr::PageMapSpec{arr::PageMapKind::kBlocked}.pages_per_device(
            grid, devices));
    cfg.n1 = static_cast<int>(b.n1);
    cfg.n2 = static_cast<int>(b.n2);
    cfg.n3 = static_cast<int>(b.n3);
    storages.push_back(arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<net::MachineId>(i % cluster.size());
    }));
    return arr::Array(n.n1, n.n2, n.n3, b.n1, b.n2, b.n3, storages.back(),
                      arr::PageMapSpec{arr::PageMapKind::kBlocked});
  }
};

TEST(CommunicatorBlas, DotNormAxpyScaleMatchReference) {
  BlasFixture fx;
  // 37 elements over 4 devices in pages of 4: a ragged tail slab.
  const index_t N = 37;
  auto x = fx.make({N, 1, 1}, {4, 1, 1}, 4);
  auto y = fx.make({N, 1, 1}, {4, 1, 1}, 4);
  auto comm = Communicator::over(x.storage());

  Xoshiro256 rng(21);
  std::vector<double> xs(static_cast<std::size_t>(N));
  std::vector<double> ys(static_cast<std::size_t>(N));
  for (index_t i = 0; i < N; ++i) {
    xs[static_cast<std::size_t>(i)] = rng.uniform(-2.0, 2.0);
    ys[static_cast<std::size_t>(i)] = rng.uniform(-2.0, 2.0);
    x.set(i, 0, 0, xs[static_cast<std::size_t>(i)]);
    y.set(i, 0, 0, ys[static_cast<std::size_t>(i)]);
  }

  double ref_dot = 0.0, ref_nsq = 0.0;
  for (index_t i = 0; i < N; ++i) {
    ref_dot += xs[static_cast<std::size_t>(i)] *
               ys[static_cast<std::size_t>(i)];
    ref_nsq += xs[static_cast<std::size_t>(i)] *
               xs[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(comm.dot(x, y), ref_dot, 1e-9);
  EXPECT_NEAR(comm.norm2(x), std::sqrt(ref_nsq), 1e-9);

  comm.axpy(2.5, x, y);
  for (index_t i = 0; i < N; ++i)
    EXPECT_NEAR(y.get(i, 0, 0),
                ys[static_cast<std::size_t>(i)] +
                    2.5 * xs[static_cast<std::size_t>(i)],
                1e-9)
        << "i=" << i;

  comm.scale(-0.5, x);
  for (index_t i = 0; i < N; ++i)
    EXPECT_NEAR(x.get(i, 0, 0), -0.5 * xs[static_cast<std::size_t>(i)],
                1e-9)
        << "i=" << i;
  comm.destroy();
}

TEST(CommunicatorBlas, MatvecMatchesReference) {
  BlasFixture fx;
  const index_t R = 12, C = 8;
  auto a = fx.make({R, C, 1}, {3, C, 1}, 4);  // row slabs of 3 full rows
  auto x = fx.make({C, 1, 1}, {2, 1, 1}, 4);
  auto y = fx.make({R, 1, 1}, {3, 1, 1}, 4);
  auto comm = Communicator::over(a.storage());

  Xoshiro256 rng(34);
  std::vector<double> av(static_cast<std::size_t>(R * C));
  std::vector<double> xv(static_cast<std::size_t>(C));
  for (index_t r = 0; r < R; ++r)
    for (index_t c = 0; c < C; ++c) {
      const double v = rng.uniform(-1.0, 1.0);
      av[static_cast<std::size_t>(r * C + c)] = v;
      a.set(r, c, 0, v);
    }
  for (index_t c = 0; c < C; ++c) {
    xv[static_cast<std::size_t>(c)] = rng.uniform(-1.0, 1.0);
    x.set(c, 0, 0, xv[static_cast<std::size_t>(c)]);
  }

  comm.matvec(a, x, y);
  for (index_t r = 0; r < R; ++r) {
    double ref = 0.0;
    for (index_t c = 0; c < C; ++c)
      ref += av[static_cast<std::size_t>(r * C + c)] *
             xv[static_cast<std::size_t>(c)];
    EXPECT_NEAR(y.get(r, 0, 0), ref, 1e-9) << "row " << r;
  }
  comm.destroy();
}

// reuse_matrix keeps each member's A slab resident in the Peer across
// matvecs; drop_matrix_cache() must forget it when A is rewritten.
TEST(CommunicatorBlas, MatvecReuseAndInvalidation) {
  auto& hits =
      telemetry::Metrics::scope_for("coll").counter("matvec_reuse_hits");
  BlasFixture fx;
  const index_t R = 12, C = 8;
  auto a = fx.make({R, C, 1}, {3, C, 1}, 4);
  auto x = fx.make({C, 1, 1}, {2, 1, 1}, 4);
  auto y = fx.make({R, 1, 1}, {3, 1, 1}, 4);
  auto comm = Communicator::over(a.storage());

  Xoshiro256 rng(55);
  std::vector<double> av(static_cast<std::size_t>(R * C));
  std::vector<double> xv(static_cast<std::size_t>(C));
  for (auto& v : av) v = rng.uniform(-1.0, 1.0);
  for (auto& v : xv) v = rng.uniform(-1.0, 1.0);
  a.write(av, arr::Domain(0, R, 0, C, 0, 1));
  x.write(xv, arr::Domain(0, C, 0, 1, 0, 1));

  const auto check = [&] {
    for (index_t r = 0; r < R; ++r) {
      double ref = 0.0;
      for (index_t c = 0; c < C; ++c)
        ref += av[static_cast<std::size_t>(r * C + c)] *
               xv[static_cast<std::size_t>(c)];
      EXPECT_NEAR(y.get(r, 0, 0), ref, 1e-9) << "row " << r;
    }
  };

  comm.matvec(a, x, y, /*reuse_matrix=*/true);  // cold: fills the cache
  check();
  const auto hits0 = hits.value();
  comm.matvec(a, x, y, /*reuse_matrix=*/true);  // warm: slab stays put
  check();
  EXPECT_EQ(hits.value() - hits0, 4u);  // one hit per member

  // Rewrite A; the resident slabs are now stale until dropped.
  for (auto& v : av) v = rng.uniform(-1.0, 1.0);
  a.write(av, arr::Domain(0, R, 0, C, 0, 1));
  comm.drop_matrix_cache();
  comm.matvec(a, x, y, /*reuse_matrix=*/true);
  check();
  comm.destroy();
}

TEST(CommunicatorBlas, NonBlockedLayoutRejected) {
  BlasFixture fx;
  // Round-robin pages interleave devices: no contiguous slabs to own.
  const Extents3 n{16, 1, 1}, b{2, 1, 1};
  arr::BlockStorageConfig cfg;
  cfg.file_prefix = fx.tmp.file("rr");
  cfg.devices = 4;
  cfg.pages_per_device = 2;
  cfg.n1 = 2;
  auto storage = arr::create_block_storage(cfg, [&](std::int32_t i) {
    return static_cast<net::MachineId>(i % fx.cluster.size());
  });
  arr::Array v(n.n1, n.n2, n.n3, b.n1, b.n2, b.n3, storage,
               arr::PageMapSpec{arr::PageMapKind::kRoundRobin});
  auto comm = Communicator::over(storage);
  arr::Array w = v;
  EXPECT_THROW((void)comm.dot(v, w), oopp::check_error);
  comm.destroy();
  arr::destroy_block_storage(storage);
}

// Concurrent scalar collectives on one group: dot and norm2 drivers are
// reentrant and epoch-isolated, so two client threads may overlap them
// freely.  (Run under the TSan lane like every other test.)
TEST(CommunicatorBlas, ConcurrentScalarCollectives) {
  BlasFixture fx;
  const index_t N = 32;
  auto x = fx.make({N, 1, 1}, {4, 1, 1}, 4);
  auto y = fx.make({N, 1, 1}, {4, 1, 1}, 4);
  auto comm = Communicator::over(x.storage());
  double ref_dot = 0.0, ref_nsq = 0.0;
  for (index_t i = 0; i < N; ++i) {
    const double xv = 0.25 * double(i) - 3.0;
    const double yv = 1.0 - 0.125 * double(i);
    x.set(i, 0, 0, xv);
    y.set(i, 0, 0, yv);
    ref_dot += xv * yv;
    ref_nsq += xv * xv;
  }
  constexpr int kIters = 8;
  std::thread t1([&] {
    auto guard = fx.cluster.use(1);
    for (int i = 0; i < kIters; ++i)
      ASSERT_NEAR(comm.dot(x, y), ref_dot, 1e-9);
  });
  std::thread t2([&] {
    auto guard = fx.cluster.use(2);
    for (int i = 0; i < kIters; ++i)
      ASSERT_NEAR(comm.norm2(x), std::sqrt(ref_nsq), 1e-9);
  });
  t1.join();
  t2.join();
  comm.destroy();
}

// ---------------------------------------------------------------------------
// Faults: collectives over a lossy fabric
// ---------------------------------------------------------------------------

struct FaultyCommCluster {
  net::FaultyFabric* fabric = nullptr;  // owned by the cluster
  std::unique_ptr<Cluster> cluster;

  explicit FaultyCommCluster(std::size_t machines = 4) {
    Cluster::Options opts;
    opts.machines = machines;
    opts.node.checksums = true;
    // Peer-to-peer segment sends carry no per-call policy; the node-level
    // default makes them (and the drivers) ride out drops.  In-process
    // round trips are microseconds, so 150 ms attempts only fire on loss.
    opts.node.default_policy = rpc::resilient_policy(150ms, 20);
    opts.node.default_policy.backoff_initial = 1ms;
    opts.node.default_policy.backoff_max = 10ms;
    opts.fabric_factory = [&](std::size_t n) {
      auto faulty = std::make_unique<net::FaultyFabric>(
          std::make_unique<net::InProcFabric>(n),
          net::FaultyFabric::Faults{});
      fabric = faulty.get();
      return faulty;
    };
    cluster = std::make_unique<Cluster>(opts);
  }
};

// The satellite gate: at 5% message loss every collective still returns
// the *exact* result — retries and the (epoch, chan, seg, from) staging
// keep delivery effectively exactly-once across nested hops, and the
// done-epoch window drops stragglers from finished collectives.
TEST(CommunicatorFaults, ExactResultsAtFivePercentLoss) {
  FaultyCommCluster fc;
  std::vector<net::MachineId> machines;
  for (int i = 0; i < 5; ++i)
    machines.push_back(static_cast<net::MachineId>(i % 4));
  auto comm = Communicator::on_machines(machines);
  const auto data = random_chunks(5, 40, 91);
  const auto ref = reduce_reference(data, ReduceKind::kSum);
  comm.set_member_data(data);
  fc.fabric->set_faults({.drop_probability = 0.05, .seed = 101});

  for (int round = 0; round < 6; ++round) {
    // Alternate tree and ring so both wire patterns face the loss.
    comm.set_member_data(data);
    comm.allreduce_members(ReduceKind::kSum,
                           (round % 2) ? Algo::kRing : Algo::kTwoPass);
    for (const auto& got : comm.member_data()) {
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t j = 0; j < ref.size(); ++j)
        ASSERT_NEAR(got[j], ref[j], 1e-9)
            << "round " << round << " element " << j;
    }
  }
  EXPECT_GT(fc.fabric->dropped(), 0u) << "the fault injector must fire";

  fc.fabric->set_faults({});
  comm.destroy();
}

TEST(CommunicatorFaults, BroadcastExactUnderLoss) {
  FaultyCommCluster fc;
  std::vector<net::MachineId> machines;
  for (int i = 0; i < 6; ++i)
    machines.push_back(static_cast<net::MachineId>(i % 4));
  auto comm = Communicator::on_machines(machines);
  std::vector<std::vector<double>> chunks(6, std::vector<double>{0.0});
  Xoshiro256 rng(55);
  chunks[0].resize(64);
  for (auto& v : chunks[0]) v = rng.uniform(-8.0, 8.0);
  comm.set_member_data(chunks);
  fc.fabric->set_faults({.drop_probability = 0.05, .seed = 71});
  comm.bcast_members(64);
  for (const auto& v : comm.member_data()) EXPECT_EQ(v, chunks[0]);
  fc.fabric->set_faults({});
  comm.destroy();
}

/// Runs `fn` on a helper thread acting as machine 0.  A wedged collective
/// never returns and its thread cannot be joined, so past `limit` the
/// test binary exits with a failure instead of hanging.
template <class F>
void within(Cluster& cluster, std::chrono::seconds limit, F&& fn) {
  auto done = std::async(std::launch::async, [&] {
    auto guard = cluster.use(0);
    fn();
  });
  if (done.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "no return within " << limit.count() << " s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  done.get();
}

// A member whose part of the collective throws (here: its vector is twice
// as long as the others') fails the collective on the master.  The other
// members stop waiting for its segments, so the group stays usable.
TEST(CommunicatorFaults, MismatchedLengthsFailTheCollective) {
  for (const Algo algo : {Algo::kTwoPass, Algo::kRing, Algo::kHalving}) {
    CommFixture fx;
    auto comm = fx.comm(4);
    const auto data = random_chunks(4, 4, 41);
    const auto ref = reduce_reference(data, ReduceKind::kSum);
    auto bad = data;
    bad[2].resize(8, 1.0);
    comm.set_member_data(bad);
    within(fx.cluster, 10s, [&] {
      EXPECT_THROW(comm.allreduce_members(ReduceKind::kSum, algo),
                   rpc::RemoteError)
          << "algo " << static_cast<int>(algo);
    });
    within(fx.cluster, 10s, [&] {
      comm.set_member_data(data);
      EXPECT_EQ(comm.allreduce_members(ReduceKind::kSum, algo), algo);
      for (const auto& got : comm.member_data()) {
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t k = 0; k < ref.size(); ++k)
          EXPECT_NEAR(got[k], ref[k], 1e-9)
              << "algo " << static_cast<int>(algo);
      }
      comm.destroy();
    });
  }
}

}  // namespace
