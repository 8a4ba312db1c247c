// FFT tests: the serial kernels against the O(n^2) DFT oracle, known
// analytic transforms, Parseval's identity, round trips — and the
// distributed transform against the node-local 3-D FFT for many worker
// counts, extents (including non-power-of-two and degenerate splits), and
// both wiring modes (deep-copied group vs remote directory).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <atomic>
#include <thread>

#include "core/oopp.hpp"
#include "fft/fft.hpp"
#include "fft/fft3d.hpp"
#include "array/block_storage.hpp"
#include "fft/fft_worker.hpp"
#include "fft/out_of_core.hpp"
#include "fft/plan.hpp"
#include "util/prng.hpp"

using oopp::Cluster;
using oopp::Extents3;
using oopp::index_t;
namespace fft = oopp::fft;
using fft::cplx;

namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  oopp::Xoshiro256 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return v;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(Fft1D, MatchesOracleForPow2) {
  for (std::size_t n : {1u, 2u, 4u, 8u, 64u, 256u}) {
    auto x = random_signal(n, n);
    auto expect = fft::dft_reference(x, -1);
    fft::fft_inplace(x, -1);
    EXPECT_LT(max_err(x, expect), 1e-9 * double(n ? n : 1)) << "n=" << n;
  }
}

TEST(Fft1D, MatchesOracleForArbitraryLengths) {
  for (std::size_t n : {3u, 5u, 6u, 7u, 12u, 15u, 17u, 100u, 243u}) {
    auto x = random_signal(n, 1000 + n);
    auto expect = fft::dft_reference(x, -1);
    fft::fft_inplace(x, -1);
    EXPECT_LT(max_err(x, expect), 1e-8) << "n=" << n;
  }
}

TEST(Fft1D, InverseMatchesOracle) {
  auto x = random_signal(48, 7);
  auto expect = fft::dft_reference(x, +1);
  fft::fft_inplace(x, +1);
  EXPECT_LT(max_err(x, expect), 1e-9);
}

TEST(Fft1D, RoundTripIsIdentity) {
  for (std::size_t n : {8u, 13u, 128u}) {
    auto x = random_signal(n, 2 * n);
    auto orig = x;
    fft::fft_inplace(x, -1);
    fft::fft_inplace(x, +1);
    fft::scale(x, 1.0 / double(n));
    EXPECT_LT(max_err(x, orig), 1e-10) << "n=" << n;
  }
}

TEST(Fft1D, DeltaTransformsToConstant) {
  std::vector<cplx> x(16, cplx{});
  x[0] = 1.0;
  fft::fft_inplace(x, -1);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cplx(1.0, 0.0)), 0.0, 1e-12);
}

TEST(Fft1D, PureToneTransformsToSpike) {
  constexpr std::size_t n = 64;
  constexpr std::size_t k = 5;
  std::vector<cplx> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2.0 * std::numbers::pi * double(k) * double(j) / n;
    x[j] = cplx(std::cos(ang), std::sin(ang));
  }
  fft::fft_inplace(x, -1);
  for (std::size_t j = 0; j < n; ++j) {
    const double expect = (j == k) ? double(n) : 0.0;
    EXPECT_NEAR(std::abs(x[j]), expect, 1e-9) << "bin " << j;
  }
}

TEST(Fft1D, ParsevalHolds) {
  constexpr std::size_t n = 128;
  auto x = random_signal(n, 3);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  fft::fft_inplace(x, -1);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-6 * time_energy * n);
}

TEST(Fft1D, LinearityHolds) {
  constexpr std::size_t n = 32;
  auto x = random_signal(n, 4);
  auto y = random_signal(n, 5);
  std::vector<cplx> z(n);
  const cplx a(2.0, -1.0), b(-0.5, 3.0);
  for (std::size_t i = 0; i < n; ++i) z[i] = a * x[i] + b * y[i];
  fft::fft_inplace(x, -1);
  fft::fft_inplace(y, -1);
  fft::fft_inplace(z, -1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(z[i] - (a * x[i] + b * y[i])), 0.0, 1e-9);
}

TEST(Fft1D, RejectsBadArguments) {
  std::vector<cplx> x(8);
  EXPECT_THROW(fft::fft_inplace(x, 0), oopp::check_error);
  std::vector<cplx> y(6);
  EXPECT_THROW(fft::fft_pow2_inplace(y, -1), oopp::check_error);
  std::vector<cplx> empty;
  EXPECT_THROW(fft::fft_inplace(empty, -1), oopp::check_error);
}

TEST(FftPlans, PlannedMatchesUnplannedAndOracle) {
  for (std::size_t n : {2u, 8u, 15u, 64u, 100u}) {
    for (int sign : {-1, +1}) {
      auto x = random_signal(n, 31 * n + (sign > 0));
      auto direct = x;
      auto planned = x;
      fft::fft_inplace_unplanned(direct, sign);
      fft::plan_for(static_cast<index_t>(n), sign)->execute(planned);
      EXPECT_LT(max_err(direct, planned), 1e-10) << "n=" << n;
      auto oracle = fft::dft_reference(x, sign);
      EXPECT_LT(max_err(planned, oracle), 1e-8) << "n=" << n;
    }
  }
}

TEST(FftPlans, CacheSharesPlans) {
  auto a = fft::plan_for(256, -1);
  auto b = fft::plan_for(256, -1);
  EXPECT_EQ(a.get(), b.get());
  auto c = fft::plan_for(256, +1);
  EXPECT_NE(a.get(), c.get());
  EXPECT_GE(fft::plan_cache_size(), 2u);
}

TEST(FftPlans, PlanReusableManyTimes) {
  auto plan = fft::plan_for(64, -1);
  auto x = random_signal(64, 5);
  auto expect = x;
  fft::fft_inplace_unplanned(expect, -1);
  for (int rep = 0; rep < 3; ++rep) {
    auto y = x;
    plan->execute(y);
    EXPECT_LT(max_err(y, expect), 1e-12);
  }
}

TEST(FftPlans, ConcurrentPlanForIsSafe) {
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto x = random_signal(128, 900 + t);
      auto expect = x;
      fft::fft_inplace_unplanned(expect, -1);
      fft::fft_inplace(x, -1);
      if (max_err(x, expect) > 1e-10) errors.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

// The batched kernel must give each column exactly (==) what execute()
// gives it copied out contiguously: radix-2 lengths with blocks below, at
// and above kColumnBlock, Bluestein lengths through their column copy.
// The gaps between columns and between planes must stay untouched.
TEST(FftColumns, MatchContiguousTransformsBitForBit) {
  constexpr index_t kBlock = fft::Plan1D::kColumnBlock;
  for (index_t n : {2, 8, 64, 6, 15}) {
    for (int sign : {-1, +1}) {
      const auto plan = fft::plan_for(n, sign);
      for (index_t count : {index_t{1}, kBlock - 1, kBlock, kBlock + 1,
                            2 * kBlock + 3}) {
        const index_t stride = count + 3;
        const index_t planes = 2;
        const index_t plane_stride = n * stride + 5;
        const auto before =
            random_signal(static_cast<std::size_t>(planes * plane_stride),
                          1000 * static_cast<std::uint64_t>(n) +
                              static_cast<std::uint64_t>(count + sign));
        auto got = before;
        plan->execute_columns(got.data(), planes, plane_stride, count,
                              stride);

        auto expect = before;
        std::vector<cplx> column(static_cast<std::size_t>(n));
        for (index_t p = 0; p < planes; ++p)
          for (index_t c = 0; c < count; ++c) {
            cplx* base = expect.data() + p * plane_stride + c;
            for (index_t j = 0; j < n; ++j) column[j] = base[j * stride];
            plan->execute(column);
            for (index_t j = 0; j < n; ++j) base[j * stride] = column[j];
          }

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < got.size(); ++i)
          mismatches += got[i] != expect[i];
        EXPECT_EQ(mismatches, 0u)
            << "n=" << n << " sign=" << sign << " count=" << count;
      }
    }
  }
}

TEST(FftColumns, RejectsOverlappingColumns) {
  std::vector<cplx> x(64);
  EXPECT_THROW(fft::plan_for(8, -1)->execute_columns(x.data(), 1, 0, 4, 3),
               oopp::check_error);
}

// {4,3,5} sends two axes through Bluestein.  {8,16,4} is all radix-2 with
// an axis-1 block narrower than kColumnBlock (N3 = 4 columns) and an
// axis-0 sweep of exactly four blocks (N2*N3 = 64 pencils).
TEST(Fft3D, MatchesOracleSmall) {
  for (const Extents3& e : {Extents3{4, 3, 5}, Extents3{8, 16, 4}}) {
    auto x = random_signal(static_cast<std::size_t>(e.volume()), 11);
    auto expect = fft::dft3d_reference(x, e, -1);
    fft::fft3d_inplace(x, e, -1);
    EXPECT_LT(max_err(x, expect), 1e-8)
        << e.n1 << "x" << e.n2 << "x" << e.n3;
  }
}

TEST(Fft3D, RoundTripIsIdentity) {
  const Extents3 e{8, 4, 6};
  auto x = random_signal(static_cast<std::size_t>(e.volume()), 12);
  auto orig = x;
  fft::fft3d_inplace(x, e, -1);
  fft::fft3d_inplace(x, e, +1);
  fft::scale(x, 1.0 / double(e.volume()));
  EXPECT_LT(max_err(x, orig), 1e-10);
}

TEST(FftSplit, RowSplitPartitions) {
  for (index_t n : {1, 5, 8, 17}) {
    for (int p : {1, 2, 3, 8}) {
      index_t covered = 0;
      for (int w = 0; w < p; ++w) {
        const auto s = fft::split_rows(n, p, w);
        EXPECT_GE(s.count(), 0);
        EXPECT_EQ(s.lo, covered);
        covered = s.hi;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

// ---------------------------------------------------------------------------
// Distributed transform
// ---------------------------------------------------------------------------

struct DistCase {
  Extents3 extents;
  int workers;
  bool use_directory;
  // The test's name is a dump of these bytes; an explicit zeroed tail keeps
  // uninitialised padding (which varies from run to run) out of it.
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(DistCase) == 32, "DistCase has padding");

class DistributedFft : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedFft, MatchesLocal3DFft) {
  const auto& c = GetParam();
  Cluster cluster(4);
  fft::DistributedFFT3D dfft(
      c.extents, c.workers,
      [&](int w) { return static_cast<oopp::net::MachineId>(w %
                                                            cluster.size()); },
      fft::DistributedFFT3D::Options{.use_directory = c.use_directory,
                                     .restore_layout = true});

  auto x = random_signal(static_cast<std::size_t>(c.extents.volume()),
                         c.extents.volume());
  auto expect = x;
  fft::fft3d_inplace(expect, c.extents, -1);

  dfft.scatter(x);
  dfft.forward();
  auto got = dfft.gather();
  EXPECT_LT(max_err(got, expect), 1e-8);

  // Inverse brings the signal back.
  dfft.inverse();
  auto back = dfft.gather();
  EXPECT_LT(max_err(back, x), 1e-9);
  dfft.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistributedFft,
    ::testing::Values(
        DistCase{{8, 8, 8}, 1, false},    // single worker degenerate
        DistCase{{8, 8, 8}, 2, false},
        DistCase{{8, 8, 8}, 4, false},
        DistCase{{16, 8, 4}, 4, false},   // anisotropic
        DistCase{{7, 9, 5}, 3, false},    // non-pow2, uneven splits
        DistCase{{5, 8, 8}, 8, false},    // more workers than rows
        DistCase{{8, 8, 8}, 4, true},     // directory (shallow) wiring
        DistCase{{6, 10, 3}, 5, true}));

// §4's `transform(sign, Array* a)`: the FFT group reads its input from,
// and writes its output to, a distributed Array — workers pull their own
// slabs from the storage processes.
TEST(DistributedFftMisc, TransformReadsAndWritesDistributedArray) {
  namespace arr = oopp::array;
  Cluster cluster(4);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-fft-array-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  const Extents3 e{8, 8, 8};
  const Extents3 b{4, 4, 4};
  const Extents3 grid{2, 2, 2};
  const arr::PageMapSpec spec{arr::PageMapKind::kRoundRobin};

  auto make_array = [&](const std::string& tag) {
    arr::BlockStorageConfig cfg;
    cfg.file_prefix = (dir / tag).string();
    cfg.devices = 4;
    cfg.pages_per_device =
        static_cast<std::int32_t>(spec.pages_per_device(grid, 4));
    cfg.n1 = 4;
    cfg.n2 = 4;
    cfg.n3 = 4;
    auto storage = arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<oopp::net::MachineId>(i % cluster.size());
    });
    return arr::Array(e.n1, e.n2, e.n3, b.n1, b.n2, b.n3, storage, spec);
  };
  auto re = make_array("re");
  auto im = make_array("im");

  // Fill the distributed arrays with a random field.
  oopp::Xoshiro256 rng(123);
  const auto whole = arr::Domain::whole(e);
  std::vector<double> re_buf(static_cast<std::size_t>(e.volume()));
  std::vector<double> im_buf(re_buf.size());
  for (auto& x : re_buf) x = rng.uniform(-1, 1);
  for (auto& x : im_buf) x = rng.uniform(-1, 1);
  re.write(re_buf, whole);
  im.write(im_buf, whole);

  // Expected result via the node-local transform.
  std::vector<cplx> expect(re_buf.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    expect[i] = cplx(re_buf[i], im_buf[i]);
  fft::fft3d_inplace(expect, e, -1);

  // The paper's loop: the group transforms "a", pulling slabs itself.
  fft::DistributedFFT3D dfft(e, 4, [&](int w) {
    return static_cast<oopp::net::MachineId>(w % cluster.size());
  });
  dfft.scatter_from(re, im);
  dfft.forward();
  dfft.gather_to(re, im);

  const auto re_out = re.read(whole);
  const auto im_out = im.read(whole);
  double err = 0.0;
  for (std::size_t i = 0; i < expect.size(); ++i)
    err = std::max(err,
                   std::abs(cplx(re_out[i], im_out[i]) - expect[i]));
  EXPECT_LT(err, 1e-9);

  dfft.shutdown();
  std::filesystem::remove_all(dir);
}

// §1's motivating computation: the FFT of an array that lives on disk and
// never fits in the client's memory budget.  An 8x6x10 field on 4x3x5
// pages; the parameter is the client budget in bytes.
class OutOfCoreFft : public ::testing::TestWithParam<std::size_t> {
 protected:
  static constexpr Extents3 e{8, 6, 10};

  OutOfCoreFft()
      : dir_(std::filesystem::temp_directory_path() /
             ("oopp-ooc-" + std::to_string(::getpid()) + "-" +
              std::to_string(GetParam()))) {
    std::filesystem::create_directories(dir_);
  }
  ~OutOfCoreFft() override { std::filesystem::remove_all(dir_); }

  oopp::array::Array make_array(const std::string& tag) {
    namespace arr = oopp::array;
    const Extents3 b{4, 3, 5};
    const Extents3 grid{2, 2, 2};
    const arr::PageMapSpec spec{arr::PageMapKind::kRoundRobin};
    arr::BlockStorageConfig cfg;
    cfg.file_prefix = (dir_ / tag).string();
    cfg.devices = 4;
    cfg.pages_per_device =
        static_cast<std::int32_t>(spec.pages_per_device(grid, 4));
    cfg.n1 = static_cast<int>(b.n1);
    cfg.n2 = static_cast<int>(b.n2);
    cfg.n3 = static_cast<int>(b.n3);
    auto storage = arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<oopp::net::MachineId>(i % cluster_.size());
    });
    return arr::Array(e.n1, e.n2, e.n3, b.n1, b.n2, b.n3, storage, spec);
  }

 private:
  Cluster cluster_{4};
  std::filesystem::path dir_;
};

TEST_P(OutOfCoreFft, MatchesInMemoryTransform) {
  namespace arr = oopp::array;
  auto re = make_array("re");
  auto im = make_array("im");

  oopp::Xoshiro256 rng(GetParam());
  const auto whole = arr::Domain::whole(e);
  std::vector<double> re0(static_cast<std::size_t>(e.volume()));
  std::vector<double> im0(re0.size());
  for (auto& x : re0) x = rng.uniform(-1, 1);
  for (auto& x : im0) x = rng.uniform(-1, 1);
  re.write(re0, whole);
  im.write(im0, whole);

  std::vector<cplx> expect(re0.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    expect[i] = cplx(re0[i], im0[i]);
  fft::fft3d_inplace(expect, e, -1);

  // The budget parameter forces 1..many slabs per pass.
  const auto stats = fft::fft3d_out_of_core(
      re, im, -1, fft::OutOfCoreOptions{.max_bytes = GetParam()});
  // Every element moves exactly twice per pass regardless of budget.
  EXPECT_EQ(stats.elements_moved(),
            static_cast<std::uint64_t>(4 * e.volume()));
  EXPECT_EQ(stats.pass1.elements_read, stats.pass1.elements_written);
  EXPECT_EQ(stats.pass2.elements_read, stats.pass2.elements_written);

  const auto re_out = re.read(whole);
  const auto im_out = im.read(whole);
  double err = 0.0;
  for (std::size_t i = 0; i < expect.size(); ++i)
    err = std::max(err,
                   std::abs(cplx(re_out[i], im_out[i]) - expect[i]));
  EXPECT_LT(err, 1e-9);

  // Inverse out-of-core round trip restores the input.
  fft::fft3d_out_of_core(re, im, +1,
                         fft::OutOfCoreOptions{.max_bytes = GetParam()});
  re.scale(1.0 / double(e.volume()), whole);
  im.scale(1.0 / double(e.volume()), whole);
  const auto re_back = re.read(whole);
  double rt = 0.0;
  for (std::size_t i = 0; i < re_back.size(); ++i)
    rt = std::max(rt, std::abs(re_back[i] - re0[i]));
  EXPECT_LT(rt, 1e-10);
}

// The out-of-core transform computes exactly the in-memory one, in both
// modes.  Budgets 1 and 2000 give one-row slabs over partially covered
// pages, so the read-modify-write path runs too.
TEST_P(OutOfCoreFft, BitIdenticalToInMemoryTransform) {
  namespace arr = oopp::array;
  oopp::Xoshiro256 rng(GetParam() + 7);
  const auto whole = arr::Domain::whole(e);
  std::vector<double> re0(static_cast<std::size_t>(e.volume()));
  std::vector<double> im0(re0.size());
  for (auto& x : re0) x = rng.uniform(-1, 1);
  for (auto& x : im0) x = rng.uniform(-1, 1);
  std::vector<cplx> expect(re0.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    expect[i] = cplx(re0[i], im0[i]);
  fft::fft3d_inplace(expect, e, -1);

  for (const bool pipeline : {true, false}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "serial");
    const std::string mode = pipeline ? "p" : "s";
    auto re = make_array("re" + mode);
    auto im = make_array("im" + mode);
    re.write(re0, whole);
    im.write(im0, whole);
    fft::fft3d_out_of_core(
        re, im, -1,
        fft::OutOfCoreOptions{.max_bytes = GetParam(), .pipeline = pipeline});
    const auto re_out = re.read(whole);
    const auto im_out = im.read(whole);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < expect.size(); ++i)
      if (re_out[i] != expect[i].real() || im_out[i] != expect[i].imag())
        ++mismatches;
    EXPECT_EQ(mismatches, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, OutOfCoreFft,
    ::testing::Values(std::size_t{1},          // pathological: 1 row/col
                      std::size_t{2000},       // a couple of rows
                      std::size_t{16'000},     // a few slabs
                      std::size_t{1} << 24));  // everything in one slab

TEST(DistributedFftMisc, WorkerStateChecks) {
  Cluster cluster(2);
  auto w = cluster.make_remote<fft::FFTWorker>(1, 0);
  // transform without group/slab must fail loudly across the wire.
  EXPECT_THROW(w.call<&fft::FFTWorker::transform>(-1, true),
               oopp::rpc::RemoteError);
  w.destroy();
}

TEST(DistributedFftMisc, SlabSizeValidated) {
  Cluster cluster(2);
  fft::DistributedFFT3D dfft({4, 4, 4}, 2,
                             [](int) { return oopp::net::MachineId{1}; });
  EXPECT_THROW(dfft.scatter(std::vector<cplx>(7)), oopp::check_error);
  dfft.shutdown();
}

TEST(DistributedFftMisc, TransposedStateGuard) {
  Cluster cluster(2);
  fft::DistributedFFT3D dfft(
      {4, 4, 4}, 2, [](int) { return oopp::net::MachineId{0}; },
      fft::DistributedFFT3D::Options{.use_directory = false,
                                     .restore_layout = false});
  dfft.scatter(random_signal(64, 77));
  dfft.transform(-1);
  // A second transform on axis-transposed data is a usage error.
  EXPECT_THROW(dfft.transform(-1), oopp::rpc::RemoteError);
  dfft.shutdown();
}

TEST(DistributedFftMisc, GroupWiringQueries) {
  Cluster cluster(3);
  fft::DistributedFFT3D dfft({6, 6, 6}, 3, [&](int w) {
    return static_cast<oopp::net::MachineId>(w % cluster.size());
  });
  const auto& group = dfft.workers();
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(group[w].call<&fft::FFTWorker::id>(), w);
    EXPECT_EQ(group[w].call<&fft::FFTWorker::group_size>(), 3);
    EXPECT_EQ(group[w].call<&fft::FFTWorker::rows_lo>(),
              fft::split_rows(6, 3, w).lo);
  }
  dfft.shutdown();
}

}  // namespace
