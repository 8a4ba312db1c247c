// Distributed Array tests: Domain algebra, PageMap layouts, and the Array
// class itself — read/write/sum over aligned and unaligned domains, both
// I/O modes, multiple client processes, and persistence.  Includes
// property tests comparing the distributed array against an in-memory
// reference model under random domain operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <thread>

#include "array/array.hpp"
#include "array/block_storage.hpp"
#include "array/copy.hpp"
#include "array/domain.hpp"
#include "array/page_map.hpp"
#include "core/oopp.hpp"
#include "telemetry/metrics.hpp"
#include "util/prng.hpp"

using oopp::Cluster;
using oopp::Extents3;
using oopp::index_t;
using oopp::remote_ptr;
namespace arr = oopp::array;
namespace fs = std::filesystem;

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("oopp-arr-" + std::to_string(::getpid()) + "-" +
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
  static inline int counter_ = 0;
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

TEST(Domain, BasicProperties) {
  arr::Domain d(1, 4, 0, 2, 5, 10);
  EXPECT_EQ(d.extent(0), 3);
  EXPECT_EQ(d.extent(1), 2);
  EXPECT_EQ(d.extent(2), 5);
  EXPECT_EQ(d.volume(), 30);
  EXPECT_FALSE(d.empty());
  EXPECT_TRUE(d.contains(1, 0, 5));
  EXPECT_TRUE(d.contains(3, 1, 9));
  EXPECT_FALSE(d.contains(4, 0, 5));
  EXPECT_FALSE(d.contains(1, 0, 10));
}

TEST(Domain, EmptyAndWhole) {
  arr::Domain e;
  EXPECT_TRUE(e.empty());
  auto w = arr::Domain::whole({4, 5, 6});
  EXPECT_EQ(w.volume(), 120);
  EXPECT_TRUE(w.contains(e));
}

TEST(Domain, InvalidBoundsThrow) {
  EXPECT_THROW(arr::Domain(3, 2, 0, 1, 0, 1), oopp::check_error);
}

TEST(Domain, Intersection) {
  arr::Domain a(0, 4, 0, 4, 0, 4);
  arr::Domain b(2, 6, 2, 6, 2, 6);
  auto i = a.intersect(b);
  EXPECT_EQ(i, arr::Domain(2, 4, 2, 4, 2, 4));
  arr::Domain far(10, 12, 0, 4, 0, 4);
  EXPECT_TRUE(a.intersect(far).empty());
  EXPECT_EQ(a.intersect(a), a);
}

TEST(Domain, LocalOffsetRowMajor) {
  arr::Domain d(2, 4, 3, 6, 1, 5);  // extents 2 x 3 x 4
  EXPECT_EQ(d.local_offset(2, 3, 1), 0);
  EXPECT_EQ(d.local_offset(2, 3, 2), 1);
  EXPECT_EQ(d.local_offset(2, 4, 1), 4);
  EXPECT_EQ(d.local_offset(3, 5, 4), 23);
}

TEST(Domain, SerializationRoundTrip) {
  arr::Domain d(1, 2, 3, 4, 5, 6);
  auto bytes = oopp::serial::to_bytes(d);
  EXPECT_EQ(oopp::serial::from_bytes<arr::Domain>(bytes), d);
}

// ---------------------------------------------------------------------------
// PageMap
// ---------------------------------------------------------------------------

TEST(PageMap, RoundRobinSpreadsAdjacentPages) {
  arr::RoundRobinPageMap map({2, 2, 2}, 4);
  std::set<std::int32_t> devices;
  for (index_t p = 0; p < 8; ++p) {
    auto [i1, i2, i3] = oopp::delinearize({2, 2, 2}, p);
    devices.insert(map.physical_page_address(i1, i2, i3).device_id);
  }
  EXPECT_EQ(devices.size(), 4u);
}

TEST(PageMap, BlockedKeepsRunsTogether) {
  arr::BlockedPageMap map({4, 2, 1}, 2);  // 8 pages, 2 devices, chunk 4
  for (index_t p = 0; p < 8; ++p) {
    auto [i1, i2, i3] = oopp::delinearize({4, 2, 1}, p);
    const auto a = map.physical_page_address(i1, i2, i3);
    EXPECT_EQ(a.device_id, p / 4);
    EXPECT_EQ(a.index, p % 4);
  }
}

TEST(PageMap, SingleDevice) {
  arr::SingleDevicePageMap map({3, 3, 3});
  for (index_t p = 0; p < 27; ++p) {
    auto [i1, i2, i3] = oopp::delinearize({3, 3, 3}, p);
    const auto a = map.physical_page_address(i1, i2, i3);
    EXPECT_EQ(a.device_id, 0);
    EXPECT_EQ(a.index, p);
  }
}

/// Every built-in map must be a bijection from the page grid into
/// device slots — no two logical pages may share a physical slot.
class PageMapBijection
    : public ::testing::TestWithParam<std::tuple<arr::PageMapKind, int>> {};

TEST_P(PageMapBijection, NoCollisionsAndInRange) {
  const auto [kind, devices] = GetParam();
  const Extents3 grid{3, 4, 5};
  const auto pages = grid.volume();
  const auto per_device = oopp::ceil_div(pages, devices);
  auto map = arr::PageMapSpec{kind}.instantiate(grid, devices);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (index_t p = 0; p < pages; ++p) {
    auto [i1, i2, i3] = oopp::delinearize(grid, p);
    const auto a = map->physical_page_address(i1, i2, i3);
    EXPECT_GE(a.device_id, 0);
    if (kind != arr::PageMapKind::kSingleDevice) {
      EXPECT_LT(a.device_id, devices);
    }
    EXPECT_GE(a.index, 0);
    if (kind != arr::PageMapKind::kSingleDevice) {
      EXPECT_LE(a.index, per_device);
    }
    EXPECT_TRUE(seen.insert({a.device_id, a.index}).second)
        << "collision at logical page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PageMapBijection,
    ::testing::Combine(::testing::Values(arr::PageMapKind::kSingleDevice,
                                         arr::PageMapKind::kRoundRobin,
                                         arr::PageMapKind::kBlocked,
                                         arr::PageMapKind::kBlockCyclic),
                       ::testing::Values(1, 2, 3, 7, 16)));

TEST(PageMap, BlockCyclicDealsBlocksRoundRobin) {
  // 10 pages, 2 devices, blocks of 3: blocks 0,2 -> dev 0; 1,3 -> dev 1.
  arr::BlockCyclicPageMap map({10, 1, 1}, 2, 3);
  const std::array<std::pair<int, int>, 10> expect{{{0, 0},
                                                    {0, 1},
                                                    {0, 2},
                                                    {1, 0},
                                                    {1, 1},
                                                    {1, 2},
                                                    {0, 3},
                                                    {0, 4},
                                                    {0, 5},
                                                    {1, 3}}};
  for (index_t p = 0; p < 10; ++p) {
    const auto a = map.physical_page_address(p, 0, 0);
    EXPECT_EQ(a.device_id, expect[static_cast<std::size_t>(p)].first) << p;
    EXPECT_EQ(a.index, expect[static_cast<std::size_t>(p)].second) << p;
  }
}

TEST(PageMap, BlockCyclicBijectionWithWideBlocks) {
  const Extents3 grid{3, 4, 5};  // 60 pages
  for (const std::int32_t block : {2, 4, 7}) {
    for (const std::int32_t devices : {2, 3, 16}) {
      const arr::PageMapSpec spec{arr::PageMapKind::kBlockCyclic, block};
      auto map = spec.instantiate(grid, devices);
      std::set<std::pair<std::int32_t, std::int32_t>> seen;
      for (index_t p = 0; p < grid.volume(); ++p) {
        auto [i1, i2, i3] = oopp::delinearize(grid, p);
        const auto a = map->physical_page_address(i1, i2, i3);
        EXPECT_GE(a.device_id, 0);
        EXPECT_LT(a.device_id, devices);
        EXPECT_GE(a.index, 0);
        EXPECT_LT(a.index, spec.pages_on_device(grid, devices, a.device_id));
        EXPECT_TRUE(seen.insert({a.device_id, a.index}).second)
            << "collision at page " << p << " (block " << block << ", D "
            << devices << ")";
      }
    }
  }
}

TEST(PageMap, PagesOnDeviceMatchesActualPlacement) {
  const Extents3 grid{3, 4, 5};  // 60 pages
  const std::array<arr::PageMapSpec, 4> specs{
      arr::PageMapSpec{arr::PageMapKind::kSingleDevice},
      arr::PageMapSpec{arr::PageMapKind::kRoundRobin},
      arr::PageMapSpec{arr::PageMapKind::kBlocked},
      arr::PageMapSpec{arr::PageMapKind::kBlockCyclic, 4}};
  for (const auto& spec : specs) {
    for (const std::int32_t devices : {1, 2, 3, 7, 16, 100}) {
      auto map = spec.instantiate(grid, devices);
      std::vector<index_t> count(100, 0);
      for (index_t p = 0; p < grid.volume(); ++p) {
        auto [i1, i2, i3] = oopp::delinearize(grid, p);
        ++count[static_cast<std::size_t>(
            map->physical_page_address(i1, i2, i3).device_id)];
      }
      for (std::int32_t d = 0; d < devices; ++d)
        EXPECT_EQ(spec.pages_on_device(grid, devices, d),
                  count[static_cast<std::size_t>(d)])
            << spec.name() << " D=" << devices << " d=" << d;
    }
  }
}

TEST(PageMap, DegenerateSpecsThrowTypedErrors) {
  const arr::PageMapSpec rr{arr::PageMapKind::kRoundRobin};
  // Zero-volume page grid.
  EXPECT_THROW((void)rr.instantiate({0, 2, 2}, 2), oopp::Error);
  // devices <= 0 reaching a spec (e.g. via a hand-built remote argument).
  EXPECT_THROW((void)rr.instantiate({2, 2, 2}, 0), oopp::Error);
  EXPECT_THROW((void)rr.instantiate({2, 2, 2}, -3), oopp::Error);
  EXPECT_THROW((void)rr.pages_per_device({2, 2, 2}, 0), oopp::Error);
  EXPECT_THROW((void)rr.pages_on_device({2, 2, 2}, 0, 0), oopp::Error);
  // Non-positive block length for the block-cyclic layout.
  const arr::PageMapSpec bc{arr::PageMapKind::kBlockCyclic, 0};
  EXPECT_THROW((void)bc.instantiate({2, 2, 2}, 2), oopp::Error);
  // A kind byte that names no layout (corrupt wire data).
  arr::PageMapSpec bad;
  bad.kind = static_cast<arr::PageMapKind>(99);
  EXPECT_THROW((void)bad.instantiate({2, 2, 2}, 2), oopp::Error);
  EXPECT_THROW((void)bad.pages_per_device({2, 2, 2}, 2), oopp::Error);
}

// ---------------------------------------------------------------------------
// Array
// ---------------------------------------------------------------------------

struct ArrayFixture {
  TempDir tmp;
  Cluster cluster{4};
  arr::BlockStorage storage;
  int arrays_made = 0;

  arr::Array make(Extents3 n, Extents3 b, int devices,
                  arr::PageMapKind kind = arr::PageMapKind::kRoundRobin,
                  arr::IoMode io = arr::IoMode::kParallel) {
    const Extents3 grid{oopp::ceil_div(n.n1, b.n1),
                        oopp::ceil_div(n.n2, b.n2),
                        oopp::ceil_div(n.n3, b.n3)};
    arr::BlockStorageConfig cfg;
    // Unique prefix per array: each device set owns its backing files.
    cfg.file_prefix = tmp.file("dev" + std::to_string(arrays_made++));
    cfg.devices = devices;
    cfg.pages_per_device = static_cast<std::int32_t>(
        arr::PageMapSpec{kind}.pages_per_device(grid, devices));
    cfg.n1 = static_cast<int>(b.n1);
    cfg.n2 = static_cast<int>(b.n2);
    cfg.n3 = static_cast<int>(b.n3);
    storage = arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<oopp::net::MachineId>(i % cluster.size());
    });
    return arr::Array(n.n1, n.n2, n.n3, b.n1, b.n2, b.n3, storage,
                      arr::PageMapSpec{kind}, io);
  }
};

std::vector<double> iota_buffer(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Array, WholeArrayWriteReadRoundTrip) {
  ArrayFixture fx;
  auto a = fx.make({8, 8, 8}, {4, 4, 4}, 3);
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);
  EXPECT_EQ(a.read(whole), buf);
}

TEST(Array, UnalignedDomainRoundTrip) {
  ArrayFixture fx;
  auto a = fx.make({10, 9, 7}, {4, 4, 4}, 4);  // grid 3x3x2, clipped edges
  const arr::Domain d(1, 9, 2, 7, 3, 7);
  const auto buf = iota_buffer(d.volume());
  a.write(buf, d);
  EXPECT_EQ(a.read(d), buf);
}

TEST(Array, PartialWritePreservesSurroundings) {
  ArrayFixture fx;
  auto a = fx.make({8, 8, 8}, {4, 4, 4}, 2);
  const auto whole = arr::Domain::whole({8, 8, 8});
  std::vector<double> base(static_cast<std::size_t>(whole.volume()), 1.0);
  a.write(base, whole);

  const arr::Domain inner(2, 5, 2, 5, 2, 5);
  std::vector<double> patch(static_cast<std::size_t>(inner.volume()), 9.0);
  a.write(patch, inner);

  const auto back = a.read(whole);
  const Extents3 e{8, 8, 8};
  for (index_t i1 = 0; i1 < 8; ++i1)
    for (index_t i2 = 0; i2 < 8; ++i2)
      for (index_t i3 = 0; i3 < 8; ++i3) {
        const double expect = inner.contains(i1, i2, i3) ? 9.0 : 1.0;
        EXPECT_DOUBLE_EQ(back[e.linear(i1, i2, i3)], expect)
            << i1 << "," << i2 << "," << i3;
      }
}

// Pages that span whole rows of the array move in merged runs: one copy
// per page when the domain spans the last two axes too, one per plane
// when it spans only the last, one per row otherwise.  Every case must
// place the same elements as the reference model.
TEST(Array, WholeRowPagesAssembleInMergedRuns) {
  ArrayFixture fx;
  const Extents3 n{6, 4, 5};
  auto a = fx.make(n, {2, 4, 5}, 2);
  std::vector<double> model(static_cast<std::size_t>(n.volume()), 0.0);
  oopp::Xoshiro256 rng(5);
  for (const arr::Domain& d :
       {arr::Domain::whole(n), arr::Domain(1, 6, 0, 4, 0, 5),
        arr::Domain(0, 6, 1, 3, 0, 5), arr::Domain(1, 5, 0, 4, 1, 4)}) {
    std::vector<double> buf(static_cast<std::size_t>(d.volume()));
    for (auto& x : buf) x = rng.uniform(-1.0, 1.0);
    a.write(buf, d);
    for (index_t i1 = d.lo(0); i1 < d.hi(0); ++i1)
      for (index_t i2 = d.lo(1); i2 < d.hi(1); ++i2)
        for (index_t i3 = d.lo(2); i3 < d.hi(2); ++i3)
          model[n.linear(i1, i2, i3)] = buf[d.local_offset(i1, i2, i3)];
    EXPECT_EQ(a.read(d), buf);
    EXPECT_EQ(a.read(arr::Domain::whole(n)), model);
  }
}

TEST(Array, SumMatchesLocalReduction) {
  ArrayFixture fx;
  auto a = fx.make({6, 6, 6}, {4, 4, 4}, 3);
  const auto whole = arr::Domain::whole({6, 6, 6});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);
  const double expect = std::accumulate(buf.begin(), buf.end(), 0.0);
  EXPECT_DOUBLE_EQ(a.sum(whole), expect);
  EXPECT_DOUBLE_EQ(a.sum_all(), expect);

  const arr::Domain part(1, 5, 0, 3, 2, 6);
  const auto sub = a.read(part);
  EXPECT_DOUBLE_EQ(a.sum(part),
                   std::accumulate(sub.begin(), sub.end(), 0.0));
}

TEST(Array, SequentialAndParallelIoAgree) {
  ArrayFixture fx;
  auto a = fx.make({8, 8, 8}, {2, 4, 4}, 4);
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  a.set_io_mode(arr::IoMode::kSequential);
  a.write(buf, whole);
  const auto seq = a.read(whole);
  a.set_io_mode(arr::IoMode::kParallel);
  const auto par = a.read(whole);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, buf);
}

TEST(Array, GetSetSingleElements) {
  ArrayFixture fx;
  auto a = fx.make({5, 5, 5}, {2, 2, 2}, 2);
  a.set(4, 4, 4, 7.5);
  a.set(0, 0, 0, -1.0);
  EXPECT_DOUBLE_EQ(a.get(4, 4, 4), 7.5);
  EXPECT_DOUBLE_EQ(a.get(0, 0, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.get(2, 2, 2), 0.0);
}

TEST(Array, DomainOutOfBoundsRejected) {
  ArrayFixture fx;
  auto a = fx.make({4, 4, 4}, {2, 2, 2}, 2);
  EXPECT_THROW(a.read(arr::Domain(0, 5, 0, 4, 0, 4)), oopp::check_error);
  EXPECT_THROW(a.write({1.0}, arr::Domain(3, 5, 0, 1, 0, 1)),
               oopp::check_error);
}

TEST(Array, WrongBufferSizeRejected) {
  ArrayFixture fx;
  auto a = fx.make({4, 4, 4}, {2, 2, 2}, 2);
  EXPECT_THROW(a.write({1.0, 2.0}, arr::Domain(0, 1, 0, 1, 0, 1)),
               oopp::check_error);
}

// Two arrays assembled into the two lanes of one interleaved buffer, the
// way the out-of-core FFT fills its complex slab: each lane holds exactly
// what get() returns.
TEST(Array, GetIntoFillsOneLaneOfAnInterleavedBuffer) {
  ArrayFixture fx;
  const Extents3 n{10, 9, 7};  // grid 3x3x2, clipped edge pages
  auto re = fx.make(n, {4, 4, 4}, 4);
  auto im = fx.make(n, {4, 4, 4}, 3);
  const auto whole = arr::Domain::whole(n);
  auto other = iota_buffer(whole.volume());
  for (auto& x : other) x = -x;
  re.write(iota_buffer(whole.volume()), whole);
  im.write(other, whole);

  const arr::Domain d(1, 9, 2, 7, 3, 7);
  const auto v = static_cast<std::size_t>(d.volume());
  std::vector<double> both(2 * v, 0.0);
  auto re_in = re.async_read_slice(d);
  auto im_in = im.async_read_slice(d);
  re_in.wait();
  re_in.wait();  // idempotent
  EXPECT_TRUE(re_in.valid());
  re_in.get_into(both, 2);
  im_in.get_into(std::span<double>(both).subspan(1), 2);
  EXPECT_FALSE(re_in.valid());

  const auto re_sub = re.read(d);
  const auto im_sub = im.read(d);
  for (std::size_t i = 0; i < v; ++i) {
    EXPECT_EQ(both[2 * i], re_sub[i]) << i;
    EXPECT_EQ(both[2 * i + 1], im_sub[i]) << i;
  }
}

// A slice write reads its source only while it is being issued: the
// source may be overwritten and freed before get(), on fully covered
// pages (packed at issue) and on partially covered ones (their overlap
// boxes copied at issue, overlaid inside get()).
TEST(Array, SliceWriteFromALaneKeepsTheValuesAtIssue) {
  ArrayFixture fx;
  const Extents3 n{10, 9, 7};
  auto a = fx.make(n, {4, 4, 4}, 4);
  const auto whole = arr::Domain::whole(n);
  std::vector<double> model(static_cast<std::size_t>(whole.volume()), 0.5);
  a.write(model, whole);

  // Pages with p1 > 0 and p3 = 1 are fully covered (the last ones
  // clipped by the array edge); every other touched page is partial.
  const arr::Domain d(1, 10, 0, 9, 3, 7);
  const auto v = static_cast<std::size_t>(d.volume());
  auto src = std::make_unique<std::vector<double>>(2 * v);
  for (std::size_t i = 0; i < v; ++i) {
    (*src)[2 * i] = -1.0;
    (*src)[2 * i + 1] = static_cast<double>(i) + 0.25;
  }
  auto w = a.async_write_slice(std::span<const double>(*src).subspan(1), d,
                               2);
  std::fill(src->begin(), src->end(), 99.0);
  src.reset();
  w.get();

  for (index_t i1 = d.lo(0); i1 < d.hi(0); ++i1)
    for (index_t i2 = d.lo(1); i2 < d.hi(1); ++i2)
      for (index_t i3 = d.lo(2); i3 < d.hi(2); ++i3)
        model[n.linear(i1, i2, i3)] =
            static_cast<double>(d.local_offset(i1, i2, i3)) + 0.25;
  EXPECT_EQ(a.read(whole), model);
}

// A slice buffer must hold the domain's elements at its step: one double
// short of the last element is rejected before anything is received or
// issued, and the read can still be received afterwards.
TEST(Array, SliceSpanTooShortForStepRejected) {
  ArrayFixture fx;
  auto a = fx.make({4, 4, 4}, {2, 2, 2}, 2);
  const arr::Domain d(0, 2, 0, 2, 0, 3);  // 12 elements
  std::vector<double> shorter(22);         // step 2 needs 23 or 24
  auto f = a.async_read_slice(d);
  EXPECT_THROW(f.get_into(shorter, 2), oopp::check_error);
  EXPECT_THROW(f.get_into(shorter, 0), oopp::check_error);
  EXPECT_THROW((void)a.async_write_slice(shorter, d, 2), oopp::check_error);
  EXPECT_TRUE(f.valid());
  std::vector<double> fits(23);
  f.get_into(fits, 2);
  EXPECT_FALSE(f.valid());
}

// Page traffic of a partial write: one read per partially covered page
// (its read-modify-write) and one write per touched page, whether the
// write blocks or is issued as a slice.
TEST(Array, PartialWriteCountsPageTraffic) {
  ArrayFixture fx;
  auto a = fx.make({8, 8, 8}, {4, 4, 4}, 3);
  const arr::Domain d(1, 8, 0, 8, 2, 8);  // 2 of its 8 pages fully covered
  const auto buf = iota_buffer(d.volume());
  a.write(buf, d);
  EXPECT_EQ(a.pages_read(), 6u);
  EXPECT_EQ(a.pages_written(), 8u);
  auto w = a.async_write_slice(buf, d);
  w.get();
  EXPECT_EQ(a.pages_read(), 12u);
  EXPECT_EQ(a.pages_written(), 16u);
  EXPECT_EQ(a.read(d), buf);
  EXPECT_EQ(a.pages_read(), 20u);
}

TEST(Array, EveryLayoutGivesSameSemantics) {
  for (auto kind :
       {arr::PageMapKind::kSingleDevice, arr::PageMapKind::kRoundRobin,
        arr::PageMapKind::kBlocked}) {
    ArrayFixture fx;
    auto a = fx.make({6, 5, 4}, {3, 2, 2}, 3, kind);
    const arr::Domain d(1, 6, 0, 5, 1, 3);
    const auto buf = iota_buffer(d.volume());
    a.write(buf, d);
    EXPECT_EQ(a.read(d), buf) << "layout " << static_cast<int>(kind);
  }
}

TEST(Array, CustomPageMap) {
  // A user-supplied layout: reverse round-robin.
  class ReverseMap final : public arr::PageMap {
   public:
    ReverseMap(Extents3 grid, std::int32_t devices)
        : grid_(grid), d_(devices) {}
    arr::PageAddress physical_page_address(index_t p1, index_t p2,
                                           index_t p3) const override {
      const index_t lin = grid_.linear(p1, p2, p3);
      return {static_cast<std::int32_t>(d_ - 1 - (lin % d_)),
              static_cast<std::int32_t>(lin / d_)};
    }

   private:
    Extents3 grid_;
    std::int32_t d_;
  };

  ArrayFixture fx;
  auto seed = fx.make({4, 4, 4}, {2, 2, 2}, 2);  // creates storage
  arr::Array a(4, 4, 4, 2, 2, 2, fx.storage,
               std::make_shared<ReverseMap>(Extents3{2, 2, 2}, 2));
  const auto whole = arr::Domain::whole({4, 4, 4});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);
  EXPECT_EQ(a.read(whole), buf);
}

TEST(Array, DeviceSideReductions) {
  ArrayFixture fx;
  auto a = fx.make({6, 6, 6}, {3, 3, 3}, 3);
  const auto whole = arr::Domain::whole({6, 6, 6});
  std::vector<double> buf(static_cast<std::size_t>(whole.volume()));
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = double(i % 37) - 18.0;
  a.write(buf, whole);

  EXPECT_DOUBLE_EQ(a.min(whole), *std::min_element(buf.begin(), buf.end()));
  EXPECT_DOUBLE_EQ(a.max(whole), *std::max_element(buf.begin(), buf.end()));
  double sumsq = 0.0;
  for (double x : buf) sumsq += x * x;
  EXPECT_NEAR(a.norm2(whole), std::sqrt(sumsq), 1e-9);

  const arr::Domain part(1, 5, 2, 6, 0, 3);
  const auto sub = a.read(part);
  EXPECT_DOUBLE_EQ(a.min(part), *std::min_element(sub.begin(), sub.end()));
  EXPECT_DOUBLE_EQ(a.max(part), *std::max_element(sub.begin(), sub.end()));
}

TEST(Array, DeviceSideUpdates) {
  ArrayFixture fx;
  auto a = fx.make({6, 6, 6}, {3, 3, 3}, 2);
  const auto whole = arr::Domain::whole({6, 6, 6});
  a.fill(2.0, whole);
  EXPECT_DOUBLE_EQ(a.sum(whole), 2.0 * 216);

  const arr::Domain inner(1, 5, 1, 5, 1, 5);
  a.scale(3.0, inner);
  a.shift(1.0, inner);
  // Inside: 2*3+1 = 7; outside: still 2.
  EXPECT_DOUBLE_EQ(a.get(2, 2, 2), 7.0);
  EXPECT_DOUBLE_EQ(a.get(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.sum(whole),
                   7.0 * inner.volume() + 2.0 * (216 - inner.volume()));

  // Sequential mode gives identical semantics.
  a.set_io_mode(arr::IoMode::kSequential);
  a.fill(0.0, inner);
  EXPECT_DOUBLE_EQ(a.sum(whole), 2.0 * (216 - inner.volume()));
}

TEST(Array, ReduceOverEmptyDomainRejected) {
  ArrayFixture fx;
  auto a = fx.make({4, 4, 4}, {2, 2, 2}, 2);
  EXPECT_THROW((void)a.min(arr::Domain(1, 1, 0, 4, 0, 4)), oopp::check_error);
}

// §5: "An application may deploy multiple coordinating Array client
// processes in parallel."
TEST(Array, MultipleRemoteClientProcesses) {
  ArrayFixture fx;
  auto local = fx.make({8, 8, 8}, {4, 4, 4}, 4);
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  local.write(buf, whole);

  // Deploy one Array client per machine, all sharing the block storage.
  oopp::ProcessGroup<arr::Array> clients;
  for (std::size_t m = 0; m < fx.cluster.size(); ++m) {
    clients.push_back(fx.cluster.make_remote<arr::Array>(
        m, index_t{8}, index_t{8}, index_t{8}, index_t{4}, index_t{4},
        index_t{4}, fx.storage, arr::PageMapSpec{}));
  }

  // Each client sums a disjoint slab; the partials combine to the total.
  std::vector<oopp::Future<double>> futs;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const index_t lo = static_cast<index_t>(c) * 8 / clients.size();
    const index_t hi = static_cast<index_t>(c + 1) * 8 / clients.size();
    futs.push_back(clients[c].async<&arr::Array::sum>(
        arr::Domain(lo, hi, 0, 8, 0, 8)));
  }
  double total = 0.0;
  for (auto& f : futs) total += f.get();
  EXPECT_DOUBLE_EQ(total, std::accumulate(buf.begin(), buf.end(), 0.0));
  clients.destroy_all();
}

TEST(Array, PersistsAsAProcess) {
  ArrayFixture fx;
  auto local = fx.make({4, 4, 4}, {2, 2, 2}, 2);
  const auto whole = arr::Domain::whole({4, 4, 4});
  const auto buf = iota_buffer(whole.volume());
  local.write(buf, whole);

  auto client = fx.cluster.make_remote<arr::Array>(
      1, index_t{4}, index_t{4}, index_t{4}, index_t{2}, index_t{2},
      index_t{2}, fx.storage, arr::PageMapSpec{});
  fx.cluster.passivate(client, "oopp://arrays/a");
  auto revived = fx.cluster.lookup<arr::Array>("oopp://arrays/a");
  EXPECT_EQ(revived.call<&arr::Array::read>(whole), buf);
}

TEST(ArrayCopy, PageAlignedGoesDeviceToDevice) {
  ArrayFixture fx;
  auto src = fx.make({8, 8, 8}, {4, 4, 4}, 4);
  auto src_storage = fx.storage;
  auto dst = fx.make({8, 8, 8}, {4, 4, 4}, 4, arr::PageMapKind::kBlocked);

  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  src.write(buf, whole);

  EXPECT_TRUE(arr::copy_is_page_aligned(src, dst, whole));
  const auto stats = arr::copy(src, dst, whole);
  EXPECT_EQ(stats.pages_direct, 8u);
  EXPECT_EQ(stats.elements_buffered, 0u);
  EXPECT_EQ(dst.read(whole), buf);
}

TEST(ArrayCopy, UnalignedFallsBackToBufferedPath) {
  ArrayFixture fx;
  auto src = fx.make({8, 8, 8}, {4, 4, 4}, 2);
  auto dst = fx.make({8, 8, 8}, {4, 4, 4}, 2);
  const auto whole = arr::Domain::whole({8, 8, 8});
  src.write(iota_buffer(whole.volume()), whole);
  dst.fill(0.0, whole);

  const arr::Domain window(1, 7, 2, 6, 0, 8);  // not page-aligned
  EXPECT_FALSE(arr::copy_is_page_aligned(src, dst, window));
  const auto stats = arr::copy(src, dst, window);
  EXPECT_EQ(stats.pages_direct, 0u);
  EXPECT_EQ(stats.elements_buffered,
            static_cast<std::uint64_t>(window.volume()));
  EXPECT_EQ(dst.read(window), src.read(window));
  // Outside the window the destination is untouched.
  EXPECT_DOUBLE_EQ(dst.get(0, 0, 0), 0.0);
}

TEST(ArrayCopy, MutualPullsBetweenDevicesDoNotDeadlock) {
  // src and dst share the same devices with different layouts, so pulls
  // flow in both directions between the same pair of device processes.
  ArrayFixture fx;
  auto src = fx.make({8, 8, 8}, {4, 4, 4}, 2, arr::PageMapKind::kRoundRobin);
  auto src_storage = fx.storage;
  auto dst = fx.make({8, 8, 8}, {4, 4, 4}, 2, arr::PageMapKind::kBlocked);

  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  src.write(buf, whole);
  const auto stats = arr::copy(src, dst, whole);
  EXPECT_EQ(stats.pages_direct, 8u);
  EXPECT_EQ(dst.read(whole), buf);
}

TEST(ArrayCopy, MismatchedExtentsRejected) {
  ArrayFixture fx;
  auto a = fx.make({4, 4, 4}, {2, 2, 2}, 2);
  auto a_storage = fx.storage;
  auto b = fx.make({8, 4, 4}, {2, 2, 2}, 2);
  EXPECT_THROW(arr::copy(a, b, arr::Domain(0, 4, 0, 4, 0, 4)),
               oopp::check_error);
}

// Property test: random writes and reads against an in-memory model.
class ArrayRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrayRandomOps, MatchesReferenceModel) {
  oopp::Xoshiro256 rng(GetParam());
  ArrayFixture fx;
  const Extents3 n{7, 6, 5};
  const Extents3 b{3, 2, 2};
  const auto kinds = std::array{arr::PageMapKind::kSingleDevice,
                                arr::PageMapKind::kRoundRobin,
                                arr::PageMapKind::kBlocked};
  auto a = fx.make(n, b, 3, kinds[GetParam() % 3],
                   GetParam() % 2 ? arr::IoMode::kParallel
                                  : arr::IoMode::kSequential);

  std::vector<double> model(static_cast<std::size_t>(n.volume()), 0.0);

  auto random_domain = [&] {
    auto axis = [&](index_t extent) {
      const index_t lo = static_cast<index_t>(rng.below(extent));
      const index_t hi =
          lo + 1 + static_cast<index_t>(rng.below(extent - lo));
      return std::pair{lo, hi};
    };
    auto [l1, h1] = axis(n.n1);
    auto [l2, h2] = axis(n.n2);
    auto [l3, h3] = axis(n.n3);
    return arr::Domain(l1, h1, l2, h2, l3, h3);
  };

  for (int op = 0; op < 12; ++op) {
    const auto d = random_domain();
    if (rng.below(2) == 0) {
      std::vector<double> buf(static_cast<std::size_t>(d.volume()));
      for (auto& x : buf) x = rng.uniform(-10.0, 10.0);
      a.write(buf, d);
      for (index_t i1 = d.lo(0); i1 < d.hi(0); ++i1)
        for (index_t i2 = d.lo(1); i2 < d.hi(1); ++i2)
          for (index_t i3 = d.lo(2); i3 < d.hi(2); ++i3)
            model[n.linear(i1, i2, i3)] =
                buf[d.local_offset(i1, i2, i3)];
    } else {
      const auto got = a.read(d);
      for (index_t i1 = d.lo(0); i1 < d.hi(0); ++i1)
        for (index_t i2 = d.lo(1); i2 < d.hi(1); ++i2)
          for (index_t i3 = d.lo(2); i3 < d.hi(2); ++i3)
            ASSERT_DOUBLE_EQ(got[d.local_offset(i1, i2, i3)],
                             model[n.linear(i1, i2, i3)]);
    }
  }
  // Final global check, including sum.
  const auto whole = arr::Domain::whole(n);
  EXPECT_EQ(a.read(whole), model);
  EXPECT_NEAR(a.sum_all(),
              std::accumulate(model.begin(), model.end(), 0.0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayRandomOps,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Layout edge cases: hostile custom maps, serialization guards, more
// devices than pages.
// ---------------------------------------------------------------------------

TEST(Array, HostileCustomMapHitsBoundsCheckNotUB) {
  // A custom map that emits a device id beyond the storage set: every
  // access path must fail the bounds check instead of indexing data_
  // out of range.
  class EvilDeviceMap final : public arr::PageMap {
   public:
    arr::PageAddress physical_page_address(index_t, index_t,
                                           index_t) const override {
      return {7, 0};  // storage only has 2 devices
    }
  };
  ArrayFixture fx;
  auto seed = fx.make({4, 4, 4}, {2, 2, 2}, 2);  // creates storage
  arr::Array a(4, 4, 4, 2, 2, 2, fx.storage,
               std::make_shared<EvilDeviceMap>());
  const auto whole = arr::Domain::whole({4, 4, 4});
  EXPECT_THROW((void)a.read(whole), oopp::check_error);
  EXPECT_THROW(a.write(iota_buffer(whole.volume()), whole),
               oopp::check_error);
  EXPECT_THROW((void)a.sum(whole), oopp::check_error);
  EXPECT_THROW(a.fill(1.0, whole), oopp::check_error);
  a.set_io_mode(arr::IoMode::kSequential);
  EXPECT_THROW((void)a.read(whole), oopp::check_error);
  // Redistribution also refuses to trust the hostile source map.
  EXPECT_THROW((void)a.redistribute(arr::PageMapSpec{}), oopp::Error);
  // The storage itself is unharmed.
  EXPECT_EQ(seed.read(whole),
            std::vector<double>(static_cast<std::size_t>(whole.volume())));
}

TEST(Array, CustomMapSerializationFailsWithTypedErrorNotAbort) {
  ArrayFixture fx;
  auto seed = fx.make({4, 4, 4}, {2, 2, 2}, 2);
  class ReverseMap final : public arr::PageMap {
   public:
    arr::PageAddress physical_page_address(index_t p1, index_t p2,
                                           index_t p3) const override {
      const index_t lin = Extents3{2, 2, 2}.linear(p1, p2, p3);
      return {static_cast<std::int32_t>(1 - (lin % 2)),
              static_cast<std::int32_t>(lin / 2)};
    }
  };
  arr::Array a(4, 4, 4, 2, 2, 2, fx.storage, std::make_shared<ReverseMap>());
  const auto whole = arr::Domain::whole({4, 4, 4});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);

  // Serializing the custom-map Array raises a typed error (a servant
  // attempting this fails that one call; nothing aborts) ...
  EXPECT_THROW((void)oopp::serial::to_bytes(a), oopp::Error);
  // ... and the Array and its devices remain fully usable afterwards.
  EXPECT_EQ(a.read(whole), buf);

  // Redistributing to a spec layout lifts the restriction.
  (void)a.redistribute(arr::PageMapSpec{arr::PageMapKind::kBlocked});
  auto clone = oopp::serial::from_bytes<arr::Array>(
      oopp::serial::to_bytes(a));
  EXPECT_EQ(clone.read(whole), buf);
}

TEST(Array, MoreDevicesThanPagesStillRoundTrips) {
  ArrayFixture fx;
  // 2 pages spread over 3 devices: the trailing device holds nothing.
  auto a = fx.make({4, 4, 4}, {4, 4, 2}, 3);
  const auto whole = arr::Domain::whole({4, 4, 4});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);
  EXPECT_EQ(a.read(whole), buf);
  EXPECT_DOUBLE_EQ(a.sum_all(),
                   std::accumulate(buf.begin(), buf.end(), 0.0));
}

// ---------------------------------------------------------------------------
// Online redistribution + elastic devices.
// ---------------------------------------------------------------------------

struct RedistFixture {
  TempDir tmp;
  Cluster cluster{4};
  arr::BlockStorage storage;
  arr::BlockStorageConfig cfg;
  int made = 0;

  arr::Array make(Extents3 n, Extents3 b, int devices, arr::PageMapKind kind,
                  std::uint32_t service_us = 0,
                  arr::IoMode io = arr::IoMode::kParallel) {
    const Extents3 grid{oopp::ceil_div(n.n1, b.n1),
                        oopp::ceil_div(n.n2, b.n2),
                        oopp::ceil_div(n.n3, b.n3)};
    cfg = {};
    cfg.file_prefix = tmp.file("redist" + std::to_string(made++));
    cfg.devices = devices;
    cfg.pages_per_device = static_cast<std::int32_t>(
        arr::PageMapSpec{kind}.pages_per_device(grid, devices));
    cfg.n1 = static_cast<int>(b.n1);
    cfg.n2 = static_cast<int>(b.n2);
    cfg.n3 = static_cast<int>(b.n3);
    cfg.device_options.service_us = service_us;
    storage = arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<oopp::net::MachineId>(i % cluster.size());
    });
    return arr::Array(n.n1, n.n2, n.n3, b.n1, b.n2, b.n3, storage,
                      arr::PageMapSpec{kind}, io);
  }

  /// One extra device compatible with the last make()'s storage set.
  remote_ptr<oopp::storage::ArrayPageDevice> extra_device(
      std::int32_t ordinal) {
    return arr::create_block_device(
        cfg, ordinal,
        static_cast<oopp::net::MachineId>(ordinal % cluster.size()));
  }
};

TEST(ArrayRedist, ByteIdentityAcrossEveryLayoutTransition) {
  RedistFixture fx;
  auto a = fx.make({8, 8, 8}, {2, 2, 2}, 3,
                   arr::PageMapKind::kSingleDevice);  // 64 pages
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);

  const std::array<arr::PageMapSpec, 4> targets{
      arr::PageMapSpec{arr::PageMapKind::kRoundRobin},
      arr::PageMapSpec{arr::PageMapKind::kBlocked},
      arr::PageMapSpec{arr::PageMapKind::kBlockCyclic, 3},
      arr::PageMapSpec{arr::PageMapKind::kSingleDevice}};
  std::uint64_t version = 0;
  for (const auto& target : targets) {
    const auto st = a.redistribute(target, {.batch_pages = 5});
    EXPECT_EQ(st.pages_migrated + st.writer_migrated, 64u)
        << target.name();
    EXPECT_EQ(st.map_version, ++version);
    EXPECT_FALSE(a.migrating());
    EXPECT_EQ(a.layout(), target);
    EXPECT_EQ(a.read(whole), buf) << "after move to " << target.name();
    EXPECT_DOUBLE_EQ(a.sum_all(),
                     std::accumulate(buf.begin(), buf.end(), 0.0));
  }
  EXPECT_EQ(a.map_version(), version);
}

TEST(ArrayRedist, SerializedCopySeesPostMigrationLayout) {
  RedistFixture fx;
  auto a = fx.make({8, 8, 8}, {4, 4, 4}, 2, arr::PageMapKind::kRoundRobin);
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);

  a.attach_device(fx.extra_device(2));
  EXPECT_EQ(a.device_count(), 3);
  (void)a.redistribute(arr::PageMapSpec{arr::PageMapKind::kBlocked});

  // The wire format carries the layout's device span and slot-bank base,
  // so a deserialized client resolves the same physical slots.
  auto clone =
      oopp::serial::from_bytes<arr::Array>(oopp::serial::to_bytes(a));
  EXPECT_EQ(clone.device_count(), 3);
  EXPECT_EQ(clone.read(whole), buf);
}

TEST(ArrayRedist, AttachValidatesPageShape) {
  RedistFixture fx;
  auto a = fx.make({8, 8, 8}, {4, 4, 4}, 2, arr::PageMapKind::kRoundRobin);
  auto mismatched = fx.cluster.make_remote<oopp::storage::ArrayPageDevice>(
      0, fx.tmp.file("mismatch"), 4, 2, 2, 2);
  EXPECT_THROW(a.attach_device(mismatched), oopp::Error);
  EXPECT_EQ(a.device_count(), 2);
}

TEST(ArrayRedist, DetachValidation) {
  RedistFixture fx;
  auto a = fx.make({4, 4, 4}, {2, 2, 2}, 2, arr::PageMapKind::kRoundRobin);
  EXPECT_THROW((void)a.detach_device(5), oopp::Error);
  (void)a.detach_device(1);
  EXPECT_EQ(a.device_count(), 1);
  EXPECT_THROW((void)a.detach_device(0), oopp::Error);  // last device
}

TEST(ArrayRedist, DetachDrainsDeviceAndPreservesBytes) {
  RedistFixture fx;
  auto a = fx.make({8, 8, 8}, {2, 2, 2}, 3, arr::PageMapKind::kRoundRobin);
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);

  const auto st = a.detach_device(1, {.batch_pages = 7});
  EXPECT_EQ(st.pages_migrated, 64u);
  EXPECT_EQ(a.device_count(), 2);
  EXPECT_EQ(a.read(whole), buf);

  // The dropped device still exists (the caller owns it) but no longer
  // serves any page of the array.
  const auto pr_before = a.pages_read();
  (void)a.read(whole);
  EXPECT_EQ(a.pages_read(), pr_before + 64);
}

TEST(ArrayRedist, RemoteControlPlane) {
  // The re-layout API is part of the Array protocol: a deployed client
  // process can be redistributed remotely.
  RedistFixture fx;
  auto local = fx.make({8, 8, 8}, {4, 4, 4}, 2,
                       arr::PageMapKind::kRoundRobin);
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());

  auto client = fx.cluster.make_remote<arr::Array>(
      1, index_t{8}, index_t{8}, index_t{8}, index_t{4}, index_t{4},
      index_t{4}, fx.storage, arr::PageMapSpec{arr::PageMapKind::kRoundRobin});
  client.call<&arr::Array::write>(buf, whole);

  const auto st = client.call<&arr::Array::redistribute>(
      arr::PageMapSpec{arr::PageMapKind::kBlocked}, arr::RedistOptions{});
  EXPECT_EQ(st.pages_migrated, 8u);
  EXPECT_EQ(client.call<&arr::Array::map_version>(), 1u);
  EXPECT_FALSE(client.call<&arr::Array::migrating>());
  EXPECT_EQ(client.call<&arr::Array::device_count>(), 2);
  EXPECT_EQ(client.call<&arr::Array::read>(whole), buf);
}

TEST(ArrayRedist, ServesReadsAndWritesDuringMigrationWithAttach) {
  // The acceptance scenario: an Array round-robin on 2 devices keeps
  // serving concurrent reads and writes with correct bytes while being
  // redistributed to blocked on 3 devices, one of which is attached
  // mid-run; zero failed calls.
  RedistFixture fx;
  auto a = fx.make({8, 8, 8}, {2, 2, 2}, 2, arr::PageMapKind::kRoundRobin,
                   /*service_us=*/150);  // slow spindles: migration overlaps
  const auto whole = arr::Domain::whole({8, 8, 8});
  std::vector<double> base(static_cast<std::size_t>(whole.volume()), 1.0);
  a.write(base, whole);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> last_value{0};

  // Writer churn over its own slab: each round writes a uniform value
  // and must read exactly that value back.
  std::thread writer([&] {
    auto guard = fx.cluster.use(1);
    try {
      const arr::Domain slab(0, 4, 0, 8, 0, 8);
      for (int v = 2; !stop.load(); ++v) {
        std::vector<double> w(static_cast<std::size_t>(slab.volume()),
                              double(v));
        a.write(w, slab);
        last_value.store(v);
        for (const double x : a.read(slab))
          if (x != double(v)) {
            failures.fetch_add(1);
            break;
          }
      }
    } catch (...) {
      failures.fetch_add(1);
    }
  });
  // Reader churn over the untouched slab: must always see the base.
  std::thread reader([&] {
    auto guard = fx.cluster.use(2);
    try {
      const arr::Domain slab(4, 8, 0, 8, 0, 8);
      while (!stop.load()) {
        for (const double x : a.read(slab))
          if (x != 1.0) {
            failures.fetch_add(1);
            break;
          }
      }
    } catch (...) {
      failures.fetch_add(1);
    }
  });

  a.attach_device(fx.extra_device(2));
  EXPECT_EQ(a.device_count(), 3);
  const auto st = a.redistribute(arr::PageMapSpec{arr::PageMapKind::kBlocked},
                                 {.batch_pages = 4});
  stop = true;
  writer.join();
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(st.pages_migrated + st.writer_migrated, 64u);
  EXPECT_EQ(st.map_version, 1u);
  EXPECT_FALSE(a.migrating());
  EXPECT_EQ(a.layout().kind, arr::PageMapKind::kBlocked);

  // Final bytes: the writer's slab holds its last round, the rest the base.
  const arr::Domain wslab(0, 4, 0, 8, 0, 8);
  for (const double x : a.read(wslab))
    EXPECT_DOUBLE_EQ(x, double(last_value.load()));
  const arr::Domain rslab(4, 8, 0, 8, 0, 8);
  for (const double x : a.read(rslab)) EXPECT_DOUBLE_EQ(x, 1.0);

  // Migration activity is visible in the array.redist telemetry scope.
  auto& scope = oopp::telemetry::Metrics::scope_for("array.redist");
  EXPECT_GE(scope.counter("pages_migrated").value(), 64u);
  EXPECT_GT(scope.counter("dual_reads").value(), 0u);
  EXPECT_GT(st.dual_reads, 0u);
}

TEST(ArrayRedist, DetachUnderLoad) {
  RedistFixture fx;
  auto a = fx.make({8, 8, 8}, {2, 2, 2}, 3, arr::PageMapKind::kRoundRobin,
                   /*service_us=*/100);
  const auto whole = arr::Domain::whole({8, 8, 8});
  const auto buf = iota_buffer(whole.volume());
  a.write(buf, whole);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    auto guard = fx.cluster.use(1);
    try {
      while (!stop.load())
        if (a.read(whole) != buf) failures.fetch_add(1);
    } catch (...) {
      failures.fetch_add(1);
    }
  });

  const auto st = a.detach_device(0, {.batch_pages = 3});
  stop = true;
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(st.pages_migrated, 64u);
  EXPECT_EQ(a.device_count(), 2);
  EXPECT_EQ(a.read(whole), buf);
}

}  // namespace
