// Storage substrate tests: Page/ArrayPage value semantics, PageDevice
// file-backed I/O (local and remote), process inheritance through
// ArrayPageDevice, move-data vs move-computation equivalence, and the §5
// adopt-an-existing-process constructor.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "core/oopp.hpp"
#include "storage/array_page.hpp"
#include "storage/array_page_device.hpp"
#include "storage/page.hpp"
#include "storage/page_device.hpp"
#include "util/clock.hpp"
#include "util/prng.hpp"

using oopp::Cluster;
using oopp::remote_ptr;
namespace storage = oopp::storage;
namespace fs = std::filesystem;

namespace {

/// Keeps the page it is given and reports where its bytes live.
class PageHolder {
 public:
  void put(storage::Page p) { page_ = std::move(p); }
  [[nodiscard]] storage::Page get() const { return page_; }
  [[nodiscard]] std::uint64_t address() const {
    return reinterpret_cast<std::uintptr_t>(page_.bytes().data());
  }

 private:
  storage::Page page_;
};

/// An ArrayPageDevice that records where its batched reads put the bytes.
class TracingDevice : public storage::ArrayPageDevice {
 public:
  TracingDevice(std::string file, int pages, int n1, int n2, int n3)
      : ArrayPageDevice(std::move(file), pages, n1, n2, n3) {}
  explicit TracingDevice(oopp::serial::IArchive& ia) : ArrayPageDevice(ia) {}
  [[nodiscard]] std::vector<storage::Page> read_pages(
      std::vector<std::int32_t> indices) const override {
    auto pages = ArrayPageDevice::read_pages(std::move(indices));
    for (const auto& p : pages)
      read_at_.push_back(reinterpret_cast<std::uintptr_t>(p.data()));
    return pages;
  }
  [[nodiscard]] std::vector<std::uint64_t> read_addresses() const {
    return read_at_;
  }

 private:
  mutable std::vector<std::uint64_t> read_at_;
};

}  // namespace

template <>
struct oopp::rpc::class_def<PageHolder> {
  static std::string name() { return "test.PageHolder"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&PageHolder::put>("put");
    b.template method<&PageHolder::get>("get");
    b.template method<&PageHolder::address>("address");
  }
};

template <>
struct oopp::rpc::class_def<TracingDevice> {
  static std::string name() { return "test.TracingDevice"; }
  using ctors = ctor_list<ctor<std::string, int, int, int, int>>;
  template <class B>
  static void bind(B& b) {
    class_def<oopp::storage::ArrayPageDevice>::bind(b);
    b.template method<&TracingDevice::read_addresses>("read_addresses");
  }
};

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("oopp-test-" + std::to_string(::getpid()) + "-" +
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

storage::Page pattern_page(std::size_t n, std::uint8_t seed) {
  storage::Page p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>((i * 31 + seed) & 0xff);
  return p;
}

TEST(Page, ValueSemanticsAndBounds) {
  storage::Page p(16);
  EXPECT_EQ(p.size(), 16u);
  p[3] = 42;
  storage::Page q = p;
  EXPECT_EQ(q, p);
  q[3] = 7;
  EXPECT_NE(q, p);
  EXPECT_THROW(p[16], oopp::check_error);
}

TEST(Page, FromRawBuffer) {
  const unsigned char raw[] = {1, 2, 3, 4};
  storage::Page p(4, raw);
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[3], 4);
}

TEST(Page, CopiesShareBytesUntilWritten) {
  storage::Page p = pattern_page(4096, 1);
  const auto* original = p.bytes().data();
  storage::Page q = p;
  EXPECT_EQ(q.bytes().data(), original) << "a copy must not copy the bytes";
  q[0] = 0xEE;  // copy-on-write: q moves onto its own bytes
  EXPECT_NE(q.bytes().data(), original);
  EXPECT_EQ(p.bytes().data(), original);
  EXPECT_EQ(p, pattern_page(4096, 1));
  // Now the sole holder, p writes in place.
  p[1] = 0xDD;
  EXPECT_EQ(p.bytes().data(), original);
  EXPECT_EQ(p[1], 0xDD);
}

TEST(Page, WireFormatMatchesByteVector) {
  // Persisted images and peers read a Page as a length-prefixed byte
  // vector: both directions must keep exactly those wire bytes.
  const auto page = pattern_page(1000, 4);
  const std::vector<std::uint8_t> raw(page.data(), page.data() + page.size());
  EXPECT_EQ(oopp::serial::to_bytes(page), oopp::serial::to_bytes(raw));
  EXPECT_EQ(oopp::serial::from_bytes<storage::Page>(
                oopp::serial::to_bytes(raw)),
            page);
}

TEST(ArrayPage, WrapsAlignedBytesAndRealignsMisalignedOnes) {
  // The same eight doubles twice: at offset 0, and at an odd offset.
  constexpr std::size_t kBlock = 8 * sizeof(double), kOdd = kBlock + 1;
  std::vector<std::byte> buf(kOdd + kBlock);
  for (std::size_t i = 0; i < 8; ++i) {
    const double v = double(i) + 0.5;
    std::memcpy(buf.data() + i * sizeof(double), &v, sizeof(double));
    std::memcpy(buf.data() + kOdd + i * sizeof(double), &v, sizeof(double));
  }
  auto store = std::make_shared<const std::vector<std::byte>>(std::move(buf));
  const oopp::serial::Bytes aligned(store, 0, kBlock);
  const oopp::serial::Bytes odd(store, kOdd, kBlock);

  const storage::ArrayPage wrapped(2, 2, 2, aligned);
  EXPECT_EQ(wrapped.bytes().data(), aligned.data()) << "wrapping copied";
  const storage::ArrayPage moved(2, 2, 2, odd);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.values()) % alignof(double),
            0u);
  EXPECT_DOUBLE_EQ(moved.at(1, 1, 1), 7.5);
  EXPECT_EQ(moved, wrapped);
  EXPECT_THROW(storage::ArrayPage(2, 2, 3, aligned), oopp::check_error);
}

TEST(ArrayPage, DecodeRejectsExtentsThatDoNotMatchBytes) {
  const storage::ArrayPage page(2, 2, 2);
  oopp::serial::OArchive oa;
  oa(static_cast<const storage::Page&>(page), oopp::index_t{3},
     oopp::index_t{3}, oopp::index_t{3});
  const auto bad = oa.take();
  EXPECT_THROW((void)oopp::serial::from_bytes<storage::ArrayPage>(bad),
               oopp::serial::serial_error);
  EXPECT_EQ(oopp::serial::from_bytes<storage::ArrayPage>(
                oopp::serial::to_bytes(page)),
            page);
}

TEST(PageDeviceLocal, WriteReadRoundTrip) {
  TempDir tmp;
  storage::PageDevice dev(tmp.file("pages.bin"), 10, 1024);
  const auto page = pattern_page(1024, 5);
  dev.write(page, 7);
  EXPECT_EQ(dev.read(7), page);
  EXPECT_EQ(dev.operations(), 2u);
}

TEST(PageDeviceLocal, FileHasExpectedSize) {
  TempDir tmp;
  const auto path = tmp.file("sized.bin");
  storage::PageDevice dev(path, 10, 1024);
  EXPECT_EQ(fs::file_size(path), 10u * 1024u);
}

TEST(PageDeviceLocal, DistinctAddressesAreIndependent) {
  TempDir tmp;
  storage::PageDevice dev(tmp.file("pages.bin"), 4, 256);
  for (int i = 0; i < 4; ++i)
    dev.write(pattern_page(256, static_cast<std::uint8_t>(i)), i);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(dev.read(i), pattern_page(256, static_cast<std::uint8_t>(i)));
}

TEST(PageDeviceLocal, RejectsBadIndexAndSize) {
  TempDir tmp;
  storage::PageDevice dev(tmp.file("pages.bin"), 2, 64);
  EXPECT_THROW(dev.read(-1), oopp::check_error);
  EXPECT_THROW(dev.read(2), oopp::check_error);
  EXPECT_THROW(dev.write(pattern_page(32, 0), 0), oopp::check_error);
  EXPECT_THROW(dev.write(pattern_page(64, 0), 5), oopp::check_error);
}

TEST(PageDeviceLocal, UnwrittenPagesReadAsZero) {
  TempDir tmp;
  storage::PageDevice dev(tmp.file("pages.bin"), 3, 128);
  const auto page = dev.read(1);
  for (std::size_t i = 0; i < page.size(); ++i) EXPECT_EQ(page[i], 0);
}

TEST(PageDeviceLocal, EnsureCapacityGrowsWithoutLosingData) {
  // Redistribution provisions target slot banks on live devices; growing
  // must preserve every existing page and make the new slots usable.
  TempDir tmp;
  const auto path = tmp.file("grow.bin");
  storage::PageDevice dev(path, 2, 64);
  dev.write(pattern_page(64, 11), 0);
  dev.write(pattern_page(64, 22), 1);
  EXPECT_THROW(dev.read(2), oopp::check_error);

  dev.ensure_capacity(5);
  EXPECT_EQ(dev.number_of_pages(), 5);
  EXPECT_EQ(fs::file_size(path), 5u * 64u);
  EXPECT_EQ(dev.read(0), pattern_page(64, 11));
  EXPECT_EQ(dev.read(1), pattern_page(64, 22));
  for (int i = 2; i < 5; ++i) {
    const auto zero = dev.read(i);
    for (std::size_t b = 0; b < zero.size(); ++b) EXPECT_EQ(zero[b], 0);
  }
  dev.write(pattern_page(64, 33), 4);
  EXPECT_EQ(dev.read(4), pattern_page(64, 33));

  // Grow-only: a smaller request is a no-op, never a truncation.
  dev.ensure_capacity(1);
  EXPECT_EQ(dev.number_of_pages(), 5);
  EXPECT_EQ(dev.read(1), pattern_page(64, 22));
}

// The paper's §2 program, verbatim in library form:
//   PageDevice* PageStore = new(machine 1) PageDevice("pagefile", 10, 1024);
//   Page* page = GenerateDataPage();
//   PageStore->write(page, 17);   (17 → 7 here: the paper's 17 exceeds its
//                                  own NumberOfPages = 10)
TEST(PageDeviceRemote, PaperSection2Flow) {
  TempDir tmp;
  Cluster cluster(2);
  auto page_store = cluster.make_remote<storage::PageDevice>(
      1, tmp.file("pagefile"), 10, 1024);
  const auto page = pattern_page(1024, 17);
  page_store.call<&storage::PageDevice::write>(page, 7);
  EXPECT_EQ(page_store.call<&storage::PageDevice::read>(7), page);
  // delete PageStore → the remote process terminates.
  page_store.destroy();
  EXPECT_THROW(page_store.call<&storage::PageDevice::read>(7),
               oopp::rpc::ObjectNotFound);
}

// In process a page crosses a remote call as its sender's allocation: the
// archive splices the bytes, the message carries the slice, the receiver
// decodes a view.  Same addresses on both sides prove no copy was made.
TEST(PageDeviceRemote, InProcessCallsMoveNoPageBytes) {
  Cluster cluster(2);
  auto holder = cluster.make_remote<PageHolder>(1);
  const auto page = pattern_page(64 * 1024, 8);
  const auto addr = reinterpret_cast<std::uintptr_t>(page.bytes().data());

  holder.call<&PageHolder::put>(page);
  EXPECT_EQ(holder.call<&PageHolder::address>(), addr);
  const auto back = holder.call<&PageHolder::get>();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(back.bytes().data()), addr);
  EXPECT_EQ(back, page);
}

// The storage path itself: read_arrays wraps the bytes read_pages read,
// the reply splices them, and the in-process client holds blocks whose
// bytes are the very allocations the device's reads filled.
TEST(ArrayPageDeviceRemote, BatchedReadReachesClientWithoutCopies) {
  TempDir tmp;
  Cluster cluster(2);
  auto dev = cluster.make_remote<TracingDevice>(1, tmp.file("traced"), 4, 8,
                                                8, 8);
  storage::ArrayPage page(8, 8, 8);
  for (oopp::index_t i = 0; i < page.elements(); ++i)
    page.values()[i] = double(i);
  dev.call<&storage::ArrayPageDevice::write_array>(page, 2);

  const auto got = dev.call<&storage::ArrayPageDevice::read_arrays>(
      std::vector<std::int32_t>{2, 0});
  const auto addrs = dev.call<&TracingDevice::read_addresses>();
  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(addrs.size(), 2u);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(got[i].values()), addrs[i]);
  EXPECT_EQ(got[0], page);
}

TEST(PageDeviceRemote, ErrorsCrossTheWire) {
  TempDir tmp;
  Cluster cluster(2);
  auto dev = cluster.make_remote<storage::PageDevice>(
      1, tmp.file("pagefile"), 4, 64);
  EXPECT_THROW(dev.call<&storage::PageDevice::read>(99),
               oopp::rpc::RemoteError);
}

TEST(ArrayPage, StructuredAccessAndSum) {
  storage::ArrayPage p(2, 3, 4);
  EXPECT_EQ(p.elements(), 24);
  EXPECT_EQ(p.size(), 24u * sizeof(double));
  double v = 0.0;
  for (oopp::index_t i1 = 0; i1 < 2; ++i1)
    for (oopp::index_t i2 = 0; i2 < 3; ++i2)
      for (oopp::index_t i3 = 0; i3 < 4; ++i3) p.set(i1, i2, i3, v += 1.0);
  EXPECT_DOUBLE_EQ(p.sum(), 24.0 * 25.0 / 2.0);
  EXPECT_DOUBLE_EQ(p.at(1, 2, 3), 24.0);
  EXPECT_THROW((void)p.at(2, 0, 0), oopp::check_error);
}

TEST(ArrayPage, FromBuffer) {
  std::vector<double> vals(8);
  std::iota(vals.begin(), vals.end(), 1.0);
  storage::ArrayPage p(2, 2, 2, vals.data());
  EXPECT_DOUBLE_EQ(p.sum(), 36.0);
  EXPECT_DOUBLE_EQ(p.at(1, 1, 1), 8.0);
}

// §3: "the sum can be computed by first copying the entire page to the
// local machine" vs "computed on the remote machine and only the result
// copied" — both must give the same answer.
TEST(ArrayPageDeviceRemote, MoveDataVsMoveComputationAgree) {
  TempDir tmp;
  Cluster cluster(2);
  auto blocks = cluster.make_remote<storage::ArrayPageDevice>(
      1, tmp.file("array_blocks"), 8, 4, 4, 4);

  storage::ArrayPage page(4, 4, 4);
  oopp::Xoshiro256 rng(99);
  for (oopp::index_t i = 0; i < page.elements(); ++i)
    page.values()[i] = rng.uniform(-1.0, 1.0);
  blocks.call<&storage::ArrayPageDevice::write_array>(page, 4);

  // Move the data to the computation.
  auto local =
      blocks.call<&storage::ArrayPageDevice::read_array>(4);
  const double local_sum = local.sum();
  // Move the computation to the data.
  const double remote_sum = blocks.call<&storage::ArrayPageDevice::sum>(4);
  EXPECT_DOUBLE_EQ(local_sum, remote_sum);
}

// §3: process inheritance — an ArrayPageDevice serves the PageDevice
// protocol, and a remote_ptr<ArrayPageDevice> converts to
// remote_ptr<PageDevice>.
TEST(ArrayPageDeviceRemote, ServesInheritedProtocol) {
  TempDir tmp;
  Cluster cluster(2);
  auto blocks = cluster.make_remote<storage::ArrayPageDevice>(
      1, tmp.file("blk"), 4, 2, 2, 2);

  remote_ptr<storage::PageDevice> base = blocks;  // derived → base
  EXPECT_EQ(base.call<&storage::PageDevice::page_size>(),
            static_cast<int>(8 * sizeof(double)));
  const auto raw = pattern_page(8 * sizeof(double), 3);
  base.call<&storage::PageDevice::write>(raw, 2);
  EXPECT_EQ(base.call<&storage::PageDevice::read>(2), raw);
}

TEST(ArrayPageDeviceRemote, SumRegion) {
  TempDir tmp;
  Cluster cluster(2);
  auto blocks = cluster.make_remote<storage::ArrayPageDevice>(
      1, tmp.file("blk"), 2, 4, 4, 4);
  storage::ArrayPage page(4, 4, 4);
  for (oopp::index_t i = 0; i < 64; ++i) page.values()[i] = 1.0;
  blocks.call<&storage::ArrayPageDevice::write_array>(page, 0);
  EXPECT_DOUBLE_EQ(blocks.call<&storage::ArrayPageDevice::sum_region>(
                       0, oopp::index_t{0}, oopp::index_t{4},
                       oopp::index_t{0}, oopp::index_t{4}, oopp::index_t{0},
                       oopp::index_t{4}),
                   64.0);
  EXPECT_DOUBLE_EQ(blocks.call<&storage::ArrayPageDevice::sum_region>(
                       0, oopp::index_t{1}, oopp::index_t{3},
                       oopp::index_t{1}, oopp::index_t{3}, oopp::index_t{0},
                       oopp::index_t{2}),
                   8.0);
}

// §5: new ArrayPageDevice(page_device) — a new process adopting an
// existing process's storage; both co-exist, then the original is deleted.
TEST(ArrayPageDeviceRemote, AdoptExistingDeviceProcess) {
  TempDir tmp;
  Cluster cluster(3);
  const int n = 4;
  auto plain = cluster.make_remote<storage::PageDevice>(
      1, tmp.file("adopt"), 6, static_cast<int>(n * n * n * sizeof(double)));

  // Write raw bytes of a known block through the old process.
  storage::ArrayPage block(n, n, n);
  for (oopp::index_t i = 0; i < block.elements(); ++i)
    block.values()[i] = double(i);
  plain.call<&storage::PageDevice::write>(block, 3);

  // New derived process on another machine adopting the same storage.
  auto derived = cluster.make_remote<storage::ArrayPageDevice>(
      2, plain, n, n, n);
  EXPECT_DOUBLE_EQ(derived.call<&storage::ArrayPageDevice::sum>(3),
                   block.sum());

  // The paper: "subsequently shut it down using delete page_device;"
  plain.destroy();
  EXPECT_DOUBLE_EQ(derived.call<&storage::ArrayPageDevice::sum>(3),
                   block.sum());
}

TEST(PageDevicePersistence, PassivateAndActivateKeepsData) {
  TempDir tmp;
  Cluster cluster(2);
  auto dev = cluster.make_remote<storage::PageDevice>(
      1, tmp.file("persist"), 4, 128);
  const auto page = pattern_page(128, 9);
  dev.call<&storage::PageDevice::write>(page, 2);

  cluster.passivate(dev, "oopp://devices/persist-test");
  EXPECT_THROW(dev.call<&storage::PageDevice::read>(2),
               oopp::rpc::ObjectNotFound);

  auto revived =
      cluster.lookup<storage::PageDevice>("oopp://devices/persist-test");
  EXPECT_EQ(revived.call<&storage::PageDevice::read>(2), page);
}

TEST(DeviceOptions, ServiceTimeSlowsOperations) {
  TempDir tmp;
  storage::PageDevice fast(tmp.file("fast"), 2, 64);
  storage::PageDevice slow(tmp.file("slow"), 2, 64,
                           storage::DeviceOptions{.service_us = 2000});
  const auto page = pattern_page(64, 1);
  oopp::Timer t;
  fast.write(page, 0);
  const double fast_ms = t.millis();
  t.reset();
  slow.write(page, 0);
  const double slow_ms = t.millis();
  EXPECT_GT(slow_ms, fast_ms);
  EXPECT_GE(slow_ms, 1.5);
}

}  // namespace
