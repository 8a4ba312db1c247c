#include "storage/page_device.hpp"

#include <chrono>
#include <thread>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace oopp::storage {

PageDevice::PageDevice(std::string filename, int number_of_pages,
                       int page_size)
    : PageDevice(std::move(filename), number_of_pages, page_size,
                 DeviceOptions{}) {}

PageDevice::PageDevice(std::string filename, int number_of_pages,
                       int page_size, DeviceOptions options)
    : PageDevice(std::move(filename), number_of_pages, page_size, options,
                 /*truncate=*/true) {}

PageDevice::PageDevice(std::string filename, int number_of_pages,
                       int page_size, DeviceOptions options, bool truncate)
    : filename_(std::move(filename)),
      number_of_pages_(number_of_pages),
      page_size_(page_size),
      options_(options) {
  OOPP_CHECK_MSG(number_of_pages > 0 && page_size_ > 0,
                 "PageDevice needs positive page count and size");
  open_or_create(truncate);
}

PageDevice::PageDevice(NoBackingTag, int number_of_pages, int page_size,
                       DeviceOptions options)
    : number_of_pages_(number_of_pages),
      page_size_(page_size),
      options_(options) {
  OOPP_CHECK_MSG(number_of_pages > 0 && page_size_ > 0,
                 "PageDevice needs positive page count and size");
  // No file: every I/O method must be overridden by the derived class.
}

PageDevice::PageDevice(serial::IArchive& ia) {
  std::uint64_t ops = 0;
  int pages = 0;
  ia(filename_, pages, page_size_, options_, ops, stamps_);
  number_of_pages_.store(pages, std::memory_order_relaxed);
  operations_.store(ops, std::memory_order_relaxed);
  // The backing file holds the pages; re-open without truncating.
  open_or_create(/*truncate=*/false);
}

void PageDevice::oopp_save(serial::OArchive& oa) const {
  // Push buffered writes to the file so the image + file pair is
  // consistent at the checkpoint.
  if (f_) std::fflush(f_);
  std::vector<std::uint64_t> stamps;
  {
    std::lock_guard lock(io_mu_);
    stamps = stamps_;
  }
  oa(filename_, number_of_pages(), page_size_, options_, operations(),
     stamps);
}

PageDevice::~PageDevice() {
  if (f_) std::fclose(f_);
}

void PageDevice::open_or_create(bool truncate) {
  const auto expected =
      static_cast<long>(number_of_pages()) * static_cast<long>(page_size_);
  if (!truncate) {
    f_ = std::fopen(filename_.c_str(), "r+b");
    OOPP_CHECK_MSG(f_ != nullptr,
                   "PageDevice: backing file '" << filename_ << "' missing");
    return;
  }
  f_ = std::fopen(filename_.c_str(), "w+b");
  OOPP_CHECK_MSG(f_ != nullptr,
                 "PageDevice: cannot create '" << filename_ << "'");
  // Pre-size the file: NumberOfPages * PageSize bytes, as in the paper.
  OOPP_CHECK(std::fseek(f_, expected - 1, SEEK_SET) == 0);
  const unsigned char zero = 0;
  OOPP_CHECK(std::fwrite(&zero, 1, 1, f_) == 1);
  OOPP_CHECK(std::fflush(f_) == 0);
}

void PageDevice::check_index(int page_index) const {
  const int pages = number_of_pages();
  OOPP_CHECK_MSG(page_index >= 0 && page_index < pages,
                 "page index " << page_index << " out of [0, " << pages
                               << ")");
}

void PageDevice::ensure_capacity(int pages) {
  OOPP_CHECK_MSG(pages > 0, "ensure_capacity needs a positive page count");
  if (pages <= number_of_pages()) return;
  static auto& grows =
      telemetry::Metrics::scope_for("storage").counter("capacity_grows");
  grows.add(1);
  std::lock_guard lock(io_mu_);
  if (pages <= number_of_pages()) return;
  // Extend and zero-fill the backing file to the new size, the same
  // pre-sizing trick the constructor uses; existing slots are untouched,
  // so concurrent reentrant reads of old indices stay valid.
  const auto bytes = static_cast<long>(pages) * static_cast<long>(page_size_);
  OOPP_CHECK(std::fseek(f_, bytes - 1, SEEK_SET) == 0);
  const unsigned char zero = 0;
  OOPP_CHECK(std::fwrite(&zero, 1, 1, f_) == 1);
  OOPP_CHECK(std::fflush(f_) == 0);
  number_of_pages_.store(pages, std::memory_order_release);
}

void PageDevice::simulate_service_time() const {
  if (options_.service_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(options_.service_us));
}

void PageDevice::write(const Page& p, int page_index) {
  check_index(page_index);
  OOPP_CHECK_MSG(p.size() == static_cast<std::size_t>(page_size_),
                 "page size " << p.size() << " != device page size "
                              << page_size_);
  // Local span + latency histogram: page I/O is the storage data plane's
  // unit of work, and nesting it under the serving span is what makes the
  // "client → sum → page reads" chain visible in merged traces.
  telemetry::LocalSpan span("storage.page_write");
  static auto& page_writes =
      telemetry::Metrics::scope_for("storage").counter("page_writes");
  page_writes.add(1);
  const std::int64_t t0 = telemetry::enabled() ? now_ns() : 0;
  simulate_service_time();
  const auto offset =
      static_cast<long>(page_index) * static_cast<long>(page_size_);
  {
    std::lock_guard lock(io_mu_);
    OOPP_CHECK(std::fseek(f_, offset, SEEK_SET) == 0);
    OOPP_CHECK(std::fwrite(p.data(), 1, p.size(), f_) == p.size());
    // Push through stdio so a co-existing process over the same backing
    // file (paper §5's adopting constructor) observes the write.
    OOPP_CHECK(std::fflush(f_) == 0);
  }
  operations_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    static auto& h =
        telemetry::Metrics::scope_for("storage").histogram("page_write_ns");
    h.record(static_cast<std::uint64_t>(now_ns() - t0));
  }
}

Page PageDevice::read(int page_index) const {
  check_index(page_index);
  telemetry::LocalSpan span("storage.page_read");
  static auto& page_reads =
      telemetry::Metrics::scope_for("storage").counter("page_reads");
  page_reads.add(1);
  const std::int64_t t0 = telemetry::enabled() ? now_ns() : 0;
  simulate_service_time();
  Page p(static_cast<std::size_t>(page_size_));
  const auto offset =
      static_cast<long>(page_index) * static_cast<long>(page_size_);
  {
    std::lock_guard lock(io_mu_);
    OOPP_CHECK(std::fseek(f_, offset, SEEK_SET) == 0);
    OOPP_CHECK(std::fread(p.data(), 1, p.size(), f_) == p.size());
  }
  operations_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    static auto& h =
        telemetry::Metrics::scope_for("storage").histogram("page_read_ns");
    h.record(static_cast<std::uint64_t>(now_ns() - t0));
  }
  return p;
}

namespace {

/// Contiguous ascending runs in an index list — each run costs one
/// simulated seek in the batched paths.
int count_runs(const std::vector<std::int32_t>& indices) {
  int runs = 0;
  for (std::size_t i = 0; i < indices.size(); ++i)
    if (i == 0 || indices[i] != indices[i - 1] + 1) ++runs;
  return runs;
}

}  // namespace

std::vector<Page> PageDevice::read_pages(
    std::vector<std::int32_t> indices) const {
  telemetry::LocalSpan span("storage.read_pages");
  auto& scope = telemetry::Metrics::scope_for("storage.batch_io");
  static auto& batch_reads = scope.counter("batch_reads");
  static auto& pages_read = scope.counter("pages_read");
  static auto& batch_pages_h = scope.histogram("batch_pages");
  batch_reads.add(1);
  pages_read.add(indices.size());
  batch_pages_h.record(indices.size());

  for (const auto idx : indices) check_index(idx);
  for (int r = count_runs(indices); r > 0; --r) simulate_service_time();

  std::vector<Page> out;
  out.reserve(indices.size());
  {
    std::lock_guard lock(io_mu_);
    for (const auto idx : indices) {
      Page p(static_cast<std::size_t>(page_size_));
      const auto offset =
          static_cast<long>(idx) * static_cast<long>(page_size_);
      OOPP_CHECK(std::fseek(f_, offset, SEEK_SET) == 0);
      OOPP_CHECK(std::fread(p.data(), 1, p.size(), f_) == p.size());
      out.push_back(std::move(p));
    }
  }
  operations_.fetch_add(indices.size(), std::memory_order_relaxed);
  return out;
}

void PageDevice::write_pages(std::vector<Page> pages,
                             std::vector<std::int32_t> indices) {
  OOPP_CHECK_MSG(pages.size() == indices.size(),
                 "write_pages: " << pages.size() << " pages for "
                                 << indices.size() << " indices");
  telemetry::LocalSpan span("storage.write_pages");
  auto& scope = telemetry::Metrics::scope_for("storage.batch_io");
  static auto& batch_writes = scope.counter("batch_writes");
  static auto& pages_written = scope.counter("pages_written");
  static auto& batch_pages_h = scope.histogram("batch_pages");
  batch_writes.add(1);
  pages_written.add(indices.size());
  batch_pages_h.record(indices.size());

  for (std::size_t i = 0; i < indices.size(); ++i) {
    check_index(indices[i]);
    OOPP_CHECK_MSG(pages[i].size() == static_cast<std::size_t>(page_size_),
                   "page size " << pages[i].size() << " != device page size "
                                << page_size_);
  }
  for (int r = count_runs(indices); r > 0; --r) simulate_service_time();

  {
    std::lock_guard lock(io_mu_);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto offset =
          static_cast<long>(indices[i]) * static_cast<long>(page_size_);
      // Read-only access: the page may be a view of the caller's bytes.
      const Page& p = pages[i];
      OOPP_CHECK(std::fseek(f_, offset, SEEK_SET) == 0);
      OOPP_CHECK(std::fwrite(p.data(), 1, p.size(), f_) == p.size());
    }
    OOPP_CHECK(std::fflush(f_) == 0);
  }
  operations_.fetch_add(indices.size(), std::memory_order_relaxed);
}

void PageDevice::write_pages_stamped(std::vector<Page> pages,
                                     std::vector<std::int32_t> indices,
                                     std::vector<std::uint64_t> stamps) {
  OOPP_CHECK_MSG(stamps.size() == indices.size(),
                 "write_pages_stamped: " << stamps.size() << " stamps for "
                                         << indices.size() << " indices");
  // Virtual dispatch: on a plain device this is the batched file write;
  // on a coordinator the data fans out to its replica set.
  const std::vector<std::int32_t> idx = indices;
  write_pages(std::move(pages), std::move(indices));
  std::lock_guard lock(io_mu_);
  if (stamps_.size() < static_cast<std::size_t>(number_of_pages()))
    stamps_.resize(static_cast<std::size_t>(number_of_pages()), 0);
  for (std::size_t i = 0; i < idx.size(); ++i)
    stamps_[static_cast<std::size_t>(idx[i])] = stamps[i];
}

StampedPages PageDevice::read_pages_stamped(
    std::vector<std::int32_t> indices) const {
  StampedPages out;
  out.stamps = page_stamps(indices);
  out.pages = read_pages(std::move(indices));
  return out;
}

std::vector<std::uint64_t> PageDevice::page_stamps(
    std::vector<std::int32_t> indices) const {
  for (const auto idx : indices) check_index(idx);
  std::vector<std::uint64_t> out;
  out.reserve(indices.size());
  std::lock_guard lock(io_mu_);
  for (const auto idx : indices) {
    const auto i = static_cast<std::size_t>(idx);
    out.push_back(i < stamps_.size() ? stamps_[i] : 0);
  }
  return out;
}

}  // namespace oopp::storage
