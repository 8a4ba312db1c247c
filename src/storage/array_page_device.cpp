#include "storage/array_page_device.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace oopp::storage {

namespace {
int block_bytes(int n1, int n2, int n3) {
  return static_cast<int>(static_cast<std::size_t>(n1) * n2 * n3 *
                          sizeof(double));
}
}  // namespace

ArrayPageDevice::ArrayPageDevice(std::string filename, int number_of_pages,
                                 int n1, int n2, int n3)
    : ArrayPageDevice(std::move(filename), number_of_pages, n1, n2, n3,
                      DeviceOptions{}) {}

ArrayPageDevice::ArrayPageDevice(std::string filename, int number_of_pages,
                                 int n1, int n2, int n3,
                                 DeviceOptions options)
    : PageDevice(std::move(filename), number_of_pages,
                 block_bytes(n1, n2, n3), options),
      extents_{n1, n2, n3} {}

ArrayPageDevice::ArrayPageDevice(remote_ptr<PageDevice> existing, int n1,
                                 int n2, int n3)
    : PageDevice(existing.call<&PageDevice::backing_file>(),
                 existing.call<&PageDevice::number_of_pages>(),
                 existing.call<&PageDevice::page_size>(), DeviceOptions{},
                 /*truncate=*/false),
      extents_{n1, n2, n3} {
  OOPP_CHECK_MSG(page_size_ == block_bytes(n1, n2, n3),
                 "existing device page size "
                     << page_size_ << " != " << n1 << "x" << n2 << "x" << n3
                     << " doubles");
}

ArrayPageDevice::ArrayPageDevice(NoBackingTag tag, int number_of_pages,
                                 int n1, int n2, int n3,
                                 DeviceOptions options)
    : PageDevice(tag, number_of_pages, block_bytes(n1, n2, n3), options),
      extents_{n1, n2, n3} {}

ArrayPageDevice::ArrayPageDevice(serial::IArchive& ia) : PageDevice(ia) {
  ia(extents_.n1, extents_.n2, extents_.n3);
}

void ArrayPageDevice::oopp_save(serial::OArchive& oa) const {
  PageDevice::oopp_save(oa);
  oa(extents_.n1, extents_.n2, extents_.n3);
}

ArrayPage ArrayPageDevice::read_array(int page_index) const {
  return ArrayPage(static_cast<int>(extents_.n1), static_cast<int>(extents_.n2),
                   static_cast<int>(extents_.n3), read(page_index).bytes());
}

void ArrayPageDevice::write_array(const ArrayPage& p, int page_index) {
  OOPP_CHECK_MSG(p.extents() == extents_,
                 "array page extents do not match device block shape");
  write(p, page_index);
}

std::vector<ArrayPage> ArrayPageDevice::read_arrays(
    std::vector<std::int32_t> indices) const {
  // The blocks wrap the bytes read_pages read: the reply splices each one
  // and the client assembles straight from it.
  std::vector<Page> raw = read_pages(std::move(indices));
  std::vector<ArrayPage> out;
  out.reserve(raw.size());
  for (const auto& p : raw)
    out.emplace_back(static_cast<int>(extents_.n1),
                     static_cast<int>(extents_.n2),
                     static_cast<int>(extents_.n3), p.bytes());
  return out;
}

void ArrayPageDevice::write_arrays(std::vector<ArrayPage> pages,
                                   std::vector<std::int32_t> indices) {
  std::vector<Page> raw;
  raw.reserve(pages.size());
  for (auto& p : pages) {
    OOPP_CHECK_MSG(p.extents() == extents_,
                   "array page extents do not match device block shape");
    raw.push_back(std::move(p));  // slices to the Page base: same bytes
  }
  write_pages(std::move(raw), std::move(indices));
}

void ArrayPageDevice::quiesce_pages(std::vector<std::int32_t> indices,
                                    std::uint64_t map_version) {
  // No cache layer here: just validate the slots exist.  The override in
  // dsm::CoherentDevice does the real recall/invalidate work.
  (void)map_version;
  for (const auto idx : indices) check_index(idx);
}

void ArrayPageDevice::pull_page(remote_ptr<ArrayPageDevice> source,
                                int source_index, int dst_index) {
  OOPP_CHECK(source.valid());
  // Nested remote read on the peer device; the bytes land here directly.
  // read_unordered is reentrant on the peer, so mutual pulls between two
  // devices cannot deadlock on each other's command queues.
  const Page page = source.call<&PageDevice::read_unordered>(source_index);
  write(page, dst_index);
}

double ArrayPageDevice::sum(int page_address) const {
  return read_array(page_address).sum();
}

double ArrayPageDevice::sum_region(int page_address, index_t lo1, index_t hi1,
                                   index_t lo2, index_t hi2, index_t lo3,
                                   index_t hi3) const {
  return reduce_region(Reduce::kSum, page_address, lo1, hi1, lo2, hi2, lo3,
                       hi3);
}

double ArrayPageDevice::reduce_region(Reduce op, int page_address,
                                      index_t lo1, index_t hi1, index_t lo2,
                                      index_t hi2, index_t lo3,
                                      index_t hi3) const {
  telemetry::LocalSpan span("storage.reduce_region");
  static auto& reductions =
      telemetry::Metrics::scope_for("storage").counter("reductions");
  reductions.add(1);
  const ArrayPage p = read_array(page_address);
  OOPP_CHECK(lo1 >= 0 && hi1 <= extents_.n1 && lo2 >= 0 &&
             hi2 <= extents_.n2 && lo3 >= 0 && hi3 <= extents_.n3);
  OOPP_CHECK_MSG(lo1 < hi1 && lo2 < hi2 && lo3 < hi3,
                 "empty region has no reduction value");
  double acc;
  switch (op) {
    case Reduce::kSum:
    case Reduce::kSumSq:
      acc = 0.0;
      break;
    case Reduce::kMin:
      acc = std::numeric_limits<double>::infinity();
      break;
    case Reduce::kMax:
      acc = -std::numeric_limits<double>::infinity();
      break;
    default:
      OOPP_CHECK_MSG(false, "unknown reduction op");
      return 0.0;
  }
  for (index_t i1 = lo1; i1 < hi1; ++i1) {
    for (index_t i2 = lo2; i2 < hi2; ++i2) {
      for (index_t i3 = lo3; i3 < hi3; ++i3) {
        const double x = p.at(i1, i2, i3);
        switch (op) {
          case Reduce::kSum:
            acc += x;
            break;
          case Reduce::kSumSq:
            acc += x * x;
            break;
          case Reduce::kMin:
            acc = std::min(acc, x);
            break;
          case Reduce::kMax:
            acc = std::max(acc, x);
            break;
        }
      }
    }
  }
  return acc;
}

void ArrayPageDevice::update_region(Update op, double s, int page_address,
                                    index_t lo1, index_t hi1, index_t lo2,
                                    index_t hi2, index_t lo3, index_t hi3) {
  ArrayPage p = read_array(page_address);
  OOPP_CHECK(lo1 >= 0 && hi1 <= extents_.n1 && lo2 >= 0 &&
             hi2 <= extents_.n2 && lo3 >= 0 && hi3 <= extents_.n3);
  double* v = p.values();
  for (index_t i1 = lo1; i1 < hi1; ++i1) {
    for (index_t i2 = lo2; i2 < hi2; ++i2) {
      for (index_t i3 = lo3; i3 < hi3; ++i3) {
        double& x = v[p.extents().linear(i1, i2, i3)];
        switch (op) {
          case Update::kFill:
            x = s;
            break;
          case Update::kScale:
            x *= s;
            break;
          case Update::kShift:
            x += s;
            break;
          default:
            OOPP_CHECK_MSG(false, "unknown update op");
        }
      }
    }
  }
  write(p, page_address);
}

}  // namespace oopp::storage
