#include "array/array.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "core/future.hpp"
#include "serial/bytes.hpp"
#include "telemetry/metrics.hpp"
#include "util/clock.hpp"

namespace oopp::array {

using storage::ArrayPage;
using storage::ArrayPageDevice;

namespace {

Extents3 make_grid(const Extents3& n, const Extents3& b) {
  return {ceil_div(n.n1, b.n1), ceil_div(n.n2, b.n2), ceil_div(n.n3, b.n3)};
}

}  // namespace

Array::Array(index_t N1, index_t N2, index_t N3, index_t n1, index_t n2,
             index_t n3, BlockStorage data, PageMapSpec map, IoMode io)
    : n_{N1, N2, N3},
      b_{n1, n2, n3},
      grid_(make_grid(n_, b_)),
      data_(std::move(data)),
      spec_(map),
      map_(map.instantiate(grid_, static_cast<std::int32_t>(data_.size()))),
      layout_devices_(static_cast<std::int32_t>(data_.size())),
      io_(io) {
  OOPP_CHECK_MSG(n_.volume() > 0 && b_.volume() > 0,
                 "array and page extents must be positive");
  OOPP_CHECK_MSG(!data_.empty(), "block storage is empty");
}

Array::Array(index_t N1, index_t N2, index_t N3, index_t n1, index_t n2,
             index_t n3, BlockStorage data, std::shared_ptr<PageMap> map,
             IoMode io)
    : n_{N1, N2, N3},
      b_{n1, n2, n3},
      grid_(make_grid(n_, b_)),
      data_(std::move(data)),
      custom_map_(true),
      map_(std::move(map)),
      layout_devices_(static_cast<std::int32_t>(data_.size())),
      io_(io) {
  OOPP_CHECK_MSG(n_.volume() > 0 && b_.volume() > 0,
                 "array and page extents must be positive");
  OOPP_CHECK_MSG(!data_.empty(), "block storage is empty");
  OOPP_CHECK_MSG(map_ != nullptr, "null page map");
}

Array::Array(const Array& o) {
  std::unique_lock<util::CheckedMutex> lk(o.mu_);
  OOPP_CHECK_MSG(!o.mig_,
                 "cannot copy an Array during an active redistribution");
  n_ = o.n_;
  b_ = o.b_;
  grid_ = o.grid_;
  data_ = o.data_;
  spec_ = o.spec_;
  custom_map_ = o.custom_map_;
  map_ = o.map_;  // PageMap instances are immutable: sharing is safe
  layout_devices_ = o.layout_devices_;
  slot_base_ = o.slot_base_;
  map_version_ = o.map_version_;
  io_ = o.io_;
  pages_read_.store(o.pages_read_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  pages_written_.store(o.pages_written_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

Array::Array(Array&& o) {
  std::unique_lock<util::CheckedMutex> lk(o.mu_);
  OOPP_CHECK_MSG(!o.mig_,
                 "cannot move an Array during an active redistribution");
  n_ = o.n_;
  b_ = o.b_;
  grid_ = o.grid_;
  data_ = std::move(o.data_);
  spec_ = o.spec_;
  custom_map_ = o.custom_map_;
  map_ = std::move(o.map_);
  layout_devices_ = o.layout_devices_;
  slot_base_ = o.slot_base_;
  map_version_ = o.map_version_;
  io_ = o.io_;
  pages_read_.store(o.pages_read_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  pages_written_.store(o.pages_written_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

Array& Array::operator=(Array&& o) {
  // Assignment (like any) is not thread-safe against concurrent use of
  // either operand; we only guard the invariant that migration state
  // belongs to exactly one object.
  if (this == &o) return *this;
  OOPP_CHECK_MSG(!mig_ && !o.mig_,
                 "cannot assign an Array during an active redistribution");
  n_ = o.n_;
  b_ = o.b_;
  grid_ = o.grid_;
  data_ = std::move(o.data_);
  spec_ = o.spec_;
  custom_map_ = o.custom_map_;
  map_ = std::move(o.map_);
  layout_devices_ = o.layout_devices_;
  slot_base_ = o.slot_base_;
  map_version_ = o.map_version_;
  io_ = o.io_;
  pages_read_.store(o.pages_read_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  pages_written_.store(o.pages_written_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  return *this;
}

Array& Array::operator=(const Array& o) {
  if (this == &o) return *this;
  Array tmp(o);
  *this = std::move(tmp);
  return *this;
}

Array::Array(serial::IArchive& ia) {
  std::uint8_t io = 0;
  std::uint64_t pr = 0, pw = 0;
  ia(n_.n1, n_.n2, n_.n3, b_.n1, b_.n2, b_.n3, data_, spec_, io,
     layout_devices_, slot_base_, map_version_, pr, pw);
  io_ = static_cast<IoMode>(io);
  pages_read_.store(pr, std::memory_order_relaxed);
  pages_written_.store(pw, std::memory_order_relaxed);
  rebuild_from_spec();
}

void Array::oopp_save(serial::OArchive& oa) const {
  std::unique_lock<util::CheckedMutex> lk(mu_);
  // Thrown (not asserted) so a servant hosting this Array fails the one
  // passivation call instead of taking the node down.
  if (custom_map_)
    throw Error(
        "an Array with a custom PageMap cannot be persisted; use a "
        "PageMapSpec layout",
        net::CallStatus::kInternal);
  if (mig_)
    throw Error(
        "an Array cannot be persisted during an active redistribution",
        net::CallStatus::kInternal);
  // data_ is a vector of remote pointers; const_cast is safe because
  // serializing does not mutate.
  auto& self = const_cast<Array&>(*this);
  std::uint64_t pr = pages_read(), pw = pages_written();
  oa(n_.n1, n_.n2, n_.n3, b_.n1, b_.n2, b_.n3, self.data_, self.spec_,
     static_cast<std::uint8_t>(io_), self.layout_devices_, self.slot_base_,
     self.map_version_, pr, pw);
}

void Array::rebuild_from_spec() {
  if (data_.empty()) return;  // write path of an empty handle
  grid_ = make_grid(n_, b_);
  if (layout_devices_ <= 0)
    layout_devices_ = static_cast<std::int32_t>(data_.size());
  map_ = spec_.instantiate(grid_, layout_devices_);
}

Domain Array::page_box(index_t p1, index_t p2, index_t p3) const {
  return Domain(p1 * b_.n1, std::min((p1 + 1) * b_.n1, n_.n1),
                p2 * b_.n2, std::min((p2 + 1) * b_.n2, n_.n2),
                p3 * b_.n3, std::min((p3 + 1) * b_.n3, n_.n3));
}

void Array::validate_domain(const Domain& domain) const {
  OOPP_CHECK_MSG(valid(), "operation on an empty Array handle");
  OOPP_CHECK_MSG(Domain::whole(n_).contains(domain),
                 "domain exceeds array bounds");
}

remote_ptr<ArrayPageDevice> Array::device_locked(
    std::int32_t device_id) const {
  OOPP_CHECK_MSG(device_id >= 0 &&
                     static_cast<std::size_t>(device_id) < data_.size(),
                 "page map produced device " << device_id << " out of range");
  return data_[static_cast<std::size_t>(device_id)];
}

// ---------------------------------------------------------------------------
// Resolution: physical slot = map index + the layout's slot-bank base.
// Mid-migration a page resolves through the dual map: target home once
// its bytes moved, source home otherwise.
// ---------------------------------------------------------------------------

PageAddress Array::source_address_locked(index_t p1, index_t p2,
                                         index_t p3) const {
  PageAddress a = map_->physical_page_address(p1, p2, p3);
  a.index += slot_base_;
  return a;
}

PageAddress Array::target_address_locked(index_t p1, index_t p2,
                                         index_t p3) const {
  PageAddress a = mig_->target_map->physical_page_address(p1, p2, p3);
  OOPP_CHECK(a.device_id >= 0 &&
             static_cast<std::size_t>(a.device_id) < mig_->perm.size());
  a.device_id = mig_->perm[static_cast<std::size_t>(a.device_id)];
  a.index += mig_->target_base;
  return a;
}

PageAddress Array::resolve_read_locked(index_t lin, index_t p1, index_t p2,
                                       index_t p3) const {
  if (!mig_ || !mig_->ready) return source_address_locked(p1, p2, p3);
  static auto& dual =
      telemetry::Metrics::scope_for("array.redist").counter("dual_reads");
  dual.add(1);
  ++mig_->dual_reads;
  if (mig_->state[static_cast<std::size_t>(lin)] == kMoved)
    return target_address_locked(p1, p2, p3);
  return source_address_locked(p1, p2, p3);
}

PageAddress Array::page_address(index_t p1, index_t p2, index_t p3) const {
  OOPP_CHECK_MSG(valid(), "operation on an empty Array handle");
  OOPP_CHECK_MSG(grid_.contains(p1, p2, p3), "page coordinates out of range");
  std::unique_lock<util::CheckedMutex> lk(mu_);
  return resolve_read_locked(grid_.linear(p1, p2, p3), p1, p2, p3);
}

template <class Fn>
void Array::for_each_page(const Domain& domain, Fn&& fn) const {
  if (domain.empty()) return;
  const index_t p1lo = domain.lo(0) / b_.n1;
  const index_t p1hi = ceil_div(domain.hi(0), b_.n1);
  const index_t p2lo = domain.lo(1) / b_.n2;
  const index_t p2hi = ceil_div(domain.hi(1), b_.n2);
  const index_t p3lo = domain.lo(2) / b_.n3;
  const index_t p3hi = ceil_div(domain.hi(2), b_.n3);
  struct Visit {
    index_t p1, p2, p3;
    PageAddress addr;
    remote_ptr<ArrayPageDevice> dev;
  };
  std::vector<Visit> visits;
  visits.reserve(static_cast<std::size_t>((p1hi - p1lo) * (p2hi - p2lo) *
                                          (p3hi - p3lo)));
  {
    // Resolve every page in one lock hold; fn makes remote calls, so it
    // must run without the lock.
    std::unique_lock<util::CheckedMutex> lk(mu_);
    for (index_t p1 = p1lo; p1 < p1hi; ++p1)
      for (index_t p2 = p2lo; p2 < p2hi; ++p2)
        for (index_t p3 = p3lo; p3 < p3hi; ++p3) {
          const PageAddress addr =
              resolve_read_locked(grid_.linear(p1, p2, p3), p1, p2, p3);
          visits.push_back({p1, p2, p3, addr, device_locked(addr.device_id)});
        }
  }
  for (const auto& v : visits)
    fn(v.p1, v.p2, v.p3, v.addr, v.dev, page_box(v.p1, v.p2, v.p3));
}

// ---------------------------------------------------------------------------
// Write planning: a write must know, per page, where the current bytes
// live (RMW source) and where the write lands.  Mid-migration the claim
// set over the covered pages is taken all-or-wait under one lock hold.
// ---------------------------------------------------------------------------

std::vector<Array::WriteSlot> Array::plan_writes(const Domain& domain) {
  std::vector<WriteSlot> out;
  if (domain.empty()) return out;
  const index_t p1lo = domain.lo(0) / b_.n1;
  const index_t p1hi = ceil_div(domain.hi(0), b_.n1);
  const index_t p2lo = domain.lo(1) / b_.n2;
  const index_t p2hi = ceil_div(domain.hi(1), b_.n2);
  const index_t p3lo = domain.lo(2) / b_.n3;
  const index_t p3hi = ceil_div(domain.hi(2), b_.n3);

  std::unique_lock<util::CheckedMutex> lk(mu_);
  if (mig_ && mig_->ready) {
    static auto& stall =
        telemetry::Metrics::scope_for("array.redist").counter("stall_ns");
    // All-or-wait: while ANY covered page is mid-flight we hold no claims
    // and wait, so overlapping multi-page writers can never deadlock on
    // each other's partial claims.
    for (;;) {
      index_t busy = -1;
      for (index_t p1 = p1lo; p1 < p1hi && busy < 0; ++p1)
        for (index_t p2 = p2lo; p2 < p2hi && busy < 0; ++p2)
          for (index_t p3 = p3lo; p3 < p3hi && busy < 0; ++p3) {
            const index_t lin = grid_.linear(p1, p2, p3);
            if (mig_->state[static_cast<std::size_t>(lin)] == kMoving)
              busy = lin;
          }
      if (busy < 0) break;
      const std::int64_t t0 = now_ns();
      cv_.wait(lk, [&] {
        return !mig_ || mig_->state[static_cast<std::size_t>(busy)] != kMoving;
      });
      const auto waited = static_cast<std::uint64_t>(now_ns() - t0);
      stall.add(waited);
      if (!mig_) break;
      mig_->stall_ns += waited;
    }
  }
  out.reserve(static_cast<std::size_t>((p1hi - p1lo) * (p2hi - p2lo) *
                                       (p3hi - p3lo)));
  for (index_t p1 = p1lo; p1 < p1hi; ++p1)
    for (index_t p2 = p2lo; p2 < p2hi; ++p2)
      for (index_t p3 = p3lo; p3 < p3hi; ++p3) {
        WriteSlot s;
        s.p1 = p1;
        s.p2 = p2;
        s.p3 = p3;
        s.lin = grid_.linear(p1, p2, p3);
        if (!mig_ || !mig_->ready) {
          s.read_addr = s.write_addr = source_address_locked(p1, p2, p3);
        } else if (mig_->state[static_cast<std::size_t>(s.lin)] == kMoved) {
          s.read_addr = s.write_addr = target_address_locked(p1, p2, p3);
        } else {
          // Claim: the write carries this page to its target home.
          mig_->state[static_cast<std::size_t>(s.lin)] = kMoving;
          s.claimed = true;
          s.read_addr = source_address_locked(p1, p2, p3);
          s.write_addr = target_address_locked(p1, p2, p3);
        }
        s.read_dev = device_locked(s.read_addr.device_id);
        s.write_dev = device_locked(s.write_addr.device_id);
        out.push_back(std::move(s));
      }
  return out;
}

void Array::commit_claims(const std::vector<index_t>& lins) {
  if (lins.empty()) return;
  static auto& migrated =
      telemetry::Metrics::scope_for("array.redist").counter("pages_migrated");
  static auto& writer =
      telemetry::Metrics::scope_for("array.redist").counter("writer_migrated");
  std::uint64_t n = 0;
  {
    std::unique_lock<util::CheckedMutex> lk(mu_);
    if (!mig_) return;
    for (const auto lin : lins) {
      auto& s = mig_->state[static_cast<std::size_t>(lin)];
      if (s != kMoving) continue;
      s = kMoved;
      ++mig_->moved;
      ++mig_->writer_migrated;
      ++n;
    }
    ++mig_->epoch;
  }
  cv_.notify_all();
  migrated.add(n);
  writer.add(n);
}

void Array::release_claims(const std::vector<index_t>& lins) {
  if (lins.empty()) return;
  {
    std::unique_lock<util::CheckedMutex> lk(mu_);
    if (!mig_) return;
    for (const auto lin : lins) {
      auto& s = mig_->state[static_cast<std::size_t>(lin)];
      if (s == kMoving) s = kAtSource;
    }
    ++mig_->epoch;
  }
  cv_.notify_all();
}

namespace {

/// A row-major block of doubles: (o1, o2, o3) is the global index of its
/// first element, `ext` its extents, and consecutive elements lie `step`
/// doubles apart in memory (2 for one lane of an interleaved complex
/// buffer).
struct Layout {
  index_t o1, o2, o3;
  Extents3 ext;
  std::size_t step = 1;
  [[nodiscard]] std::size_t offset(index_t i1, index_t i2, index_t i3) const {
    return static_cast<std::size_t>(ext.linear(i1 - o1, i2 - o2, i3 - o3)) *
           step;
  }
};

Layout layout_of(const Domain& domain, std::size_t step = 1) {
  return {domain.lo(0), domain.lo(1), domain.lo(2), domain.extents(), step};
}

Layout layout_of(const ArrayPage& page, index_t o1, index_t o2, index_t o3) {
  return {o1, o2, o3, page.extents()};
}

/// Copy the box `inter` from one row-major block to another.  Rows that
/// are contiguous in both blocks merge into one run: a box spanning the
/// whole last axis of both joins its i2 rows, and one spanning the last
/// two axes of both moves as a single run — so a page that holds whole
/// rows of the slice costs one copy, not one per element.  The runs are
/// walked by pointer strides and the stride test is made once per box,
/// with a loop of its own for each lane stride: the out-of-core FFT's
/// runs are only 8 elements long, so per-run index arithmetic and a
/// runtime stride showed in its op time.
void copy_box(const double* src, const Layout& s, double* dst,
              const Layout& d, const Domain& inter) {
  const Extents3 e = inter.extents();
  index_t run = e.n3, rows2 = e.n2, rows1 = e.n1;
  if (e.n3 == s.ext.n3 && e.n3 == d.ext.n3) {
    run *= rows2;
    rows2 = 1;
    if (e.n2 == s.ext.n2 && e.n2 == d.ext.n2) {
      run *= rows1;
      rows1 = 1;
    }
  }
  src += s.offset(inter.lo(0), inter.lo(1), inter.lo(2));
  dst += d.offset(inter.lo(0), inter.lo(1), inter.lo(2));
  const auto s_row = static_cast<std::size_t>(s.ext.n3) * s.step;
  const auto d_row = static_cast<std::size_t>(d.ext.n3) * d.step;
  const auto s_plane = static_cast<std::size_t>(s.ext.n2) * s_row;
  const auto d_plane = static_cast<std::size_t>(d.ext.n2) * d_row;
  const auto n = static_cast<std::size_t>(run);
  auto each_run = [&](auto copy_run) {
    for (index_t r1 = 0; r1 < rows1; ++r1)
      for (index_t r2 = 0; r2 < rows2; ++r2)
        copy_run(src + static_cast<std::size_t>(r1) * s_plane +
                     static_cast<std::size_t>(r2) * s_row,
                 dst + static_cast<std::size_t>(r1) * d_plane +
                     static_cast<std::size_t>(r2) * d_row);
  };
  if (s.step == 1 && d.step == 1) {
    each_run([n](const double* from, double* to) {
      std::memcpy(to, from, n * sizeof(double));
    });
  } else if (s.step == 1 && d.step == 2) {
    each_run([n](const double* from, double* to) {
      for (std::size_t k = 0; k < n; ++k) to[2 * k] = from[k];
    });
  } else if (s.step == 2 && d.step == 1) {
    each_run([n](const double* from, double* to) {
      for (std::size_t k = 0; k < n; ++k) to[k] = from[2 * k];
    });
  } else {
    each_run([n, ss = s.step, ds = d.step](const double* from, double* to) {
      for (std::size_t k = 0; k < n; ++k) to[k * ds] = from[k * ss];
    });
  }
}

/// A caller's slice buffer must hold the domain's elements `step` apart
/// and no whole step more.
void check_span(std::size_t size, const Domain& domain, std::size_t step) {
  OOPP_CHECK_MSG(step > 0, "slice step must be positive");
  const auto need = static_cast<std::size_t>(domain.volume()) * step;
  OOPP_CHECK_MSG(size <= need && size + step > need,
                 "buffer of " << size << " doubles does not hold the domain's "
                              << domain.volume() << " elements at step "
                              << step);
}

/// Fully covered pages a slice write packs into one shared store, instead
/// of one allocation per page.  The cap keeps the store below glibc's
/// default mmap threshold (an uncapped store per device batch was mapped
/// and unmapped on every write), keeps 64 KiB pages at one page per
/// store, and bounds what a page view outliving its write pins.
constexpr std::size_t kStoreBytes = std::size_t{64} << 10;

/// The fully covered pages `boxes` (page boxes clipped to the array) of
/// the subarray laid out as `from`, each a view of a shared store.  The
/// bytes of a clipped page beyond the array stay zero.
std::vector<ArrayPage> pack_pages(const double* src, const Layout& from,
                                  const std::vector<Domain>& boxes,
                                  const Extents3& page) {
  const auto page_bytes =
      static_cast<std::size_t>(page.volume()) * sizeof(double);
  const std::size_t per_store =
      std::max<std::size_t>(1, kStoreBytes / page_bytes);
  std::vector<ArrayPage> pages;
  pages.reserve(boxes.size());
  for (std::size_t first = 0; first < boxes.size(); first += per_store) {
    const std::size_t n = std::min(per_store, boxes.size() - first);
    std::vector<std::byte> store;
    store.reserve(n * page_bytes);
    for (std::size_t i = first; i < first + n; ++i) {
      const std::size_t at = store.size();
      store.resize(at + page_bytes);
      const Domain& box = boxes[i];
      copy_box(src, from, reinterpret_cast<double*>(store.data() + at),
               {box.lo(0), box.lo(1), box.lo(2), page}, box);
    }
    const serial::Bytes bytes = serial::Bytes::adopt(std::move(store));
    for (std::size_t j = 0; j < n; ++j)
      pages.emplace_back(static_cast<int>(page.n1), static_cast<int>(page.n2),
                         static_cast<int>(page.n3),
                         bytes.subview(j * page_bytes, page_bytes));
  }
  return pages;
}

}  // namespace

// ---------------------------------------------------------------------------
// Async slice I/O: the send half groups pages per device and issues ONE
// batched call per device; the receive half (the futures' get_into()/get())
// decodes and assembles.  The window between the two is the pipeline's
// overlap.
// ---------------------------------------------------------------------------

void SliceReadFuture::wait() {
  if (done_) return;
  for (auto& b : batches_) b.fut.wait();
}

void SliceReadFuture::get_into(std::span<double> out, std::size_t step) {
  OOPP_CHECK_MSG(valid(), "SliceReadFuture already received");
  check_span(out.size(), domain_, step);
  done_ = true;
  const Layout to = layout_of(domain_, step);
  for (auto& b : batches_) {
    const std::vector<ArrayPage> pages = b.fut.get();
    OOPP_CHECK(pages.size() == b.pieces.size());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const auto& pc = b.pieces[i];
      copy_box(pages[i].values(), layout_of(pages[i], pc.o1, pc.o2, pc.o3),
               out.data(), to, pc.inter);
    }
  }
}

std::vector<double> SliceReadFuture::get() {
  OOPP_CHECK_MSG(valid(), "SliceReadFuture already received");
  std::vector<double> out(static_cast<std::size_t>(domain_.volume()));
  get_into(out);
  return out;
}

SliceWriteFuture::SliceWriteFuture(SliceWriteFuture&& o) noexcept
    : writes_(std::move(o.writes_)),
      rmw_(std::move(o.rmw_)),
      overlaps_(std::move(o.overlaps_)),
      done_(o.done_),
      owner_(o.owner_),
      claimed_(std::move(o.claimed_)) {
  o.done_ = true;
  o.owner_ = nullptr;
  o.claimed_.clear();
}

SliceWriteFuture& SliceWriteFuture::operator=(SliceWriteFuture&& o) noexcept {
  if (this == &o) return *this;
  if (owner_ && !claimed_.empty()) owner_->release_claims(claimed_);
  writes_ = std::move(o.writes_);
  rmw_ = std::move(o.rmw_);
  overlaps_ = std::move(o.overlaps_);
  done_ = o.done_;
  owner_ = o.owner_;
  claimed_ = std::move(o.claimed_);
  o.done_ = true;
  o.owner_ = nullptr;
  o.claimed_.clear();
  return *this;
}

SliceWriteFuture::~SliceWriteFuture() {
  // An abandoned (or failed) in-flight write hands its claims back: the
  // pages stay at the source and the migrator copies them.  The dropped
  // write was never awaited, so whether it took effect is indeterminate
  // either way.
  if (owner_ && !claimed_.empty()) owner_->release_claims(claimed_);
}

void SliceWriteFuture::get() {
  OOPP_CHECK_MSG(valid(), "SliceWriteFuture::get() called twice");
  done_ = true;
  // Finish the read-modify-write of partially covered pages: harvest the
  // batched reads, overlay the overlap boxes copied at issue, and send the
  // batched writes (to the write-side device, which differs from the read
  // side mid-migration).
  for (auto& r : rmw_) {
    std::vector<ArrayPage> pages = r.fut.get();
    OOPP_CHECK(pages.size() == r.pieces.size());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const auto& pc = r.pieces[i];
      copy_box(overlaps_.data() + pc.offset, layout_of(pc.inter),
               pages[i].values(), layout_of(pages[i], pc.o1, pc.o2, pc.o3),
               pc.inter);
    }
    writes_.push_back(r.write_dev.async<&ArrayPageDevice::write_arrays>(
        std::move(pages), r.indices));
  }
  rmw_.clear();
  overlaps_.clear();
  for (auto& w : writes_) w.get();
  writes_.clear();
  // Only after every device acknowledged may the claimed pages flip to
  // moved — a reader resolving "moved" must find the bytes in place.
  if (owner_ && !claimed_.empty()) owner_->commit_claims(claimed_);
  claimed_.clear();
  owner_ = nullptr;
}

SliceReadFuture Array::async_read_slice(const Domain& domain) const {
  validate_domain(domain);
  SliceReadFuture op;
  op.domain_ = domain;
  if (domain.empty()) return op;

  struct Build {
    remote_ptr<ArrayPageDevice> dev;
    std::vector<std::int32_t> indices;
    std::vector<SliceReadFuture::Piece> pieces;
  };
  std::map<std::int32_t, Build> per_dev;
  for_each_page(domain, [&](index_t p1, index_t p2, index_t p3,
                            const PageAddress& addr,
                            const remote_ptr<ArrayPageDevice>& dev,
                            const Domain& box) {
    const Domain inter = domain.intersect(box);
    if (inter.empty()) return;
    auto& b = per_dev[addr.device_id];
    b.dev = dev;
    b.indices.push_back(addr.index);
    b.pieces.push_back({inter, p1 * b_.n1, p2 * b_.n2, p3 * b_.n3});
  });

  op.batches_.reserve(per_dev.size());
  for (auto& [dev_id, b] : per_dev) {
    pages_read_ += b.indices.size();
    SliceReadFuture::Batch batch;
    batch.fut = b.dev.async<&ArrayPageDevice::read_arrays>(b.indices);
    batch.pieces = std::move(b.pieces);
    op.batches_.push_back(std::move(batch));
  }
  return op;
}

SliceWriteFuture Array::async_write_slice(std::span<const double> src,
                                          const Domain& domain,
                                          std::size_t step) {
  validate_domain(domain);
  check_span(src.size(), domain, step);
  SliceWriteFuture op;
  if (domain.empty()) return op;

  const std::vector<WriteSlot> slots = plan_writes(domain);
  op.owner_ = this;

  struct Build {
    remote_ptr<ArrayPageDevice> read_dev, write_dev;
    std::vector<std::int32_t> full_indices;
    std::vector<Domain> full_boxes;
    std::vector<std::int32_t> part_read_indices;
    std::vector<std::int32_t> part_write_indices;
    std::vector<SliceWriteFuture::Piece> part_pieces;
  };
  // Keyed on the {read device, write device} pair: mid-migration the RMW
  // read side and the write side of a page may be different devices.
  std::map<std::pair<std::int32_t, std::int32_t>, Build> per_dev;
  std::size_t overlap = 0;
  for (const auto& sl : slots) {
    const Domain box = page_box(sl.p1, sl.p2, sl.p3);
    const Domain inter = domain.intersect(box);
    if (inter.empty()) continue;
    if (sl.claimed) op.claimed_.push_back(sl.lin);
    auto& b = per_dev[{sl.read_addr.device_id, sl.write_addr.device_id}];
    b.read_dev = sl.read_dev;
    b.write_dev = sl.write_dev;
    if (inter == box) {
      // Fully covered: built here, no read needed.
      b.full_indices.push_back(sl.write_addr.index);
      b.full_boxes.push_back(box);
    } else {
      b.part_read_indices.push_back(sl.read_addr.index);
      b.part_write_indices.push_back(sl.write_addr.index);
      b.part_pieces.push_back(
          {inter, sl.p1 * b_.n1, sl.p2 * b_.n2, sl.p3 * b_.n3, overlap});
      overlap += static_cast<std::size_t>(inter.volume());
    }
  }

  const Layout from = layout_of(domain, step);
  op.overlaps_.resize(overlap);
  for (auto& [key, b] : per_dev) {
    if (!b.full_indices.empty()) {
      pages_written_ += b.full_indices.size();
      op.writes_.push_back(b.write_dev.async<&ArrayPageDevice::write_arrays>(
          pack_pages(src.data(), from, b.full_boxes, b_),
          std::move(b.full_indices)));
    }
    if (!b.part_read_indices.empty()) {
      for (const auto& pc : b.part_pieces)
        copy_box(src.data(), from, op.overlaps_.data() + pc.offset,
                 layout_of(pc.inter), pc.inter);
      pages_read_ += b.part_read_indices.size();
      pages_written_ += b.part_read_indices.size();
      SliceWriteFuture::RmwBatch r;
      r.write_dev = b.write_dev;
      r.fut = b.read_dev.async<&ArrayPageDevice::read_arrays>(
          b.part_read_indices);
      r.indices = std::move(b.part_write_indices);
      r.pieces = std::move(b.part_pieces);
      op.rmw_.push_back(std::move(r));
    }
  }
  return op;
}

std::vector<double> Array::read(const Domain& domain) const {
  validate_domain(domain);
  std::vector<double> out(static_cast<std::size_t>(domain.volume()));
  if (domain.empty()) return out;

  if (io_ == IoMode::kSequential) {
    // Paper §2: each page's whole round trip completes before the next.
    for_each_page(domain, [&](index_t p1, index_t p2, index_t p3,
                              const PageAddress& addr,
                              const remote_ptr<ArrayPageDevice>& dev,
                              const Domain& box) {
      const Domain inter = domain.intersect(box);
      if (inter.empty()) return;
      const ArrayPage page =
          dev.call<&ArrayPageDevice::read_array>(addr.index);
      copy_box(page.values(),
               layout_of(page, p1 * b_.n1, p2 * b_.n2, p3 * b_.n3),
               out.data(), layout_of(domain), inter);
      ++pages_read_;
    });
    return out;
  }

  // Paper §4 upgraded: one batched send per device, then the receive half.
  auto op = async_read_slice(domain);
  op.get_into(out);
  return out;
}

void Array::write(const std::vector<double>& subarray, const Domain& domain) {
  validate_domain(domain);
  OOPP_CHECK_MSG(
      subarray.size() == static_cast<std::size_t>(domain.volume()),
      "subarray has " << subarray.size() << " elements, domain needs "
                      << domain.volume());
  if (domain.empty()) return;

  if (io_ == IoMode::kSequential) {
    const std::vector<WriteSlot> slots = plan_writes(domain);
    std::vector<index_t> claimed;
    for (const auto& sl : slots)
      if (sl.claimed) claimed.push_back(sl.lin);
    try {
      for (const auto& sl : slots) {
        const Domain box = page_box(sl.p1, sl.p2, sl.p3);
        const Domain inter = domain.intersect(box);
        if (inter.empty()) continue;
        const index_t o1 = sl.p1 * b_.n1, o2 = sl.p2 * b_.n2,
                      o3 = sl.p3 * b_.n3;
        const bool full = inter == box;
        ArrayPage page =
            full ? ArrayPage(static_cast<int>(b_.n1), static_cast<int>(b_.n2),
                             static_cast<int>(b_.n3))
                 : sl.read_dev.call<&ArrayPageDevice::read_array>(
                       sl.read_addr.index);
        copy_box(subarray.data(), layout_of(domain), page.values(),
                 layout_of(page, o1, o2, o3), inter);
        sl.write_dev.call<&ArrayPageDevice::write_array>(page,
                                                         sl.write_addr.index);
        if (!full) ++pages_read_;
        ++pages_written_;
      }
    } catch (...) {
      release_claims(claimed);
      throw;
    }
    commit_claims(claimed);
    return;
  }

  // The slice write reads the buffer before it returns and is the one
  // parallel write path, so the blocking call goes through it too.
  // oopp-lint: allow(async-then-immediate-get) see above
  async_write_slice(subarray, domain).get();
}

double Array::sum(const Domain& domain) const {
  validate_domain(domain);
  if (domain.empty()) return 0.0;

  std::vector<Future<double>> partials;
  double acc = 0.0;

  for_each_page(domain, [&](index_t p1, index_t p2, index_t p3,
                            const PageAddress& addr,
                            const remote_ptr<ArrayPageDevice>& dev,
                            const Domain& box) {
    const Domain inter = domain.intersect(box);
    if (inter.empty()) return;
    const index_t o1 = p1 * b_.n1, o2 = p2 * b_.n2, o3 = p3 * b_.n3;
    // The partial reduction runs on the device's machine; only the scalar
    // comes back (paper §3: "move the computation to the data").
    if (io_ == IoMode::kSequential) {
      acc += dev.call<&ArrayPageDevice::sum_region>(
          addr.index, inter.lo(0) - o1, inter.hi(0) - o1, inter.lo(1) - o2,
          inter.hi(1) - o2, inter.lo(2) - o3, inter.hi(2) - o3);
      ++pages_read_;
    } else {
      partials.push_back(dev.async<&ArrayPageDevice::sum_region>(
          addr.index, inter.lo(0) - o1, inter.hi(0) - o1, inter.lo(1) - o2,
          inter.hi(1) - o2, inter.lo(2) - o3, inter.hi(2) - o3));
    }
  });

  // Deterministic combination order: page iteration order.
  for (auto& f : partials) {
    acc += f.get();
    ++pages_read_;
  }
  return acc;
}

double Array::sum_all() const { return sum(Domain::whole(n_)); }

double Array::reduce(ReduceOp op, const Domain& domain) const {
  validate_domain(domain);
  OOPP_CHECK_MSG(!domain.empty(), "reduction over an empty domain");

  double acc = 0.0;
  if (op == ReduceOp::kMin) acc = std::numeric_limits<double>::infinity();
  if (op == ReduceOp::kMax) acc = -std::numeric_limits<double>::infinity();
  auto combine = [&](double partial) {
    if (op == ReduceOp::kMin)
      acc = std::min(acc, partial);
    else if (op == ReduceOp::kMax)
      acc = std::max(acc, partial);
    else
      acc += partial;
  };

  std::vector<Future<double>> partials;
  for_each_page(domain, [&](index_t p1, index_t p2, index_t p3,
                            const PageAddress& addr,
                            const remote_ptr<ArrayPageDevice>& dev,
                            const Domain& box) {
    const Domain inter = domain.intersect(box);
    if (inter.empty()) return;
    const index_t o1 = p1 * b_.n1, o2 = p2 * b_.n2, o3 = p3 * b_.n3;
    if (io_ == IoMode::kSequential) {
      combine(dev.call<&ArrayPageDevice::reduce_region>(
          op, addr.index, inter.lo(0) - o1, inter.hi(0) - o1,
          inter.lo(1) - o2, inter.hi(1) - o2, inter.lo(2) - o3,
          inter.hi(2) - o3));
      ++pages_read_;
    } else {
      partials.push_back(dev.async<&ArrayPageDevice::reduce_region>(
          op, addr.index, inter.lo(0) - o1, inter.hi(0) - o1,
          inter.lo(1) - o2, inter.hi(1) - o2, inter.lo(2) - o3,
          inter.hi(2) - o3));
    }
  });
  for (auto& f : partials) {
    combine(f.get());
    ++pages_read_;
  }
  return acc;
}

double Array::norm2(const Domain& domain) const {
  return std::sqrt(reduce(ReduceOp::kSumSq, domain));
}

void Array::update(UpdateOp op, double s, const Domain& domain) {
  validate_domain(domain);
  if (domain.empty()) return;

  const std::vector<WriteSlot> slots = plan_writes(domain);
  std::vector<index_t> claimed;
  for (const auto& sl : slots)
    if (sl.claimed) claimed.push_back(sl.lin);
  // In-place updates apply at each page's LIVE home (read_addr): a
  // claimed page is updated at its source slot and released back to the
  // migrator, which copies the updated bytes later; a moved page is
  // updated at its target slot.
  try {
    std::vector<Future<void>> futs;
    for (const auto& sl : slots) {
      const Domain box = page_box(sl.p1, sl.p2, sl.p3);
      const Domain inter = domain.intersect(box);
      if (inter.empty()) continue;
      const index_t o1 = sl.p1 * b_.n1, o2 = sl.p2 * b_.n2,
                    o3 = sl.p3 * b_.n3;
      const auto& dev = sl.read_dev;
      if (io_ == IoMode::kSequential) {
        dev.call<&ArrayPageDevice::update_region>(
            op, s, sl.read_addr.index, inter.lo(0) - o1, inter.hi(0) - o1,
            inter.lo(1) - o2, inter.hi(1) - o2, inter.lo(2) - o3,
            inter.hi(2) - o3);
        ++pages_written_;
      } else {
        futs.push_back(dev.async<&ArrayPageDevice::update_region>(
            op, s, sl.read_addr.index, inter.lo(0) - o1, inter.hi(0) - o1,
            inter.lo(1) - o2, inter.hi(1) - o2, inter.lo(2) - o3,
            inter.hi(2) - o3));
      }
    }
    for (auto& f : futs) {
      f.get();
      ++pages_written_;
    }
  } catch (...) {
    release_claims(claimed);
    throw;
  }
  release_claims(claimed);
}

double Array::get(index_t i1, index_t i2, index_t i3) const {
  return read(Domain(i1, i1 + 1, i2, i2 + 1, i3, i3 + 1))[0];
}

void Array::set(index_t i1, index_t i2, index_t i3, double v) {
  write({v}, Domain(i1, i1 + 1, i2, i2 + 1, i3, i3 + 1));
}

// ---------------------------------------------------------------------------
// Online re-layout (docs/REDISTRIBUTION.md).
// ---------------------------------------------------------------------------

std::uint64_t Array::map_version() const {
  std::unique_lock<util::CheckedMutex> lk(mu_);
  return map_version_;
}

std::int32_t Array::device_count() const {
  std::unique_lock<util::CheckedMutex> lk(mu_);
  return static_cast<std::int32_t>(data_.size());
}

bool Array::valid() const {
  std::unique_lock<util::CheckedMutex> lk(mu_);
  return valid_locked();
}

PageMapSpec Array::layout() const {
  std::unique_lock<util::CheckedMutex> lk(mu_);
  return spec_;
}

bool Array::migrating() const {
  std::unique_lock<util::CheckedMutex> lk(mu_);
  return mig_ != nullptr;
}

void Array::attach_device(remote_ptr<storage::ArrayPageDevice> dev) {
  OOPP_CHECK_MSG(valid(), "attach_device on an empty Array handle");
  // Shape compatibility is validated with remote calls BEFORE taking mu_
  // (the lock is never held across a remote call).
  const Extents3 shape{dev.call<&ArrayPageDevice::n1>(),
                       dev.call<&ArrayPageDevice::n2>(),
                       dev.call<&ArrayPageDevice::n3>()};
  if (shape != b_)
    throw Error("attach_device: device page shape {" +
                    std::to_string(shape.n1) + "," + std::to_string(shape.n2) +
                    "," + std::to_string(shape.n3) +
                    "} does not match the array's page shape",
                net::CallStatus::kInternal);
  static auto& attached =
      telemetry::Metrics::scope_for("array.redist").counter(
          "devices_attached");
  {
    std::unique_lock<util::CheckedMutex> lk(mu_);
    if (mig_)
      throw Error(
          "attach_device during an active redistribution is not allowed",
          net::CallStatus::kInternal);
    data_.push_back(std::move(dev));
  }
  attached.add(1);
}

RedistStats Array::detach_device(std::int32_t device_id, RedistOptions opts) {
  PageMapSpec target;
  {
    std::unique_lock<util::CheckedMutex> lk(mu_);
    OOPP_CHECK_MSG(valid_locked(), "detach_device on an empty Array handle");
    if (custom_map_)
      throw Error(
          "detach_device needs a PageMapSpec layout; redistribute to one "
          "first",
          net::CallStatus::kInternal);
    target = spec_;  // re-lay the same policy over the remaining devices
  }
  static auto& detached =
      telemetry::Metrics::scope_for("array.redist").counter(
          "devices_detached");
  RedistStats st = redistribute_impl(target, device_id, opts);
  detached.add(1);
  return st;
}

RedistStats Array::redistribute(PageMapSpec target, RedistOptions opts) {
  return redistribute_impl(target, /*drop=*/-1, opts);
}

RedistStats Array::redistribute_impl(PageMapSpec target, std::int32_t drop,
                                     RedistOptions opts) {
  if (opts.batch_pages <= 0)
    throw Error("redistribute: batch_pages must be positive",
                net::CallStatus::kInternal);
  const std::int64_t t_start = now_ns();
  auto& scope = telemetry::Metrics::scope_for("array.redist");
  static auto& redists_c = scope.counter("redistributions");
  static auto& migrated_c = scope.counter("pages_migrated");
  static auto& stall_c = scope.counter("stall_ns");

  struct Move {
    index_t lin = 0;
    PageAddress src{};  // data_-space device id, bank-resolved slot
    PageAddress dst{};
  };
  std::vector<Move> order;
  std::vector<remote_ptr<ArrayPageDevice>> devs;
  std::vector<std::int32_t> perm;
  std::int32_t tbase = 0;
  index_t total = 0;
  std::uint64_t version = 0;

  {
    std::unique_lock<util::CheckedMutex> lk(mu_);
    OOPP_CHECK_MSG(valid_locked(), "redistribute on an empty Array handle");
    if (mig_)
      throw Error("a redistribution is already in progress on this Array",
                  net::CallStatus::kInternal);
    const auto D = static_cast<std::int32_t>(data_.size());
    if (drop >= 0) {
      if (drop >= D)
        throw Error("detach_device: device " + std::to_string(drop) +
                        " out of range",
                    net::CallStatus::kInternal);
      if (D <= 1)
        throw Error("detach_device: cannot detach the only device",
                    net::CallStatus::kInternal);
      for (std::int32_t i = 0; i < D; ++i)
        if (i != drop) perm.push_back(i);
    } else {
      perm.resize(static_cast<std::size_t>(D));
      std::iota(perm.begin(), perm.end(), 0);
    }
    const auto TD = static_cast<std::int32_t>(perm.size());
    target.validate(grid_, TD);
    auto tmap = target.instantiate(grid_, TD);
    total = grid_.volume();

    // Resolve every source address now (the source map never changes
    // again) and find the occupied bank's upper edge.  The scan also
    // bounds-checks a custom map's output before any slot math.
    order.reserve(static_cast<std::size_t>(total));
    index_t cur_hi = slot_base_;
    for (index_t p1 = 0; p1 < grid_.n1; ++p1)
      for (index_t p2 = 0; p2 < grid_.n2; ++p2)
        for (index_t p3 = 0; p3 < grid_.n3; ++p3) {
          PageAddress src = map_->physical_page_address(p1, p2, p3);
          if (src.device_id < 0 || src.device_id >= D || src.index < 0)
            throw Error("redistribute: page map produced physical address "
                        "{" +
                            std::to_string(src.device_id) + ", " +
                            std::to_string(src.index) + "} out of range",
                        net::CallStatus::kInternal);
          src.index += slot_base_;
          cur_hi = std::max<index_t>(cur_hi, src.index + 1);
          PageAddress dst = tmap->physical_page_address(p1, p2, p3);
          dst.device_id = perm[static_cast<std::size_t>(dst.device_id)];
          order.push_back({grid_.linear(p1, p2, p3), src, dst});
        }

    // Slot-bank placement: while both layouts are live the target bank
    // must not alias any source slot on a shared device.  It goes below
    // the current bank when it fits ([0, smax) vs [slot_base_, cur_hi)),
    // else just past the highest occupied source slot.
    index_t smax = 0;
    for (std::int32_t d = 0; d < TD; ++d)
      smax = std::max(smax, target.pages_on_device(grid_, TD, d));
    tbase = smax <= static_cast<index_t>(slot_base_)
                ? 0
                : static_cast<std::int32_t>(cur_hi);
    for (auto& m : order) m.dst.index += tbase;

    mig_ = std::make_unique<Migration>();
    mig_->target_spec = target;
    mig_->target_map = std::move(tmap);
    mig_->perm = perm;
    mig_->target_base = tbase;
    mig_->state.assign(static_cast<std::size_t>(total), kAtSource);
    version = ++map_version_;
    devs = data_;
  }
  redists_c.add(1);

  // Visit pages in (source device, source slot) order so the batched
  // reads drain each device in contiguous ascending runs (the same seek
  // amortization the out-of-core pipeline relies on).
  std::sort(order.begin(), order.end(), [](const Move& a, const Move& b) {
    return a.src.device_id != b.src.device_id
               ? a.src.device_id < b.src.device_id
               : a.src.index < b.src.index;
  });

  // Provision the target slot banks (grow-only; a no-op when they fit).
  // The dual map stays dormant (mig_->ready == false) until every bank
  // exists: a concurrent writer resolving the target home of a page
  // before this loop finished would land on an unprovisioned slot.
  try {
    for (std::int32_t d = 0; d < static_cast<std::int32_t>(perm.size());
         ++d) {
      const index_t need = target.pages_on_device(
          grid_, static_cast<std::int32_t>(perm.size()), d);
      if (need > 0)
        devs[static_cast<std::size_t>(perm[static_cast<std::size_t>(d)])]
            .call<&storage::PageDevice::ensure_capacity>(
                static_cast<int>(tbase + need));
    }
  } catch (...) {
    // No page moved and no claim exists yet: abort the migration whole.
    {
      std::unique_lock<util::CheckedMutex> lk(mu_);
      mig_.reset();
    }
    cv_.notify_all();
    throw;
  }
  {
    std::unique_lock<util::CheckedMutex> lk(mu_);
    mig_->ready = true;
  }

  RedistStats st;
  for (;;) {
    // Claim the next batch of unmoved pages, all from one source device.
    std::vector<Move> batch;
    bool complete = false;
    {
      std::unique_lock<util::CheckedMutex> lk(mu_);
      for (;;) {
        for (std::size_t i = 0;
             i < order.size() &&
             batch.size() < static_cast<std::size_t>(opts.batch_pages);
             ++i) {
          const Move& m = order[i];
          if (mig_->state[static_cast<std::size_t>(m.lin)] != kAtSource)
            continue;
          if (!batch.empty() &&
              m.src.device_id != batch.front().src.device_id)
            break;
          mig_->state[static_cast<std::size_t>(m.lin)] = kMoving;
          batch.push_back(m);
        }
        if (!batch.empty() || mig_->moved >= total) break;
        // Everything left is claimed by in-flight writers; wait for a
        // claim to resolve (commit or release) and rescan.
        const std::uint64_t e = mig_->epoch;
        cv_.wait(lk,
                 [&] { return mig_->moved >= total || mig_->epoch != e; });
      }
      if (batch.empty()) {
        // All pages are at their target homes: install the new layout.
        st.writer_migrated = mig_->writer_migrated;
        st.dual_reads = mig_->dual_reads;
        st.stall_ns = mig_->stall_ns;
        spec_ = mig_->target_spec;
        custom_map_ = false;
        map_ = mig_->target_map;
        layout_devices_ = static_cast<std::int32_t>(mig_->perm.size());
        slot_base_ = mig_->target_base;
        if (drop >= 0) {
          BlockStorage nd;
          nd.reserve(mig_->perm.size());
          for (const auto j : mig_->perm)
            nd.push_back(data_[static_cast<std::size_t>(j)]);
          data_ = std::move(nd);
        }
        mig_.reset();
        complete = true;
      }
    }
    if (complete) {
      cv_.notify_all();
      break;
    }

    try {
      // Re-layout barrier on both sides of the copy: DSM caches recall
      // dirty bytes into the source slots before we read them and drop
      // cached copies of the target slots before we overwrite them.
      std::vector<std::int32_t> src_idx;
      src_idx.reserve(batch.size());
      for (const auto& m : batch) src_idx.push_back(m.src.index);
      const auto src_dev =
          devs[static_cast<std::size_t>(batch.front().src.device_id)];
      src_dev.call<&ArrayPageDevice::quiesce_pages>(src_idx, version);

      std::map<std::int32_t, std::vector<std::size_t>> by_dst;
      for (std::size_t i = 0; i < batch.size(); ++i)
        by_dst[batch[i].dst.device_id].push_back(i);
      for (auto& [d, pos] : by_dst) {
        std::sort(pos.begin(), pos.end(), [&](std::size_t a, std::size_t b) {
          return batch[a].dst.index < batch[b].dst.index;
        });
        std::vector<std::int32_t> dst_idx;
        dst_idx.reserve(pos.size());
        for (const auto p : pos) dst_idx.push_back(batch[p].dst.index);
        devs[static_cast<std::size_t>(d)]
            .call<&ArrayPageDevice::quiesce_pages>(dst_idx, version);
      }

      std::vector<ArrayPage> pages =
          src_dev.call<&ArrayPageDevice::read_arrays>(src_idx);
      OOPP_CHECK(pages.size() == batch.size());
      for (auto& [d, pos] : by_dst) {
        std::vector<ArrayPage> out;
        std::vector<std::int32_t> dst_idx;
        out.reserve(pos.size());
        dst_idx.reserve(pos.size());
        for (const auto p : pos) {
          out.push_back(std::move(pages[p]));
          dst_idx.push_back(batch[p].dst.index);
        }
        devs[static_cast<std::size_t>(d)]
            .call<&ArrayPageDevice::write_arrays>(std::move(out), dst_idx);
      }
    } catch (...) {
      // Hand the batch back; the migration stays open (reads and writes
      // keep resolving correctly through the dual map) and the caller
      // decides what to do with the device error.
      release_claims([&] {
        std::vector<index_t> lins;
        lins.reserve(batch.size());
        for (const auto& m : batch) lins.push_back(m.lin);
        return lins;
      }());
      throw;
    }

    {
      std::unique_lock<util::CheckedMutex> lk(mu_);
      for (const auto& m : batch)
        mig_->state[static_cast<std::size_t>(m.lin)] = kMoved;
      mig_->moved += static_cast<index_t>(batch.size());
      ++mig_->epoch;
    }
    cv_.notify_all();
    st.pages_migrated += batch.size();
    migrated_c.add(batch.size());
  }

  st.map_version = version;
  st.duration_ns = static_cast<std::uint64_t>(now_ns() - t_start);
  stall_c.add(0);  // materialize the counter even on stall-free runs
  return st;
}

}  // namespace oopp::array
