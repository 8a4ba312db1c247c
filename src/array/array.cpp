#include "array/array.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "core/future.hpp"
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

remote_ptr<ArrayPageDevice> Array::device(std::int32_t device_id) const {
  std::unique_lock<util::CheckedMutex> lk(mu_);
  OOPP_CHECK_MSG(device_id >= 0 &&
                     static_cast<std::size_t>(device_id) < data_.size(),
                 "page map produced device " << device_id << " out of range");
  return data_[static_cast<std::size_t>(device_id)];
}

remote_ptr<ArrayPageDevice> Array::device(const PageAddress& addr) const {
  return device(addr.device_id);
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
        for (index_t p3 = p3lo; p3 < p3hi; ++p3)
          visits.push_back(
              {p1, p2, p3,
               resolve_read_locked(grid_.linear(p1, p2, p3), p1, p2, p3)});
  }
  for (const auto& v : visits)
    fn(v.p1, v.p2, v.p3, v.addr, page_box(v.p1, v.p2, v.p3));
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
        out.push_back(s);
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
/// first element, `ext` its extents.
struct Layout {
  index_t o1, o2, o3;
  Extents3 ext;
  [[nodiscard]] index_t offset(index_t i1, index_t i2, index_t i3) const {
    return ext.linear(i1 - o1, i2 - o2, i3 - o3);
  }
};

/// Copy the box `inter` from one row-major block to another.  Rows that
/// are contiguous in both blocks merge into one memcpy: a box spanning the
/// whole last axis of both joins its i2 rows, and one spanning the last
/// two axes of both moves as a single run — so a page that holds whole
/// rows of the slice costs one copy, not one per element.
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
  const auto bytes = static_cast<std::size_t>(run) * sizeof(double);
  const index_t i3 = inter.lo(2);
  for (index_t i1 = inter.lo(0); i1 < inter.lo(0) + rows1; ++i1)
    for (index_t i2 = inter.lo(1); i2 < inter.lo(1) + rows2; ++i2)
      std::memcpy(dst + d.offset(i1, i2, i3), src + s.offset(i1, i2, i3),
                  bytes);
}

Layout layout_of(const Domain& domain) {
  return {domain.lo(0), domain.lo(1), domain.lo(2), domain.extents()};
}

/// Copy the intersection region from a fetched page into the caller's
/// subarray buffer.
void page_to_buffer(const ArrayPage& page, index_t o1, index_t o2, index_t o3,
                    const Domain& inter, const Domain& domain,
                    std::vector<double>& out) {
  copy_box(page.values(), {o1, o2, o3, page.extents()}, out.data(),
           layout_of(domain), inter);
}

/// Overlay the intersection region of the caller's subarray onto a page.
void buffer_to_page(const std::vector<double>& sub, const Domain& domain,
                    const Domain& inter, index_t o1, index_t o2, index_t o3,
                    ArrayPage& page) {
  copy_box(sub.data(), layout_of(domain), page.values(),
           {o1, o2, o3, page.extents()}, inter);
}

}  // namespace

// ---------------------------------------------------------------------------
// Async slice I/O: the send half groups pages per device and issues ONE
// batched call per device; the receive half (the futures' get()) decodes
// and assembles.  The window between the two is the pipeline's overlap.
// ---------------------------------------------------------------------------

std::vector<double> SliceReadFuture::get() {
  OOPP_CHECK_MSG(valid(), "SliceReadFuture::get() called twice");
  done_ = true;
  std::vector<double> out(static_cast<std::size_t>(domain_.volume()));
  for (auto& b : batches_) {
    const std::vector<ArrayPage> pages = b.fut.get();
    OOPP_CHECK(pages.size() == b.pieces.size());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const auto& pc = b.pieces[i];
      page_to_buffer(pages[i], pc.o1, pc.o2, pc.o3, pc.inter, domain_, out);
    }
  }
  return out;
}

SliceWriteFuture::SliceWriteFuture(SliceWriteFuture&& o) noexcept
    : writes_(std::move(o.writes_)),
      rmw_(std::move(o.rmw_)),
      sub_(std::move(o.sub_)),
      domain_(o.domain_),
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
  sub_ = std::move(o.sub_);
  domain_ = o.domain_;
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

void SliceWriteFuture::finish(const std::vector<double>& sub) {
  // Finish the read-modify-write of partially covered pages: harvest the
  // batched reads, overlay, and send the batched writes (to the write-
  // side device, which differs from the read side mid-migration).
  for (auto& r : rmw_) {
    std::vector<ArrayPage> pages = r.fut.get();
    OOPP_CHECK(pages.size() == r.pieces.size());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const auto& pc = r.pieces[i];
      buffer_to_page(sub, domain_, pc.inter, pc.o1, pc.o2, pc.o3, pages[i]);
    }
    writes_.push_back(r.write_dev.async<&ArrayPageDevice::write_arrays>(
        std::move(pages), r.indices));
  }
  rmw_.clear();
  for (auto& w : writes_) w.get();
  writes_.clear();
}

void SliceWriteFuture::commit() {
  if (owner_ && !claimed_.empty()) owner_->commit_claims(claimed_);
  claimed_.clear();
  owner_ = nullptr;
}

void SliceWriteFuture::get() {
  OOPP_CHECK_MSG(valid(), "SliceWriteFuture::get() called twice");
  done_ = true;
  finish(sub_);
  sub_.clear();
  // Only after every device acknowledged may the claimed pages flip to
  // moved — a reader resolving "moved" must find the bytes in place.
  commit();
}

SliceReadFuture Array::async_read_slice(const Domain& domain) const {
  validate_domain(domain);
  SliceReadFuture op;
  op.domain_ = domain;
  if (domain.empty()) return op;

  struct Build {
    std::vector<std::int32_t> indices;
    std::vector<SliceReadFuture::Piece> pieces;
  };
  std::map<std::int32_t, Build> per_dev;
  for_each_page(domain, [&](index_t p1, index_t p2, index_t p3,
                            const PageAddress& addr, const Domain& box) {
    const Domain inter = domain.intersect(box);
    if (inter.empty()) return;
    auto& b = per_dev[addr.device_id];
    b.indices.push_back(addr.index);
    b.pieces.push_back({inter, p1 * b_.n1, p2 * b_.n2, p3 * b_.n3});
  });

  op.batches_.reserve(per_dev.size());
  for (auto& [dev_id, b] : per_dev) {
    const auto dev = device(dev_id);
    pages_read_ += b.indices.size();
    SliceReadFuture::Batch batch;
    batch.fut = dev.async<&ArrayPageDevice::read_arrays>(b.indices);
    batch.pieces = std::move(b.pieces);
    op.batches_.push_back(std::move(batch));
  }
  return op;
}

SliceWriteFuture Array::async_write_slice(std::vector<double> subarray,
                                          const Domain& domain) {
  // The builder borrows the buffer (fully covered pages are copied into
  // their ArrayPages right away); the future keeps it only for the RMW
  // overlay inside get().
  SliceWriteFuture op = build_write_slice(subarray, domain);
  op.sub_ = std::move(subarray);
  return op;
}

SliceWriteFuture Array::build_write_slice(const std::vector<double>& subarray,
                                          const Domain& domain) {
  validate_domain(domain);
  OOPP_CHECK_MSG(
      subarray.size() == static_cast<std::size_t>(domain.volume()),
      "subarray has " << subarray.size() << " elements, domain needs "
                      << domain.volume());
  SliceWriteFuture op;
  op.domain_ = domain;
  if (domain.empty()) return op;

  const std::vector<WriteSlot> slots = plan_writes(domain);
  op.owner_ = this;

  struct Build {
    std::vector<std::int32_t> full_indices;
    std::vector<ArrayPage> full_pages;
    std::vector<std::int32_t> part_read_indices;
    std::vector<std::int32_t> part_write_indices;
    std::vector<SliceWriteFuture::Piece> part_pieces;
  };
  // Keyed on the {read device, write device} pair: mid-migration the RMW
  // read side and the write side of a page may be different devices.
  std::map<std::pair<std::int32_t, std::int32_t>, Build> per_dev;
  for (const auto& sl : slots) {
    const Domain box = page_box(sl.p1, sl.p2, sl.p3);
    const Domain inter = domain.intersect(box);
    if (inter.empty()) continue;
    if (sl.claimed) op.claimed_.push_back(sl.lin);
    const index_t o1 = sl.p1 * b_.n1, o2 = sl.p2 * b_.n2, o3 = sl.p3 * b_.n3;
    auto& b = per_dev[{sl.read_addr.device_id, sl.write_addr.device_id}];
    if (inter == box) {
      // Fully covered: build the page locally, no read needed.
      ArrayPage page(static_cast<int>(b_.n1), static_cast<int>(b_.n2),
                     static_cast<int>(b_.n3));
      buffer_to_page(subarray, domain, inter, o1, o2, o3, page);
      b.full_indices.push_back(sl.write_addr.index);
      b.full_pages.push_back(std::move(page));
    } else {
      b.part_read_indices.push_back(sl.read_addr.index);
      b.part_write_indices.push_back(sl.write_addr.index);
      b.part_pieces.push_back({sl.write_addr.index, inter, o1, o2, o3});
    }
  }

  for (auto& [key, b] : per_dev) {
    const auto wdev = device(key.second);
    if (!b.full_indices.empty()) {
      pages_written_ += b.full_indices.size();
      op.writes_.push_back(wdev.async<&ArrayPageDevice::write_arrays>(
          std::move(b.full_pages), std::move(b.full_indices)));
    }
    if (!b.part_read_indices.empty()) {
      pages_read_ += b.part_read_indices.size();
      pages_written_ += b.part_read_indices.size();
      SliceWriteFuture::RmwBatch r;
      r.dev = device(key.first);
      r.write_dev = wdev;
      r.fut = r.dev.async<&ArrayPageDevice::read_arrays>(b.part_read_indices);
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
                              const PageAddress& addr, const Domain& box) {
      const Domain inter = domain.intersect(box);
      if (inter.empty()) return;
      const ArrayPage page =
          device(addr).call<&ArrayPageDevice::read_array>(addr.index);
      page_to_buffer(page, p1 * b_.n1, p2 * b_.n2, p3 * b_.n3, inter, domain,
                     out);
      ++pages_read_;
    });
    return out;
  }

  // Paper §4 upgraded: one batched send per device, then the receive half.
  auto op = async_read_slice(domain);
  return op.get();
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
        const auto wdev = device(sl.write_addr.device_id);
        if (inter == box) {
          ArrayPage page(static_cast<int>(b_.n1), static_cast<int>(b_.n2),
                         static_cast<int>(b_.n3));
          buffer_to_page(subarray, domain, inter, o1, o2, o3, page);
          wdev.call<&ArrayPageDevice::write_array>(page, sl.write_addr.index);
          ++pages_written_;
          continue;
        }
        ArrayPage page = device(sl.read_addr.device_id)
                             .call<&ArrayPageDevice::read_array>(
                                 sl.read_addr.index);
        buffer_to_page(subarray, domain, inter, o1, o2, o3, page);
        wdev.call<&ArrayPageDevice::write_array>(page, sl.write_addr.index);
        ++pages_read_;
        ++pages_written_;
      }
    } catch (...) {
      release_claims(claimed);
      throw;
    }
    commit_claims(claimed);
    return;
  }

  // Borrow the caller's buffer rather than paying async_write_slice's
  // by-value copy: the receive half completes before returning, so the
  // borrow never outlives the buffer.
  SliceWriteFuture op = build_write_slice(subarray, domain);
  op.done_ = true;
  op.finish(subarray);
  op.commit();
}

double Array::sum(const Domain& domain) const {
  validate_domain(domain);
  if (domain.empty()) return 0.0;

  std::vector<Future<double>> partials;
  double acc = 0.0;

  for_each_page(domain, [&](index_t p1, index_t p2, index_t p3,
                            const PageAddress& addr, const Domain& box) {
    const Domain inter = domain.intersect(box);
    if (inter.empty()) return;
    const index_t o1 = p1 * b_.n1, o2 = p2 * b_.n2, o3 = p3 * b_.n3;
    const auto dev = device(addr);
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
                            const PageAddress& addr, const Domain& box) {
    const Domain inter = domain.intersect(box);
    if (inter.empty()) return;
    const index_t o1 = p1 * b_.n1, o2 = p2 * b_.n2, o3 = p3 * b_.n3;
    const auto dev = device(addr);
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
      const auto dev = device(sl.read_addr.device_id);
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
