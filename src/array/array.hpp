// Array: a (potentially huge) three-dimensional array of doubles stored as
// page blocks across many ArrayPageDevice processes (paper §5).
//
// The array is indexed on [0,N1) x [0,N2) x [0,N3) and broken into
// rectangular blocks of n1 x n2 x n3 doubles, one ArrayPage per block.
// A PageMap maps logical page coordinates to {device, index}; the choice
// of map determines how far reads and writes fan out across devices.
//
// The Array object itself is "a client process for performing computations
// on a small subdomain of the array data" — it is an ordinary class you
// can use locally *and* a remotable class you can deploy as multiple
// coordinating client processes (experiment E7).
//
// IoMode selects between the paper's §2 sequential semantics (one page
// round trip at a time) and the §4 compiler-split loop (all page requests
// in flight at once); E4/E6 measure the difference.
//
// The layout is no longer frozen at creation: redistribute() migrates the
// pages to a new PageMapSpec while reads and writes keep being served, and
// attach_device()/detach_device() grow or shrink the device set at
// runtime.  See docs/REDISTRIBUTION.md for the protocol (version-stamped
// map pair, per-page migration states, disjoint slot banks).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "array/block_storage.hpp"
#include "array/domain.hpp"
#include "array/page_map.hpp"
#include "core/future.hpp"
#include "rpc/errors.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::array {

class Array;

enum class IoMode : std::uint8_t {
  kSequential = 0,  // paper §2: each instruction completes before the next
  kParallel = 1,    // paper §4: send-loop then receive-loop
};

/// Tuning knobs for Array::redistribute / detach_device.
struct RedistOptions {
  /// Pages the migrator claims and copies per step: one batched read from
  /// a single source device, then grouped batched writes per target
  /// device.  Larger batches amortize more seeks but hold claims (and so
  /// stall overlapping writers) longer.
  std::int32_t batch_pages = 16;

  bool operator==(const RedistOptions&) const = default;
};

template <class Ar>
void oopp_serialize(Ar& ar, RedistOptions& o) {
  ar(o.batch_pages);
}

/// What one redistribution did (returned by redistribute/detach_device;
/// the same quantities feed the `array.redist` telemetry scope).
struct RedistStats {
  std::uint64_t pages_migrated = 0;   // copied by the migrator
  std::uint64_t writer_migrated = 0;  // carried to the target by writers
  std::uint64_t dual_reads = 0;       // resolutions through the dual map
  std::uint64_t stall_ns = 0;         // writer wait on in-flight pages
  std::uint64_t duration_ns = 0;
  std::uint64_t map_version = 0;      // version the array ended on
};

template <class Ar>
void oopp_serialize(Ar& ar, RedistStats& s) {
  ar(s.pages_migrated, s.writer_migrated, s.dual_reads, s.stall_ns,
     s.duration_ns, s.map_version);
}

/// Handle on an in-flight slice read: one batched read_arrays call per
/// device is already on the wire when this is returned; get_into()/get()
/// perform the receive half and assemble the row-major subarray.  The
/// overlap window between issue and the receive half is where the
/// out-of-core pipeline hides its communication.
class SliceReadFuture {
 public:
  SliceReadFuture() = default;
  SliceReadFuture(SliceReadFuture&&) = default;
  SliceReadFuture& operator=(SliceReadFuture&&) = default;

  /// True while the receive half has not been performed yet.
  [[nodiscard]] bool valid() const { return !done_; }

  /// Block until every device batch has arrived, without assembling
  /// anything.  Idempotent; the receive half then only copies.
  void wait();

  /// Block for every device batch and copy the subarray into caller
  /// memory (once): element i of the row-major subarray goes to
  /// out[i * step].  `out` must hold the domain's volume elements at that
  /// stride and no whole stride more, so both lanes of an interleaved
  /// complex buffer qualify at step 2.
  void get_into(std::span<double> out, std::size_t step = 1);

  /// get_into() a fresh buffer of domain.volume() doubles.
  [[nodiscard]] std::vector<double> get();

 private:
  friend class Array;
  struct Piece {  // assembly info for one page within a batch
    Domain inter;
    index_t o1 = 0, o2 = 0, o3 = 0;
  };
  struct Batch {  // one batched call to one device
    Future<std::vector<storage::ArrayPage>> fut;
    std::vector<Piece> pieces;
  };
  std::vector<Batch> batches_;
  Domain domain_;
  bool done_ = false;
};

/// Handle on an in-flight slice write.  Fully covered pages are already
/// on the wire (batched write_arrays per device) when this is returned;
/// partially covered pages have their batched reads in flight and are
/// read-modified-written inside get(), from copies of their overlap boxes
/// the future took at issue.  get() returns once every device
/// acknowledged — the write-behind half of the pipeline.
///
/// During a redistribution the write lands at each page's target home;
/// the pages this op claimed are marked moved only inside get(), after
/// every ack.  Dropping the future without get() releases the claims back
/// to the migrator (the abandoned write may or may not take effect).
class SliceWriteFuture {
 public:
  SliceWriteFuture() = default;
  SliceWriteFuture(SliceWriteFuture&& o) noexcept;
  SliceWriteFuture& operator=(SliceWriteFuture&& o) noexcept;
  ~SliceWriteFuture();

  [[nodiscard]] bool valid() const { return !done_; }

  /// Block until every page write is acknowledged (once).
  void get();

 private:
  friend class Array;
  struct Piece {
    Domain inter;
    index_t o1 = 0, o2 = 0, o3 = 0;
    std::size_t offset = 0;  // of the overlap box's copy in overlaps_
  };
  struct RmwBatch {  // partially covered pages sharing a device pair
    remote_ptr<storage::ArrayPageDevice> write_dev;
    Future<std::vector<storage::ArrayPage>> fut;  // the read half
    std::vector<Piece> pieces;
    std::vector<std::int32_t> indices;  // write-side slots
  };
  std::vector<Future<void>> writes_;
  std::vector<RmwBatch> rmw_;
  /// Overlap boxes of the partially covered pages, each row-major.
  std::vector<double> overlaps_;
  bool done_ = false;
  Array* owner_ = nullptr;       // set only when claims were taken
  std::vector<index_t> claimed_;  // linear pages this op must mark moved
};

class Array {
 public:
  /// Empty handle; only meaningful as a deserialization target (an Array
  /// arrives by value as a remote-method argument, the paper's
  /// `transform(sign, Array* a)`).  Using an empty Array throws.
  Array() = default;

  /// Built-in layout policy (serializable — usable for remote clients).
  Array(index_t N1, index_t N2, index_t N3, index_t n1, index_t n2,
        index_t n3, BlockStorage data, PageMapSpec map,
        IoMode io = IoMode::kParallel);

  /// Custom layout policy (local use only; such an Array cannot be
  /// serialized or persisted).
  Array(index_t N1, index_t N2, index_t N3, index_t n1, index_t n2,
        index_t n3, BlockStorage data, std::shared_ptr<PageMap> map,
        IoMode io = IoMode::kParallel);

  /// Copyable and movable (remote-method arguments travel by value), but
  /// not while a redistribution is in flight — the migration state
  /// machine belongs to exactly one object.
  Array(const Array& o);
  Array& operator=(const Array& o);
  Array(Array&& o);
  Array& operator=(Array&& o);
  ~Array() = default;

  /// Restore from a passivated image.
  explicit Array(serial::IArchive& ia);
  void oopp_save(serial::OArchive& oa) const;

  /// Assemble the subarray covered by `domain` (row-major).  The paper's
  /// `read(double* subarray, Domain*)` with the buffer returned by value.
  [[nodiscard]] std::vector<double> read(const Domain& domain) const;

  /// Update the array region covered by `domain` from a row-major buffer
  /// of domain.volume() doubles.  Partially covered pages are
  /// read-modified-written.
  void write(const std::vector<double>& subarray, const Domain& domain);

  /// Asynchronous slice read: issues ONE batched read_arrays call per
  /// device overlapping `domain` (all devices fetch concurrently) and
  /// returns immediately; the future's get_into()/get() assembles the
  /// subarray.
  [[nodiscard]] SliceReadFuture async_read_slice(const Domain& domain) const;

  /// Asynchronous slice write of the row-major subarray whose element i
  /// is src[i * step] (`src` sized as for SliceReadFuture::get_into).
  /// `src` is read only before this returns.  Fully covered pages go out
  /// immediately as one batched write_arrays call per device, packed
  /// into a few shared stores; partially covered pages have their read
  /// half issued now and complete inside get().
  [[nodiscard]] SliceWriteFuture async_write_slice(std::span<const double> src,
                                                   const Domain& domain,
                                                   std::size_t step = 1);

  /// Sum over a domain, computed device-side: each overlapping page
  /// contributes a partial sum produced by its ArrayPageDevice process
  /// ("move the computation to the data"); the Array client combines them.
  [[nodiscard]] double sum(const Domain& domain) const;

  /// Sum of the whole array via a loop over subdomains.
  [[nodiscard]] double sum_all() const;

  using ReduceOp = storage::ArrayPageDevice::Reduce;
  using UpdateOp = storage::ArrayPageDevice::Update;

  /// Generalized device-side reduction over a domain (sum / min / max /
  /// sum of squares); per-page partials are computed by the storage
  /// processes and combined by this client.
  [[nodiscard]] double reduce(ReduceOp op, const Domain& domain) const;

  [[nodiscard]] double min(const Domain& domain) const {
    return reduce(ReduceOp::kMin, domain);
  }
  [[nodiscard]] double max(const Domain& domain) const {
    return reduce(ReduceOp::kMax, domain);
  }
  /// Euclidean norm over a domain (device-side sum of squares).
  [[nodiscard]] double norm2(const Domain& domain) const;

  /// Device-side in-place update over a domain: the touched pages never
  /// cross the network.
  void update(UpdateOp op, double s, const Domain& domain);

  void fill(double v, const Domain& domain) {
    update(UpdateOp::kFill, v, domain);
  }
  void scale(double a, const Domain& domain) {
    update(UpdateOp::kScale, a, domain);
  }
  void shift(double d, const Domain& domain) {
    update(UpdateOp::kShift, d, domain);
  }

  /// Single element access (one page round trip each — expensive, exists
  /// for completeness and tests).
  [[nodiscard]] double get(index_t i1, index_t i2, index_t i3) const;
  void set(index_t i1, index_t i2, index_t i3, double v);

  // --- online re-layout (docs/REDISTRIBUTION.md) ---------------------------

  /// Migrate every page to the layout `target` describes over the
  /// currently attached devices, while concurrent reads and writes keep
  /// being served with correct bytes.  Blocking: the calling thread IS
  /// the background migrator (run it on its own thread, or as a servant
  /// method, to keep a foreground workload going).  Throws a typed
  /// oopp::Error if a redistribution is already in flight or the spec is
  /// degenerate.
  RedistStats redistribute(PageMapSpec target, RedistOptions opts = {});

  /// Add a device (made with create_block_device or compatible) to the
  /// storage set.  The current layout keeps ignoring it until the next
  /// redistribute() spans it.  Not allowed mid-redistribution.
  void attach_device(remote_ptr<storage::ArrayPageDevice> dev);

  /// Drain every page off device `device_id` (re-laying out the current
  /// spec over the remaining devices) and drop it from the storage set.
  /// Reads and writes keep being served while the device drains.  The
  /// device process itself is not destroyed — the caller owns it.
  RedistStats detach_device(std::int32_t device_id, RedistOptions opts = {});

  /// Layout-change epoch: bumped when a redistribution begins.  Devices
  /// learn it through quiesce_pages; DSM caches must treat a bump as
  /// fatal to cached copies of moved slots.
  [[nodiscard]] std::uint64_t map_version() const;

  /// Devices currently attached (the layout may span fewer until the
  /// next redistribute).
  [[nodiscard]] std::int32_t device_count() const;

  /// The spec of the last completed layout (meaningless for custom maps).
  [[nodiscard]] PageMapSpec layout() const;

  /// True while a redistribution is draining pages.
  [[nodiscard]] bool migrating() const;

  /// Locks mu_: attach/detach/redistribute mutate the device list
  /// concurrently with readers.  Callers already holding mu_ use
  /// valid_locked().
  [[nodiscard]] bool valid() const;
  [[nodiscard]] const Extents3& extents() const { return n_; }

  /// Physical address of the page with page-grid coordinates (p1,p2,p3)
  /// under the *current* resolution: slot-bank offset applied and, mid-
  /// migration, the dual-map rule (target home if the page moved, source
  /// home otherwise).
  [[nodiscard]] PageAddress page_address(index_t p1, index_t p2,
                                         index_t p3) const;
  [[nodiscard]] const Extents3& page_extents() const { return b_; }
  [[nodiscard]] Extents3 page_grid() const { return grid_; }
  [[nodiscard]] const BlockStorage& storage() const { return data_; }
  [[nodiscard]] IoMode io_mode() const { return io_; }
  void set_io_mode(IoMode io) { io_ = io; }

  /// I/O accounting since construction (pages fetched/stored by this
  /// client).  Exposed remotely for the benches.
  [[nodiscard]] std::uint64_t pages_read() const {
    return pages_read_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pages_written() const {
    return pages_written_.load(std::memory_order_relaxed);
  }

 private:
  friend class SliceWriteFuture;

  [[nodiscard]] bool valid_locked() const { return !data_.empty(); }

  /// Per-page migration progress (guarded by mu_).
  enum PageState : std::uint8_t {
    kAtSource = 0,  // bytes live at the source home
    kMoving = 1,    // claimed: a copy or target-bound write is in flight
    kMoved = 2,     // bytes live at the target home
  };

  struct Migration {
    PageMapSpec target_spec{};
    std::shared_ptr<PageMap> target_map;
    std::vector<std::int32_t> perm;  // target map device id -> data_ index
    std::int32_t target_base = 0;    // slot-bank base of the target layout
    /// False until ensure_capacity has provisioned the target slot banks
    /// on every device.  While false the migration only *reserves* the
    /// array (blocks other redistributions, attach, serialization) —
    /// reads and writes still resolve purely through the source map, so
    /// no write can land on an unprovisioned target slot.
    bool ready = false;
    std::vector<std::uint8_t> state;  // PageState per linear page
    index_t moved = 0;
    std::uint64_t epoch = 0;  // bumped whenever claims resolve
    std::uint64_t writer_migrated = 0;
    std::uint64_t dual_reads = 0;
    std::uint64_t stall_ns = 0;
  };

  /// Visit every page overlapping `domain`: fn(p1, p2, p3, addr, dev,
  /// page_box) where addr is the page's RESOLVED physical address (slot
  /// bank and dual-map rule applied), dev the device it names and
  /// page_box its index box clipped to the array bounds.  Resolution
  /// happens in one lock hold; fn runs without the lock (it makes remote
  /// calls).
  template <class Fn>
  void for_each_page(const Domain& domain, Fn&& fn) const;

  [[nodiscard]] Domain page_box(index_t p1, index_t p2, index_t p3) const;
  void validate_domain(const Domain& domain) const;

  /// Bounds-checked device lookup under mu_ — the only way page-map
  /// output may index data_ (a hostile custom map cannot reach UB).  Made
  /// in the same lock hold as the address it serves: detach_device
  /// re-indexes data_, so a lookup after the lock is released could miss
  /// or pick another device.  Returns a copy.
  [[nodiscard]] remote_ptr<storage::ArrayPageDevice> device_locked(
      std::int32_t device_id) const;

  // Resolution under mu_.
  [[nodiscard]] PageAddress source_address_locked(index_t p1, index_t p2,
                                                  index_t p3) const;
  [[nodiscard]] PageAddress target_address_locked(index_t p1, index_t p2,
                                                  index_t p3) const;
  [[nodiscard]] PageAddress resolve_read_locked(index_t lin, index_t p1,
                                                index_t p2, index_t p3) const;

  /// One page of a planned write: where the current bytes live (RMW
  /// source) and where the write must land.
  struct WriteSlot {
    index_t p1 = 0, p2 = 0, p3 = 0, lin = 0;
    PageAddress read_addr{};
    PageAddress write_addr{};
    remote_ptr<storage::ArrayPageDevice> read_dev, write_dev;
    bool claimed = false;
  };

  /// Resolve every page a write to `domain` touches.  Mid-migration the
  /// covered claim set is taken atomically (all-or-wait under one lock
  /// hold), so concurrent multi-page writers can never deadlock on each
  /// other's partial claims.
  [[nodiscard]] std::vector<WriteSlot> plan_writes(const Domain& domain);

  /// Claimed pages' bytes reached their target home: mark them moved.
  void commit_claims(const std::vector<index_t>& lins);
  /// Hand claimed pages back to the migrator (bytes still at the source).
  void release_claims(const std::vector<index_t>& lins);

  RedistStats redistribute_impl(PageMapSpec target, std::int32_t drop,
                                RedistOptions opts);

  Extents3 n_{};     // array extents N1,N2,N3
  Extents3 b_{};     // page block extents n1,n2,n3
  Extents3 grid_{};  // page grid: ceil(N/n) per axis
  BlockStorage data_;
  PageMapSpec spec_{};
  bool custom_map_ = false;
  std::shared_ptr<PageMap> map_;
  /// Devices the current map spans — data_.size() until a device is
  /// attached without a redistribute yet covering it.
  std::int32_t layout_devices_ = 0;
  /// Slot-bank base of the current layout: physical slot = map index +
  /// slot_base_.  Banks alternate between the bottom of each device and
  /// just past the previous layout's highest slot, so the in-flight pair
  /// of layouts never aliases (docs/REDISTRIBUTION.md).
  std::int32_t slot_base_ = 0;
  std::uint64_t map_version_ = 0;
  IoMode io_ = IoMode::kParallel;
  // Guards data_/spec_/map_/layout_devices_/slot_base_/map_version_/mig_.
  // Never held across a remote call.
  mutable util::CheckedMutex mu_{"array.Array"};
  mutable util::CondVar cv_;
  std::unique_ptr<Migration> mig_;
  mutable std::atomic<std::uint64_t> pages_read_{0};
  mutable std::atomic<std::uint64_t> pages_written_{0};

  /// Recompute grid_ and map_ from the serialized fields.
  void rebuild_from_spec();

  template <class Ar>
  friend void oopp_serialize(Ar& ar, Array& a);
};

/// By-value wire format: an Array travels as {extents, page extents,
/// block storage (remote pointers), layout spec + bank base + version,
/// io mode} and rebuilds its page map on arrival.  Custom-PageMap arrays
/// cannot travel, and neither can an Array mid-redistribution — both
/// raise typed oopp::Errors (a servant attempting it fails that one call;
/// the node lives on).
template <class Ar>
void oopp_serialize(Ar& ar, Array& a) {
  std::unique_lock<util::CheckedMutex> lk(a.mu_);
  if (a.custom_map_)
    throw Error(
        "an Array with a custom PageMap cannot be serialized; use a "
        "PageMapSpec layout",
        net::CallStatus::kInternal);
  if (a.mig_)
    throw Error("an Array cannot be serialized during an active "
                "redistribution",
                net::CallStatus::kInternal);
  std::uint8_t io = static_cast<std::uint8_t>(a.io_);
  ar(a.n_.n1, a.n_.n2, a.n_.n3, a.b_.n1, a.b_.n2, a.b_.n3, a.data_, a.spec_,
     io, a.layout_devices_, a.slot_base_, a.map_version_);
  a.io_ = static_cast<IoMode>(io);
  a.rebuild_from_spec();  // no-op result on the write path
}

}  // namespace oopp::array

// Remote protocol: Array as a deployable client process (paper §5).  The
// re-layout methods are the control plane: a deployed Array client can be
// told to redistribute or to adopt/drop devices remotely.
template <>
struct oopp::rpc::class_def<oopp::array::Array> {
  using A = oopp::array::Array;
  static std::string name() { return "oopp.array.Array"; }
  using ctors = ctor_list<
      ctor<oopp::index_t, oopp::index_t, oopp::index_t, oopp::index_t,
           oopp::index_t, oopp::index_t, oopp::array::BlockStorage,
           oopp::array::PageMapSpec>,
      ctor<oopp::index_t, oopp::index_t, oopp::index_t, oopp::index_t,
           oopp::index_t, oopp::index_t, oopp::array::BlockStorage,
           oopp::array::PageMapSpec, oopp::array::IoMode>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&A::read>("read");
    b.template method<&A::write>("write");
    b.template method<&A::sum>("sum");
    b.template method<&A::sum_all>("sum_all");
    b.template method<&A::reduce>("reduce");
    b.template method<&A::norm2>("norm2");
    b.template method<&A::update>("update");
    b.template method<&A::get>("get");
    b.template method<&A::set>("set");
    b.template method<&A::redistribute>("redistribute");
    b.template method<&A::attach_device>("attach_device");
    b.template method<&A::detach_device>("detach_device");
    b.template method<&A::map_version>("map_version");
    b.template method<&A::device_count>("device_count");
    b.template method<&A::layout>("layout");
    b.template method<&A::migrating>("migrating");
    b.template method<&A::pages_read>("pages_read");
    b.template method<&A::pages_written>("pages_written");
    b.persistent();
  }
};
