// Collectives over process groups, and distributed BLAS kernels.
//
// The paper's conclusion claims the framework has the expressive power of
// the established models; this module makes that concrete by building the
// MPI-style collectives purely out of objects executing methods on each
// other.  Each group member is a Peer; the master drives the group through
// a Communicator.  Broadcast and reduce run along a segmented binomial
// tree; allreduce picks one of the forms the HPC literature settled on:
//
//   ring      — reduce-scatter + allgather around a ring: 2·(N-1) messages
//               per member but only ~2·B·(N-1)/N bytes through any NIC —
//               asymptotically optimal for large payloads.
//   halving   — recursive halving (reduce-scatter) + recursive doubling
//               (allgather): log2(N) rounds, ~2·B bytes per member; the
//               large-payload winner when N is a power of two.
//   two-pass  — the classic binomial reduce-then-broadcast, kept for tiny
//               payloads (latency-bound) and *segmented*: the payload is
//               chunked so hop k+1's send overlaps hop k's receive.
//
// Selection between them is by payload size x member count under a
// net::CostModel (CostHints below); Algo::kAuto picks the argmin.
//
// The flat forms need no member protocol: they are the master's §4 split
// loop over the group — set_member_data for broadcast and scatter,
// member_data for gather, and member_data combined at the master
// (combine_one) for reduce.
//
// Payloads travel as ref-counted serial::Bytes slices end-to-end: a member
// serializes a chunk once (Bytes::copy_raw at the source), every
// forwarding hop re-sends the *received* slice (a view into the inbound
// frame — no copy), and the OArchive splices it straight into the outgoing
// scatter-gather buffer.
//
// On top of the member protocol sits coll::Communicator: a Peer process
// colocated with each ArrayPageDevice of an Array's BlockStorage, running
// BLAS-1/2 kernels *on the machine that owns the pages* (paper §3: move
// the computation to the data) and combining partials through the tree
// reductions above instead of gathering data to the master.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "array/array.hpp"
#include "core/group.hpp"
#include "core/remote_ptr.hpp"
#include "net/cost_model.hpp"
#include "rpc/binding.hpp"
#include "serial/bytes.hpp"
#include "storage/array_page_device.hpp"
#include "telemetry/metrics.hpp"
#include "util/assert.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::coll {

enum class ReduceKind : std::uint8_t {
  kSum = 0,
  kProd = 1,
  kMin = 2,
  kMax = 3,
};

[[nodiscard]] inline double combine_one(ReduceKind k, double a, double b) {
  switch (k) {
    case ReduceKind::kSum:
      return a + b;
    case ReduceKind::kProd:
      return a * b;
    case ReduceKind::kMin:
      return b < a ? b : a;
    case ReduceKind::kMax:
      return a < b ? b : a;
  }
  OOPP_CHECK_MSG(false, "unknown ReduceKind");
  return a;
}

// ---------------------------------------------------------------------------
// Cost model hooks
// ---------------------------------------------------------------------------

/// The two numbers algorithm selection needs from a net::CostModel: the
/// per-message cost (alpha) and the per-byte cost (beta), both in
/// nanoseconds.  Computed once on the master and shipped to every member
/// in the wiring, so all members select the same algorithm.
struct CostHints {
  double alpha_ns = 0.0;
  double byte_ns = 0.0;

  static CostHints from(const net::CostModel& m) {
    CostHints h;
    h.alpha_ns = static_cast<double>(m.latency_ns + m.per_message_ns +
                                     m.egress_per_message_ns +
                                     m.ingress_per_message_ns);
    auto per_byte = [](double bytes_per_us) {
      return bytes_per_us > 0.0 ? 1e3 / bytes_per_us : 0.0;
    };
    // The slowest stage a byte passes through bounds throughput.
    h.byte_ns = per_byte(m.bytes_per_us);
    if (per_byte(m.egress_bytes_per_us) > h.byte_ns)
      h.byte_ns = per_byte(m.egress_bytes_per_us);
    if (per_byte(m.ingress_bytes_per_us) > h.byte_ns)
      h.byte_ns = per_byte(m.ingress_bytes_per_us);
    return h;
  }
};

template <class Ar>
void oopp_serialize(Ar& ar, CostHints& h) {
  ar(h.alpha_ns, h.byte_ns);
}

enum class Algo : std::uint8_t {
  kAuto = 0,
  kTwoPass = 1,  // segmented binomial reduce + broadcast
  kRing = 2,     // ring reduce-scatter + allgather
  kHalving = 3,  // recursive halving + doubling (power-of-two members)
};

[[nodiscard]] inline bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

[[nodiscard]] inline int ceil_log2(int n) {
  int l = 0;
  while ((1 << l) < n) ++l;
  return l;
}

/// Pick the allreduce algorithm for a `bytes`-byte payload over `n`
/// members.  Leading-order critical-path estimates (a = alpha, b = per
/// byte, B = bytes, L = ceil(log2 n)):
///
///   two-pass:  2·L·a + 2·L·B·b      every tree edge carries the vector
///   ring:      2·(n-1)·a + 2·B·b·(n-1)/n
///   halving:   2·L·a + 2·B·b·(1-1/n)   (power-of-two n only)
///
/// Small payloads are latency-bound: the log-round algorithms win, and on
/// a power of two halving edges out two-pass at every size (same rounds,
/// fewer bytes).  Large payloads are bandwidth-bound: ring/halving win
/// because each NIC moves ~2·B total instead of 2·L·B.
[[nodiscard]] inline Algo choose_allreduce(std::size_t bytes, int n,
                                           const CostHints& h) {
  if (n <= 2) return Algo::kTwoPass;  // ring == tree at n=2; fewest messages
  const double a = h.alpha_ns;
  const double b = h.byte_ns;
  const double B = static_cast<double>(bytes);
  const double L = static_cast<double>(ceil_log2(n));
  const double N = static_cast<double>(n);
  const double est_two = 2.0 * L * a + 2.0 * L * B * b;
  const double est_ring = 2.0 * (N - 1.0) * a + 2.0 * B * b * (N - 1.0) / N;
  Algo best = Algo::kTwoPass;
  double best_est = est_two;
  if (est_ring < best_est) {
    best = Algo::kRing;
    best_est = est_ring;
  }
  if (is_pow2(n)) {
    const double est_half = 2.0 * L * a + 2.0 * B * b * (1.0 - 1.0 / N);
    if (est_half < best_est) best = Algo::kHalving;
  }
  return best;
}

/// Segment count for the pipelined two-pass tree: enough segments that
/// per-hop transmission overlaps, but never so many that the per-message
/// alpha dominates.  Balance point: segment transmit time ~ 8x alpha.
[[nodiscard]] inline std::uint32_t choose_segments(std::size_t bytes,
                                                   const CostHints& h) {
  const double a = h.alpha_ns > 1.0 ? h.alpha_ns : 1.0;
  const double s = static_cast<double>(bytes) * h.byte_ns / (8.0 * a);
  if (s <= 1.0) return 1;
  if (s >= 16.0) return 16;
  return static_cast<std::uint32_t>(s);
}

// ---------------------------------------------------------------------------
// Binomial tree shape (root fixed at member 0)
// ---------------------------------------------------------------------------

/// Where member `rel` sits in the binomial tree over [0, n): its parent
/// (-1 for the root) and its children, largest subtree first.  Recursive
/// halving: the owner of [lo, lo+span) hands [lo+half, lo+span) to the
/// member at lo+half.
struct TreeShape {
  std::int32_t parent = -1;
  std::vector<std::int32_t> children;
};

[[nodiscard]] inline TreeShape tree_shape(std::int64_t rel, std::int64_t n) {
  TreeShape t;
  std::int64_t lo = 0;
  std::int64_t span = n;
  while (span > 1) {
    const std::int64_t half = span / 2 + (span % 2);  // lower half keeps extra
    const std::int64_t child = lo + half;
    if (rel >= child) {  // rel lives in the upper subtree
      if (rel == child) t.parent = static_cast<std::int32_t>(lo);
      lo = child;
      span = span - half;
    } else {  // rel lives in the lower subtree
      if (rel == lo) t.children.push_back(static_cast<std::int32_t>(child));
      span = half;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Slab: the pages of one Array that live on one device
// ---------------------------------------------------------------------------

/// The portion of an Array owned by one member's colocated device: which
/// page slots to read/write (one batched call), how many elements the
/// slab logically holds (the tail page is zero-padded past `elems`), and
/// the page block shape.
struct Slab {
  remote_ptr<storage::ArrayPageDevice> dev;
  std::vector<std::int32_t> pages;
  std::int64_t elems = 0;
  std::int32_t n1 = 1, n2 = 1, n3 = 1;
};

template <class Ar>
void oopp_serialize(Ar& ar, Slab& s) {
  ar(s.dev, s.pages, s.elems, s.n1, s.n2, s.n3);
}

// ---------------------------------------------------------------------------
// Peer: the member process
// ---------------------------------------------------------------------------

class Peer;

/// Everything a member needs to participate, distributed down the
/// binomial tree in one pass: N-1 messages in total, only the first from
/// the master.  Wiring every member from the master instead pushes N
/// copies of the group, O(N^2) bytes, through one egress port (E11
/// measures both).
struct Wiring {
  std::int32_t n = 0;
  ProcessGroup<Peer> group;
  CostHints hints;
};

template <class Ar>
void oopp_serialize(Ar& ar, Wiring& w) {
  ar(w.n, w.group, w.hints);
}

/// A collective group member, colocated with one storage device when
/// created by Communicator::over.  Members run each collective
/// concurrently (SPMD style): every member executes the same reentrant
/// method for one epoch, exchanging segments through put_seg.
///
/// Message-loss safety: segments are staged by (epoch, channel, segment,
/// sender) and *overwrite* on duplicate delivery, so a retried put_seg
/// (dedup miss after an eviction) is idempotent; finished epochs are
/// remembered in a bounded window so a straggler retry of a completed
/// collective is dropped instead of leaking a staging entry.
///
/// Failure: a member whose part of a collective throws closes the epoch
/// on every other member (abort_epoch), so they stop waiting for its
/// segments and fail too; the master sees the error instead of a wedged
/// group.
class Peer {
 public:
  explicit Peer(std::int32_t id) : id_(id) {}

  // Segment channels (disambiguate concurrent phases within one epoch).
  static constexpr std::uint32_t kChanRs = 0;   // reduce-scatter steps
  static constexpr std::uint32_t kChanAg = 1;   // allgather steps
  static constexpr std::uint32_t kChanRed = 2;  // tree reduce (up)
  static constexpr std::uint32_t kChanBc = 3;   // tree broadcast (down)

  /// Install membership and forward it down this member's binomial
  /// subtree [rel, rel+span).  Called once on member 0 with (0, n).
  void wire(std::int64_t rel, std::int64_t span, const Wiring& w) {
    OOPP_CHECK(w.n > 0 && static_cast<std::int64_t>(w.group.size()) == w.n);
    OOPP_CHECK(rel == id_);
    n_ = w.n;
    group_ = w.group;
    hints_ = w.hints;
    std::vector<Future<void>> kids;
    std::int64_t s = span;
    while (s > 1) {
      const std::int64_t half = s / 2 + (s % 2);
      const std::int64_t child = rel + half;
      kids.push_back(group_[static_cast<std::size_t>(child)]
                         .template async<&Peer::wire>(child, s - half, w));
      s = half;
    }
    // Wiring completes as a whole or not at all.
    // oopp-lint: allow(future-bare-get)
    for (auto& f : kids) f.get();
  }

  void set_data(const std::vector<double>& v) { data_ = v; }
  [[nodiscard]] std::vector<double> data() const { return data_; }
  [[nodiscard]] std::int32_t id() const { return id_; }
  [[nodiscard]] std::int32_t size() const { return n_; }

  // -- segment staging ------------------------------------------------------

  /// Deposit one in-flight segment.  Reentrant: it must land while this
  /// member's own driver is blocked in take_seg.  The payload is a view
  /// into the inbound frame (IArchive::read_into over the shared backing
  /// store), so staging it keeps the frame alive instead of copying it.
  void put_seg(std::uint64_t epoch, std::uint32_t chan, std::uint32_t seg,
               std::int32_t from, serial::Bytes payload) {
    std::unique_lock<util::CheckedMutex> lk(mu_);
    if (done_set_.count(epoch) != 0) return;  // straggler retry, already done
    staging_[Key{epoch, chan, seg, from}] = std::move(payload);
    cv_.notify_all();
  }

  /// Close `epoch` here because another member failed in it: this
  /// member's call blocked in take_seg throws, and later segments of the
  /// epoch are dropped on arrival.  Reentrant (the call it wakes is
  /// blocked) and idempotent.
  void abort_epoch(std::uint64_t epoch) {
    gc_epoch(epoch);
    cv_.notify_all();
  }

  // -- allreduce drivers ----------------------------------------------------

  /// SPMD allreduce over every member's data() (all must be the same
  /// length).  Every member calls this with the same fresh epoch; all
  /// return once their own vector holds the combined result.  Returns
  /// the algorithm actually run (identical on every member: selection is
  /// a pure function of size, membership and the shared hints).
  Algo allreduce(std::uint64_t epoch, ReduceKind kind, Algo algo) {
    return run_epoch(epoch, [&] {
      VecGuard guard(*this);
      check_wired();
      const std::size_t bytes = data_.size() * sizeof(double);
      Algo chosen =
          algo == Algo::kAuto ? choose_allreduce(bytes, n_, hints_) : algo;
      if (chosen == Algo::kHalving && !is_pow2(n_)) chosen = Algo::kRing;
      switch (chosen) {
        case Algo::kRing:
          counter_ring().add();
          ring_allreduce(epoch, kind);
          break;
        case Algo::kHalving:
          counter_halving().add();
          halving_allreduce(epoch, kind);
          break;
        default:
          chosen = Algo::kTwoPass;
          counter_twopass().add();
          {
            const std::uint32_t nsegs = choose_segments(bytes, hints_);
            counter_segments().add(nsegs);
            reduce_tree(epoch, kind, nsegs);
            bcast_tree(epoch, nsegs);
          }
          break;
      }
      gc_epoch(epoch);
      return chosen;
    });
  }

  /// SPMD allreduce of one double through the binomial tree — the
  /// reduction primitive under every BLAS kernel.  8-byte payloads ride
  /// inline (below the splice threshold); the root's result is broadcast
  /// bit-identical, so every member returns the exact same double.
  double allreduce_scalar(std::uint64_t epoch, ReduceKind kind, double v) {
    return run_epoch(epoch, [&] {
      check_wired();
      const TreeShape t = tree_shape(id_, n_);
      double acc = v;
      std::vector<Future<void>> sent;
      for (std::int32_t c : t.children) {
        const serial::Bytes got = take_seg(epoch, kChanRed, 0, c);
        OOPP_CHECK(got.size() == sizeof(double));
        double x = 0.0;
        std::memcpy(&x, got.data(), sizeof(double));
        acc = combine_one(kind, acc, x);
      }
      serial::Bytes res;
      if (t.parent >= 0) {
        sent.push_back(
            send_bytes(epoch, kChanRed, 0, t.parent,
                       serial::Bytes::copy_raw(&acc, sizeof(double))));
        res = take_seg(epoch, kChanBc, 0, t.parent);
        OOPP_CHECK(res.size() == sizeof(double));
        std::memcpy(&acc, res.data(), sizeof(double));
      } else {
        res = serial::Bytes::copy_raw(&acc, sizeof(double));
      }
      for (std::int32_t c : t.children)
        sent.push_back(send_bytes(epoch, kChanBc, 0, c, res));
      join(sent);
      gc_epoch(epoch);
      return acc;
    });
  }

  /// Segmented pipelined broadcast of member 0's data() to every member.
  void bcast_vec(std::uint64_t epoch, std::int64_t len, std::uint32_t nsegs) {
    run_epoch(epoch, [&] {
      VecGuard guard(*this);
      check_wired();
      if (id_ == 0) {
        OOPP_CHECK(static_cast<std::int64_t>(data_.size()) == len);
      } else {
        data_.assign(static_cast<std::size_t>(len), 0.0);
      }
      counter_segments().add(nsegs);
      bcast_tree(epoch, nsegs);
      gc_epoch(epoch);
    });
  }

  /// Segmented pipelined reduce: the combined vector lands in member 0's
  /// data().  MPI semantics — non-root vectors are left unspecified
  /// (interior tree members combine their children's segments in place;
  /// leaves are untouched).
  void reduce_vec(std::uint64_t epoch, ReduceKind kind, std::uint32_t nsegs) {
    run_epoch(epoch, [&] {
      VecGuard guard(*this);
      check_wired();
      counter_segments().add(nsegs);
      reduce_tree(epoch, kind, nsegs);
      gc_epoch(epoch);
    });
  }

  // -- BLAS kernels (compute at the data) -----------------------------------

  /// dot(x, y) restricted to this member's slabs, combined across members
  /// through the scalar tree — only 8 bytes per member cross the network
  /// after the device-local multiply-adds.
  double dot_slab(std::uint64_t epoch, const Slab& x, const Slab& y) {
    return run_epoch(epoch, [&] {
      const std::vector<double> xs = read_slab(x);
      const std::vector<double> ys = read_slab(y);
      OOPP_CHECK_MSG(xs.size() == ys.size(), "dot: slab lengths differ");
      double acc = 0.0;
      for (std::size_t i = 0; i < xs.size(); ++i) acc += xs[i] * ys[i];
      return allreduce_scalar(epoch, ReduceKind::kSum, acc);
    });
  }

  /// ||x||^2 partial on this member's slab, summed across members.
  double norm2sq_slab(std::uint64_t epoch, const Slab& x) {
    return run_epoch(epoch, [&] {
      const std::vector<double> xs = read_slab(x);
      double acc = 0.0;
      for (const double v : xs) acc += v * v;
      return allreduce_scalar(epoch, ReduceKind::kSum, acc);
    });
  }

  /// y += a·x on this member's slabs.  Pure local I/O — no communication.
  void axpy_slab(double a, const Slab& x, const Slab& y) {
    const std::vector<double> xs = read_slab(x);
    std::vector<double> ys = read_slab(y);
    OOPP_CHECK_MSG(xs.size() == ys.size(), "axpy: slab lengths differ");
    for (std::size_t i = 0; i < ys.size(); ++i) ys[i] += a * xs[i];
    write_slab(y, ys);
  }

  /// x *= a via the device's in-place update kernel: the pages never
  /// leave the device process at all.
  void scale_slab(double a, const Slab& x) {
    std::vector<Future<void>> futs;
    futs.reserve(x.pages.size());
    for (const std::int32_t p : x.pages) {
      futs.push_back(
          x.dev.template async<&storage::ArrayPageDevice::update_region>(
              storage::ArrayPageDevice::Update::kScale, a, p, index_t{0},
              index_t{x.n1}, index_t{0}, index_t{x.n2}, index_t{0},
              index_t{x.n3}));
    }
    join(futs);
  }

  /// y = A·x for this member's row slab of A.  x is allgathered around
  /// the ring (each member's x slab makes exactly one trip, forwarded
  /// zero-copy), then the dense row-block multiply runs locally and the
  /// result rows are written back to the colocated device.  offsets[i]
  /// is member i's first global x element; offsets[n] = ncols.
  ///
  /// With reuse_a the matrix slab is fetched from the device once and
  /// kept resident in the Peer for subsequent calls — iterative solvers
  /// multiply by the same operator every iteration, and re-marshaling
  /// the slab dominates the kernel otherwise.  The caller vouches that
  /// the matrix pages are unchanged; drop_cache() forgets the copy.
  void matvec_slab(std::uint64_t epoch, const Slab& a, const Slab& x,
                   const Slab& y, const std::vector<std::int64_t>& offsets,
                   bool reuse_a) {
    run_epoch(epoch, [&] {
      check_wired();
      OOPP_CHECK(static_cast<std::int32_t>(offsets.size()) == n_ + 1);
      const std::vector<double> xloc = read_slab(x);
      const std::int64_t ncols = offsets[static_cast<std::size_t>(n_)];
      OOPP_CHECK(offsets[static_cast<std::size_t>(id_) + 1] -
                     offsets[static_cast<std::size_t>(id_)] ==
                 static_cast<std::int64_t>(xloc.size()));
      std::vector<double> xfull(static_cast<std::size_t>(ncols), 0.0);
      if (!xloc.empty())
        std::memcpy(xfull.data() + offsets[static_cast<std::size_t>(id_)],
                    xloc.data(), xloc.size() * sizeof(double));
      // Ring allgather of the variable-length x slabs.
      const std::int32_t right = (id_ + 1) % n_;
      const std::int32_t left = (id_ + n_ - 1) % n_;
      std::vector<Future<void>> sent;
      serial::Bytes carry;
      for (std::int32_t s = 0; s < n_ - 1; ++s) {
        if (s == 0)
          carry = serial::Bytes::copy_raw(xloc.data(),
                                          xloc.size() * sizeof(double));
        sent.push_back(send_bytes(epoch, kChanAg,
                                  static_cast<std::uint32_t>(s), right, carry));
        const std::int32_t origin = (id_ - s - 1 + 2 * n_) % n_;
        carry = take_seg(epoch, kChanAg, static_cast<std::uint32_t>(s), left);
        const std::int64_t cnt = offsets[static_cast<std::size_t>(origin) + 1] -
                                 offsets[static_cast<std::size_t>(origin)];
        OOPP_CHECK(carry.size() ==
                   static_cast<std::size_t>(cnt) * sizeof(double));
        if (cnt > 0)
          std::memcpy(xfull.data() + offsets[static_cast<std::size_t>(origin)],
                      carry.data(), static_cast<std::size_t>(cnt) *
                                        sizeof(double));
      }
      std::shared_ptr<const std::vector<double>> cached;
      std::vector<double> fresh;
      if (reuse_a)
        cached = cached_matrix(a);
      else
        fresh = read_slab(a);
      const std::vector<double>& av = reuse_a ? *cached : fresh;
      OOPP_CHECK_MSG(a.n2 == ncols, "matvec: A page width != x length");
      const std::int64_t rows =
          ncols > 0 ? static_cast<std::int64_t>(av.size()) / ncols : 0;
      OOPP_CHECK(y.elems == rows);
      std::vector<double> yv(static_cast<std::size_t>(rows), 0.0);
      for (std::int64_t r = 0; r < rows; ++r) {
        double acc = 0.0;
        const double* row = av.data() + r * ncols;
        for (std::int64_t k = 0; k < ncols; ++k)
          acc += row[k] * xfull[static_cast<std::size_t>(k)];
        yv[static_cast<std::size_t>(r)] = acc;
      }
      write_slab(y, yv);
      join(sent);
      gc_epoch(epoch);
    });
  }

  /// Forget the resident matrix slab (call after rewriting the matrix
  /// through the Array when matvec reuse is in play).
  void drop_cache() {
    std::lock_guard lock(mu_);
    a_cache_.reset();
  }

 private:
  /// Identity of a cached matrix slab: the owning device actor plus the
  /// exact page run and block shape.
  struct SlabKey {
    net::MachineId machine{};
    net::ObjectId object{};
    std::vector<std::int32_t> pages;
    std::int32_t n1 = 0, n2 = 0, n3 = 0;
    bool operator==(const SlabKey&) const = default;
  };

  [[nodiscard]] static SlabKey key_of(const Slab& s) {
    return SlabKey{s.dev.machine(), s.dev.id(), s.pages, s.n1, s.n2, s.n3};
  }

  /// One-entry matrix cache (a solver iterates one operator).  The
  /// staging mutex only guards the lookup/install — the device fetch on
  /// a miss runs unlocked, because read_slab blocks on a remote call.
  /// Returns a shared reference so a concurrent drop_cache() can't pull
  /// the buffer out from under an in-flight multiply.
  [[nodiscard]] std::shared_ptr<const std::vector<double>> cached_matrix(
      const Slab& a) {
    const SlabKey k = key_of(a);
    {
      std::lock_guard lock(mu_);
      if (a_cache_ && a_cache_->first == k) {
        counter_matvec_reuse().add();
        return a_cache_->second;
      }
    }
    auto fetched =
        std::make_shared<const std::vector<double>>(read_slab(a));
    std::lock_guard lock(mu_);
    a_cache_.emplace(k, fetched);
    return fetched;
  }
  using Key = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t,
                         std::int32_t>;

  /// Vector drivers own data_ exclusively for their epoch; two at once on
  /// one member is a driver bug (concurrent *scalar* collectives are
  /// fine — they never touch data_).  An atomic flag instead of a mutex:
  /// the driver blocks on remote calls, which a held lock may not span.
  struct VecGuard {
    explicit VecGuard(Peer& p) : p_(p) {
      OOPP_CHECK_MSG(!p.vec_busy_.exchange(true),
                     "concurrent vector collectives on one member");
    }
    ~VecGuard() { p_.vec_busy_.store(false); }
    VecGuard(const VecGuard&) = delete;
    VecGuard& operator=(const VecGuard&) = delete;
    Peer& p_;
  };

  void check_wired() const {
    OOPP_CHECK_MSG(n_ > 0, "wire the group before collectives");
  }

  /// Run this member's part of collective `epoch`.  If it throws, the
  /// epoch is closed here and on every other member before the error
  /// goes back to the master, so no member keeps waiting for a segment
  /// this one will never send.  A member that fails *because* the epoch
  /// was aborted finds it already closed and tells no one.
  template <class F>
  auto run_epoch(std::uint64_t epoch, F&& body) -> decltype(body()) {
    try {
      return body();
    } catch (...) {
      if (gc_epoch(epoch)) {
        std::vector<Future<void>> sent;
        for (std::size_t i = 0; i < group_.size(); ++i)
          if (static_cast<std::int32_t>(i) != id_)
            sent.push_back(
                group_[i].template async<&Peer::abort_epoch>(epoch));
        // Only delivery is awaited: a member that cannot be told is
        // unreachable, and this member's own error is the one to report.
        for (auto& f : sent) f.wait();
      }
      throw;
    }
  }

  // -- telemetry (cached refs: lookup takes a lock) -------------------------
  static telemetry::Counter& counter_bytes() {
    static auto& c = telemetry::Metrics::scope_for("coll").counter(
        "bytes_moved");
    return c;
  }
  static telemetry::Counter& counter_hops() {
    static auto& c = telemetry::Metrics::scope_for("coll").counter("hops");
    return c;
  }
  static telemetry::Counter& counter_segments() {
    static auto& c = telemetry::Metrics::scope_for("coll").counter("segments");
    return c;
  }
  static telemetry::Counter& counter_ring() {
    static auto& c =
        telemetry::Metrics::scope_for("coll").counter("allreduce_ring");
    return c;
  }
  static telemetry::Counter& counter_halving() {
    static auto& c =
        telemetry::Metrics::scope_for("coll").counter("allreduce_halving");
    return c;
  }
  static telemetry::Counter& counter_twopass() {
    static auto& c =
        telemetry::Metrics::scope_for("coll").counter("allreduce_twopass");
    return c;
  }
  static telemetry::Counter& counter_matvec_reuse() {
    static auto& c =
        telemetry::Metrics::scope_for("coll").counter("matvec_reuse_hits");
    return c;
  }

  // -- segment transport ----------------------------------------------------

  /// Send a slice to `to`.  Forwarding a received Bytes here is the
  /// zero-copy hop: the slice splices into the outgoing frame by
  /// reference.
  Future<void> send_bytes(std::uint64_t epoch, std::uint32_t chan,
                          std::uint32_t seg, std::int32_t to,
                          serial::Bytes b) const {
    counter_bytes().add(b.size());
    counter_hops().add();
    return group_[static_cast<std::size_t>(to)].template async<&Peer::put_seg>(
        epoch, chan, seg, id_, std::move(b));
  }

  /// Send data_[lo, hi) — the one sanctioned copy, at the source.
  Future<void> send_span(std::uint64_t epoch, std::uint32_t chan,
                         std::uint32_t seg, std::int32_t to, std::int64_t lo,
                         std::int64_t hi) const {
    return send_bytes(epoch, chan, seg, to,
                      serial::Bytes::copy_raw(
                          data_.data() + lo,
                          static_cast<std::size_t>(hi - lo) * sizeof(double)));
  }

  /// Block until the matching segment arrives, then claim it.  Throws if
  /// the epoch is closed first: another member failed in it.
  serial::Bytes take_seg(std::uint64_t epoch, std::uint32_t chan,
                         std::uint32_t seg, std::int32_t from) {
    const Key k{epoch, chan, seg, from};
    std::unique_lock<util::CheckedMutex> lk(mu_);
    cv_.wait(lk, [&] {
      return staging_.count(k) != 0 || done_set_.count(epoch) != 0;
    });
    auto it = staging_.find(k);
    OOPP_CHECK_MSG(it != staging_.end(),
                   "collective aborted: another member failed");
    serial::Bytes b = std::move(it->second);
    staging_.erase(it);
    return b;
  }

  /// The collective is done on this member: drop any residual segments
  /// (stale retries re-staged mid-run) and remember the epoch so later
  /// stragglers are dropped on arrival.  Window-bounded — staging state
  /// cannot grow without bound under sustained faults.  Returns false if
  /// the epoch was already closed.
  bool gc_epoch(std::uint64_t epoch) {
    static constexpr std::size_t kDoneWindow = 128;
    std::unique_lock<util::CheckedMutex> lk(mu_);
    staging_.erase(
        staging_.lower_bound(
            Key{epoch, 0, 0, std::numeric_limits<std::int32_t>::min()}),
        staging_.lower_bound(
            Key{epoch + 1, 0, 0, std::numeric_limits<std::int32_t>::min()}));
    if (!done_set_.insert(epoch).second) return false;
    done_fifo_.push_back(epoch);
    while (done_fifo_.size() > kDoneWindow) {
      done_set_.erase(done_fifo_.front());
      done_fifo_.pop_front();
    }
    return true;
  }

  /// Collect the send futures off the critical path: put_seg never
  /// blocks, so these only confirm delivery.
  static void join(std::vector<Future<void>>& futs) {
    // Collective completion is all-or-nothing; the caller bounds the
    // whole operation.  oopp-lint: allow(future-bare-get)
    for (auto& f : futs) f.get();
  }

  // -- span arithmetic ------------------------------------------------------

  void combine_span(ReduceKind kind, std::int64_t lo, std::int64_t hi,
                    const serial::Bytes& got) {
    OOPP_CHECK(got.size() ==
               static_cast<std::size_t>(hi - lo) * sizeof(double));
    const std::byte* src = got.data();
    for (std::int64_t i = lo; i < hi; ++i) {
      double v = 0.0;  // segment slices are not 8-byte aligned in the frame
      std::memcpy(&v, src + static_cast<std::size_t>(i - lo) * sizeof(double),
                  sizeof(double));
      data_[static_cast<std::size_t>(i)] =
          combine_one(kind, data_[static_cast<std::size_t>(i)], v);
    }
  }

  void copy_span(std::int64_t lo, std::int64_t hi, const serial::Bytes& got) {
    OOPP_CHECK(got.size() ==
               static_cast<std::size_t>(hi - lo) * sizeof(double));
    if (hi > lo)
      std::memcpy(data_.data() + lo, got.data(),
                  static_cast<std::size_t>(hi - lo) * sizeof(double));
  }

  // -- algorithm bodies -----------------------------------------------------

  /// Ring allreduce.  Chunk c covers [c·L/n, (c+1)·L/n).  Reduce-scatter:
  /// at step s member i sends chunk (i-s) right and combines chunk
  /// (i-s-1) from the left, so after n-1 steps member i holds the fully
  /// reduced chunk (i+1).  Allgather: the first send is the member's own
  /// reduced chunk (one copy at the source); every later send forwards
  /// the slice received the step before — zero-copy through n-2 hops.
  void ring_allreduce(std::uint64_t epoch, ReduceKind kind) {
    const std::int64_t L = static_cast<std::int64_t>(data_.size());
    const std::int32_t right = (id_ + 1) % n_;
    const std::int32_t left = (id_ + n_ - 1) % n_;
    auto chunk_lo = [&](std::int32_t c) { return std::int64_t{c} * L / n_; };
    auto wrap = [&](std::int32_t c) { return (c % n_ + n_) % n_; };
    std::vector<Future<void>> sent;
    for (std::int32_t s = 0; s < n_ - 1; ++s) {
      const std::int32_t csend = wrap(id_ - s);
      const std::int32_t crecv = wrap(id_ - s - 1);
      sent.push_back(send_span(epoch, kChanRs, static_cast<std::uint32_t>(s),
                               right, chunk_lo(csend), chunk_lo(csend + 1)));
      const serial::Bytes got =
          take_seg(epoch, kChanRs, static_cast<std::uint32_t>(s), left);
      combine_span(kind, chunk_lo(crecv), chunk_lo(crecv + 1), got);
    }
    serial::Bytes carry;
    for (std::int32_t s = 0; s < n_ - 1; ++s) {
      const std::int32_t csend = wrap(id_ + 1 - s);
      if (s == 0) {
        sent.push_back(send_span(epoch, kChanAg, 0, right, chunk_lo(csend),
                                 chunk_lo(csend + 1)));
      } else {
        sent.push_back(send_bytes(epoch, kChanAg,
                                  static_cast<std::uint32_t>(s), right,
                                  carry));
      }
      const std::int32_t crecv = wrap(id_ - s);
      carry = take_seg(epoch, kChanAg, static_cast<std::uint32_t>(s), left);
      copy_span(chunk_lo(crecv), chunk_lo(crecv + 1), carry);
    }
    join(sent);
  }

  /// Recursive halving (reduce-scatter) + recursive doubling (allgather);
  /// n must be a power of two.  Partners at round r differ in bit n/2^r+1;
  /// both hold the same [lo, hi) range, split it at the same midpoint,
  /// and exchange halves — log2(n) rounds, each halving the payload.
  void halving_allreduce(std::uint64_t epoch, ReduceKind kind) {
    struct Round {
      std::int32_t partner;
      std::int64_t keep_lo, keep_hi, send_lo, send_hi;
    };
    std::int64_t lo = 0;
    std::int64_t hi = static_cast<std::int64_t>(data_.size());
    std::vector<Round> rounds;
    std::vector<Future<void>> sent;
    std::uint32_t r = 0;
    for (std::int32_t d = n_ / 2; d >= 1; d /= 2, ++r) {
      const std::int32_t partner = id_ ^ d;
      const std::int64_t mid = lo + (hi - lo) / 2;
      Round rd{partner, 0, 0, 0, 0};
      if ((id_ & d) == 0) {
        rd.keep_lo = lo, rd.keep_hi = mid, rd.send_lo = mid, rd.send_hi = hi;
      } else {
        rd.keep_lo = mid, rd.keep_hi = hi, rd.send_lo = lo, rd.send_hi = mid;
      }
      sent.push_back(
          send_span(epoch, kChanRs, r, partner, rd.send_lo, rd.send_hi));
      const serial::Bytes got = take_seg(epoch, kChanRs, r, partner);
      combine_span(kind, rd.keep_lo, rd.keep_hi, got);
      rounds.push_back(rd);
      lo = rd.keep_lo;
      hi = rd.keep_hi;
    }
    for (std::int32_t i = static_cast<std::int32_t>(rounds.size()) - 1; i >= 0;
         --i) {
      const Round& rd = rounds[static_cast<std::size_t>(i)];
      sent.push_back(send_span(epoch, kChanAg,
                               static_cast<std::uint32_t>(i), rd.partner, lo,
                               hi));
      const serial::Bytes got =
          take_seg(epoch, kChanAg, static_cast<std::uint32_t>(i), rd.partner);
      copy_span(rd.send_lo, rd.send_hi, got);
      lo = rd.keep_lo < rd.send_lo ? rd.keep_lo : rd.send_lo;
      hi = rd.keep_hi > rd.send_hi ? rd.keep_hi : rd.send_hi;
    }
    join(sent);
  }

  [[nodiscard]] std::int64_t seg_lo(std::uint32_t g,
                                    std::uint32_t nsegs) const {
    return static_cast<std::int64_t>(data_.size()) * g / nsegs;
  }

  /// Segmented binomial reduce toward member 0.  Segment g is combined
  /// from the children and forwarded to the parent as soon as it is
  /// complete, so hop k+1's send of segment g overlaps hop k's receive
  /// of segment g+1 — the pipeline that hides the per-hop serialization.
  void reduce_tree(std::uint64_t epoch, ReduceKind kind, std::uint32_t nsegs) {
    const TreeShape t = tree_shape(id_, n_);
    std::vector<Future<void>> sent;
    for (std::uint32_t g = 0; g < nsegs; ++g) {
      const std::int64_t lo = seg_lo(g, nsegs);
      const std::int64_t hi = seg_lo(g + 1, nsegs);
      for (const std::int32_t c : t.children) {
        const serial::Bytes got = take_seg(epoch, kChanRed, g, c);
        combine_span(kind, lo, hi, got);
      }
      if (t.parent >= 0)
        sent.push_back(send_span(epoch, kChanRed, g, t.parent, lo, hi));
    }
    join(sent);
  }

  /// Segmented binomial broadcast from member 0.  A non-root copies the
  /// received segment into its vector and forwards the *same* slice to
  /// every child — one serialization at the root, refcount bumps all the
  /// way down.
  void bcast_tree(std::uint64_t epoch, std::uint32_t nsegs) {
    const TreeShape t = tree_shape(id_, n_);
    std::vector<Future<void>> sent;
    for (std::uint32_t g = 0; g < nsegs; ++g) {
      const std::int64_t lo = seg_lo(g, nsegs);
      const std::int64_t hi = seg_lo(g + 1, nsegs);
      serial::Bytes seg;
      if (t.parent >= 0) {
        seg = take_seg(epoch, kChanBc, g, t.parent);
        copy_span(lo, hi, seg);
      } else {
        seg = serial::Bytes::copy_raw(
            data_.data() + lo,
            static_cast<std::size_t>(hi - lo) * sizeof(double));
      }
      for (const std::int32_t c : t.children)
        sent.push_back(send_bytes(epoch, kChanBc, g, c, seg));
    }
    join(sent);
  }

  // -- slab I/O -------------------------------------------------------------

  /// One batched read of the slab's pages, flattened and clipped to the
  /// logical element count (the tail page's zero padding is dropped).
  [[nodiscard]] std::vector<double> read_slab(const Slab& s) const {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(s.elems));
    if (!s.pages.empty()) {
      auto pages =
          s.dev.template call<&storage::ArrayPageDevice::read_arrays>(s.pages);
      for (const auto& p : pages) {
        const double* v = p.values();
        out.insert(out.end(), v, v + p.elements());
      }
    }
    OOPP_CHECK(static_cast<std::int64_t>(out.size()) >= s.elems);
    out.resize(static_cast<std::size_t>(s.elems));
    return out;
  }

  /// One batched write of the slab's pages (tail zero-padded).
  void write_slab(const Slab& s, const std::vector<double>& v) const {
    OOPP_CHECK(static_cast<std::int64_t>(v.size()) == s.elems);
    if (s.pages.empty()) return;
    const std::int64_t per = std::int64_t{s.n1} * s.n2 * s.n3;
    std::vector<storage::ArrayPage> pages;
    pages.reserve(s.pages.size());
    for (std::size_t i = 0; i < s.pages.size(); ++i) {
      storage::ArrayPage p(s.n1, s.n2, s.n3);
      const std::int64_t off = static_cast<std::int64_t>(i) * per;
      const std::int64_t cnt = std::min(per, s.elems - off);
      OOPP_CHECK(cnt > 0);
      std::memcpy(p.values(), v.data() + off,
                  static_cast<std::size_t>(cnt) * sizeof(double));
      pages.push_back(std::move(p));
    }
    s.dev.template call<&storage::ArrayPageDevice::write_arrays>(pages,
                                                                 s.pages);
  }

  std::int32_t id_ = 0;
  std::int32_t n_ = 0;
  ProcessGroup<Peer> group_;
  CostHints hints_{};
  std::vector<double> data_;
  std::atomic<bool> vec_busy_{false};

  util::CheckedMutex mu_{"coll.Peer.staging"};
  util::CondVar cv_;
  std::optional<
      std::pair<SlabKey, std::shared_ptr<const std::vector<double>>>>
      a_cache_;  // guarded by mu_
  std::map<Key, serial::Bytes> staging_;
  std::unordered_set<std::uint64_t> done_set_;
  std::deque<std::uint64_t> done_fifo_;
};

}  // namespace oopp::coll

template <>
struct oopp::rpc::class_def<oopp::coll::Peer> {
  using P = oopp::coll::Peer;
  static std::string name() { return "oopp.coll.Peer"; }
  using ctors = ctor_list<ctor<std::int32_t>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&P::wire>("wire");
    b.template method<&P::set_data>("set_data");
    b.template method<&P::data>("data");
    b.template method<&P::id>("id");
    b.template method<&P::size>("size");
    // Everything below must run while the member's own driver is blocked
    // in take_seg — reentrant, off the per-object FIFO.
    b.template method<&P::put_seg>("put_seg", reentrant);
    b.template method<&P::abort_epoch>("abort_epoch", reentrant);
    b.template method<&P::allreduce>("allreduce", reentrant);
    b.template method<&P::allreduce_scalar>("allreduce_scalar", reentrant);
    b.template method<&P::bcast_vec>("bcast_vec", reentrant);
    b.template method<&P::reduce_vec>("reduce_vec", reentrant);
    b.template method<&P::dot_slab>("dot_slab", reentrant);
    b.template method<&P::norm2sq_slab>("norm2sq_slab", reentrant);
    b.template method<&P::axpy_slab>("axpy_slab", reentrant);
    b.template method<&P::scale_slab>("scale_slab", reentrant);
    b.template method<&P::matvec_slab>("matvec_slab", reentrant);
    b.template method<&P::drop_cache>("drop_cache", reentrant);
  }
};

namespace oopp::coll {

// ---------------------------------------------------------------------------
// Communicator: the master-side handle
// ---------------------------------------------------------------------------

/// Options for Communicator construction.  Namespace-scope (not nested)
/// so the `= {}` default arguments below are usable inside the class
/// definition.
struct CommunicatorOptions {
  net::CostModel cost{};
};

/// A wired group of Peers with BLAS operations over Arrays whose pages
/// the members' machines own.  Every operation drives all members
/// concurrently (SPMD) and returns when the whole collective completes;
/// partials combine member-to-member through the trees above — the
/// master never sees the vectors.
class Communicator {
 public:
  using Options = CommunicatorOptions;

  Communicator() = default;

  /// One Peer per storage device, *colocated with it* (same machine), so
  /// every slab kernel reads and writes its pages over the zero-cost
  /// loopback path.  Wired through the binomial tree: one message from
  /// the master, N-1 forwarded inside the group.
  static Communicator over(const array::BlockStorage& devices,
                           const Options& opts = {}) {
    std::vector<net::MachineId> machines;
    machines.reserve(devices.size());
    for (const auto& d : devices) machines.push_back(d.machine());
    return on_machines(machines, opts);
  }

  /// Members on explicit machines (benches and tests without storage).
  static Communicator on_machines(const std::vector<net::MachineId>& machines,
                                  const Options& opts = {}) {
    const auto n = static_cast<std::int32_t>(machines.size());
    OOPP_CHECK_MSG(n > 0, "Communicator needs at least one member");
    Communicator c;
    c.hints_ = CostHints::from(opts.cost);
    for (std::int32_t i = 0; i < n; ++i)
      c.peers_.push_back(
          make_remote<Peer>(machines[static_cast<std::size_t>(i)], i));
    Wiring w{n, c.peers_, c.hints_};
    c.peers_[0].template call<&Peer::wire>(0, n, w);
    return c;
  }

  [[nodiscard]] std::size_t size() const { return peers_.size(); }
  [[nodiscard]] const ProcessGroup<Peer>& members() const { return peers_; }

  // -- BLAS over Arrays -----------------------------------------------------

  /// dot(x, y): device-local multiply-adds, one scalar tree allreduce.
  double dot(const array::Array& x, const array::Array& y) {
    const Partition px = vector_slabs(x);
    const Partition py = vector_slabs(y);
    const std::uint64_t e = next_epoch();
    std::vector<Future<double>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(peers_[i].template async<&Peer::dot_slab>(
          e, px.slabs[i], py.slabs[i]));
    return join_same(futs);
  }

  /// ||x||: device-local sums of squares, one scalar tree allreduce.
  double norm2(const array::Array& x) {
    const Partition px = vector_slabs(x);
    const std::uint64_t e = next_epoch();
    std::vector<Future<double>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(
          peers_[i].template async<&Peer::norm2sq_slab>(e, px.slabs[i]));
    return std::sqrt(join_same(futs));
  }

  /// y += a·x — embarrassingly parallel, no reduction at all.
  void axpy(double a, const array::Array& x, const array::Array& y) {
    const Partition px = vector_slabs(x);
    const Partition py = vector_slabs(y);
    std::vector<Future<void>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(peers_[i].template async<&Peer::axpy_slab>(
          a, px.slabs[i], py.slabs[i]));
    join(futs);
  }

  /// x *= a via the devices' in-place update kernels.
  void scale(double a, const array::Array& x) {
    const Partition px = vector_slabs(x);
    std::vector<Future<void>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(
          peers_[i].template async<&Peer::scale_slab>(a, px.slabs[i]));
    join(futs);
  }

  /// y = A·x.  A is (R, C, 1) with row-slab pages (rb, C, 1); x is
  /// (C, 1, 1); y is (R, 1, 1) partitioned like A's rows.
  ///
  /// reuse_matrix keeps each member's A slab resident in its Peer across
  /// calls — the win for iterative solvers, which multiply by the same
  /// operator every iteration.  Pass it only while A's pages are not
  /// being rewritten; after rewriting A, call drop_matrix_cache().
  void matvec(const array::Array& a, const array::Array& x,
              const array::Array& y, bool reuse_matrix = false) {
    const Partition pa = matrix_slabs(a);
    const Partition px = vector_slabs(x);
    const Partition py = vector_slabs(y);
    OOPP_CHECK_MSG(a.extents().n2 == x.extents().n1,
                   "matvec: A columns != x length");
    OOPP_CHECK_MSG(a.extents().n1 == y.extents().n1,
                   "matvec: A rows != y length");
    const std::uint64_t e = next_epoch();
    std::vector<Future<void>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(peers_[i].template async<&Peer::matvec_slab>(
          e, pa.slabs[i], px.slabs[i], py.slabs[i], px.offsets,
          reuse_matrix));
    join(futs);
  }

  /// Forget every member's resident matrix slab (see matvec reuse).
  void drop_matrix_cache() {
    std::vector<Future<void>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(peers_[i].template async<&Peer::drop_cache>());
    join(futs);
  }

  // -- member-resident vector collectives (benches, tests) ------------------

  void set_member_data(const std::vector<std::vector<double>>& chunks) {
    OOPP_CHECK(chunks.size() == peers_.size());
    std::vector<Future<void>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(
          peers_[i].template async<&Peer::set_data>(chunks[i]));
    join(futs);
  }

  [[nodiscard]] std::vector<std::vector<double>> member_data() const {
    std::vector<Future<std::vector<double>>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(peers_[i].template async<&Peer::data>());
    std::vector<std::vector<double>> out;
    out.reserve(futs.size());
    // oopp-lint: allow(future-bare-get) — see join().
    for (auto& f : futs) out.push_back(f.get());
    return out;
  }

  /// Drive one allreduce across every member's resident vector; returns
  /// the algorithm that ran.
  Algo allreduce_members(ReduceKind kind, Algo algo = Algo::kAuto) {
    const std::uint64_t e = next_epoch();
    std::vector<Future<Algo>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(
          peers_[i].template async<&Peer::allreduce>(e, kind, algo));
    return join_same(futs);
  }

  /// Segmented broadcast of member 0's resident vector to every member.
  void bcast_members(std::int64_t len) {
    const std::uint64_t e = next_epoch();
    const std::uint32_t nsegs =
        choose_segments(static_cast<std::size_t>(len) * sizeof(double),
                        hints_);
    std::vector<Future<void>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(
          peers_[i].template async<&Peer::bcast_vec>(e, len, nsegs));
    join(futs);
  }

  /// Segmented reduce of every member's resident vector into member 0's
  /// (non-root vectors unspecified afterwards, as in MPI_Reduce).
  void reduce_members(ReduceKind kind, std::int64_t len) {
    const std::uint64_t e = next_epoch();
    const std::uint32_t nsegs =
        choose_segments(static_cast<std::size_t>(len) * sizeof(double),
                        hints_);
    std::vector<Future<void>> futs;
    futs.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i)
      futs.push_back(
          peers_[i].template async<&Peer::reduce_vec>(e, kind, nsegs));
    join(futs);
  }

  void destroy() { peers_.destroy_all(); }

 private:
  struct Partition {
    std::vector<Slab> slabs;
    std::vector<std::int64_t> offsets;  // member i's first global element
  };

  std::uint64_t next_epoch() { return epoch_->fetch_add(1) + 1; }

  /// An operation completes as a whole; a failed member fails the whole
  /// collective.  Every member is waited for before the first failure is
  /// rethrown, so no member is still in the failed collective when the
  /// next operation starts.
  static void join(std::vector<Future<void>>& futs) {
    std::exception_ptr failed;
    for (auto& f : futs) {
      try {
        f.get();  // oopp-lint: allow(future-bare-get)
      } catch (...) {
        if (!failed) failed = std::current_exception();
      }
    }
    if (failed) std::rethrow_exception(failed);
  }

  /// join() for collectives whose members all return the same value (the
  /// root's result travels to every member bit-identical).
  template <class R>
  static R join_same(std::vector<Future<R>>& futs) {
    R out{};
    std::exception_ptr failed;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      try {
        R v = futs[i].get();  // oopp-lint: allow(future-bare-get)
        if (i == 0) out = v;
      } catch (...) {
        if (!failed) failed = std::current_exception();
      }
    }
    if (failed) std::rethrow_exception(failed);
    return out;
  }

  /// Group the pages of a (N, 1, 1) vector Array by owning device.  Each
  /// member must own a contiguous run of pages (the blocked layout) so
  /// its slab is a contiguous global element range.
  [[nodiscard]] Partition vector_slabs(const array::Array& v) const {
    const auto& ext = v.extents();
    OOPP_CHECK_MSG(ext.n2 == 1 && ext.n3 == 1,
                   "Communicator vectors are (N, 1, 1) arrays");
    return slabs_of(v, /*row_elems=*/1);
  }

  /// Group the row-slab pages of a (R, C, 1) matrix Array whose page
  /// blocks are (rb, C, 1).
  [[nodiscard]] Partition matrix_slabs(const array::Array& m) const {
    const auto& ext = m.extents();
    const auto& b = m.page_extents();
    OOPP_CHECK_MSG(ext.n3 == 1 && b.n3 == 1,
                   "Communicator matrices are (R, C, 1) arrays");
    OOPP_CHECK_MSG(b.n2 == ext.n2,
                   "matrix pages must span full rows: blocks (rb, C, 1)");
    return slabs_of(m, ext.n2);
  }

  /// Shared grouping walk over the first page axis.  `row_elems` is the
  /// number of elements per unit of the first axis (1 for vectors, C for
  /// row-slab matrices).
  [[nodiscard]] Partition slabs_of(const array::Array& v,
                                   index_t row_elems) const {
    const auto n = static_cast<std::int32_t>(peers_.size());
    OOPP_CHECK_MSG(
        static_cast<std::int32_t>(v.storage().size()) == n,
        "Array device count must equal the Communicator member count");
    const auto& ext = v.extents();
    const auto& b = v.page_extents();
    const auto grid = v.page_grid();
    Partition part;
    part.slabs.resize(static_cast<std::size_t>(n));
    part.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    std::vector<std::int64_t> first(static_cast<std::size_t>(n), -1);
    for (index_t p = 0; p < grid.n1; ++p) {
      const auto addr = v.page_address(p, 0, 0);
      OOPP_CHECK(addr.device_id >= 0 && addr.device_id < n);
      Slab& s = part.slabs[static_cast<std::size_t>(addr.device_id)];
      if (s.pages.empty())
        first[static_cast<std::size_t>(addr.device_id)] = p;
      else
        OOPP_CHECK_MSG(first[static_cast<std::size_t>(addr.device_id)] +
                               static_cast<std::int64_t>(s.pages.size()) ==
                           p,
                       "Communicator requires the blocked layout: each "
                       "member's pages must be one contiguous run");
      s.pages.push_back(addr.index);
    }
    std::int64_t covered = 0;
    for (std::int32_t i = 0; i < n; ++i) {
      Slab& s = part.slabs[static_cast<std::size_t>(i)];
      s.dev = v.storage()[static_cast<std::size_t>(i)];
      s.n1 = static_cast<std::int32_t>(b.n1);
      s.n2 = static_cast<std::int32_t>(b.n2);
      s.n3 = static_cast<std::int32_t>(b.n3);
      part.offsets[static_cast<std::size_t>(i)] = covered;
      if (s.pages.empty()) continue;
      const std::int64_t f = first[static_cast<std::size_t>(i)];
      const std::int64_t lo = f * b.n1;
      const std::int64_t hi =
          std::min<std::int64_t>(
              ext.n1, (f + static_cast<std::int64_t>(s.pages.size())) * b.n1);
      s.elems = (hi - lo) * row_elems;
      OOPP_CHECK_MSG(lo * row_elems == covered,
                     "Communicator requires member element ranges in member "
                     "order (blocked layout)");
      covered += s.elems;
    }
    part.offsets[static_cast<std::size_t>(n)] = covered;
    OOPP_CHECK(covered == ext.volume());
    return part;
  }

  ProcessGroup<Peer> peers_;
  CostHints hints_{};
  std::shared_ptr<std::atomic<std::uint64_t>> epoch_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

}  // namespace oopp::coll
