#include "fft/out_of_core.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "fft/fft3d.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace oopp::fft {

namespace {

/// Rows per slab so that rows * row_elems complex doubles fit the budget.
index_t slab_rows(std::size_t max_bytes, index_t row_elems, index_t total) {
  const std::size_t per_row =
      static_cast<std::size_t>(row_elems) * sizeof(cplx);
  index_t rows = per_row == 0
                     ? total
                     : static_cast<index_t>(max_bytes / per_row);
  return std::clamp<index_t>(rows, 1, total);
}

/// The real (part 0) or imaginary (part 1) parts of `buf` as doubles two
/// apart: std::complex<double> is layout-compatible with double[2].
std::span<double> lane(std::vector<cplx>& buf, std::size_t part) {
  return {reinterpret_cast<double*>(buf.data()) + part,
          2 * buf.size() - part};
}

std::uint64_t since(std::int64_t t0) {
  return static_cast<std::uint64_t>(now_ns() - t0);
}

struct Slab {
  array::Domain dom;
  Extents3 local;
};

/// Build the slab decomposition of one pass: `rows` rows along `axis`
/// per slab, full extent on the other two axes.
std::vector<Slab> make_slabs(const Extents3& n, int axis, index_t rows) {
  const index_t total = axis == 0 ? n.n1 : n.n2;
  std::vector<Slab> slabs;
  for (index_t lo = 0; lo < total; lo += rows) {
    const index_t hi = std::min(lo + rows, total);
    if (axis == 0)
      slabs.push_back({array::Domain(lo, hi, 0, n.n2, 0, n.n3),
                       Extents3{hi - lo, n.n2, n.n3}});
    else
      slabs.push_back({array::Domain(0, n.n1, lo, hi, 0, n.n3),
                       Extents3{n.n1, hi - lo, n.n3}});
  }
  return slabs;
}

/// Assemble slab `s`'s fetched pages into `buf`: the real Array's into
/// the real parts, the imaginary Array's into the imaginary parts.
/// Returns the time it took.
std::uint64_t assemble(array::SliceReadFuture& re_in,
                       array::SliceReadFuture& im_in, const Slab& s,
                       std::vector<cplx>& buf) {
  const std::int64_t t0 = now_ns();
  buf.resize(static_cast<std::size_t>(s.dom.volume()));
  re_in.get_into(lane(buf, 0), 2);
  im_in.get_into(lane(buf, 1), 2);
  return since(t0);
}

/// Transform the assembled slab in place and count it.
template <class Transform>
void compute(Transform& transform, const Slab& s, std::vector<cplx>& buf,
             PassStats& stats) {
  const std::int64_t t0 = now_ns();
  transform(buf, s.local);
  stats.compute_ns += since(t0);
  ++stats.slabs;
  stats.elements_read += buf.size();
  stats.elements_written += buf.size();
}

/// One pass, strict paper order: read slab, transform, write back, next.
/// Each of the four slice calls completes before the next is issued.
template <class Transform>
void run_pass_serial(array::Array& re, array::Array& im,
                     const std::vector<Slab>& slabs, std::vector<cplx>& buf,
                     Transform&& transform, PassStats& stats) {
  for (const Slab& s : slabs) {
    auto re_in = re.async_read_slice(s.dom);
    re_in.wait();
    auto im_in = im.async_read_slice(s.dom);
    im_in.wait();
    stats.assemble_ns += assemble(re_in, im_in, s, buf);
    compute(transform, s, buf, stats);
    std::int64_t t0 = now_ns();
    auto re_out = re.async_write_slice(lane(buf, 0), s.dom, 2);
    stats.pack_ns += since(t0);
    re_out.get();
    t0 = now_ns();
    auto im_out = im.async_write_slice(lane(buf, 1), s.dom, 2);
    stats.pack_ns += since(t0);
    im_out.get();
  }
}

/// One pass, double-buffered: prefetch slab k+1 while transforming slab k
/// while slab k-1 drains back to the devices.  At most one read and one
/// write slab are in flight beside the slab buffer, so three slabs' bytes
/// are live at once (the caller sizes them from a third of the budget).
/// Slab k's write pages are packed from the buffer when its write is
/// issued, which frees the buffer for slab k+1.
template <class Transform>
void run_pass_pipelined(array::Array& re, array::Array& im,
                        const std::vector<Slab>& slabs, std::vector<cplx>& buf,
                        Transform&& transform, PassStats& stats) {
  using ReadPair = std::pair<array::SliceReadFuture, array::SliceReadFuture>;
  using WritePair =
      std::pair<array::SliceWriteFuture, array::SliceWriteFuture>;

  auto& scope = telemetry::Metrics::scope_for("fft.pipeline");
  static auto& stall_read_h = scope.histogram("stall_read_ns");
  static auto& stall_write_h = scope.histogram("stall_write_ns");
  static auto& assemble_h = scope.histogram("assemble_ns");
  static auto& pack_h = scope.histogram("pack_ns");
  static auto& slabs_ctr = scope.counter("slabs");

  std::optional<ReadPair> cur_read;
  std::optional<WritePair> prev_write;
  if (!slabs.empty())
    cur_read.emplace(re.async_read_slice(slabs[0].dom),
                     im.async_read_slice(slabs[0].dom));

  for (std::size_t k = 0; k < slabs.size(); ++k) {
    const Slab& s = slabs[k];
    // Prefetch slab k+1 before touching slab k's bytes.
    std::optional<ReadPair> next_read;
    if (k + 1 < slabs.size())
      next_read.emplace(re.async_read_slice(slabs[k + 1].dom),
                        im.async_read_slice(slabs[k + 1].dom));

    // Slab k's fetches: time blocked here is the read stall — zero when
    // the prefetch fully hid them behind slab k-1's work.
    std::int64_t t0 = now_ns();
    cur_read->first.wait();
    cur_read->second.wait();
    const std::uint64_t rstall = since(t0);
    stats.stall_read_ns += rstall;
    stall_read_h.record(rstall);

    const std::uint64_t assembled =
        assemble(cur_read->first, cur_read->second, s, buf);
    stats.assemble_ns += assembled;
    assemble_h.record(assembled);
    compute(transform, s, buf, stats);

    // Bound the write-behind: slab k-1 must be on disk before slab k's
    // write is issued (also keeps RMW boundary pages race-free — at most
    // one write slab in flight).
    t0 = now_ns();
    if (prev_write) {
      prev_write->first.get();
      prev_write->second.get();
    }
    const std::uint64_t wstall = since(t0);
    stats.stall_write_ns += wstall;
    stall_write_h.record(wstall);

    t0 = now_ns();
    prev_write.emplace(re.async_write_slice(lane(buf, 0), s.dom, 2),
                       im.async_write_slice(lane(buf, 1), s.dom, 2));
    const std::uint64_t packed = since(t0);
    stats.pack_ns += packed;
    pack_h.record(packed);
    cur_read = std::move(next_read);
    slabs_ctr.add(1);
  }

  if (prev_write) {
    const std::int64_t t0 = now_ns();
    prev_write->first.get();
    prev_write->second.get();
    const std::uint64_t wstall = since(t0);
    stats.stall_write_ns += wstall;
    stall_write_h.record(wstall);
  }
}

}  // namespace

OutOfCoreStats fft3d_out_of_core(array::Array& re, array::Array& im,
                                 int sign, OutOfCoreOptions options) {
  OOPP_CHECK_MSG(re.extents() == im.extents(),
                 "real and imaginary arrays must have identical extents");
  telemetry::LocalSpan span("fft.out_of_core");
  const Extents3 n = re.extents();
  OutOfCoreStats stats;

  // Three slabs live at once in the pipeline (prefetch / compute /
  // write-behind), so each gets a third of the budget.
  const std::size_t budget =
      options.pipeline ? options.max_bytes / 3 : options.max_bytes;
  const auto pass1 =
      make_slabs(n, 0, slab_rows(budget, n.n2 * n.n3, n.n1));
  const auto pass2 =
      make_slabs(n, 1, slab_rows(budget, n.n1 * n.n3, n.n2));

  // The one slab buffer both passes assemble into, transform and write
  // back from.
  std::vector<cplx> buf;
  buf.reserve(static_cast<std::size_t>(
      std::max(pass1.front().dom.volume(), pass2.front().dom.volume())));

  // -- pass 1: axis-0 slabs, transform axes 1 and 2 -------------------------
  auto transform1 = [sign](std::vector<cplx>& slab, const Extents3& local) {
    fft3d_axis(slab, local, 2, sign);
    fft3d_axis(slab, local, 1, sign);
  };
  if (options.pipeline)
    run_pass_pipelined(re, im, pass1, buf, transform1, stats.pass1);
  else
    run_pass_serial(re, im, pass1, buf, transform1, stats.pass1);

  // -- pass 2: axis-1 slabs, transform axis 0 --------------------------------
  auto transform2 = [sign](std::vector<cplx>& slab, const Extents3& local) {
    fft3d_axis(slab, local, 0, sign);
  };
  if (options.pipeline)
    run_pass_pipelined(re, im, pass2, buf, transform2, stats.pass2);
  else
    run_pass_serial(re, im, pass2, buf, transform2, stats.pass2);

  return stats;
}

}  // namespace oopp::fft
