// E12 — the paper's motivating computation (§1): a 3-D Fourier transform
// over an array stored on many page devices, too large for the client's
// memory budget.
//
// Claims exercised:
//   * the transform completes within ANY memory budget, and the total
//     I/O volume is invariant — the budget only changes how many slab
//     round trips move it (two read+write passes over the array);
//   * the PageMap (§5) determines how far each slab's I/O fans out over
//     the devices — the same out-of-core FFT is ~D x faster on a
//     round-robin layout than on a single spindle.
#include <cstdio>
#include <cstring>

#include "array/array.hpp"
#include "array/block_storage.hpp"
#include "bench_common.hpp"
#include "core/oopp.hpp"
#include "fft/fft3d.hpp"
#include "fft/out_of_core.hpp"
#include "util/prng.hpp"

using namespace oopp;
namespace arr = oopp::array;
using bench::ScratchDir;

namespace {

arr::Array make_disk_array(Cluster& cluster, const ScratchDir& dir,
                           const std::string& tag, const Extents3& n,
                           const Extents3& b, int devices,
                           arr::PageMapKind kind, std::uint32_t service_us) {
  const Extents3 grid{ceil_div(n.n1, b.n1), ceil_div(n.n2, b.n2),
                      ceil_div(n.n3, b.n3)};
  const arr::PageMapSpec spec{kind};
  arr::BlockStorageConfig cfg;
  cfg.file_prefix = dir.file(tag);
  cfg.devices = devices;
  cfg.pages_per_device =
      static_cast<std::int32_t>(spec.pages_per_device(grid, devices));
  cfg.n1 = static_cast<int>(b.n1);
  cfg.n2 = static_cast<int>(b.n2);
  cfg.n3 = static_cast<int>(b.n3);
  cfg.device_options.service_us = service_us;
  auto storage = arr::create_block_storage(cfg, [&](std::int32_t i) {
    return static_cast<net::MachineId>(i % cluster.size());
  });
  return arr::Array(n.n1, n.n2, n.n3, b.n1, b.n2, b.n3, storage, spec);
}

/// Where one transform's client time went, summed over both passes, in
/// ms: waiting for fetches (pipelined only), assembling pages into the
/// slab buffer, transforming it, packing it into write pages, and
/// draining the write-behind (pipelined only).
struct Split {
  double wait, assemble, compute, pack, stall_write;
};

Split split_of(const fft::OutOfCoreStats& s) {
  auto ms = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a + b) / 1e6;
  };
  return {ms(s.pass1.stall_read_ns, s.pass2.stall_read_ns),
          ms(s.pass1.assemble_ns, s.pass2.assemble_ns),
          ms(s.pass1.compute_ns, s.pass2.compute_ns),
          ms(s.pass1.pack_ns, s.pass2.pack_ns),
          ms(s.pass1.stall_write_ns, s.pass2.stall_write_ns)};
}

// CI smoke: the tentpole comparison — the same out-of-core transform,
// strict read→compute→write order vs the double-buffered pipeline
// (prefetch slab k+1 / transform k / write-behind k-1).  Emits
// BENCH_e12.json; CI fails the job if the pipeline does not win.
int run_smoke() {
  bench::headline("E12 out-of-core FFT, serial vs pipelined (smoke)",
                  "prefetch + write-behind hide the devices' service time "
                  "behind the transform");
  Cluster cluster(4);
  ScratchDir dir("e12s");

  // Slab I/O outweighs slab compute here: an 8-row 64x64 slab transforms
  // in well under a millisecond, and most of the pipelined run is read
  // stall.  The pipeline wins by letting the devices serve slab k+1's
  // fetch and slab k-1's write-back while slab k is transformed.
  const Extents3 N{64, 64, 64};
  const Extents3 b{8, 8, 8};
  const int devices = 4;
  constexpr std::uint32_t kServiceUs = 300;
  // Both modes run the SAME slab schedule (one 8-row page layer per
  // slab, page-aligned — no read-modify-write at slab seams): serial
  // holds one slab at a time, the pipeline triple-buffers the identical
  // slabs within the full budget.  Identical I/O volume and seek
  // pattern; only the ordering differs — that isolates the overlap.
  const std::size_t budget = std::size_t{3} * (std::size_t{512} << 10);

  Xoshiro256 rng(12);
  std::vector<double> re0(static_cast<std::size_t>(N.volume()));
  std::vector<double> im0(re0.size());
  for (auto& x : re0) x = rng.uniform(-1, 1);
  for (auto& x : im0) x = rng.uniform(-1, 1);
  const auto whole = arr::Domain::whole(N);

  double ms[2] = {0, 0};
  std::uint64_t stall_ns = 0;
  Split split[2] = {};
  for (const bool pipeline : {false, true}) {
    auto re = make_disk_array(cluster, dir,
                              std::string("sA") + (pipeline ? "p" : "s"), N,
                              b, devices, arr::PageMapKind::kRoundRobin,
                              kServiceUs);
    auto im = make_disk_array(cluster, dir,
                              std::string("sB") + (pipeline ? "p" : "s"), N,
                              b, devices, arr::PageMapKind::kRoundRobin,
                              kServiceUs);
    re.write(re0, whole);
    im.write(im0, whole);
    fft::OutOfCoreStats stats;
    // pipeline=true sizes slabs from max_bytes/3; give serial budget/3
    // directly so both modes move the very same slabs.
    const std::size_t max_bytes = pipeline ? budget : budget / 3;
    const double secs = bench::median_seconds(3, [&] {
      stats = fft::fft3d_out_of_core(
          re, im, -1,
          fft::OutOfCoreOptions{.max_bytes = max_bytes, .pipeline = pipeline});
    });
    ms[pipeline ? 1 : 0] = secs * 1e3;
    if (pipeline) stall_ns = stats.stall_ns();
    split[pipeline ? 1 : 0] = split_of(stats);
    arr::destroy_block_storage(const_cast<arr::BlockStorage&>(re.storage()));
    arr::destroy_block_storage(const_cast<arr::BlockStorage&>(im.storage()));
  }

  const double speedup = ms[0] / ms[1];
  const Split& p = split[1];
  bench::note("64^3 complex field, 4 devices/array, %u us service, "
              "%zu KiB pipeline budget (same 8-row slabs in both modes):",
              kServiceUs, budget >> 10);
  bench::note("  serial   : %8.1f ms", ms[0]);
  bench::note("  pipelined: %8.1f ms  (%.2fx, %.1f ms stalled)", ms[1],
              speedup, double(stall_ns) / 1e6);
  bench::note("  per transform, ms: %8s %8s %8s %8s %8s", "wait",
              "assemble", "compute", "pack", "wr stall");
  for (int m = 0; m < 2; ++m)
    bench::note("  %-16s  %8.2f %8.2f %8.2f %8.2f %8.2f",
                m == 0 ? "serial" : "pipelined", split[m].wait,
                split[m].assemble, split[m].compute, split[m].pack,
                split[m].stall_write);
  bench::emit_json_fields("e12",
                          {{"serial_ms", ms[0]},
                           {"pipelined_ms", ms[1]},
                           {"pipeline_speedup", speedup},
                           {"pipeline_stall_ms", double(stall_ns) / 1e6},
                           {"pipelined_wait_ms", p.wait},
                           {"pipelined_assemble_ms", p.assemble},
                           {"pipelined_compute_ms", p.compute},
                           {"pipelined_pack_ms", p.pack},
                           {"pipelined_stall_write_ms", p.stall_write}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  bench::headline("E12 out-of-core FFT over page devices (paper §1 + §5)",
                  "any memory budget computes the same transform with the "
                  "same I/O volume; the PageMap sets the I/O parallelism");

  Cluster cluster(4);
  ScratchDir dir("e12");

  const Extents3 N{32, 32, 32};
  const Extents3 b{8, 8, 8};  // 64 pages of 4 KiB doubles
  const int devices = 8;
  constexpr std::uint32_t kServiceUs = 300;
  const double array_mib =
      double(N.volume()) * sizeof(double) * 2 / (1 << 20);
  bench::note("complex field: %lld^3 (%.1f MiB re+im), 64 pages/array, "
              "%d devices, %u us service",
              static_cast<long long>(N.n1), array_mib, devices, kServiceUs);

  // Reference result computed in memory.
  Xoshiro256 rng(21);
  std::vector<double> re0(static_cast<std::size_t>(N.volume()));
  std::vector<double> im0(re0.size());
  for (auto& x : re0) x = rng.uniform(-1, 1);
  for (auto& x : im0) x = rng.uniform(-1, 1);
  std::vector<fft::cplx> expect(re0.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    expect[i] = fft::cplx(re0[i], im0[i]);
  fft::fft3d_inplace(expect, N, -1);

  const auto whole = arr::Domain::whole(N);

  std::printf("\nmemory-budget sweep (round-robin layout):\n");
  std::printf("%12s | %7s %7s %12s %10s | %10s\n", "budget", "slabs1",
              "slabs2", "elems moved", "ms", "max err");
  std::printf("-------------+---------------------------------------+------"
              "-----\n");
  for (std::size_t budget :
       {std::size_t{64} << 10, std::size_t{256} << 10, std::size_t{1} << 20,
        std::size_t{64} << 20}) {
    auto re = make_disk_array(cluster, dir, "rrA" + std::to_string(budget),
                              N, b, devices, arr::PageMapKind::kRoundRobin,
                              kServiceUs);
    auto im = make_disk_array(cluster, dir, "rrB" + std::to_string(budget),
                              N, b, devices, arr::PageMapKind::kRoundRobin,
                              kServiceUs);
    re.write(re0, whole);
    im.write(im0, whole);

    Timer t;
    const auto stats = fft::fft3d_out_of_core(
        re, im, -1,
        fft::OutOfCoreOptions{.max_bytes = budget, .pipeline = false});
    const double ms = t.millis();

    const auto re_out = re.read(whole);
    const auto im_out = im.read(whole);
    double err = 0.0;
    for (std::size_t i = 0; i < expect.size(); ++i)
      err = std::max(err, std::abs(fft::cplx(re_out[i], im_out[i]) -
                                   expect[i]));

    std::printf("%9zu KB | %7lld %7lld %12llu %10.1f | %10.2e\n",
                budget >> 10, static_cast<long long>(stats.pass1.slabs),
                static_cast<long long>(stats.pass2.slabs),
                static_cast<unsigned long long>(stats.elements_moved()), ms,
                err);
    arr::destroy_block_storage(
        const_cast<arr::BlockStorage&>(re.storage()));
    arr::destroy_block_storage(
        const_cast<arr::BlockStorage&>(im.storage()));
  }

  std::printf("\nlayout sweep (1 MiB budget):\n");
  std::printf("%14s | %10s | %10s\n", "layout", "ms", "vs single");
  double single_ms = 0.0;
  for (auto kind :
       {arr::PageMapKind::kSingleDevice, arr::PageMapKind::kBlocked,
        arr::PageMapKind::kRoundRobin}) {
    const arr::PageMapSpec spec{kind};
    auto re = make_disk_array(cluster, dir,
                              std::string("lyA") + spec.name(), N, b,
                              devices, kind, kServiceUs);
    auto im = make_disk_array(cluster, dir,
                              std::string("lyB") + spec.name(), N, b,
                              devices, kind, kServiceUs);
    re.write(re0, whole);
    im.write(im0, whole);
    Timer t;
    (void)fft::fft3d_out_of_core(
        re, im, -1,
        fft::OutOfCoreOptions{.max_bytes = std::size_t{1} << 20,
                              .pipeline = false});
    const double ms = t.millis();
    if (kind == arr::PageMapKind::kSingleDevice) single_ms = ms;
    std::printf("%14s | %10.1f | %9.1fx\n", spec.name(), ms, single_ms / ms);
    arr::destroy_block_storage(
        const_cast<arr::BlockStorage&>(re.storage()));
    arr::destroy_block_storage(
        const_cast<arr::BlockStorage&>(im.storage()));
  }

  std::printf("\npipeline sweep (round-robin, 384 KiB budget):\n");
  std::printf("%10s | %8s | %8s %8s %8s %8s %8s\n", "mode", "ms",
              "stall rd", "assemble", "compute", "pack", "stall wr");
  for (const bool pipeline : {false, true}) {
    auto re = make_disk_array(cluster, dir,
                              std::string("plA") + (pipeline ? "p" : "s"), N,
                              b, devices, arr::PageMapKind::kRoundRobin,
                              kServiceUs);
    auto im = make_disk_array(cluster, dir,
                              std::string("plB") + (pipeline ? "p" : "s"), N,
                              b, devices, arr::PageMapKind::kRoundRobin,
                              kServiceUs);
    re.write(re0, whole);
    im.write(im0, whole);
    Timer t;
    const auto stats = fft::fft3d_out_of_core(
        re, im, -1,
        fft::OutOfCoreOptions{.max_bytes = std::size_t{384} << 10,
                              .pipeline = pipeline});
    const double ms = t.millis();
    const Split sp = split_of(stats);
    std::printf("%10s | %8.1f | %8.2f %8.2f %8.2f %8.2f %8.2f\n",
                pipeline ? "pipelined" : "serial", ms, sp.wait, sp.assemble,
                sp.compute, sp.pack, sp.stall_write);
    arr::destroy_block_storage(
        const_cast<arr::BlockStorage&>(re.storage()));
    arr::destroy_block_storage(
        const_cast<arr::BlockStorage&>(im.storage()));
  }

  std::printf("\nshape checks:\n");
  bench::note("elements moved is identical for every budget (two passes, "
              "exactly) and max err ~1e-12: same transform");
  bench::note("budgets below a page-layer force read-modify-write on "
              "shared pages — wall time jumps although the logical volume "
              "is unchanged (align slabs to page rows)");
  bench::note("batched slab I/O charges one service per contiguous run, so "
              "whole-layer slabs are nearly layout-insensitive — the per-page "
              "PageMap effect (E6's ~D x) survives where access fragments "
              "into many runs, not on bulk sequential slabs");
  bench::note("the double-buffered pipeline hides slab fetch and write-back "
              "behind the transform: stall time is what overlap could not "
              "cover; assemble and pack are the client's own copies between "
              "pages and the slab buffer (the serial pass records no "
              "stalls)");
  return 0;
}
