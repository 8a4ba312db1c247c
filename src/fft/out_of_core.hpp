// Out-of-core 3-D FFT over a disk-backed distributed Array.
//
// This is the paper's §1 motivating problem: "computing a Fourier
// transform on a very large (Petascale) three-dimensional array", stored
// across many page devices, where the whole array never fits in any one
// machine's memory.  The transform runs in two bounded-memory passes over
// the Array (the complex field travels as separate real and imaginary
// Arrays of identical shape; each slab is assembled straight into the
// real and imaginary parts of one client buffer and written back from
// them):
//
//   pass 1 — slabs along axis 0: read rows [i1, i1+c1), transform axes
//             1 and 2 in memory, write back;
//   pass 2 — slabs along axis 1: read columns [i2, i2+c2), transform
//             axis 0 in memory, write back.
//
// Slab widths are derived from a caller-supplied memory budget; every
// element is read and written exactly twice regardless of the budget —
// the budget only changes how many round trips that takes.  The PageMap
// of the underlying Array decides how far each slab read fans out over
// the devices (experiment E12).
#pragma once

#include <cstddef>

#include "array/array.hpp"
#include "fft/fft.hpp"

namespace oopp::fft {

struct OutOfCoreOptions {
  /// Client-side buffer budget in bytes (both passes stay within it).
  /// The minimum slab (one row / one column) is used if the budget is
  /// smaller than that.
  std::size_t max_bytes = std::size_t{64} << 20;

  /// Overlap communication with computation: while slab k is transformed,
  /// slab k+1 is already being fetched (async prefetch) and slab k-1 is
  /// still being written back (write-behind).  Three slabs are live at
  /// once, so each is sized from a third of max_bytes — the budget holds
  /// either way.  Disable for the paper's strict read→compute→write
  /// sequence (the serial baseline of experiment E12).
  bool pipeline = true;
};

/// Per-pass accounting.  Element counts are complex elements crossing the
/// client (re+im pair = one element), split by direction; stall times are
/// where the pipeline actually blocked — reads that out-ran the prefetch
/// and write-behinds that were still draining (the serial pass records
/// none).  The copy and compute times are the client's own work on each
/// slab, in either mode.
struct PassStats {
  index_t slabs = 0;
  std::uint64_t elements_read = 0;
  std::uint64_t elements_written = 0;
  std::uint64_t stall_read_ns = 0;   // blocked waiting for slab fetches
  std::uint64_t stall_write_ns = 0;  // blocked draining write-behind
  std::uint64_t assemble_ns = 0;     // fetched pages into the slab buffer
  std::uint64_t compute_ns = 0;      // transforming the slab buffer
  std::uint64_t pack_ns = 0;         // slab buffer into write pages

  [[nodiscard]] std::uint64_t bytes_read() const {
    return elements_read * sizeof(cplx);
  }
  [[nodiscard]] std::uint64_t bytes_written() const {
    return elements_written * sizeof(cplx);
  }
};

struct OutOfCoreStats {
  PassStats pass1;
  PassStats pass2;

  [[nodiscard]] std::uint64_t elements_moved() const {
    return pass1.elements_read + pass1.elements_written +
           pass2.elements_read + pass2.elements_written;
  }
  [[nodiscard]] std::uint64_t stall_ns() const {
    return pass1.stall_read_ns + pass1.stall_write_ns + pass2.stall_read_ns +
           pass2.stall_write_ns;
  }
};

/// Transform the complex field (re, im) in place on its storage.
/// sign = -1 forward / +1 inverse, unnormalized (use scale via
/// Array::scale for 1/N normalization).  Returns pass statistics.
OutOfCoreStats fft3d_out_of_core(array::Array& re, array::Array& im,
                                 int sign, OutOfCoreOptions options = {});

}  // namespace oopp::fft
