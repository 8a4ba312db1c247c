// Node-local 3-D FFT: transform along each axis of a row-major
// N1 x N2 x N3 complex array.  This is both the per-slab kernel of the
// distributed transform and the single-machine baseline it is validated
// and benchmarked against.
#pragma once

#include <vector>

#include "fft/fft.hpp"
#include "util/ndindex.hpp"

namespace oopp::fft {

/// In-place 3-D FFT over a row-major array with the given extents.
/// sign = -1 forward, +1 inverse; unnormalized (divide by volume() after a
/// round trip).
void fft3d_inplace(std::vector<cplx>& data, const Extents3& e, int sign);

/// FFT along one axis only (0, 1 or 2) of a row-major 3-D array, in place,
/// with one plan for the whole sweep (Plan1D::execute_columns).  Axis 2
/// transforms contiguous rows.  Axis 1 transforms, in each i1-plane, N3
/// adjacent columns whose elements sit N3 apart; axis 0 transforms N2*N3
/// adjacent pencils whose elements sit N2*N3 apart.  For finite inputs the
/// result is bit-identical to transforming each column on its own with
/// std::complex butterflies.
void fft3d_axis(std::vector<cplx>& data, const Extents3& e, int axis,
                int sign);

/// Naive 3-D DFT oracle for small extents.
[[nodiscard]] std::vector<cplx> dft3d_reference(const std::vector<cplx>& data,
                                                const Extents3& e, int sign);

}  // namespace oopp::fft
