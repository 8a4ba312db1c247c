// Serial complex FFT substrate.
//
// The paper's motivating workload (§1, §4) is a Fourier transform on a
// very large 3-D array.  This module provides the node-local building
// blocks: an iterative radix-2 Cooley–Tukey transform for power-of-two
// lengths, Bluestein's chirp-z algorithm for arbitrary lengths, and a
// naive O(n^2) DFT as the correctness reference for tests.  The planned
// kernel in fft/plan.hpp also transforms the strided columns of
// multidimensional arrays in place.
//
// Convention: sign = -1 is the forward transform, sign = +1 the inverse;
// neither is normalized.  forward followed by inverse scales by n — use
// scale() or divide by the element count to get the identity back.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "util/ndindex.hpp"

namespace oopp::fft {

using cplx = std::complex<double>;

[[nodiscard]] constexpr bool is_pow2(index_t n) {
  return n > 0 && (n & (n - 1)) == 0;
}

/// In-place FFT of any length n >= 1 (radix-2 when possible, Bluestein
/// otherwise).  sign must be -1 or +1.  Uses the process-wide plan cache
/// (see fft/plan.hpp) so repeated lengths amortize their setup.
void fft_inplace(std::span<cplx> data, int sign);

/// The same transform computed without the plan cache — the reference
/// the planned path is validated (and benchmarked) against.
void fft_inplace_unplanned(std::span<cplx> data, int sign);

/// In-place radix-2 FFT; data.size() must be a power of two.
void fft_pow2_inplace(std::span<cplx> data, int sign);

/// Naive O(n^2) DFT — the test oracle.
[[nodiscard]] std::vector<cplx> dft_reference(std::span<const cplx> data,
                                              int sign);

/// Multiply every element by s (normalization helper).
void scale(std::span<cplx> data, double s);

}  // namespace oopp::fft
