// FFT plans: precomputed per-length state (bit-reversal permutation and
// per-stage twiddle tables for powers of two; chirp and convolution
// kernels for Bluestein lengths), plus a process-wide plan cache.
//
// The distributed workers and the out-of-core passes transform the same
// lengths thousands of times; planning once amortizes all trigonometry.
// fft_inplace() uses the cache transparently.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fft/fft.hpp"

namespace oopp::fft {

/// A transform of one length and sign, applied to one vector (execute) or
/// to many strided columns at once (execute_columns).
///
/// Power-of-two lengths run one radix-2 kernel whose butterfly is written
/// in explicit real/imaginary arithmetic.  For finite inputs its output is
/// bit-identical to the same butterflies in std::complex arithmetic (same
/// order, twiddle tables and products).  Non-finite inputs may give a
/// different NaN/Inf pattern, because the multiply skips std::complex's
/// C99 Annex G recovery of NaN products.
class Plan1D {
 public:
  /// Columns the radix-2 kernel transforms together: at n = 64 a block is
  /// 64 x 16 x 16 B = 16 KiB, which stays in L1 across all the stages.
  static constexpr index_t kColumnBlock = 16;

  /// Plan a transform of length n with the given sign (-1 forward, +1
  /// inverse).  Unnormalized, like fft_inplace.
  Plan1D(index_t n, int sign);

  void execute(std::span<cplx> data) const;

  /// Transform many columns in place.  A plane holds `count` adjacent
  /// columns: element j of column c sits at plane[c + j * stride], so one
  /// row of the plane (element j of every column) is contiguous and
  /// stride >= count.  Plane p starts at data + p * plane_stride.  For a
  /// row-major N1 x N2 x N3 array, one call covers a whole axis:
  ///   axis 2: planes = N1*N2, plane_stride = N3, count = 1, stride = 1
  ///   axis 1: planes = N1, plane_stride = N2*N3, count = stride = N3
  ///   axis 0: planes = 1, count = stride = N2*N3
  /// Every column comes out exactly as execute() leaves it copied out
  /// contiguously.  Radix-2 lengths run their stages over kColumnBlock
  /// columns at a time where they lie; other lengths copy each column
  /// through one buffer per call.
  void execute_columns(cplx* data, index_t planes, index_t plane_stride,
                       index_t count, index_t stride) const;

  [[nodiscard]] index_t length() const { return n_; }
  [[nodiscard]] int sign() const { return sign_; }

 private:
  void radix2(cplx* data, std::size_t count, std::size_t stride) const;
  void execute_bluestein(std::span<cplx> data, std::vector<cplx>& work) const;

  index_t n_;
  int sign_;
  bool pow2_;

  // Power-of-two state.
  std::vector<std::uint32_t> bitrev_;   // permutation
  std::vector<cplx> twiddles_;          // concatenated per-stage tables

  // Bluestein state.
  index_t m_ = 0;                        // padded power-of-two length
  std::vector<cplx> chirp_;              // w_k = exp(sign i pi k^2 / n)
  std::vector<cplx> kernel_fft_;         // FFT of the convolution kernel
  std::shared_ptr<const Plan1D> pad_forward_;
  std::shared_ptr<const Plan1D> pad_inverse_;
};

/// Process-wide cache; returns a shared plan for (n, sign).  Thread-safe.
std::shared_ptr<const Plan1D> plan_for(index_t n, int sign);

/// Entries currently cached (for tests).
std::size_t plan_cache_size();

}  // namespace oopp::fft
