#include "fft/fft.hpp"

#include <cmath>
#include <numbers>

#include "fft/plan.hpp"
#include "util/assert.hpp"

namespace oopp::fft {

namespace {

void bit_reverse_permute(std::span<cplx> a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

/// Bluestein's algorithm: an arbitrary-length DFT as a convolution, which
/// is evaluated with power-of-two FFTs.
void bluestein(std::span<cplx> data, int sign) {
  const index_t n = static_cast<index_t>(data.size());
  index_t m = 1;
  while (m < 2 * n - 1) m <<= 1;

  // Chirp: w_k = exp(sign * i * pi * k^2 / n).  k^2 mod 2n avoids the
  // precision loss of huge k^2 arguments.
  std::vector<cplx> w(n);
  for (index_t k = 0; k < n; ++k) {
    const index_t k2 = static_cast<index_t>(
        (static_cast<unsigned long long>(k) * k) % (2ull * n));
    const double angle =
        sign * std::numbers::pi * static_cast<double>(k2) / double(n);
    w[k] = cplx(std::cos(angle), std::sin(angle));
  }

  std::vector<cplx> a(m, cplx{});
  std::vector<cplx> b(m, cplx{});
  for (index_t k = 0; k < n; ++k) a[k] = data[k] * w[k];
  b[0] = std::conj(w[0]);
  for (index_t k = 1; k < n; ++k) b[k] = b[m - k] = std::conj(w[k]);

  fft_pow2_inplace(a, -1);
  fft_pow2_inplace(b, -1);
  for (index_t k = 0; k < m; ++k) a[k] *= b[k];
  fft_pow2_inplace(a, +1);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (index_t k = 0; k < n; ++k) data[k] = a[k] * w[k] * inv_m;
}

}  // namespace

void fft_pow2_inplace(std::span<cplx> data, int sign) {
  OOPP_CHECK_MSG(sign == -1 || sign == 1, "sign must be -1 or +1");
  const std::size_t n = data.size();
  OOPP_CHECK_MSG(is_pow2(static_cast<index_t>(n)),
                 "fft_pow2_inplace needs a power-of-two length, got " << n);
  if (n == 1) return;

  bit_reverse_permute(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cplx u = data[i + j];
        const cplx v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

void fft_inplace(std::span<cplx> data, int sign) {
  OOPP_CHECK_MSG(sign == -1 || sign == 1, "sign must be -1 or +1");
  const auto n = static_cast<index_t>(data.size());
  OOPP_CHECK_MSG(n >= 1, "empty FFT");
  if (n == 1) return;
  // Served from the plan cache: repeated lengths (the common case in the
  // distributed workers and the out-of-core passes) pay the trigonometry
  // once.
  plan_for(n, sign)->execute(data);
}

void fft_inplace_unplanned(std::span<cplx> data, int sign) {
  OOPP_CHECK_MSG(sign == -1 || sign == 1, "sign must be -1 or +1");
  const auto n = static_cast<index_t>(data.size());
  OOPP_CHECK_MSG(n >= 1, "empty FFT");
  if (n == 1) return;
  if (is_pow2(n))
    fft_pow2_inplace(data, sign);
  else
    bluestein(data, sign);
}

std::vector<cplx> dft_reference(std::span<const cplx> data, int sign) {
  OOPP_CHECK(sign == -1 || sign == 1);
  const auto n = static_cast<index_t>(data.size());
  std::vector<cplx> out(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) {
    cplx acc{};
    for (index_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k) * static_cast<double>(j) /
                           static_cast<double>(n);
      acc += data[j] * cplx(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

void scale(std::span<cplx> data, double s) {
  for (auto& x : data) x *= s;
}

}  // namespace oopp::fft
