#include "fft/plan.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>

#include "util/assert.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::fft {

Plan1D::Plan1D(index_t n, int sign) : n_(n), sign_(sign), pow2_(is_pow2(n)) {
  OOPP_CHECK_MSG(n >= 1, "empty plan");
  OOPP_CHECK_MSG(sign == -1 || sign == 1, "sign must be -1 or +1");
  if (n == 1) return;

  if (pow2_) {
    // Bit-reversal permutation.
    bitrev_.resize(static_cast<std::size_t>(n));
    std::uint32_t j = 0;
    bitrev_[0] = 0;
    for (index_t i = 1; i < n; ++i) {
      std::uint32_t bit = static_cast<std::uint32_t>(n) >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[static_cast<std::size_t>(i)] = j;
    }
    // Per-stage twiddles: for each len = 2,4,...,n store w^0..w^(len/2-1).
    for (index_t len = 2; len <= n; len <<= 1) {
      const double angle =
          sign * 2.0 * std::numbers::pi / static_cast<double>(len);
      for (index_t k = 0; k < len / 2; ++k) {
        const double a = angle * static_cast<double>(k);
        twiddles_.emplace_back(std::cos(a), std::sin(a));
      }
    }
    return;
  }

  // Bluestein: pad length, chirp, and the FFT of the convolution kernel.
  m_ = 1;
  while (m_ < 2 * n - 1) m_ <<= 1;
  chirp_.resize(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) {
    const index_t k2 = static_cast<index_t>(
        (static_cast<unsigned long long>(k) * k) % (2ull * n));
    const double a =
        sign * std::numbers::pi * static_cast<double>(k2) / double(n);
    chirp_[static_cast<std::size_t>(k)] = cplx(std::cos(a), std::sin(a));
  }
  pad_forward_ = plan_for(m_, -1);
  pad_inverse_ = plan_for(m_, +1);

  std::vector<cplx> b(static_cast<std::size_t>(m_), cplx{});
  b[0] = std::conj(chirp_[0]);
  for (index_t k = 1; k < n; ++k)
    b[static_cast<std::size_t>(k)] = b[static_cast<std::size_t>(m_ - k)] =
        std::conj(chirp_[static_cast<std::size_t>(k)]);
  pad_forward_->execute(b);
  kernel_fft_ = std::move(b);
}

void Plan1D::execute(std::span<cplx> data) const {
  OOPP_CHECK_MSG(static_cast<index_t>(data.size()) == n_,
                 "plan length mismatch");
  if (n_ == 1) return;
  if (pow2_) {
    radix2(data.data(), 1, 1);
  } else {
    std::vector<cplx> work;
    execute_bluestein(data, work);
  }
}

void Plan1D::execute_columns(cplx* data, index_t planes,
                             index_t plane_stride, index_t count,
                             index_t stride) const {
  OOPP_CHECK_MSG(planes >= 0 && plane_stride >= 0 && count >= 0 &&
                     stride >= count,
                 "bad column layout: " << count << " columns " << stride
                                       << " apart");
  if (n_ == 1) return;
  if (pow2_) {
    for (index_t p = 0; p < planes; ++p) {
      cplx* plane = data + p * plane_stride;
      for (index_t c = 0; c < count; c += kColumnBlock)
        radix2(plane + c,
               static_cast<std::size_t>(std::min(kColumnBlock, count - c)),
               static_cast<std::size_t>(stride));
    }
    return;
  }
  std::vector<cplx> column(static_cast<std::size_t>(n_));
  std::vector<cplx> work;
  for (index_t p = 0; p < planes; ++p) {
    cplx* plane = data + p * plane_stride;
    for (index_t c = 0; c < count; ++c) {
      for (index_t j = 0; j < n_; ++j)
        column[static_cast<std::size_t>(j)] = plane[c + j * stride];
      execute_bluestein(column, work);
      for (index_t j = 0; j < n_; ++j)
        plane[c + j * stride] = column[static_cast<std::size_t>(j)];
    }
  }
}

// Row r of the block is data[r * stride .. r * stride + count).  Every
// butterfly pairs two rows and runs across the block's columns.
void Plan1D::radix2(cplx* data, std::size_t count, std::size_t stride) const {
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j)
      std::swap_ranges(data + i * stride, data + i * stride + count,
                       data + j * stride);
  }
  // std::complex<double> is layout-compatible with double[2], so the
  // block can be read as interleaved real/imaginary pairs.
  auto* d = reinterpret_cast<double*>(data);
  const std::size_t width = 2 * count;   // doubles in one block row
  const std::size_t pitch = 2 * stride;  // doubles from row to row
  const cplx* stage = twiddles_.data();
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = stage[k].real();
        const double wi = stage[k].imag();
        double* top = d + (i + k) * pitch;
        double* bot = top + half * pitch;
        for (std::size_t c = 0; c < width; c += 2) {
          // v = bot * w with std::complex's products and order, then
          // (top, bot) = (top + v, top - v).
          const double vr = bot[c] * wr - bot[c + 1] * wi;
          const double vi = bot[c] * wi + bot[c + 1] * wr;
          const double ur = top[c];
          const double ui = top[c + 1];
          top[c] = ur + vr;
          top[c + 1] = ui + vi;
          bot[c] = ur - vr;
          bot[c + 1] = ui - vi;
        }
      }
    }
    stage += half;
  }
}

void Plan1D::execute_bluestein(std::span<cplx> data,
                               std::vector<cplx>& a) const {
  a.assign(static_cast<std::size_t>(m_), cplx{});
  for (index_t k = 0; k < n_; ++k)
    a[static_cast<std::size_t>(k)] =
        data[static_cast<std::size_t>(k)] * chirp_[static_cast<std::size_t>(k)];
  pad_forward_->execute(a);
  for (index_t k = 0; k < m_; ++k)
    a[static_cast<std::size_t>(k)] *= kernel_fft_[static_cast<std::size_t>(k)];
  pad_inverse_->execute(a);
  const double inv_m = 1.0 / static_cast<double>(m_);
  for (index_t k = 0; k < n_; ++k)
    data[static_cast<std::size_t>(k)] =
        a[static_cast<std::size_t>(k)] * chirp_[static_cast<std::size_t>(k)] *
        inv_m;
}

namespace {
util::CheckedMutex g_plans_mu{"fft.plan_cache"};
std::map<std::pair<index_t, int>, std::shared_ptr<const Plan1D>> g_plans;
}  // namespace

std::shared_ptr<const Plan1D> plan_for(index_t n, int sign) {
  {
    std::lock_guard lock(g_plans_mu);
    auto it = g_plans.find({n, sign});
    if (it != g_plans.end()) return it->second;
  }
  // Build outside the lock (Bluestein plans recurse into plan_for).
  auto fresh = std::make_shared<const Plan1D>(n, sign);
  std::lock_guard lock(g_plans_mu);
  auto [it, inserted] = g_plans.emplace(std::pair{n, sign}, std::move(fresh));
  return it->second;  // the winner of a race, either way
}

std::size_t plan_cache_size() {
  std::lock_guard lock(g_plans_mu);
  return g_plans.size();
}

}  // namespace oopp::fft
