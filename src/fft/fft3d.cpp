#include "fft/fft3d.hpp"

#include "fft/plan.hpp"
#include "util/assert.hpp"

namespace oopp::fft {

void fft3d_axis(std::vector<cplx>& data, const Extents3& e, int axis,
                int sign) {
  OOPP_CHECK(static_cast<index_t>(data.size()) == e.volume());
  const index_t plane = e.n2 * e.n3;
  switch (axis) {
    case 2:
      // Contiguous rows.
      plan_for(e.n3, sign)->execute_columns(data.data(), e.n1 * e.n2, e.n3,
                                            1, 1);
      return;
    case 1:
      // Per i1-plane, N3 adjacent columns N3 apart.
      plan_for(e.n2, sign)->execute_columns(data.data(), e.n1, plane, e.n3,
                                            e.n3);
      return;
    case 0:
      // N2*N3 adjacent pencils, N2*N3 apart.
      plan_for(e.n1, sign)->execute_columns(data.data(), 1, plane, plane,
                                            plane);
      return;
    default:
      OOPP_CHECK_MSG(false, "axis " << axis << " out of range");
  }
}

void fft3d_inplace(std::vector<cplx>& data, const Extents3& e, int sign) {
  fft3d_axis(data, e, 2, sign);
  fft3d_axis(data, e, 1, sign);
  fft3d_axis(data, e, 0, sign);
}

std::vector<cplx> dft3d_reference(const std::vector<cplx>& data,
                                  const Extents3& e, int sign) {
  OOPP_CHECK(static_cast<index_t>(data.size()) == e.volume());
  // Apply the 1-D oracle along each axis in turn (the separability the
  // fast transform relies on is itself exercised by comparing to this).
  std::vector<cplx> out = data;
  // axis 2
  for (index_t i1 = 0; i1 < e.n1; ++i1)
    for (index_t i2 = 0; i2 < e.n2; ++i2) {
      std::vector<cplx> row(static_cast<std::size_t>(e.n3));
      for (index_t i3 = 0; i3 < e.n3; ++i3) row[i3] = out[e.linear(i1, i2, i3)];
      auto t = dft_reference(row, sign);
      for (index_t i3 = 0; i3 < e.n3; ++i3) out[e.linear(i1, i2, i3)] = t[i3];
    }
  // axis 1
  for (index_t i1 = 0; i1 < e.n1; ++i1)
    for (index_t i3 = 0; i3 < e.n3; ++i3) {
      std::vector<cplx> col(static_cast<std::size_t>(e.n2));
      for (index_t i2 = 0; i2 < e.n2; ++i2) col[i2] = out[e.linear(i1, i2, i3)];
      auto t = dft_reference(col, sign);
      for (index_t i2 = 0; i2 < e.n2; ++i2) out[e.linear(i1, i2, i3)] = t[i2];
    }
  // axis 0
  for (index_t i2 = 0; i2 < e.n2; ++i2)
    for (index_t i3 = 0; i3 < e.n3; ++i3) {
      std::vector<cplx> pen(static_cast<std::size_t>(e.n1));
      for (index_t i1 = 0; i1 < e.n1; ++i1) pen[i1] = out[e.linear(i1, i2, i3)];
      auto t = dft_reference(pen, sign);
      for (index_t i1 = 0; i1 < e.n1; ++i1) out[e.linear(i1, i2, i3)] = t[i1];
    }
  return out;
}

}  // namespace oopp::fft
