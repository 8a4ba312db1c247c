// ArrayPage: a Page holding an N1 x N2 x N3 block of doubles (paper §3).
//
// Derived from Page exactly as in the paper, adding structure-aware
// operations (element access by 3-D index, sum).  This is the class the
// paper uses to introduce process inheritance.
//
// The doubles are read in place, so the bytes are kept aligned for double:
// a view that lands misaligned (a page decoded from the middle of a
// batched receive frame) is moved onto an aligned copy.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "storage/page.hpp"
#include "util/ndindex.hpp"

namespace oopp::storage {

class ArrayPage : public Page {
 public:
  ArrayPage() = default;

  /// Zero-filled block.
  ArrayPage(int n1, int n2, int n3)
      : Page(static_cast<std::size_t>(n1) * n2 * n3 * sizeof(double)),
        extents_{n1, n2, n3} {}

  /// Copy of an existing buffer — the paper's ArrayPage(N1,N2,N3, double*).
  ArrayPage(int n1, int n2, int n3, const double* values)
      : Page(serial::Bytes::copy_raw(
            values, static_cast<std::size_t>(n1) * n2 * n3 * sizeof(double))),
        extents_{n1, n2, n3} {}

  /// The block over existing bytes — a device's read, without copying.
  ArrayPage(int n1, int n2, int n3, serial::Bytes bytes)
      : Page(std::move(bytes)), extents_{n1, n2, n3} {
    OOPP_CHECK_MSG(shape_matches(),
                   size() << " bytes do not hold a " << n1 << "x" << n2
                          << "x" << n3 << " block of doubles");
    align();
  }

  [[nodiscard]] const Extents3& extents() const { return extents_; }
  [[nodiscard]] index_t elements() const { return extents_.volume(); }

  [[nodiscard]] const double* values() const {
    return reinterpret_cast<const double*>(data());
  }
  /// Copy-on-write: unshares the block before handing out the pointer.
  [[nodiscard]] double* values() {
    return reinterpret_cast<double*>(data());
  }

  [[nodiscard]] double at(index_t i1, index_t i2, index_t i3) const {
    OOPP_CHECK(extents_.contains(i1, i2, i3));
    return values()[extents_.linear(i1, i2, i3)];
  }
  void set(index_t i1, index_t i2, index_t i3, double v) {
    OOPP_CHECK(extents_.contains(i1, i2, i3));
    values()[extents_.linear(i1, i2, i3)] = v;
  }

  /// The paper's example of a method using the array structure.
  [[nodiscard]] double sum() const {
    double acc = 0.0;
    const double* v = values();
    const index_t n = elements();
    for (index_t i = 0; i < n; ++i) acc += v[i];
    return acc;
  }

  bool operator==(const ArrayPage&) const = default;

 private:
  Extents3 extents_{};

  /// True when the extents describe exactly the bytes held.  Both arrive
  /// from the wire, so the check avoids overflowing the product.
  [[nodiscard]] bool shape_matches() const {
    const Extents3& e = extents_;
    if (e.n1 < 0 || e.n2 < 0 || e.n3 < 0 || size() % sizeof(double) != 0)
      return false;
    const auto elems = static_cast<index_t>(size() / sizeof(double));
    if (e.n1 == 0 || e.n2 == 0 || e.n3 == 0) return elems == 0;
    return e.n1 <= elems && e.n2 <= elems / e.n1 &&
           elems % (e.n1 * e.n2) == 0 && e.n3 == elems / (e.n1 * e.n2);
  }

  void align() {
    if (reinterpret_cast<std::uintptr_t>(data_.data()) % alignof(double) != 0)
      data_ = serial::Bytes::copy(data_.span());
  }

  template <class Ar>
  friend void oopp_serialize(Ar& ar, ArrayPage& p);
};

template <class Ar>
void oopp_serialize(Ar& ar, ArrayPage& p) {
  ar(static_cast<Page&>(p), p.extents_.n1, p.extents_.n2, p.extents_.n3);
  if constexpr (std::is_same_v<Ar, serial::IArchive>) {
    if (!p.shape_matches())
      throw serial::serial_error("ArrayPage: extents do not match its bytes");
    p.align();
  }
}

}  // namespace oopp::storage
