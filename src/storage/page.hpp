// Page: a block of unstructured data (paper §2).
//
// In the paper a Page holds `n` bytes behind an `unsigned char*`.  Here it
// is a value type — pages are the unit of data that moves between client
// and device processes, so they serialize and copy by value.
//
// The bytes are one serial::Bytes, so copying a Page bumps a refcount and
// a page travels without being copied: the device's read allocation is
// spliced into the response, and the client decodes a view of it (the
// same allocation in process, the receive frame over TCP).  Mutation is
// copy-on-write — the mutable accessors first move a shared page onto a
// private copy, so no other holder of the bytes sees the write.  As with
// any copy-on-write value, a pointer or reference from a mutable accessor
// stays private only until the page is next copied.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "serial/archive.hpp"
#include "serial/bytes.hpp"
#include "util/assert.hpp"

namespace oopp::storage {

class Page {
 public:
  Page() = default;

  /// n zero bytes.
  explicit Page(std::size_t n)
      : data_(serial::Bytes::adopt(std::vector<std::byte>(n))) {}

  /// Copy of an existing buffer — the paper's Page(int n, unsigned char*).
  Page(std::size_t n, const unsigned char* data)
      : data_(serial::Bytes::copy_raw(data, n)) {}

  /// Adopt existing bytes without copying (a view shares its store).
  explicit Page(serial::Bytes bytes) : data_(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(data_.data());
  }
  /// Copy-on-write: unshares the bytes before handing out the pointer.
  [[nodiscard]] std::uint8_t* data() {
    return reinterpret_cast<std::uint8_t*>(data_.mutable_data());
  }
  [[nodiscard]] const serial::Bytes& bytes() const { return data_; }

  std::uint8_t& operator[](std::size_t i) {
    OOPP_CHECK(i < size());
    return data()[i];
  }
  std::uint8_t operator[](std::size_t i) const {
    OOPP_CHECK(i < size());
    return data()[i];
  }

  bool operator==(const Page& o) const {
    return size() == o.size() &&
           (size() == 0 || std::memcmp(data(), o.data(), size()) == 0);
  }

 protected:
  serial::Bytes data_;

  template <class Ar>
  friend void oopp_serialize(Ar& ar, Page& p);
};

/// Encoded as a length-prefixed byte vector — the wire format of a
/// std::vector<std::uint8_t> — which persisted images and peers rely on;
/// the Bytes field lets the archives splice it out and hand back a view.
template <class Ar>
void oopp_serialize(Ar& ar, Page& p) {
  ar(p.data_);
}

}  // namespace oopp::storage
