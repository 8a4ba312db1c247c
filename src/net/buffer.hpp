// Buffer: the zero-copy payload representation carried by net::Message.
//
// A Buffer is an ordered chain of serial::Bytes — the same ref-counted
// slice type the archives and storage::Page use, so a payload crosses
// every layer as the one type.  The producers on the hot path construct
// it without copying:
//
//   * serial::OArchive::take() yields a std::vector<std::byte> that the
//     implicit Buffer constructor *adopts* (one move, zero copies), and
//     to_buffer() keeps the slices an archive spliced (a page's bytes)
//     as slices of their own;
//   * a batched receive (wire::StreamFrameDecoder) reads a whole batch
//     payload into one shared allocation and hands each sub-frame a
//     Buffer::view of its range.
//
// Copying a Buffer copies slice handles (refcount bumps), never the bytes
// — which is what makes the retry driver's resend copy, the dedup cache's
// replay copy, and FaultyFabric's pass-through effectively free.
//
// Receivers decode the chain in place: serial::IArchive(segments()) reads
// across slices and returns spliced Bytes fields as views.  Readers that
// want one contiguous std::span<const std::byte> use bytes() (and an
// implicit conversion, so `serial::IArchive ia(m.payload)` compiles
// unchanged).  A single-slice Buffer returns its storage directly; a
// multi-slice Buffer flattens lazily into a cached allocation on first
// access.
//
// A Buffer is immutable except for mutate_byte(), a copy-on-write hook
// that exists solely so FaultyFabric can corrupt one byte without
// disturbing other holders of the same slices.  Like Message itself, a
// Buffer instance is not internally synchronized: concurrent access to
// one *instance* needs external ordering, while distinct instances may
// freely share underlying slices across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "serial/archive.hpp"
#include "serial/bytes.hpp"
#include "util/assert.hpp"

namespace oopp::net {

class Buffer {
 public:
  Buffer() = default;

  /// Adopt a byte vector without copying.  Implicit on purpose: every
  /// call site that built a std::vector<std::byte> payload keeps
  /// compiling, and OArchive::take() feeds this directly.
  Buffer(std::vector<std::byte> bytes) {  // NOLINT(google-explicit-constructor)
    push(serial::Bytes::adopt(std::move(bytes)));
  }

  /// A view of `[off, off+len)` of shared storage: how a batched receive
  /// gives each sub-frame its payload without copying the batch buffer.
  static Buffer view(std::shared_ptr<const std::vector<std::byte>> store,
                     std::size_t off, std::size_t len) {
    Buffer b;
    if (len == 0) return b;
    OOPP_CHECK(store != nullptr && off + len <= store->size());
    b.push(serial::Bytes(std::move(store), off, len));
    return b;
  }

  /// Adopt an OArchive's sealed segment chain (no byte copies): how a
  /// payload that spliced serial::Bytes slices reaches the wire without
  /// flattening.  Segments arrive in stream order.
  static Buffer from_segments(std::vector<serial::Bytes> segs) {
    Buffer b;
    b.slices_.reserve(segs.size());
    for (serial::Bytes& s : segs) b.push(std::move(s));
    return b;
  }

  /// Append another buffer's slices (refcount bumps, no byte copies).
  void append(const Buffer& b) {
    for (const serial::Bytes& s : b.slices_) push(s);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t slice_count() const { return slices_.size(); }

  /// The i-th slice as a span — what send_framev turns into iovecs.
  [[nodiscard]] std::span<const std::byte> slice(std::size_t i) const {
    return slices_[i].span();
  }

  /// The slice chain in stream order — what an IArchive decodes in place,
  /// handing out views of the slices instead of copies.
  [[nodiscard]] std::span<const serial::Bytes> segments() const {
    return slices_;
  }

  /// Contiguous view of the whole payload.  Free for empty and
  /// single-slice buffers; a multi-slice buffer flattens once into a
  /// cached allocation (only consumers that want one span of a
  /// scatter-built payload pay it).
  [[nodiscard]] std::span<const std::byte> bytes() const {
    if (slices_.empty()) return {};
    if (slices_.size() == 1) return slice(0);
    if (flat_.empty()) {
      std::vector<std::byte> flat;
      flat.reserve(size_);
      for (const serial::Bytes& s : slices_)
        flat.insert(flat.end(), s.span().begin(), s.span().end());
      flat_ = serial::Bytes::adopt(std::move(flat));
    }
    return flat_.span();
  }

  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const std::byte>() const { return bytes(); }

  [[nodiscard]] std::byte operator[](std::size_t pos) const {
    return bytes()[pos];
  }

  [[nodiscard]] std::vector<std::byte> to_vector() const {
    const auto b = bytes();
    return {b.begin(), b.end()};
  }

  /// FNV-1a-32 over the logical byte sequence, never returning 0 (0 means
  /// "unchecked" in the frame header).  Computed per slice — no flatten.
  [[nodiscard]] std::uint32_t checksum() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const serial::Bytes& s : slices_) {
      for (std::byte b : s.span()) {
        h ^= static_cast<std::uint8_t>(b);
        h *= 0x100000001b3ULL;
      }
    }
    auto folded = static_cast<std::uint32_t>(h ^ (h >> 32));
    return folded == 0 ? 1 : folded;
  }

  /// Copy-on-write single-byte XOR, for fault injection only: the slice
  /// holding `pos` moves onto a private copy if anything else shares it,
  /// so other Buffers sharing these slices are unaffected.
  void mutate_byte(std::size_t pos, std::byte xor_mask) {
    OOPP_CHECK(pos < size_);
    for (serial::Bytes& s : slices_) {
      if (pos < s.size()) {
        s.mutable_data()[pos] ^= xor_mask;
        flat_ = {};
        return;
      }
      pos -= s.size();
    }
  }

 private:
  void push(serial::Bytes s) {
    if (s.empty()) return;
    size_ += s.size();
    slices_.push_back(std::move(s));
    flat_ = {};
  }

  std::vector<serial::Bytes> slices_;
  std::size_t size_ = 0;
  /// Lazily built contiguous copy for multi-slice buffers; shared so that
  /// copies of a flattened Buffer reuse it.
  mutable serial::Bytes flat_;
};

/// Finish an OArchive into a Buffer, preserving spliced segments: the
/// common pack-and-send idiom `async_raw(..., to_buffer(oa), ...)`.
/// Without segments this is exactly the old Buffer(oa.take()) adoption.
inline Buffer to_buffer(serial::OArchive& oa) {
  if (!oa.has_segments()) return Buffer(oa.take());
  return Buffer::from_segments(oa.take_segments());
}

}  // namespace oopp::net
