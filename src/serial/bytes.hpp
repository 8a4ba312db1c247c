// Bytes: a ref-counted byte slice — the one payload type every layer
// shares.  net::Buffer is a chain of them, storage::Page holds one.
//
// A Bytes names `[off, off+len)` of a shared allocation.  It is the type a
// payload keeps while crossing layers without being copied:
//
//   * OArchive::write(const Bytes&) *splices* a large slice into the
//     encoded stream as its own segment instead of memcpy-ing it, so a
//     net::Buffer built from the archive's segments carries the original
//     allocation to the socket (serialize once at the source);
//   * IArchive::read_into(Bytes&) returns a *view* into the payload it
//     decodes when the archive runs over ref-counted segments, so a page a
//     device read travels to the client that assembles it, and a segment a
//     collective member forwards goes back out, without touching the bytes.
//
// Shared bytes are immutable; mutable_data() is copy-on-write, so a holder
// that writes first moves onto a private copy and no other holder (a
// pending resend, a dedup replay, a cache) ever sees the write.
//
// The wire format is identical to a length-prefixed byte vector — whether
// a Bytes was spliced or inlined is invisible to the receiver, and a
// receiver may decode a Bytes field into a std::vector<std::byte> or vice
// versa as long as framing matches.
//
// serial must stay the bottom layer (net links against it), which is why
// this type lives here and net::Buffer is built from it, not the other
// way around.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace oopp::serial {

class Bytes {
 public:
  Bytes() = default;

  /// A view of `[off, off+len)` of shared storage.  The store keeps the
  /// bytes alive for as long as any Bytes (or net::Buffer slice) refers
  /// to them.
  Bytes(std::shared_ptr<const std::vector<std::byte>> store, std::size_t off,
        std::size_t len)
      : store_(std::move(store)), off_(off), len_(len) {
    if (store_ == nullptr || off_ + len_ > store_->size())
      store_ = nullptr, off_ = 0, len_ = 0;  // degenerate view → empty
  }

  /// Adopt a whole vector without copying (one move).
  static Bytes adopt(std::vector<std::byte> v) {
    const std::size_t n = v.size();
    if (n == 0) return {};
    return Bytes(std::make_shared<const std::vector<std::byte>>(std::move(v)),
                 0, n);
  }

  /// Copy `s` into a fresh shared allocation — the one sanctioned copy a
  /// payload makes, at its source.
  static Bytes copy(std::span<const std::byte> s) {
    if (s.empty()) return {};
    return adopt(std::vector<std::byte>(s.begin(), s.end()));
  }

  /// Copy a raw scalar range (e.g. a chunk of doubles) into a fresh
  /// shared allocation.
  static Bytes copy_raw(const void* p, std::size_t n) {
    return copy({static_cast<const std::byte*>(p), n});
  }

  /// A sub-view of this slice (refcount bump, no bytes move).
  [[nodiscard]] Bytes subview(std::size_t off, std::size_t len) const {
    if (off + len > len_) return {};
    return Bytes(store_, off_ + off, len);
  }

  [[nodiscard]] std::span<const std::byte> span() const {
    if (store_ == nullptr) return {};
    return {store_->data() + off_, len_};
  }
  [[nodiscard]] const std::byte* data() const {
    return store_ == nullptr ? nullptr : store_->data() + off_;
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }

  /// Copy-on-write access to this slice's bytes.  When anything else
  /// holds the store (another Bytes, a net::Buffer, an archive) the slice
  /// first moves onto a private copy; a sole holder writes in place.  As
  /// with any copy-on-write handle, writes through the pointer are private
  /// only until this Bytes is next copied — fetch it again after a copy.
  [[nodiscard]] std::byte* mutable_data() {
    if (store_ == nullptr) return nullptr;
    // Copying store_ is an acquire-release increment of the use count.
    // It reads the release decrement of the holder that let go last, so
    // that holder's reads of the bytes happen before our writes.  With
    // the probe counted, a sole holder sees 2.
    if (const auto probe = store_; probe.use_count() != 2)
      *this = copy(span());
    // Only the vector object is const; its elements never are, and no
    // one else can reach them now.
    return const_cast<std::byte*>(store_->data()) + off_;
  }

  /// The backing allocation and this slice's offset into it.
  [[nodiscard]] const std::shared_ptr<const std::vector<std::byte>>& store()
      const {
    return store_;
  }
  [[nodiscard]] std::size_t offset() const { return off_; }

 private:
  std::shared_ptr<const std::vector<std::byte>> store_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace oopp::serial
