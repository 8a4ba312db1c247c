// Binary serialization archives.
//
// The paper relegates "assembly and parsing of messages" to the compiler;
// in this library reproduction the archives below play that role.  Every
// RPC argument list, return value, and persisted process image is encoded
// with OArchive and decoded with IArchive.
//
// Encoding: little-endian fixed-width scalars, u64 length prefixes for
// ranges.  User types participate by providing an ADL-visible symmetric
// visitor:
//
//   template <class Ar> void oopp_serialize(Ar& ar, MyType& v) {
//     ar(v.field1, v.field2);
//   }
//
// The same function body serializes (Ar = OArchive) and deserializes
// (Ar = IArchive), so the two directions can never drift apart.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <set>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "serial/bytes.hpp"

namespace oopp::serial {

static_assert(std::endian::native == std::endian::little,
              "oopp::serial assumes a little-endian host");

/// Thrown when an IArchive runs past the end of its buffer or decodes an
/// impossible value.  At the RPC layer this indicates a corrupt frame.
class serial_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <class T>
struct is_complex : std::false_type {};
template <class T>
struct is_complex<std::complex<T>> : std::bool_constant<std::is_arithmetic_v<T>> {};

/// Types encoded as their in-memory bytes (fixed-width, little-endian).
/// std::complex<arithmetic> qualifies: the standard guarantees array-of-two
/// layout, and bulk transfers of complex arrays are the FFT hot path.
template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                 is_complex<T>::value;

class OArchive;
class IArchive;

template <class T>
concept HasOoppSerialize = requires(OArchive& oa, T& v) {
  oopp_serialize(oa, v);
};

// ---------------------------------------------------------------------------
// OArchive — append-only byte sink.
// ---------------------------------------------------------------------------
class OArchive {
 public:
  OArchive() = default;
  explicit OArchive(std::size_t reserve) { buf_.reserve(reserve); }

  /// Visit any number of values: ar(a, b, c).
  template <class... Ts>
  OArchive& operator()(const Ts&... vs) {
    (write(vs), ...);
    return *this;
  }

  template <Scalar T>
  void write(const T& v) {
    append(&v, sizeof(T));
  }

  void write(const std::string& s) { write_sized(s.data(), s.size()); }
  void write(std::string_view s) { write_sized(s.data(), s.size()); }

  template <class T>
  void write(const std::vector<T>& v) {
    write(static_cast<std::uint64_t>(v.size()));
    if constexpr (Scalar<T>) {
      append(v.data(), v.size() * sizeof(T));
    } else {
      reserve_elements(v.size(), sizeof(T));
      for (const auto& e : v) write(e);
    }
  }

  template <class T, std::size_t N>
  void write(const std::array<T, N>& v) {
    if constexpr (Scalar<T>) {
      append(v.data(), N * sizeof(T));
    } else {
      for (const auto& e : v) write(e);
    }
  }

  template <class A, class B>
  void write(const std::pair<A, B>& v) {
    write(v.first);
    write(v.second);
  }

  template <class... Ts>
  void write(const std::tuple<Ts...>& v) {
    std::apply([this](const Ts&... es) { (write(es), ...); }, v);
  }

  template <class T>
  void write(const std::optional<T>& v) {
    write(static_cast<std::uint8_t>(v.has_value()));
    if (v) write(*v);
  }

  template <class T, class A>
  void write(const std::deque<T, A>& d) {
    write(static_cast<std::uint64_t>(d.size()));
    reserve_elements(d.size(), sizeof(T));
    for (const auto& e : d) write(e);
  }

  template <class T, class A>
  void write(const std::list<T, A>& l) {
    write(static_cast<std::uint64_t>(l.size()));
    reserve_elements(l.size(), sizeof(T));
    for (const auto& e : l) write(e);
  }

  template <class K, class C, class A>
  void write(const std::set<K, C, A>& s) {
    write(static_cast<std::uint64_t>(s.size()));
    reserve_elements(s.size(), sizeof(K));
    for (const auto& e : s) write(e);
  }

  template <class K, class H, class E, class A>
  void write(const std::unordered_set<K, H, E, A>& s) {
    write(static_cast<std::uint64_t>(s.size()));
    reserve_elements(s.size(), sizeof(K));
    for (const auto& e : s) write(e);
  }

  template <class K, class V, class C, class A>
  void write(const std::map<K, V, C, A>& m) {
    write(static_cast<std::uint64_t>(m.size()));
    reserve_elements(m.size(), sizeof(K) + sizeof(V));
    for (const auto& [k, v] : m) {
      write(k);
      write(v);
    }
  }

  template <class K, class V, class H, class E, class A>
  void write(const std::unordered_map<K, V, H, E, A>& m) {
    write(static_cast<std::uint64_t>(m.size()));
    reserve_elements(m.size(), sizeof(K) + sizeof(V));
    for (const auto& [k, v] : m) {
      write(k);
      write(v);
    }
  }

  template <class T>
    requires HasOoppSerialize<T>
  void write(const T& v) {
    // The symmetric visitor takes T&; serialization does not mutate.
    oopp_serialize(*this, const_cast<T&>(v));
  }

  /// Length-prefixed byte slice.  Wire format is identical to a
  /// std::vector<std::byte> of the same content; a large slice is
  /// *spliced* into the stream as its own segment — the flat bytes
  /// written so far are sealed off, the slice rides by reference, and
  /// take_segments() hands the chain to net::Buffer with zero copies.
  /// Tiny slices are inlined: a segment descriptor costs more than the
  /// memcpy it saves.
  void write(const Bytes& b) {
    write(static_cast<std::uint64_t>(b.size()));
    if (b.size() >= kSpliceThreshold && b.store() != nullptr) {
      seal();
      sealed_ += b.size();
      segs_.push_back(b);
    } else {
      append(b.data(), b.size());
    }
  }

  /// Raw bytes without a length prefix (caller encodes framing itself).
  void write_raw(const void* p, std::size_t n) { append(p, n); }

  /// Contiguous view of the encoded bytes.  Only valid while no Bytes
  /// slice has been spliced — segment-carrying archives hand off through
  /// take_segments() (or take(), which flattens).
  [[nodiscard]] const std::vector<std::byte>& bytes() const {
    if (!segs_.empty())
      throw serial_error(
          "OArchive::bytes() on a segmented archive; use take_segments()");
    return buf_;
  }
  /// Move the encoded bytes out (the sanctioned way to hand a finished
  /// pack to the transport: a net::Buffer adopts the vector so the bytes
  /// travel to the socket without another copy).  Leaves the archive
  /// empty and reusable.  A segmented archive flattens here — callers on
  /// the zero-copy path use take_segments() instead.
  [[nodiscard]] std::vector<std::byte> take() {
    if (!segs_.empty()) {
      std::vector<std::byte> flat;
      flat.reserve(size());
      for (const Bytes& s : segs_) {
        const auto sp = s.span();
        flat.insert(flat.end(), sp.begin(), sp.end());
      }
      flat.insert(flat.end(), buf_.begin(), buf_.end());
      segs_.clear();
      sealed_ = 0;
      buf_.clear();
      return flat;
    }
    return std::exchange(buf_, {});
  }
  /// True once a Bytes slice has been spliced into the stream.
  [[nodiscard]] bool has_segments() const { return !segs_.empty(); }
  /// Move the segment chain out, in stream order (the trailing flat
  /// bytes are sealed as the last segment).  Each segment is a
  /// ref-counted slice net::Buffer::view can wrap directly.  Leaves the
  /// archive empty and reusable.
  [[nodiscard]] std::vector<Bytes> take_segments() {
    seal();
    sealed_ = 0;
    return std::exchange(segs_, {});
  }
  [[nodiscard]] std::size_t size() const { return sealed_ + buf_.size(); }

  /// Below this, splicing a Bytes costs more (a slice descriptor, an
  /// iovec entry on the wire) than copying it inline.  Public so callers
  /// sizing payloads for the zero-copy path can reason about it.
  static constexpr std::size_t kSpliceThreshold = 256;

 private:
  void write_sized(const void* p, std::size_t n) {
    write(static_cast<std::uint64_t>(n));
    append(p, n);
  }
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  /// One up-front grow ahead of an element loop instead of log2(n)
  /// doubling reallocations.  sizeof(T) is exact for scalar elements and
  /// a rough per-element estimate otherwise — under- or overshoot is
  /// harmless, the loop still appends element by element.
  void reserve_elements(std::size_t n, std::size_t per) {
    buf_.reserve(buf_.size() + n * per);
  }
  /// Close the current flat run into its own segment.
  void seal() {
    if (buf_.empty()) return;
    sealed_ += buf_.size();
    segs_.push_back(Bytes::adopt(std::exchange(buf_, {})));
  }
  std::vector<std::byte> buf_;
  std::vector<Bytes> segs_;   // sealed stream prefix, in order
  std::size_t sealed_ = 0;    // total bytes across segs_
};

// ---------------------------------------------------------------------------
// IArchive — bounds-checked byte source over a non-owning span or a chain
// of ref-counted segments.
// ---------------------------------------------------------------------------
class IArchive {
 public:
  /// Decode a plain span: Bytes fields come back as copies.
  explicit IArchive(std::span<const std::byte> data) : cur_(data) {}

  /// Decode a chain of ref-counted segments in stream order — a
  /// net::Buffer's slices.  The zero-copy receive half: a Bytes field
  /// that lies inside one segment comes back as a view of it, and every
  /// field OArchive spliced does, because splicing gives the slice a
  /// segment of its own.  So an in-process message is decoded without
  /// flattening it, and a page the sender spliced reaches the receiver as
  /// the sender's own allocation.  `segments` must outlive the archive.
  explicit IArchive(std::span<const Bytes> segments) : rest_(segments) {
    for (const Bytes& s : segments) left_ += s.size();
  }

  template <class... Ts>
  IArchive& operator()(Ts&... vs) {
    (read_into(vs), ...);
    return *this;
  }

  template <class T>
  [[nodiscard]] T read() {
    T v{};
    read_into(v);
    return v;
  }

  template <Scalar T>
  void read_into(T& v) {
    consume(&v, sizeof(T));
  }

  void read_into(std::string& s) {
    const auto n = read_size();
    s.resize(n);
    consume(s.data(), n);
  }

  template <class T>
  void read_into(std::vector<T>& v) {
    const auto n = read_size();
    if constexpr (Scalar<T>) {
      require(n * sizeof(T));
      v.resize(n);
      consume(v.data(), n * sizeof(T));
    } else {
      v.clear();
      v.reserve(n);
      for (std::size_t i = 0; i < n; ++i) v.push_back(read<T>());
    }
  }

  template <class T, std::size_t N>
  void read_into(std::array<T, N>& v) {
    if constexpr (Scalar<T>) {
      consume(v.data(), N * sizeof(T));
    } else {
      for (auto& e : v) read_into(e);
    }
  }

  template <class A, class B>
  void read_into(std::pair<A, B>& v) {
    read_into(v.first);
    read_into(v.second);
  }

  template <class... Ts>
  void read_into(std::tuple<Ts...>& v) {
    std::apply([this](Ts&... es) { (read_into(es), ...); }, v);
  }

  template <class T>
  void read_into(std::optional<T>& v) {
    if (read<std::uint8_t>() != 0)
      v = read<T>();
    else
      v.reset();
  }

  template <class T, class A>
  void read_into(std::deque<T, A>& d) {
    const auto n = read_size();
    d.clear();
    for (std::size_t i = 0; i < n; ++i) d.push_back(read<T>());
  }

  template <class T, class A>
  void read_into(std::list<T, A>& l) {
    const auto n = read_size();
    l.clear();
    for (std::size_t i = 0; i < n; ++i) l.push_back(read<T>());
  }

  template <class K, class C, class A>
  void read_into(std::set<K, C, A>& s) {
    const auto n = read_size();
    s.clear();
    for (std::size_t i = 0; i < n; ++i) s.insert(read<K>());
  }

  template <class K, class H, class E, class A>
  void read_into(std::unordered_set<K, H, E, A>& s) {
    const auto n = read_size();
    s.clear();
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) s.insert(read<K>());
  }

  template <class K, class V, class C, class A>
  void read_into(std::map<K, V, C, A>& m) {
    const auto n = read_size();
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto k = read<K>();
      m.emplace(std::move(k), read<V>());
    }
  }

  template <class K, class V, class H, class E, class A>
  void read_into(std::unordered_map<K, V, H, E, A>& m) {
    const auto n = read_size();
    m.clear();
    m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto k = read<K>();
      m.emplace(std::move(k), read<V>());
    }
  }

  template <class T>
    requires HasOoppSerialize<T>
  void read_into(T& v) {
    oopp_serialize(*this, v);
  }

  /// Length-prefixed byte slice (symmetric with OArchive::write(Bytes)).
  /// Inside one segment with a backing store this is a ref-counted view —
  /// no copy; otherwise the bytes are copied into a fresh allocation.
  void read_into(Bytes& b) {
    const auto n = read_size();
    if (n == 0) {
      b = {};
      return;
    }
    while (pos_ == cur_.size()) next_segment();  // a splice starts a segment
    if (n > cur_.size() - pos_) {
      std::vector<std::byte> v(n);
      consume(v.data(), n);
      b = Bytes::adopt(std::move(v));
      return;
    }
    b = store_ != nullptr ? Bytes(store_, base_ + pos_, n)
                          : Bytes::copy(cur_.subspan(pos_, n));
    pos_ += n;
  }

  void read_raw(void* p, std::size_t n) { consume(p, n); }

  [[nodiscard]] std::size_t remaining() const {
    return cur_.size() - pos_ + left_;
  }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  std::size_t read_size() {
    const auto n = read<std::uint64_t>();
    require(n);  // a length prefix can never exceed the bytes that remain
    return static_cast<std::size_t>(n);
  }
  void require(std::size_t n) const {
    if (n > remaining())
      throw serial_error("IArchive: truncated input (need " +
                         std::to_string(n) + " bytes, have " +
                         std::to_string(remaining()) + ")");
  }
  void consume(void* out, std::size_t n) {
    // n == 0 must skip the memcpy: `out` is null when the destination is
    // an empty container's data(), and memcpy(null, _, 0) is still UB.
    if (n <= cur_.size() - pos_) {  // the common case: inside this segment
      if (n != 0) std::memcpy(out, cur_.data() + pos_, n);
      pos_ += n;
      return;
    }
    require(n);
    auto* dst = static_cast<std::byte*>(out);
    while (n != 0) {
      while (pos_ == cur_.size()) next_segment();  // skips empty segments
      const std::size_t k = std::min(n, cur_.size() - pos_);
      std::memcpy(dst, cur_.data() + pos_, k);
      dst += k;
      pos_ += k;
      n -= k;
    }
  }
  /// Move on to the next segment; callers have checked that bytes remain.
  void next_segment() {
    const Bytes& s = rest_.front();
    rest_ = rest_.subspan(1);
    cur_ = s.span();
    pos_ = 0;
    store_ = s.store();
    base_ = s.offset();
    left_ -= s.size();
  }
  std::span<const std::byte> cur_;  // the segment being read
  std::size_t pos_ = 0;             // read position within cur_
  /// cur_'s shared backing allocation (null: Bytes fields are copied).
  std::shared_ptr<const std::vector<std::byte>> store_;
  std::size_t base_ = 0;         // offset of cur_[0] within *store_
  std::span<const Bytes> rest_;  // segments after cur_
  std::size_t left_ = 0;         // bytes in rest_
};

/// Convenience: serialize a single value to a byte vector.
template <class T>
std::vector<std::byte> to_bytes(const T& v) {
  OArchive oa;
  oa(v);
  return oa.take();
}

/// Convenience: deserialize a single value from bytes.
template <class T>
T from_bytes(std::span<const std::byte> data) {
  IArchive ia(data);
  return ia.read<T>();
}

}  // namespace oopp::serial
