// TCP framing and socket helpers for TcpFabric and its reactor.  Internal
// header.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "net/message.hpp"

namespace oopp::net::wire {

/// Fixed header: kind, status, src, dst, seq, object, method, crc,
/// trace_id, span_id, attempt, payload_len.
inline constexpr std::size_t kFrameHeaderSize =
    1 + 1 + 4 + 4 + 8 + 8 + 8 + 4 + 8 + 8 + 4 + 8;

// ---------------------------------------------------------------------------
// Held-locks extension (distributed lock checking, docs/CONCURRENCY.md).
//
// When the issuing thread held checked locks AND OOPP_DIST_LOCK_CHECK is
// on, the kind byte carries kHeldLocksFlag and the fixed header is
// followed by `count (u8) | count x class-hash (u32)`.  With the feature
// off (or nothing held) the flag is clear and zero extension bytes are
// written — frames are byte-identical to the pre-extension format, so
// old and new peers interoperate exactly like batching on/off does.  The
// flagged kind values (0x40/0x41) cannot collide with kBatchMagic (0xB5).
// ---------------------------------------------------------------------------

inline constexpr std::uint8_t kHeldLocksFlag = 0x40;
inline constexpr std::size_t kMaxHeldClasses = 8;  // mirrors lockcheck's cap
inline constexpr std::size_t kMaxFrameHeaderSize =
    kFrameHeaderSize + 1 + 4 * kMaxHeldClasses;

/// Bytes encode_header will write for this header.
inline std::size_t header_wire_size(const MessageHeader& h) {
  return kFrameHeaderSize +
         (h.held.empty() ? 0 : 1 + 4 * std::size_t{h.held.count});
}

/// Encode into `out` (which must hold header_wire_size(h) bytes, at most
/// kMaxFrameHeaderSize); returns the bytes written.
inline std::size_t encode_header(const MessageHeader& h,
                                 std::uint64_t payload_len,
                                 std::uint8_t* out) {
  std::size_t o = 0;
  auto put = [&](const void* p, std::size_t n) {
    std::memcpy(out + o, p, n);
    o += n;
  };
  const auto count = static_cast<std::uint8_t>(
      std::min<std::size_t>(h.held.count, kMaxHeldClasses));
  const auto kind = static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(h.kind) | (count != 0 ? kHeldLocksFlag : 0));
  const auto status = static_cast<std::uint8_t>(h.status);
  put(&kind, 1);
  put(&status, 1);
  put(&h.src, 4);
  put(&h.dst, 4);
  put(&h.seq, 8);
  put(&h.object, 8);
  put(&h.method, 8);
  put(&h.payload_crc, 4);
  put(&h.trace_id, 8);
  put(&h.span_id, 8);
  put(&h.attempt, 4);
  put(&payload_len, 8);
  if (count != 0) {
    put(&count, 1);
    for (std::uint8_t i = 0; i < count; ++i) put(&h.held.ids[i], 4);
  }
  return o;
}

/// Decode the kFrameHeaderSize fixed prefix; returns true when a
/// held-locks extension follows on the wire (flag set in the kind byte).
inline bool decode_fixed_header(const std::uint8_t* in, MessageHeader& h,
                                std::uint64_t& payload_len) {
  std::size_t o = 0;
  auto get = [&](void* p, std::size_t n) {
    std::memcpy(p, in + o, n);
    o += n;
  };
  std::uint8_t kind = 0, status = 0;
  get(&kind, 1);
  get(&status, 1);
  const bool held = (kind & kHeldLocksFlag) != 0;
  h.kind = static_cast<MsgKind>(kind & ~kHeldLocksFlag);
  h.status = static_cast<CallStatus>(status);
  get(&h.src, 4);
  get(&h.dst, 4);
  get(&h.seq, 8);
  get(&h.object, 8);
  get(&h.method, 8);
  get(&h.payload_crc, 4);
  get(&h.trace_id, 8);
  get(&h.span_id, 8);
  get(&h.attempt, 4);
  get(&payload_len, 8);
  h.held = {};
  return held;
}

/// Decode a held-locks extension from `in` (at most `avail` bytes);
/// returns bytes consumed, or 0 on a malformed extension.
inline std::size_t decode_held_ext(const std::uint8_t* in, std::size_t avail,
                                   LockSet& held) {
  if (avail < 1) return 0;
  const std::uint8_t count = in[0];
  if (count == 0 || count > kMaxHeldClasses) return 0;
  const std::size_t need = 1 + 4 * std::size_t{count};
  if (avail < need) return 0;
  held.count = count;
  for (std::uint8_t i = 0; i < count; ++i)
    std::memcpy(&held.ids[i], in + 1 + 4 * std::size_t{i}, 4);
  return need;
}

/// Decode a full header from a contiguous buffer of `avail` bytes
/// (>= kFrameHeaderSize); returns total bytes consumed, or 0 when the
/// held-locks extension is malformed or truncated.
inline std::size_t decode_header(const std::uint8_t* in, std::size_t avail,
                                 MessageHeader& h,
                                 std::uint64_t& payload_len) {
  if (!decode_fixed_header(in, h, payload_len)) return kFrameHeaderSize;
  const std::size_t ext = decode_held_ext(in + kFrameHeaderSize,
                                          avail - kFrameHeaderSize, h.held);
  return ext == 0 ? 0 : kFrameHeaderSize + ext;
}

inline bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

inline void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Gather-write every iovec fully, handling partial writes, EINTR, and
/// IOV_MAX by chunking.  Zero-length entries are permitted and skipped.
inline bool writev_all(int fd, struct iovec* iov, std::size_t cnt) {
  std::size_t i = 0;
  while (i < cnt) {
    if (iov[i].iov_len == 0) {
      ++i;
      continue;
    }
    // Well under any platform's IOV_MAX.
    const auto chunk = static_cast<int>(std::min<std::size_t>(cnt - i, 64));
    const ssize_t w = ::writev(fd, iov + i, chunk);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto left = static_cast<std::size_t>(w);
    while (left > 0) {
      if (left >= iov[i].iov_len) {
        left -= iov[i].iov_len;
        ++i;
      } else {
        iov[i].iov_base = static_cast<std::uint8_t*>(iov[i].iov_base) + left;
        iov[i].iov_len -= left;
        left = 0;
      }
    }
  }
  return true;
}

/// Send one framed message; returns false on socket failure.  The fabric
/// sends with send_framev; this flat encoding is the reference the wire
/// codec tests hold it to, byte for byte.
inline bool send_frame(int fd, const Message& m) {
  std::uint8_t hdr[kMaxFrameHeaderSize];
  const std::size_t hlen = encode_header(m.header, m.payload.size(), hdr);
  if (!write_all(fd, hdr, hlen)) return false;
  const auto payload = m.payload.bytes();
  if (!payload.empty() && !write_all(fd, payload.data(), payload.size()))
    return false;
  return true;
}

/// Send one framed message as a gather-write: byte-identical to
/// send_frame on the wire, but no payload flatten — each Buffer slice
/// becomes an iovec.  A batch of pages carries two slices per page, so
/// long chains spill from the stack array to the heap.
inline bool send_framev(int fd, const Message& m) {
  std::uint8_t hdr[kMaxFrameHeaderSize];
  const std::size_t hlen = encode_header(m.header, m.payload.size(), hdr);
  std::array<iovec, 64> small;
  std::vector<iovec> large;
  iovec* iov = small.data();
  if (m.payload.slice_count() + 1 > small.size()) {
    large.resize(m.payload.slice_count() + 1);
    iov = large.data();
  }
  std::size_t cnt = 0;
  iov[cnt++] = {hdr, hlen};
  for (std::size_t i = 0; i < m.payload.slice_count(); ++i) {
    const auto s = m.payload.slice(i);
    iov[cnt++] = {const_cast<std::byte*>(s.data()), s.size()};
  }
  return writev_all(fd, iov, cnt);
}

// ---------------------------------------------------------------------------
// Batch framing.
//
// A batch frame coalesces N ordinary frames into one wire unit:
//
//   magic (1, 0xB5) | version (1) | reserved (2) | count (u32) |
//   payload_len (u64) | count × [frame header | frame payload]
//
// payload_len covers everything after the batch header, so a receiver can
// pull the whole batch in one read and slice sub-frame payloads
// zero-copy.  The magic byte cannot collide with an ordinary frame, whose
// first byte is MsgKind (0 or 1) — receivers always accept both formats,
// so peers with batching on and off interoperate.  Sub-frames keep their
// own payload_crc: corruption is detected (and retried/dropped) per
// logical message, not per batch.
//
// These constants and codecs are the only sanctioned spelling of the
// batch header; composing one by hand elsewhere is rejected by the
// batch-frame-header lint rule.
// ---------------------------------------------------------------------------

inline constexpr std::uint8_t kBatchMagic = 0xB5;
inline constexpr std::uint8_t kBatchVersion = 1;
inline constexpr std::size_t kBatchHeaderSize = 1 + 1 + 2 + 4 + 8;

/// Sanity bounds for inbound batch headers: a violation means a corrupt
/// or hostile stream, and the connection is dropped.
inline constexpr std::uint32_t kMaxBatchFrames = 1u << 20;
inline constexpr std::uint64_t kMaxBatchBytes = 1ull << 31;

inline void encode_batch_header(std::uint32_t count, std::uint64_t payload_len,
                                std::uint8_t* out) {
  out[0] = kBatchMagic;
  out[1] = kBatchVersion;
  out[2] = 0;
  out[3] = 0;
  std::memcpy(out + 4, &count, 4);
  std::memcpy(out + 8, &payload_len, 8);
}

inline bool decode_batch_header(const std::uint8_t* in, std::uint32_t& count,
                                std::uint64_t& payload_len) {
  if (in[0] != kBatchMagic || in[1] != kBatchVersion) return false;
  std::memcpy(&count, in + 4, 4);
  std::memcpy(&payload_len, in + 8, 8);
  return count >= 1 && count <= kMaxBatchFrames &&
         payload_len >= count * kFrameHeaderSize &&
         payload_len <= kMaxBatchBytes;
}

/// Send `n` frames as one batch wire unit with a single gather-write.
/// n == 1 falls back to a plain frame (the batch wrapper only ever pays
/// for itself when it amortizes over ≥ 2 frames).
inline bool send_batch(int fd, const Message* frames, std::size_t n) {
  if (n == 0) return true;
  if (n == 1) return send_framev(fd, frames[0]);
  std::uint64_t payload_len = 0;
  for (std::size_t i = 0; i < n; ++i)
    payload_len += header_wire_size(frames[i].header) +
                   frames[i].payload.size();
  std::uint8_t bhdr[kBatchHeaderSize];
  encode_batch_header(static_cast<std::uint32_t>(n), payload_len, bhdr);

  std::vector<std::array<std::uint8_t, kMaxFrameHeaderSize>> hdrs(n);
  std::vector<iovec> iov;
  iov.reserve(1 + 2 * n);
  iov.push_back({bhdr, kBatchHeaderSize});
  for (std::size_t i = 0; i < n; ++i) {
    const Message& m = frames[i];
    const std::size_t hlen =
        encode_header(m.header, m.payload.size(), hdrs[i].data());
    iov.push_back({hdrs[i].data(), hlen});
    for (std::size_t s = 0; s < m.payload.slice_count(); ++s) {
      const auto sl = m.payload.slice(s);
      if (!sl.empty())
        iov.push_back({const_cast<std::byte*>(sl.data()), sl.size()});
    }
  }
  return writev_all(fd, iov.data(), iov.size());
}

/// Split a filled batch payload (everything after the batch header) into
/// `count` messages whose payloads are zero-copy views of the shared
/// store.  Returns false on a malformed or truncated sub-frame sequence.
inline bool split_batch(
    const std::shared_ptr<const std::vector<std::byte>>& store,
    std::uint32_t count, std::uint64_t payload_len,
    std::vector<Message>& out) {
  out.reserve(out.size() + count);
  std::size_t off = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (off + kFrameHeaderSize > payload_len) return false;
    Message m;
    std::uint64_t sub_len = 0;
    const std::size_t hdr_len = decode_header(
        reinterpret_cast<const std::uint8_t*>(store->data()) + off,
        payload_len - off, m.header, sub_len);
    if (hdr_len == 0) return false;  // malformed held-locks extension
    off += hdr_len;
    if (off + sub_len > payload_len) return false;
    m.payload = Buffer::view(store, off, sub_len);
    off += sub_len;
    out.push_back(std::move(m));
  }
  return off == payload_len;
}

/// Incremental frame decoder for nonblocking sockets: the one inbound
/// parser.  Bytes arrive in arbitrary read()-sized chunks; feed() consumes
/// them and appends every completed message to the caller's vector.
/// Parses every wire unit the senders emit — plain frames, the held-locks
/// header extension, and 0xB5 batch frames (split zero-copy through
/// split_batch).  One decoder per connection, driven by a single reactor
/// thread: no internal locking.
class StreamFrameDecoder {
 public:
  /// Consume `n` bytes of stream.  Returns false on a malformed stream
  /// (bad batch header, bad held-locks extension); the connection must
  /// then be dropped.
  bool feed(const std::uint8_t* data, std::size_t n,
            std::vector<Message>& out) {
    while (n > 0 || ready()) {
      if (state_ == State::kHeader) {
        const std::size_t take = std::min(n, need_ - have_);
        std::memcpy(hdr_ + have_, data, take);
        have_ += take;
        data += take;
        n -= take;
        if (have_ < need_) return true;  // header still incomplete
        if (!advance_header()) return false;
        continue;
      }
      const std::size_t take =
          std::min<std::size_t>(n, store_.size() - filled_);
      // An empty payload's store has no data(): memcpy(null, _, 0) is UB.
      if (take != 0) std::memcpy(store_.data() + filled_, data, take);
      filled_ += take;
      data += take;
      n -= take;
      if (filled_ < store_.size()) return true;  // payload still incomplete
      if (!emit(out)) return false;
    }
    return true;
  }

 private:
  enum class State : std::uint8_t { kHeader, kPayload };

  [[nodiscard]] bool ready() const {
    // A zero-byte unit (empty payload, or a header fully buffered by the
    // previous chunk) completes without consuming further input.
    return (state_ == State::kHeader && have_ == need_) ||
           (state_ == State::kPayload && filled_ == store_.size());
  }

  /// The header grew to `need_` bytes: classify, extend, or finish it.
  bool advance_header() {
    if (have_ == 1) {
      need_ = hdr_[0] == kBatchMagic ? kBatchHeaderSize : kFrameHeaderSize;
      return true;
    }
    if (hdr_[0] == kBatchMagic) {
      if (!decode_batch_header(hdr_, batch_count_, payload_len_))
        return false;
      return begin_payload();
    }
    if (have_ == kFrameHeaderSize) {
      if (!decode_fixed_header(hdr_, msg_.header, payload_len_))
        return begin_payload();  // no held-locks extension follows
      need_ = kFrameHeaderSize + 1;  // the extension's count byte
      return true;
    }
    if (have_ == kFrameHeaderSize + 1) {
      const std::uint8_t count = hdr_[kFrameHeaderSize];
      if (count == 0 || count > kMaxHeldClasses) return false;
      need_ = kFrameHeaderSize + 1 + 4 * std::size_t{count};
      return true;
    }
    if (decode_held_ext(hdr_ + kFrameHeaderSize, have_ - kFrameHeaderSize,
                        msg_.header.held) == 0)
      return false;
    return begin_payload();
  }

  bool begin_payload() {
    if (payload_len_ > kMaxBatchBytes) return false;
    state_ = State::kPayload;
    store_.assign(static_cast<std::size_t>(payload_len_), std::byte{});
    filled_ = 0;
    return true;
  }

  /// Payload complete: hand out the finished message(s) and reset.
  bool emit(std::vector<Message>& out) {
    bool ok = true;
    if (hdr_[0] == kBatchMagic) {
      ok = split_batch(
          std::make_shared<const std::vector<std::byte>>(std::move(store_)),
          batch_count_, payload_len_, out);
    } else {
      msg_.payload = Buffer(std::move(store_));
      out.push_back(std::move(msg_));
      msg_ = Message{};
    }
    state_ = State::kHeader;
    have_ = 0;
    need_ = 1;
    store_.clear();
    filled_ = 0;
    return ok;
  }

  State state_ = State::kHeader;
  std::uint8_t hdr_[kMaxFrameHeaderSize > kBatchHeaderSize
                        ? kMaxFrameHeaderSize
                        : kBatchHeaderSize] = {};
  std::size_t have_ = 0;
  std::size_t need_ = 1;
  Message msg_;
  std::uint32_t batch_count_ = 0;
  std::uint64_t payload_len_ = 0;
  std::vector<std::byte> store_;
  std::size_t filled_ = 0;
};

}  // namespace oopp::net::wire
