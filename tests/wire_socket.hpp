// Socket-pair helpers for the wire-codec tests: frames written to one end
// are read back from the other through wire::StreamFrameDecoder, the
// decoder the fabric's reactor runs.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "net/tcp_wire.hpp"

namespace oopp::net::test {

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
};

/// Exactly `n` raw bytes from `fd` (blocking).
inline std::vector<std::byte> read_n(int fd, std::size_t n) {
  std::vector<std::byte> v(n);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, v.data() + got, n - got);
    if (r <= 0) {
      ADD_FAILURE() << "socket closed after " << got << " of " << n
                    << " bytes";
      break;
    }
    got += static_cast<std::size_t>(r);
  }
  return v;
}

/// Read from `fd` until `count` messages have been decoded.
inline std::vector<Message> read_frames(int fd, std::size_t count) {
  wire::StreamFrameDecoder decoder;
  std::vector<Message> out;
  std::uint8_t chunk[4096];
  while (out.size() < count) {
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r <= 0) {
      ADD_FAILURE() << "socket closed after " << out.size() << " of "
                    << count << " frames";
      break;
    }
    if (!decoder.feed(chunk, static_cast<std::size_t>(r), out)) {
      ADD_FAILURE() << "malformed frame stream";
      break;
    }
  }
  return out;
}

}  // namespace oopp::net::test
