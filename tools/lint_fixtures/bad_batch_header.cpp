// Fixture: hand-rolled batch-frame framing outside src/net/.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

// Re-declaring the framing constants forks the codec.
constexpr std::uint8_t kBatchMagic = 0xB5;  // LINT-EXPECT: raw-batch-header
inline std::vector<std::byte> hand_rolled_batch(std::size_t frames) {
  std::vector<std::byte> out;
  out.push_back(std::byte{0xB5});  // LINT-EXPECT: raw-batch-header
  out.push_back(std::byte{1});
  (void)frames;
  return out;
}

// Naming the codec entry points outside net::wire is flagged too: parsing
// belongs to net::wire alone.
inline void parse(const std::byte* p) {
  decode_batch_header(p);  // LINT-EXPECT: raw-batch-header
}

}  // namespace fixture
