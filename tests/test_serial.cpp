// Unit tests for the serialization substrate: round trips for every
// supported shape, truncation safety, and the symmetric user-type visitor.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <deque>
#include <limits>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "serial/archive.hpp"
#include "util/prng.hpp"

namespace serial = oopp::serial;

namespace {

template <class T>
T round_trip(const T& v) {
  serial::OArchive oa;
  oa(v);
  serial::IArchive ia(oa.bytes());
  T out{};
  ia(out);
  EXPECT_TRUE(ia.exhausted()) << "decoder left bytes behind";
  return out;
}

struct Inner {
  int a = 0;
  std::string b;
  bool operator==(const Inner&) const = default;
};

template <class Ar>
void oopp_serialize(Ar& ar, Inner& v) {
  ar(v.a, v.b);
}

struct Outer {
  std::vector<Inner> items;
  std::optional<double> opt;
  bool operator==(const Outer&) const = default;
};

template <class Ar>
void oopp_serialize(Ar& ar, Outer& v) {
  ar(v.items, v.opt);
}

TEST(Serial, ScalarRoundTrips) {
  EXPECT_EQ(round_trip<std::int8_t>(-7), -7);
  EXPECT_EQ(round_trip<std::uint8_t>(0xff), 0xff);
  EXPECT_EQ(round_trip<std::int32_t>(-123456789), -123456789);
  EXPECT_EQ(round_trip<std::uint64_t>(0xdeadbeefcafebabeULL),
            0xdeadbeefcafebabeULL);
  EXPECT_EQ(round_trip<bool>(true), true);
  EXPECT_DOUBLE_EQ(round_trip<double>(3.14159265358979), 3.14159265358979);
  EXPECT_FLOAT_EQ(round_trip<float>(2.71828f), 2.71828f);
}

TEST(Serial, ScalarEdgeValues) {
  EXPECT_EQ(round_trip(std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(round_trip(std::numeric_limits<std::int64_t>::max()),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(std::isnan(round_trip(std::nan(""))));
  EXPECT_EQ(round_trip(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(round_trip(-0.0), 0.0);
  EXPECT_TRUE(std::signbit(round_trip(-0.0)));
}

TEST(Serial, Strings) {
  EXPECT_EQ(round_trip(std::string()), "");
  EXPECT_EQ(round_trip(std::string("hello")), "hello");
  std::string with_nuls("a\0b\0c", 5);
  EXPECT_EQ(round_trip(with_nuls), with_nuls);
  EXPECT_EQ(round_trip(std::string(100000, 'x')).size(), 100000u);
}

TEST(Serial, Vectors) {
  EXPECT_EQ(round_trip(std::vector<int>{}), std::vector<int>{});
  EXPECT_EQ(round_trip(std::vector<int>{1, 2, 3}), (std::vector<int>{1, 2, 3}));
  std::vector<double> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0.5 * double(i);
  EXPECT_EQ(round_trip(big), big);
  EXPECT_EQ(round_trip(std::vector<std::string>{"a", "", "ccc"}),
            (std::vector<std::string>{"a", "", "ccc"}));
}

TEST(Serial, NestedContainers) {
  std::vector<std::vector<int>> vv{{1}, {}, {2, 3}};
  EXPECT_EQ(round_trip(vv), vv);
  std::map<std::string, std::vector<double>> m{{"x", {1.0}}, {"y", {}}};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Serial, SetsDequesListsComplex) {
  std::set<int> s{3, 1, 2};
  EXPECT_EQ(round_trip(s), s);
  std::unordered_set<std::string> us{"a", "bb", "ccc"};
  EXPECT_EQ(round_trip(us), us);
  std::deque<double> d{1.5, -2.5, 0.0};
  EXPECT_EQ(round_trip(d), d);
  std::list<int> l{7, 8, 9};
  EXPECT_EQ(round_trip(l), l);
  std::complex<double> c{1.25, -3.5};
  EXPECT_EQ(round_trip(c), c);
  std::vector<std::complex<double>> vc{{1, 2}, {3, 4}, {0, -1}};
  EXPECT_EQ(round_trip(vc), vc);
}

TEST(Serial, PairsTuplesArraysOptionals) {
  auto p = std::make_pair(std::string("k"), 42);
  EXPECT_EQ(round_trip(p), p);
  auto t = std::make_tuple(1, 2.5, std::string("three"));
  EXPECT_EQ(round_trip(t), t);
  std::array<int, 4> a{1, 2, 3, 4};
  EXPECT_EQ(round_trip(a), a);
  EXPECT_EQ(round_trip(std::optional<int>{}), std::optional<int>{});
  EXPECT_EQ(round_trip(std::optional<int>{7}), std::optional<int>{7});
  EXPECT_EQ(round_trip(std::optional<std::string>{"s"}),
            std::optional<std::string>{"s"});
}

TEST(Serial, UserTypesViaSymmetricVisitor) {
  Outer o{{{1, "one"}, {2, "two"}}, 2.5};
  EXPECT_EQ(round_trip(o), o);
  Outer empty{};
  EXPECT_EQ(round_trip(empty), empty);
}

TEST(Serial, TakeMovesBytesOutAndLeavesArchiveReusable) {
  serial::OArchive oa;
  oa(std::string("first"), 7);
  const auto ref = oa.bytes();  // copy for comparison
  auto moved = oa.take();
  EXPECT_EQ(moved, ref);
  EXPECT_EQ(oa.size(), 0u);

  // The emptied archive keeps encoding correctly.
  oa(std::string("second"));
  serial::IArchive ia(oa.bytes());
  EXPECT_EQ(ia.read<std::string>(), "second");
  EXPECT_TRUE(ia.exhausted());
}

TEST(Serial, ElementLoopReserveDoesNotChangeEncoding) {
  // The reserve-ahead in the element-loop writers is a pure capacity hint:
  // bulk container encodings must be byte-identical to element-at-a-time
  // writes of the same values.
  std::map<int, std::string> m{{1, "one"}, {2, "two"}, {3, "three"}};
  std::list<std::pair<int, int>> l{{1, 2}, {3, 4}};
  serial::OArchive bulk;
  bulk(m, l);

  serial::OArchive manual;
  manual(std::uint64_t{m.size()});
  for (const auto& [k, v] : m) manual(k, v);
  manual(std::uint64_t{l.size()});
  for (const auto& e : l) manual(e);

  EXPECT_EQ(bulk.bytes(), manual.bytes());
}

TEST(Serial, MultipleValuesInterleaved) {
  serial::OArchive oa;
  oa(42, std::string("mid"), 2.5);
  serial::IArchive ia(oa.bytes());
  EXPECT_EQ(ia.read<int>(), 42);
  EXPECT_EQ(ia.read<std::string>(), "mid");
  EXPECT_DOUBLE_EQ(ia.read<double>(), 2.5);
  EXPECT_TRUE(ia.exhausted());
}

TEST(Serial, TruncatedInputThrows) {
  serial::OArchive oa;
  oa(std::string("hello world"));
  auto bytes = oa.bytes();
  bytes.resize(bytes.size() - 3);
  serial::IArchive ia(bytes);
  EXPECT_THROW(ia.read<std::string>(), serial::serial_error);
}

TEST(Serial, HugeLengthPrefixRejectedBeforeAllocation) {
  // A corrupt frame claiming 2^60 elements must throw, not bad_alloc.
  serial::OArchive oa;
  oa(std::uint64_t{1} << 60);
  serial::IArchive ia(oa.bytes());
  EXPECT_THROW(ia.read<std::string>(), serial::serial_error);
  serial::IArchive ia2(oa.bytes());
  EXPECT_THROW(ia2.read<std::vector<double>>(), serial::serial_error);
}

TEST(Serial, EmptyArchiveReadThrows) {
  serial::IArchive ia(std::span<const std::byte>{});
  EXPECT_THROW((void)ia.read<int>(), serial::serial_error);
  EXPECT_TRUE(ia.exhausted());
}

TEST(Serial, WrongShapeDetectedByBoundsNotUB) {
  serial::OArchive oa;
  oa(std::uint32_t{7});
  serial::IArchive ia(oa.bytes());
  EXPECT_THROW((void)ia.read<std::uint64_t>(), serial::serial_error);
}

TEST(Serial, RawBytes) {
  const char raw[] = "rawbytes";
  serial::OArchive oa;
  oa.write_raw(raw, sizeof(raw));
  serial::IArchive ia(oa.bytes());
  char out[sizeof(raw)];
  ia.read_raw(out, sizeof(raw));
  EXPECT_STREQ(out, raw);
}

// ---------------------------------------------------------------------------
// serial::Bytes: ref-counted slices, splicing, zero-copy decode
// ---------------------------------------------------------------------------

std::vector<std::byte> pattern_bytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  return v;
}

TEST(SerialBytes, SubviewSharesStoreAndRejectsOverruns) {
  serial::Bytes b = serial::Bytes::adopt(pattern_bytes(64));
  EXPECT_EQ(b.size(), 64u);
  serial::Bytes sub = b.subview(8, 16);
  EXPECT_EQ(sub.size(), 16u);
  EXPECT_EQ(sub.store(), b.store());          // refcount bump, no copy
  EXPECT_EQ(sub.data(), b.data() + 8);        // aliases the same bytes
  EXPECT_TRUE(b.subview(60, 8).empty());      // past the end → empty
  EXPECT_TRUE(serial::Bytes{}.empty());
  EXPECT_EQ(serial::Bytes{}.data(), nullptr);
}

TEST(SerialBytes, InlineBelowSpliceThresholdMatchesVectorWire) {
  // A tiny Bytes is inlined: the archive stays flat and the encoding is
  // byte-identical to a std::vector<std::byte> of the same content.
  const auto payload = pattern_bytes(32);
  serial::OArchive as_bytes;
  as_bytes(serial::Bytes::adopt(payload));
  EXPECT_FALSE(as_bytes.has_segments());
  serial::OArchive as_vector;
  as_vector(payload);
  EXPECT_EQ(as_bytes.bytes(), as_vector.bytes());

  serial::IArchive ia(as_bytes.bytes());
  EXPECT_EQ(ia.read<std::vector<std::byte>>(), payload);
}

TEST(SerialBytes, LargeSliceSplicesAndFlattensInStreamOrder) {
  const auto payload = pattern_bytes(serial::OArchive::kSpliceThreshold);
  serial::OArchive oa;
  oa(std::string("head"));
  oa(serial::Bytes::adopt(payload));
  oa(std::string("tail"));
  EXPECT_TRUE(oa.has_segments());
  EXPECT_THROW((void)oa.bytes(), serial::serial_error);

  // take() flattens segments back into one stream whose decode matches.
  const auto flat = oa.take();
  serial::IArchive ia(flat);
  EXPECT_EQ(ia.read<std::string>(), "head");
  EXPECT_EQ(ia.read<std::vector<std::byte>>(), payload);
  EXPECT_EQ(ia.read<std::string>(), "tail");
  EXPECT_TRUE(ia.exhausted());
}

TEST(SerialBytes, TakeSegmentsCarriesTheOriginalAllocation) {
  const auto payload = pattern_bytes(1024);
  serial::Bytes big = serial::Bytes::adopt(payload);
  const std::byte* source = big.data();
  serial::OArchive oa;
  oa(std::uint32_t{5});
  oa(big);
  auto segs = oa.take_segments();
  ASSERT_GE(segs.size(), 2u);
  // One of the segments IS the spliced slice — same allocation, not a
  // copy (serialize once at the source).
  bool found = false;
  for (const auto& s : segs) found |= (s.data() == source);
  EXPECT_TRUE(found);
}

TEST(SerialBytes, DecodeOverBackingStoreAliasesInsteadOfCopying) {
  // Encode a large Bytes, flatten to one allocation (as the transport
  // would), then decode that allocation as a one-segment chain: the
  // decoded Bytes must be a view into it, not a fresh copy.
  const auto payload = pattern_bytes(512);
  serial::OArchive oa;
  oa(serial::Bytes::adopt(payload));
  auto store =
      std::make_shared<const std::vector<std::byte>>(oa.take());
  const serial::Bytes frame(store, 0, store->size());
  serial::IArchive ia(std::span<const serial::Bytes>(&frame, 1));
  serial::Bytes out;
  ia.read_into(out);
  EXPECT_EQ(out.size(), payload.size());
  EXPECT_EQ(out.store(), store);
  EXPECT_GE(out.data(), store->data());
  EXPECT_LE(out.data() + out.size(), store->data() + store->size());
  EXPECT_EQ(std::memcmp(out.data(), payload.data(), payload.size()), 0);

  // Without a backing store the same decode falls back to a copy.
  serial::IArchive plain(*store);
  serial::Bytes copied;
  plain.read_into(copied);
  EXPECT_EQ(copied.size(), payload.size());
  EXPECT_NE(copied.store(), store);
}

TEST(SerialBytes, MutableDataCopiesOnlyWhenShared) {
  serial::Bytes a = serial::Bytes::adopt(pattern_bytes(64));
  const std::byte* original = a.data();
  // Sole holder: the write lands in place.
  EXPECT_EQ(a.mutable_data(), original);
  a.mutable_data()[0] = std::byte{0xAA};

  // Shared: the writer moves onto a private copy; the other holder keeps
  // the bytes it had.
  serial::Bytes b = a;
  b.mutable_data()[1] = std::byte{0xBB};
  EXPECT_NE(b.data(), original);
  EXPECT_EQ(a.data(), original);
  EXPECT_EQ(a.data()[1], pattern_bytes(64)[1]);
  EXPECT_EQ(b.data()[0], std::byte{0xAA});
  EXPECT_EQ(b.data()[1], std::byte{0xBB});

  // A subview shares the store too, and copies only its own range.
  serial::Bytes sub = a.subview(8, 8);
  sub.mutable_data()[0] = std::byte{0xCC};
  EXPECT_EQ(sub.size(), 8u);
  EXPECT_EQ(a.data()[8], pattern_bytes(64)[8]);
  EXPECT_EQ(serial::Bytes{}.mutable_data(), nullptr);
}

TEST(SerialBytes, SegmentChainDecodeAliasesSplicedSlices) {
  // The in-process receive path: the sender's segment chain is decoded as
  // is, and each spliced slice comes back as the sender's own allocation.
  serial::Bytes big = serial::Bytes::adopt(pattern_bytes(1024));
  serial::Bytes mid = serial::Bytes::adopt(pattern_bytes(512));
  serial::OArchive oa;
  oa(std::string("head"), big, std::uint32_t{7}, mid, std::string("tail"));
  const auto segs = oa.take_segments();
  ASSERT_GE(segs.size(), 4u);

  serial::IArchive ia(segs);
  EXPECT_EQ(ia.read<std::string>(), "head");
  const auto b1 = ia.read<serial::Bytes>();
  EXPECT_EQ(ia.read<std::uint32_t>(), 7u);
  const auto b2 = ia.read<serial::Bytes>();
  EXPECT_EQ(ia.read<std::string>(), "tail");
  EXPECT_TRUE(ia.exhausted());
  EXPECT_EQ(b1.data(), big.data());
  EXPECT_EQ(b2.data(), mid.data());
  EXPECT_EQ(b1.size(), 1024u);
  EXPECT_EQ(b2.size(), 512u);
}

TEST(SerialBytes, SegmentChainMatchesFlatDecodeAtEverySplit) {
  // Segment boundaries may fall anywhere — inside a scalar, a length
  // prefix or a byte field — and the decode must still match the flat
  // one; a chain cut short must throw, never read past its end.
  const Inner v{0x12345678, std::string(40, 'q')};
  const auto flat = serial::to_bytes(v);
  for (std::size_t a = 0; a <= flat.size(); ++a) {
    for (std::size_t b = a; b <= flat.size(); b += 5) {
      const std::vector<serial::Bytes> segs = {
          serial::Bytes::copy({flat.data(), a}),
          serial::Bytes::copy({flat.data() + a, b - a}),
          serial::Bytes::copy({flat.data() + b, flat.size() - b})};
      serial::IArchive ia(segs);
      Inner out;
      ia(out);
      ASSERT_EQ(out, v) << "split at " << a << "," << b;
      ASSERT_TRUE(ia.exhausted());

      if (b < flat.size()) {
        const std::span<const serial::Bytes> head(segs.data(), 2);
        serial::IArchive cut(head);
        Inner partial;
        EXPECT_THROW(cut(partial), serial::serial_error);
      }
    }
  }
}

// Property test: random nested structures survive a round trip.
struct RandomBlob {
  std::vector<std::uint32_t> ints;
  std::string text;
  std::map<int, double> table;
  std::optional<std::pair<int, std::string>> tail;
  bool operator==(const RandomBlob&) const = default;
};

template <class Ar>
void oopp_serialize(Ar& ar, RandomBlob& v) {
  ar(v.ints, v.text, v.table, v.tail);
}

class SerialProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialProperty, RandomBlobRoundTrip) {
  oopp::Xoshiro256 rng(GetParam());
  RandomBlob b;
  const auto n_ints = rng.below(200);
  for (std::uint64_t i = 0; i < n_ints; ++i)
    b.ints.push_back(static_cast<std::uint32_t>(rng()));
  const auto n_text = rng.below(500);
  for (std::uint64_t i = 0; i < n_text; ++i)
    b.text.push_back(static_cast<char>(rng.below(256)));
  const auto n_tab = rng.below(50);
  for (std::uint64_t i = 0; i < n_tab; ++i)
    b.table[static_cast<int>(rng() % 1000)] = rng.uniform();
  if (rng.below(2) == 0)
    b.tail = {static_cast<int>(rng()), std::string("tail")};
  EXPECT_EQ(round_trip(b), b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Fuzz property: any truncation or byte-corruption of a valid archive must
// either decode (possibly to different values) or throw serial_error —
// never crash, hang, or allocate absurdly.
class SerialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialFuzz, TruncationAndCorruptionAreSafe) {
  oopp::Xoshiro256 rng(GetParam());
  RandomBlob b;
  for (std::uint64_t i = 0, n = rng.below(64); i < n; ++i)
    b.ints.push_back(static_cast<std::uint32_t>(rng()));
  b.text.assign(rng.below(100), 'x');
  for (std::uint64_t i = 0, n = rng.below(20); i < n; ++i)
    b.table[int(rng() % 100)] = rng.uniform();
  const auto bytes = serial::to_bytes(b);

  // Truncations.
  for (int t = 0; t < 32; ++t) {
    auto cut = bytes;
    cut.resize(rng.below(bytes.size() + 1));
    serial::IArchive ia(cut);
    try {
      RandomBlob out;
      ia(out);
    } catch (const serial::serial_error&) {
    }
  }
  // Single-byte corruptions.
  for (int t = 0; t < 32; ++t) {
    auto bad = bytes;
    bad[rng.below(bad.size())] ^= static_cast<std::byte>(1 + rng.below(255));
    serial::IArchive ia(bad);
    try {
      RandomBlob out;
      ia(out);
    } catch (const serial::serial_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

}  // namespace
