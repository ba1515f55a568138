// Tests for src/base: status, rand, strutil, loc, table, hash.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/hash.h"
#include "src/base/loc.h"
#include "src/base/rand.h"
#include "src/base/status.h"
#include "src/base/strutil.h"
#include "src/base/table.h"

namespace perennial {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not-found: no such file");
}

TEST(Result, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::Failed("disk dead");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailed);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(Rand, DeterministicFromSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rand, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rand, BelowStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rand, BelowCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.Below(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rand, RangeInclusive) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.Range(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rand, ChanceExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(Rand, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(Rand, ShufflePermutes) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

class RandSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandSweep, BelowIsRoughlyUniform) {
  uint64_t bound = GetParam();
  Rng rng(bound * 31 + 7);
  std::vector<int> counts(bound, 0);
  const int kSamples = 2000 * static_cast<int>(bound);
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.Below(bound)]++;
  }
  for (uint64_t i = 0; i < bound; ++i) {
    // Each bucket within 25% of the expected mean — loose but catches bias.
    EXPECT_GT(counts[i], 1500) << "bucket " << i;
    EXPECT_LT(counts[i], 2500) << "bucket " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RandSweep, ::testing::Values(2, 3, 5, 10));

TEST(StrUtil, SplitBasic) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StrUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(StrUtil, SplitNoSeparator) {
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StrUtil, JoinBasic) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StrUtil, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \r\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StrUtil, AsciiUpper) { EXPECT_EQ(AsciiUpper("Data"), "DATA"); }

TEST(StrUtil, ParseUint64Valid) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(StrUtil, ParseUint64Invalid) {
  uint64_t v = 0;
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
}

TEST(StrUtil, HexIdIsFixedWidth) {
  EXPECT_EQ(HexId(0), "0000000000000000");
  EXPECT_EQ(HexId(0xabc), "0000000000000abc");
  EXPECT_EQ(HexId(UINT64_MAX), "ffffffffffffffff");
}

TEST(Loc, CountsCodeCommentsBlanks) {
  const char* src =
      "int x = 1;\n"
      "// a comment\n"
      "\n"
      "/* block\n"
      "   comment */\n"
      "int y = 2;  // trailing\n";
  LocCount c = CountSource(src);
  EXPECT_EQ(c.code, 2u);
  EXPECT_EQ(c.comment, 3u);
  EXPECT_EQ(c.blank, 1u);
}

TEST(Loc, EmptySource) {
  LocCount c = CountSource("");
  EXPECT_EQ(c.total(), 1u);  // one blank line
}

TEST(Loc, CodeAfterBlockCommentOnSameLineCounts) {
  LocCount c = CountSource("/* c */ int x;\n");
  EXPECT_EQ(c.code, 1u);
}

TEST(Hash, DeterministicAndOrderSensitive) {
  Hasher128 a;
  a.MixU64(1);
  a.MixU64(2);
  Hasher128 b;
  b.MixU64(1);
  b.MixU64(2);
  EXPECT_EQ(a.digest(), b.digest());

  Hasher128 swapped;
  swapped.MixU64(2);
  swapped.MixU64(1);
  EXPECT_NE(a.digest(), swapped.digest());
  EXPECT_NE(a.digest(), Hash128{});  // non-trivial state
}

TEST(Hash, LengthPrefixPreventsStringAliasing) {
  Hasher128 a;
  a.MixString("ab");
  a.MixString("c");
  Hasher128 b;
  b.MixString("a");
  b.MixString("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, ZeroPaddedTailsStayDistinctAsStrings) {
  // The last partial word is zero-padded, so only the length prefix tells
  // "" from "\0" from "\0\0"...; check it does, across word boundaries.
  std::set<Hash128> digests;
  for (size_t n = 0; n <= 17; ++n) {
    Hasher128 h;
    h.MixString(std::string(n, '\0'));
    digests.insert(h.digest());
  }
  EXPECT_EQ(digests.size(), 18u);
}

// 2^20 sequential inputs, each with one single-bit flip (the flipped bit
// cycles through all 64): no two distinct inputs share a 128-bit digest,
// the low 16 bits of `lo` (the linearizer's hash-set bucket index) are
// evenly spread, and each of them flips for about half of the bit flips.
TEST(Hash, SequentialInputsAndBitFlipsSpreadWithoutCollisions) {
  constexpr uint64_t kInputs = uint64_t{1} << 20;
  constexpr size_t kBuckets = size_t{1} << 16;
  auto digest_of = [](uint64_t v) {
    Hasher128 h;
    h.MixU64(v);
    return h.digest();
  };
  std::vector<uint64_t> inputs;
  inputs.reserve(2 * kInputs);
  std::vector<uint64_t> flips_per_bit(16, 0);
  for (uint64_t i = 0; i < kInputs; ++i) {
    const uint64_t flipped = i ^ (uint64_t{1} << (i % 64));
    inputs.push_back(i);
    inputs.push_back(flipped);
    const uint64_t diff = digest_of(i).lo ^ digest_of(flipped).lo;
    for (int bit = 0; bit < 16; ++bit) {
      flips_per_bit[bit] += (diff >> bit) & 1;
    }
  }
  std::sort(inputs.begin(), inputs.end());
  inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());

  std::vector<Hash128> digests;
  digests.reserve(inputs.size());
  std::vector<uint64_t> buckets(kBuckets, 0);
  for (uint64_t v : inputs) {
    digests.push_back(digest_of(v));
    ++buckets[digests.back().lo & (kBuckets - 1)];
  }
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::adjacent_find(digests.begin(), digests.end()), digests.end());

  // Chi-square over the low 16 bits: mean kBuckets - 1, standard deviation
  // sqrt(2 (kBuckets - 1)) ~ 362; allow six of them either way.
  const double expected = static_cast<double>(digests.size()) / kBuckets;
  double chi2 = 0;
  for (uint64_t count : buckets) {
    const double d = static_cast<double>(count) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_NEAR(chi2, kBuckets - 1.0, 6 * 362.0);

  for (int bit = 0; bit < 16; ++bit) {
    const double frac = static_cast<double>(flips_per_bit[bit]) / kInputs;
    EXPECT_NEAR(frac, 0.5, 0.01) << "lo bit " << bit;
  }
}

TEST(Hash, Hash128Ordering) {
  Hash128 small{1, 5};
  Hash128 large{2, 0};
  EXPECT_LT(small, large);
  EXPECT_LT((Hash128{1, 4}), small);  // lo breaks hi ties
  EXPECT_FALSE(small < small);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Component", "Lines of code"});
  t.AddRow({"Core framework", "7,220"});
  t.AddRule();
  t.AddRow({"Total", "8,930"});
  std::string out = t.Render();
  EXPECT_NE(out.find("Component"), std::string::npos);
  EXPECT_NE(out.find("7,220"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(8930), "8,930");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
}

TEST(Table, FixedDigits) {
  EXPECT_EQ(FixedDigits(3.14159, 2), "3.14");
  EXPECT_EQ(FixedDigits(2.0, 0), "2");
}

}  // namespace
}  // namespace perennial
