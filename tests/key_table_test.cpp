//===- tests/key_table_test.cpp - The explorer's flat key table -------------===//
//
// support/KeyTable numbers byte-string keys densely; the explorer's visited
// sets and oracle verdict memo keep their per-key data in arrays indexed by
// that number.  Keys are arbitrary bytes (configuration keys carry binary
// fields and NULs), so distinctness must be decided on the bytes, never on
// a prefix or a C string; indices must survive every growth; and a
// degenerate hash must cost speed, never correctness.
//
//===----------------------------------------------------------------------===//

#include "support/KeyTable.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pushpull;

namespace {

/// Every key collides: lookups fall back to the byte comparison.
struct ConstantHash {
  size_t operator()(std::string_view) const { return 0x5bd1e995; }
};

/// A binary key for number \p I: four little-endian bytes behind a tag,
/// so many keys share prefixes and contain NULs.
std::string numberedKey(uint32_t I) {
  std::string K = "cfg";
  for (int B = 0; B < 4; ++B)
    K.push_back(static_cast<char>((I >> (8 * B)) & 0xff));
  return K;
}

template <typename Table>
void expectDistinct(Table &T, const std::vector<std::string> &Keys) {
  for (size_t I = 0; I < Keys.size(); ++I) {
    auto In = T.insert(Keys[I]);
    EXPECT_TRUE(In.Fresh) << "key #" << I;
    EXPECT_EQ(In.Index, I) << "key #" << I;
  }
  ASSERT_EQ(T.size(), Keys.size());
  // Every key is found again under its first index, adding nothing.
  for (size_t I = 0; I < Keys.size(); ++I) {
    auto In = T.insert(Keys[I]);
    EXPECT_FALSE(In.Fresh) << "key #" << I;
    EXPECT_EQ(In.Index, I) << "key #" << I;
  }
  EXPECT_EQ(T.size(), Keys.size());
}

const std::vector<std::string> &trickyKeys() {
  using namespace std::string_literals;
  static const std::vector<std::string> Keys = {
      ""s,        "a"s,         "ab"s,       "abc"s,        "abd"s,
      "abc\0"s,   "abc\0\0"s,   "\0"s,       "\0\0"s,       "a\0b"s,
      "a\0c"s,    "\0a"s,       "\xff"s,     "\xff\xff"s,   "abcdefgh"s,
      "abcdefgi"s, "abcdefgh\0"s, "bcdefgh"s,
  };
  return Keys;
}

} // namespace

TEST(KeyTable, PrefixesLastBytesEmptyAndNulKeysStayDistinct) {
  KeyTable<> T;
  expectDistinct(T, trickyKeys());
  EXPECT_TRUE(T.insert("abcd").Fresh);
  EXPECT_TRUE(T.insert(std::string_view("a\0d", 3)).Fresh);
}

TEST(KeyTable, IndicesStableAcrossGrowth) {
  // 120k keys: the slot array starts at 64 and doubles at 3/4 load, so
  // this crosses more than a dozen growths.
  KeyTable<> T;
  std::vector<std::string> Keys;
  for (uint32_t I = 0; I < 120000; ++I)
    Keys.push_back(numberedKey(I));
  expectDistinct(T, Keys);
}

TEST(KeyTable, ConstantHashStillSeparatesKeys) {
  KeyTable<ConstantHash> T;
  std::vector<std::string> Keys = trickyKeys();
  for (uint32_t I = 0; I < 1500; ++I)
    Keys.push_back(numberedKey(I));
  expectDistinct(T, Keys);
  EXPECT_TRUE(T.insert("not there").Fresh);
}

TEST(KeyTable, ClearForgetsEveryKey) {
  KeyTable<> T;
  T.insert("x");
  T.insert("y");
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  auto In = T.insert("y");
  EXPECT_TRUE(In.Fresh);
  EXPECT_EQ(In.Index, 0u);
  EXPECT_TRUE(T.insert("x").Fresh);
}
