#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace sketchtree {
namespace {

// Known-answer vectors for CRC-32/IEEE (the zlib/PNG polynomial).
TEST(Crc32Test, KnownAnswerVectors) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "stream of labeled trees, checksummed in pieces";
  uint32_t one_shot = Crc32(data);
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t crc = Crc32(data.substr(0, cut));
    crc = Crc32(data.substr(cut), crc);
    EXPECT_EQ(crc, one_shot) << "cut at " << cut;
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // The bit-at-a-time definition the table-driven code must reproduce.
  auto reference = [](std::string_view data) {
    uint32_t c = 0xFFFFFFFFu;
    for (char byte : data) {
      c ^= static_cast<unsigned char>(byte);
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::string buffer(96, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>(i * 151 + 7);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; offset + length <= buffer.size(); ++length) {
      std::string_view view(buffer.data() + offset, length);
      EXPECT_EQ(Crc32(view), reference(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, DetectsEverySingleBitFlip) {
  std::string data = "payload under test";
  const uint32_t clean = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = data;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(corrupt), clean)
          << "flip of bit " << bit << " in byte " << byte << " undetected";
    }
  }
}

TEST(Crc32Test, EmbeddedNulBytesAreChecksummed) {
  std::string with_nul("ab\0cd", 5);
  std::string without_nul("abcd", 4);
  EXPECT_NE(Crc32(with_nul), Crc32(without_nul));
}

}  // namespace
}  // namespace sketchtree
