#include "common/crc32.h"

#include <array>
#include <cstddef>

namespace sketchtree {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8: tables[0] is the classic byte table; tables[k][i] is the
/// CRC of byte i followed by k zero bytes, so eight table lookups fold
/// eight input bytes at once instead of a serial chain of eight.
constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = c ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                       uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace sketchtree
