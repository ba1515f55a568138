#include "src/base/hash.h"

#include <cstring>

namespace perennial {

namespace {

// Murmur3's 64-bit finalizer: a bijection on 64 bits with full avalanche.
uint64_t Avalanche(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

// Distinct nonzero lane seeds (the fractional digits of pi), so the lanes
// start apart and an all-zero input does not leave them at zero.
Hasher128::Hasher128() : a_(0x243f6a8885a308d3ULL), b_(0x13198a2e03707344ULL) {}

void Hasher128::MixBytes(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    MixU64(w);
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    MixU64(w);
  }
}

void Hasher128::MixString(std::string_view s) {
  MixU64(s.size());
  MixBytes(s.data(), s.size());
}

// (a, b) -> (Avalanche(b), Avalanche(a + b)) is a bijection, so the
// finalizer adds no collisions to the lanes' own.
Hash128 Hasher128::digest() const {
  return Hash128{Avalanche(b_), Avalanche(a_ + b_)};
}

}  // namespace perennial
