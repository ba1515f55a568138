// Incremental 128-bit hashing, one word at a time.
//
// Used by the refinement checker to fingerprint completed histories so that
// executions with identical observable behavior are checked against the
// spec only once per run (explorer.h, memo.h), to key the post-crash
// continuation cache (explorer.h), and to deduplicate spec configurations
// inside the linearizer (linearize.h). 128 bits keep the collision
// probability negligible even for runs with millions of distinct
// histories; a collision could at worst suppress one redundant spec check
// or merge two configurations, so the fingerprint width is chosen to make
// that event practically impossible.
//
// Construction: two 64-bit lanes with independent keys. Each 8-byte word
// is absorbed into each lane by one folded multiply (the 64x64->128
// product of `lane ^ word` and the lane's key, high half XORed into the low
// half). digest() applies a bijective finalizer, so both halves avalanche:
// in particular the low bits of `lo`, which hash tables use directly as a
// bucket index. This is not a cryptographic hash; it is a fast,
// well-distributed fingerprint for data the checker produces itself.
// Bytes are loaded as native-order words, so MixBytes/MixString digests
// differ across byte orders; a checkpoint carried to a host of the other
// byte order fails its config-fingerprint check and starts a fresh run.
#ifndef PERENNIAL_SRC_BASE_HASH_H_
#define PERENNIAL_SRC_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <tuple>

namespace perennial {

// A 128-bit digest, ordered so it can key std::map.
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend bool operator<(const Hash128& a, const Hash128& b) {
    return std::tie(a.hi, a.lo) < std::tie(b.hi, b.lo);
  }
};

// Streaming 128-bit hasher. Mix* calls are order-sensitive; strings are
// length-prefixed so adjacent fields cannot alias ("ab","c" vs "a","bc").
// MixBytes alone is NOT self-delimiting (its last partial word is
// zero-padded): mix a length first, as MixString does, when the byte count
// varies. Copyable, so a prefix digest can be taken and the stream
// continued.
class Hasher128 {
 public:
  Hasher128();

  void MixBytes(const void* data, std::size_t n);
  void MixU64(uint64_t v) {
    a_ = Fold(a_ ^ v, kKeyA);
    b_ = Fold(b_ ^ v, kKeyB);
  }
  void MixString(std::string_view s);

  Hash128 digest() const;

 private:
  static constexpr uint64_t kKeyA = 0x9e3779b97f4a7c15ULL;
  static constexpr uint64_t kKeyB = 0xc2b2ae3d27d4eb4fULL;

  static uint64_t Fold(uint64_t x, uint64_t key) {
    unsigned __int128 p = static_cast<unsigned __int128>(x) * key;
    return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
  }

  uint64_t a_;
  uint64_t b_;
};

}  // namespace perennial

#endif  // PERENNIAL_SRC_BASE_HASH_H_
