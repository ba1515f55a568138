// The verdict cache of the refinement checker.
//
// The linearizability VERDICT of a complete history depends only on the
// history's events (the check replays the spec against them). Its 128-bit
// fingerprint (FingerprintHistory) keys a verdict cache shared across every
// execution of a run — and, under ParallelExplorer, across worker threads:
// whichever worker checks a history first publishes the verdict, and
// duplicates replay it instead of re-running the search. (Sibling histories
// that only share a PREFIX resume the spec search through the linearizer's
// own spine instead, linearize.h.)
//
// The cache is a sharded map under per-shard mutexes: lock hold times are
// a lookup or an insert, and 16 shards keep worker collisions negligible at
// the scale of this repo's benches. Memory is bounded two ways: a per-shard
// entry cap (inserts past it are dropped), and — when the durable-run
// layer's max_memory_bytes is in play — an approximate byte cap with
// whole-shard eviction. Evicting cached entries can never change a verdict
// (values are pure functions of their keys; a miss just re-runs the check),
// it only converts hits into misses.
#ifndef PERENNIAL_SRC_REFINE_MEMO_H_
#define PERENNIAL_SRC_REFINE_MEMO_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/base/hash.h"
#include "src/refine/history.h"

namespace perennial::refine {

// Mixes one history event into a streaming fingerprint. Factored out of
// FingerprintHistory so other keys can fold a history in too (the
// explorer's post-crash continuation key mixes the history so far).
template <typename Spec>
void MixEvent(Hasher128* f, const typename History<Spec>::Event& e) {
  f->MixU64(static_cast<uint64_t>(e.kind));
  f->MixU64(e.op_id);
  switch (e.kind) {
    case History<Spec>::Kind::kInvoke:
      f->MixU64(static_cast<uint64_t>(e.client));
      f->MixString(Spec::OpName(e.op));
      break;
    case History<Spec>::Kind::kReturn:
      Spec::MixRet(f, e.ret);
      break;
    case History<Spec>::Kind::kCrash:
    case History<Spec>::Kind::kHelped:
      break;
  }
}

// 128-bit fingerprint of a history's observable events. Two histories with
// equal fingerprints receive the same verdict from the linearizability
// checker (the check is a pure function of the events), which is what makes
// fingerprint pruning sound. Requires Spec::OpName to be an injective
// rendering and Spec::MixRet an injective, self-delimiting encoding (true
// of every spec in this repo).
template <typename Spec>
Hash128 FingerprintHistory(const History<Spec>& history) {
  Hasher128 f;
  for (const auto& e : history.events) {
    MixEvent<Spec>(&f, e);
  }
  return f.digest();
}

// Thread-safe fingerprint-keyed map. V must be copyable (lookups copy the
// value out under the shard lock; cached values are small optionals in
// practice).
template <typename V>
class ShardedMemo {
 public:
  static constexpr size_t kShards = 16;

  explicit ShardedMemo(size_t max_entries_per_shard = 1u << 20)
      : cap_(max_entries_per_shard) {}
  ShardedMemo(const ShardedMemo&) = delete;
  ShardedMemo& operator=(const ShardedMemo&) = delete;

  bool Lookup(const Hash128& fp, V* out) const {
    const Shard& s = shards_[ShardOf(fp)];
    std::scoped_lock lock(s.mu);
    auto it = s.entries.find(fp);
    if (it == s.entries.end()) {
      return false;
    }
    *out = it->second;
    return true;
  }

  // First insert wins (the value is a pure function of the key, so any
  // racing value is identical); returns false when the entry was dropped —
  // the shard is at its entry cap, or the byte cap could not be met even
  // after evicting the target shard. When the insert would push the
  // accounted total past max_bytes, the TARGET shard is cleared whole
  // (coarse, but keeps the common path to one counter update and makes
  // serial eviction order deterministic); if other shards still hold too
  // much, the entry is dropped so the accounted total never exceeds the
  // cap. `approx_bytes` is the caller's estimate of the entry's footprint;
  // it must be a deterministic function of the value (save/restore replays
  // the same accounting).
  bool Insert(const Hash128& fp, V value, size_t approx_bytes = sizeof(Hash128) + sizeof(V) + 48) {
    Shard& s = shards_[ShardOf(fp)];
    std::scoped_lock lock(s.mu);
    if (s.entries.size() >= cap_ && s.entries.find(fp) == s.entries.end()) {
      return false;
    }
    const size_t max_bytes = max_bytes_.load(std::memory_order_relaxed);
    if (max_bytes > 0 &&
        total_bytes_.load(std::memory_order_relaxed) + approx_bytes > max_bytes &&
        s.entries.find(fp) == s.entries.end()) {
      if (s.bytes > 0) {
        total_bytes_.fetch_sub(s.bytes, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        s.bytes = 0;
        s.entries.clear();
      }
      if (total_bytes_.load(std::memory_order_relaxed) + approx_bytes > max_bytes) {
        return false;  // other shards hold the budget; degrade to a miss
      }
    }
    auto [it, inserted] = s.entries.emplace(fp, std::move(value));
    (void)it;
    if (inserted) {
      s.bytes += approx_bytes;
      total_bytes_.fetch_add(approx_bytes, std::memory_order_relaxed);
    }
    return true;
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      std::scoped_lock lock(s.mu);
      n += s.entries.size();
    }
    return n;
  }

  // Accounted bytes across all shards (approximate; see Insert).
  size_t bytes() const { return total_bytes_.load(std::memory_order_relaxed); }

  // Whole-shard evictions performed so far.
  uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }

  // Byte cap enforced by Insert (0 = unlimited). Safe to call repeatedly
  // with the same value (ParallelExplorer workers all set it).
  void set_max_bytes(size_t max_bytes) { max_bytes_.store(max_bytes, std::memory_order_relaxed); }

  // Visits every entry (shard by shard, key order within a shard — a
  // deterministic order for a deterministic insert history). Used to
  // serialize the verdict cache into checkpoints. Fn: (const Hash128&,
  // const V&).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& s : shards_) {
      std::scoped_lock lock(s.mu);
      for (const auto& [fp, value] : s.entries) {
        fn(fp, value);
      }
    }
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<Hash128, V> entries;
    size_t bytes = 0;  // accounted bytes of this shard (guarded by mu)
  };

  static size_t ShardOf(const Hash128& fp) { return static_cast<size_t>(fp.lo) % kShards; }

  size_t cap_;
  std::atomic<size_t> max_bytes_{0};
  std::atomic<size_t> total_bytes_{0};
  std::atomic<uint64_t> evictions_{0};
  std::array<Shard, kShards> shards_;
};

// Fingerprint -> linearizability verdict (nullopt: history refines the
// spec; string: why it does not). Shared across ParallelExplorer workers.
using VerdictCache = ShardedMemo<std::optional<std::string>>;

// The byte estimate for a verdict entry. Centralized because it must be
// identical at the original insert and at checkpoint restore (string SIZE,
// never capacity), or a resumed run's eviction pattern would diverge from
// the uninterrupted one.
inline size_t VerdictEntryBytes(const std::optional<std::string>& verdict) {
  return sizeof(Hash128) + sizeof(std::optional<std::string>) + 48 +
         (verdict.has_value() ? verdict->size() : 0);
}

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_MEMO_H_
