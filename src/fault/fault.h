// Environment fault injection: the fault classes beyond whole-machine
// crashes and fail-stop disk death.
//
// The paper's environment model (Figure 1, §6.2) injects crashes between
// atomic steps and permanent disk failures. Real storage also exhibits
//   * transient I/O errors — a read or write fails once and succeeds when
//     retried (loose cables, controller timeouts);
//   * torn writes — a multi-sector write interrupted by power loss persists
//     only a prefix of its bytes;
//   * fail-slow devices — an operation completes, but late;
//   * unsynced-data loss — page-cache contents newer than the last sync
//     survive a crash only partially.
//
// Determinism contract. Every fault is *armed* by an explorer environment
// alternative (refine::EnvEvent, AltKind::kEnv) and *consumed* by the next
// matching device operation. Both halves are pure functions of the decision
// path: the explorer chooses where the arm lands between atomic steps, and
// the scheduler determines which operation is "next". The DFS explorer
// therefore enumerates fault placements exactly like crash points, the
// ParallelExplorer partitions them with the same prefix scheme, and the
// RandomDriver samples them with ExplorerOptions::env_probability. No fault
// ever fires from wall-clock time or unseeded randomness.
#ifndef PERENNIAL_SRC_FAULT_FAULT_H_
#define PERENNIAL_SRC_FAULT_FAULT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/hash.h"

namespace perennial::fault {

enum class FaultKind {
  kTransientRead,   // next matching read returns kUnavailable
  kTransientWrite,  // next matching write returns kUnavailable, nothing lands
  kTornWrite,       // next matching write persists only a prefix at a crash
  kFailSlow,        // next matching operation is delayed by extra yields
  kUnsyncedTail,    // next crash keeps part of each file's unsynced tail
};
inline constexpr int kNumFaultKinds = 5;

// "torn-write", "transient-read", ... (stable names used in event labels,
// bench output, and traces).
const char* FaultKindName(FaultKind kind);

// What an environment may do to a system: per-class budgets (how many times
// the explorer may arm each fault) plus shape parameters. A default
// FaultPlan has every budget at zero — no faults, no env alternatives, no
// per-operation overhead.
struct FaultPlan {
  // Matches any disk id (FaultyDisk's constructor argument).
  static constexpr int kAnyDisk = -1;

  int transient_reads = 0;
  int transient_writes = 0;
  int torn_writes = 0;
  int fail_slow = 0;
  int unsynced_tail = 0;

  // Which disk the armed faults aim at (kAnyDisk: whichever device performs
  // the next matching operation).
  int target = kAnyDisk;

  // Bytes of the interrupted write that persist. 0 = half the block,
  // modeling a tear at the sector boundary of a two-sector block.
  uint64_t torn_prefix_bytes = 0;
  // Blocks below this index never tear: they model single-sector metadata
  // (e.g. a log header) that the hardware writes atomically. Torn faults
  // stay armed across non-tearable writes.
  uint64_t torn_min_block = 0;

  // Scheduler yields a fail-slow fault inserts before the operation runs.
  int fail_slow_delay = 3;

  bool AnyBudget() const {
    return transient_reads > 0 || transient_writes > 0 || torn_writes > 0 || fail_slow > 0 ||
           unsynced_tail > 0;
  }
};

// Shared, per-execution fault state: the environment side (explorer env
// events) arms faults, the device side (FaultyDisk, GooseFs) consumes them.
// Owned by the harness bundle so each refine::Instance gets a fresh one —
// that keeps schedule state a pure function of the decision path, which is
// what the deterministic-factory contract requires.
class FaultSchedule {
 public:
  static constexpr int kAnyDisk = FaultPlan::kAnyDisk;

  explicit FaultSchedule(FaultPlan plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  // Environment side: arm one fault of `kind` aimed at `target`. Armed
  // faults stack (arming twice faults the next two matching operations) and
  // survive crashes — the environment's intent is not machine state.
  void Arm(FaultKind kind, int target);

  // Device side: consume the oldest armed fault matching (kind, disk_id).
  // Returns true exactly when a fault fires.
  bool Consume(FaultKind kind, int disk_id);

  // Whether a torn fault may strike block `a` (see FaultPlan::torn_min_block).
  bool TornApplies(uint64_t block) const { return block >= plan_.torn_min_block; }

  // Persisted prefix length for a torn write of `block_size` bytes.
  uint64_t TornPrefixBytes(uint64_t block_size) const;

  // Introspection (tests, bench): currently armed / total consumed.
  uint64_t armed(FaultKind kind) const;
  uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<size_t>(kind)];
  }
  uint64_t total_injected() const;
  // Armed faults survive crashes, so a harness that owns a schedule mixes
  // them into its post-crash fingerprint. The injected counters are
  // introspection only and are left out.
  void MixState(Hasher128* h) const {
    h->MixU64(armed_.size());
    for (const ArmedFault& f : armed_) {
      h->MixU64(static_cast<uint64_t>(f.kind));
      h->MixU64(static_cast<uint64_t>(static_cast<int64_t>(f.target)));
    }
  }

 private:
  struct ArmedFault {
    FaultKind kind;
    int target;
  };

  FaultPlan plan_;
  std::vector<ArmedFault> armed_;
  std::array<uint64_t, kNumFaultKinds> injected_{};
};

}  // namespace perennial::fault

#endif  // PERENNIAL_SRC_FAULT_FAULT_H_
