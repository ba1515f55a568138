// DurableKv: a concurrent, crash-safe key-value store with multi-key
// transactions — the kind of system a downstream user would build on this
// framework (and an instance of the paper's future-work direction of
// stacking systems on the verified substrate).
//
// Design: per-key reader-writer locks (Gets share; Puts exclude), plus a
// single-slot write-ahead log for atomicity:
//   Put(k, v)            — lock k; log (k,v); commit; apply; clear.
//   PutPair(k1,v1,k2,v2) — lock both keys in ascending order (deadlock
//                          avoidance the checker can falsify!), log both
//                          entries, one commit write covers the pair.
//   Get(k)               — lock k; read the data block.
// The commit write deposits a helping token; recovery replays a committed
// transaction and consumes the token (§5.4). Every block is covered by a
// recovery lease (§5.3); "count ∈ {0,1,2} and count>0 ⟺ token present" is
// the crash invariant (§5.1).
//
// Disk layout: block 0 = committed-entry count (the commit point);
// blocks 1,2 = log entries (key, value); blocks 3..3+N = data.
#ifndef PERENNIAL_SRC_SYSTEMS_KVS_KV_STORE_H_
#define PERENNIAL_SRC_SYSTEMS_KVS_KV_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cap/crash_invariant.h"
#include "src/cap/helping.h"
#include "src/cap/lease.h"
#include "src/disk/disk.h"
#include "src/goose/mutex.h"
#include "src/goose/sync_extra.h"
#include "src/goose/world.h"
#include "src/proc/task.h"

namespace perennial::systems {

// (key, value) encoded into one 16-byte disk block.
disk::Block EncodeKvEntry(uint64_t key, uint64_t value);
void DecodeKvEntry(const disk::Block& block, uint64_t* key, uint64_t* value);

class DurableKv {
 public:
  struct Mutations {
    bool unordered_locks = false;      // PutPair takes locks in caller order: deadlock
    bool apply_before_commit = false;  // data first, commit second: torn transactions
    bool skip_recovery = false;        // committed-but-unapplied txns never replayed
  };

  DurableKv(goose::World* world, uint64_t num_keys, Mutations mutations);
  DurableKv(goose::World* world, uint64_t num_keys) : DurableKv(world, num_keys, Mutations{}) {}

  uint64_t num_keys() const { return num_keys_; }

  proc::Task<uint64_t> Get(uint64_t key);
  proc::Task<void> Put(uint64_t key, uint64_t value, uint64_t op_id);
  // Atomically sets two distinct keys (k1 != k2; equal keys are the
  // caller's bug and undefined).
  proc::Task<void> PutPair(uint64_t k1, uint64_t v1, uint64_t k2, uint64_t v2, uint64_t op_id);

  // Replays any committed transaction, rebuilds volatile state.
  proc::Task<void> Recover(std::function<void(uint64_t)> helped);

  const cap::CrashInvariants& crash_invariants() const { return invariants_; }
  // Durable state the world does not fingerprint: the helping registry
  // survives crashes without being CrashAware.
  void MixSurvivingState(Hasher128* h) const { help_.MixState(h); }

  // Harness: durable value of `key`.
  uint64_t PeekValue(uint64_t key) const;

 private:
  static constexpr uint64_t kCountBlock = 0;
  static constexpr uint64_t kLogBase = 1;
  static constexpr uint64_t kDataBase = 3;
  static constexpr const char* kTxnKey = "kv:txn";

  void InitVolatile();
  // The shared commit path: callers hold the key locks involved.
  proc::Task<void> CommitAndApply(const std::vector<std::pair<uint64_t, uint64_t>>& writes,
                                  uint64_t op_id);

  goose::World* world_;
  uint64_t num_keys_;
  disk::Disk disk_;
  cap::LeaseRegistry leases_;
  cap::HelpRegistry help_;
  cap::CrashInvariants invariants_;
  Mutations mutations_;
  std::vector<std::unique_ptr<goose::RWMutex>> key_locks_;
  std::unique_ptr<goose::Mutex> log_lock_;
  std::vector<cap::Lease> data_leases_;
  cap::Lease log_leases_[3];  // count + two entry slots
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_KVS_KV_STORE_H_
