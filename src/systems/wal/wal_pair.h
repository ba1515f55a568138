// The write-ahead-logging crash-safety pattern (§9.1, Table 3): atomic
// update of a pair of disk blocks via a log, with recovery helping.
//
// Layout on one disk:
//   block 0     — commit flag (1: the log holds a committed, possibly
//                 unapplied transaction)
//   blocks 1,2  — log: the transaction's new pair
//   blocks 3,4  — data: the applied pair
//
// A write logs the new values, commits with one atomic flag write (the
// commit point — a helping token is deposited in the same step), applies
// the log to the data blocks, and clears the flag (withdrawing the token).
// Recovery replays a committed-but-unapplied transaction and *takes* the
// helping token: it completes the crashed operation on its thread's behalf,
// exactly the §5.4 pattern.
#ifndef PERENNIAL_SRC_SYSTEMS_WAL_WAL_PAIR_H_
#define PERENNIAL_SRC_SYSTEMS_WAL_WAL_PAIR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/cap/crash_invariant.h"
#include "src/cap/helping.h"
#include "src/cap/lease.h"
#include "src/disk/disk.h"
#include "src/goose/mutex.h"
#include "src/goose/world.h"
#include "src/proc/task.h"

namespace perennial::systems {

class WalPair {
 public:
  struct Mutations {
    bool apply_before_commit = false;  // update data blocks before the commit record
    bool skip_recovery = false;        // recovery does not replay the log
    bool recovery_discards_log = false;  // recovery clears the flag, claims help, applies nothing
  };

  WalPair(goose::World* world, Mutations mutations);
  explicit WalPair(goose::World* world) : WalPair(world, Mutations{}) {}

  proc::Task<void> WritePair(uint64_t x, uint64_t y, uint64_t op_id);
  proc::Task<std::pair<uint64_t, uint64_t>> ReadPair();

  // Replays any committed transaction, then rebuilds volatile state.
  // `helped` receives the op_id of a transaction recovery completed.
  proc::Task<void> Recover(std::function<void(uint64_t)> helped);

  const cap::CrashInvariants& crash_invariants() const { return invariants_; }
  // Durable state the world does not fingerprint: the helping registry
  // survives crashes without being CrashAware.
  void MixSurvivingState(Hasher128* h) const { help_.MixState(h); }

  std::pair<uint64_t, uint64_t> PeekData() const;

 private:
  static constexpr uint64_t kCommitBlock = 0;
  static constexpr uint64_t kLogBase = 1;
  static constexpr uint64_t kDataBase = 3;
  static constexpr const char* kTxnKey = "wal:txn";

  void InitVolatile();

  goose::World* world_;
  disk::Disk disk_;
  cap::LeaseRegistry leases_;
  cap::HelpRegistry help_;
  cap::CrashInvariants invariants_;
  Mutations mutations_;
  std::unique_ptr<goose::Mutex> mu_;
  cap::Lease block_leases_[5];
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_WAL_WAL_PAIR_H_
