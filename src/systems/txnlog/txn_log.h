// TxnLog: a general write-ahead log engine — the production-shaped
// generalization of the fixed-size wal_pair example.
//
// One disk holds three regions:
//   block 0                      — header: (committed, applied) record
//                                  counts, updated with ONE atomic write
//   blocks 1..capacity           — the record log: (addr, value) entries
//   blocks 1+capacity..          — the data region (one block per address)
//
// Operations:
//   CommitBatch(records) — append the records and advance `committed` with
//     a single header write: the batch's linearization point. The batch is
//     durable from that instant even though the data region is stale.
//   Read(addr) — log-structured read: the newest committed record for
//     `addr`, falling back to the data region.
//   Checkpoint() — apply committed records to the data region, then
//     truncate the log with one header write (committed = applied = 0).
//   Recover() — reconcile after a crash: replay committed-but-unapplied
//     records into the data region (consuming the helping token the commit
//     deposited), truncate, rebuild volatile state.
//
// Capability discipline: leases on the header and every block; a crash
// invariant ties the header to the helping token:
//   applied <= committed <= capacity, and committed > applied ⟺ a pending
//   batch token is present.
//
// Environment-fault discipline (src/fault): the header occupies a single
// atomic sector (FaultPlan::torn_min_block = 1 in the harness), but record
// and data blocks are multi-sector and can be torn. The engine therefore
// issues a write Barrier() between payload writes and the single header
// write that publishes them — commit: records, barrier, header; checkpoint:
// data, barrier, truncate. Transient read/write errors are retried with
// bounded backoff. The `no_write_barrier` mutation re-creates the
// missing-flush bug.
#ifndef PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_LOG_H_
#define PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/cap/crash_invariant.h"
#include "src/cap/helping.h"
#include "src/cap/lease.h"
#include "src/disk/disk.h"
#include "src/fault/fault.h"
#include "src/fault/faulty_disk.h"
#include "src/goose/mutex.h"
#include "src/goose/world.h"
#include "src/proc/task.h"

namespace perennial::systems {

class TxnLog {
 public:
  struct Mutations {
    bool header_before_records = false;  // commit header precedes record writes
    bool truncate_before_apply = false;  // checkpoint truncates first, applies after
    // Skip the write barrier between payload writes and the header write
    // that publishes them. Harmless on an atomic disk; under torn-write
    // faults a crash can then commit a half-persisted record (or truncate
    // the log while the data region is half-applied) — the classic
    // missing-flush bug the checker must catch.
    bool no_write_barrier = false;
  };

  // `num_addrs` data addresses; at most `log_capacity` records may be
  // committed-but-uncheckpointed at once. `faults`, when set, subjects the
  // log device to the schedule's transient/torn/fail-slow faults.
  TxnLog(goose::World* world, uint64_t num_addrs, uint64_t log_capacity, Mutations mutations,
         fault::FaultSchedule* faults = nullptr);
  TxnLog(goose::World* world, uint64_t num_addrs, uint64_t log_capacity)
      : TxnLog(world, num_addrs, log_capacity, Mutations{}) {}

  // External-device constructor: run the engine over any BlockDev — in
  // particular disk::PosixDisk, real storage under the cross-process crash
  // harness (src/crashreal). The device must already be formatted (block 0
  // a valid header); unlike the modeled constructor this never writes, so
  // it is safe to construct over a device holding recovered on-disk state.
  // The caller keeps ownership of `dev`, which must outlive the log.
  TxnLog(goose::World* world, disk::BlockDev* dev, uint64_t num_addrs, uint64_t log_capacity,
         Mutations mutations);

  uint64_t num_addrs() const { return num_addrs_; }

  // Atomically and durably applies all `records` (addr, value). Returns
  // only after the commit point. Fails the process if the log is full and
  // checkpointing cannot free enough space.
  proc::Task<void> CommitBatch(std::vector<std::pair<uint64_t, uint64_t>> records,
                               uint64_t op_id);

  // The current committed value of `addr`.
  proc::Task<uint64_t> Read(uint64_t addr);

  // Applies the log to the data region and truncates it.
  proc::Task<void> Checkpoint();

  proc::Task<void> Recover(std::function<void(uint64_t)> helped);

  const cap::CrashInvariants& crash_invariants() const { return invariants_; }
  // Durable state the world does not fingerprint: the helping registry
  // survives crashes without being CrashAware.
  void MixSurvivingState(Hasher128* h) const { help_.MixState(h); }

  // Harness: committed value as recoverable from disk (log + data region).
  uint64_t PeekCommitted(uint64_t addr) const;
  std::pair<uint64_t, uint64_t> PeekHeaderForTesting() const;

 private:
  static constexpr uint64_t kHeaderBlock = 0;
  static constexpr uint64_t kLogBase = 1;
  static constexpr const char* kBatchKey = "txnlog:batch";

  uint64_t DataBlock(uint64_t addr) const { return kLogBase + log_capacity_ + addr; }
  void InitVolatile();
  void RegisterInvariants();
  // Applies records [applied, committed) to the data region and truncates.
  // Caller holds the lock.
  proc::Task<void> ApplyAndTruncate();
  // Disk I/O with the library's retry policy: transient kUnavailable errors
  // are retried with bounded backoff (fault/retry.h); anything else is a
  // bug in this engine's workloads and panics at the existing call sites.
  proc::Task<disk::Block> ReadRetry(uint64_t a);
  proc::Task<void> WriteRetry(uint64_t a, disk::Block value);

  goose::World* world_;
  uint64_t num_addrs_;
  uint64_t log_capacity_;
  // The modeled configuration owns a FaultyDisk; the external-device
  // configuration borrows the caller's BlockDev. All engine I/O goes
  // through dev_, which aliases owned_disk_ when the latter is set.
  std::unique_ptr<fault::FaultyDisk> owned_disk_;
  disk::BlockDev* dev_;
  cap::LeaseRegistry leases_;
  cap::HelpRegistry help_;
  cap::CrashInvariants invariants_;
  Mutations mutations_;
  std::unique_ptr<goose::Mutex> mu_;
  std::vector<cap::Lease> block_leases_;
};

// Header codec: (committed, applied) in one 16-byte block.
disk::Block EncodeTxnHeader(uint64_t committed, uint64_t applied);
void DecodeTxnHeader(const disk::Block& block, uint64_t* committed, uint64_t* applied);

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_LOG_H_
