// The concurrent, crash-safe replicated disk (paper §1, §3, §5, Figure 1).
//
// Two physical disks behave as one logical disk that tolerates a single
// disk failure: writes go to both disks under a per-address lock, reads go
// to disk 1 and fail over to disk 2, and recovery copies disk 1 onto
// disk 2 to complete any write a crash interrupted (recovery helping).
//
// The Perennial disciplines appear as runtime capabilities:
//  * per-address recovery leases on d1[a] and d2[a], held by the lock and
//    verified on every write (§5.3);
//  * a helping token deposited while the two writes are in flight and
//    consumed by recovery when it completes the write (§5.4);
//  * the crash invariant "disks agree at every address unless a helping
//    token records the in-flight write" (§5.1), checkable at every step.
//
// Environment faults (src/fault): the disks are FaultyDisk instances, so a
// harness-attached FaultSchedule can strike any read or write with a
// transient kUnavailable error or a fail-slow delay. The library tolerates
// them by retrying with bounded backoff (fault/retry.h); only fail-stop
// kFailed — a genuinely dead disk — makes it give up on a device. The
// `no_retry` mutation re-creates the classic bug of treating a transient
// error as success: a dropped disk-1 write leaves the disks diverged with
// no helping token, which the checker catches.
#ifndef PERENNIAL_SRC_SYSTEMS_REPL_REPLICATED_DISK_H_
#define PERENNIAL_SRC_SYSTEMS_REPL_REPLICATED_DISK_H_

#include <cstdint>
#include <memory>
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

class ReplicatedDisk {
 public:
  // FaultPlan::target values for this system's two devices.
  static constexpr int kDisk1 = 1;
  static constexpr int kDisk2 = 2;

  // Mutations for the §9.5-style bug-finding evaluation: each re-creates a
  // defect the verification methodology must reject.
  struct Mutations {
    bool skip_locking = false;       // rd_write without the per-address lock
    bool skip_second_write = false;  // rd_write updates only disk 1
    bool recovery_zeroes = false;    // recovery "syncs" by zeroing both disks
    bool skip_recovery = false;      // recovery does nothing
    bool no_retry = false;           // transient I/O errors treated as success
  };

  ReplicatedDisk(goose::World* world, uint64_t num_blocks, Mutations mutations,
                 fault::FaultSchedule* faults = nullptr);
  ReplicatedDisk(goose::World* world, uint64_t num_blocks)
      : ReplicatedDisk(world, num_blocks, Mutations{}) {}

  uint64_t size() const { return d1_.size(); }

  // rd_read (Figure 4): returns the logical value at `a`; retries transient
  // errors and fails over to disk 2 when disk 1 has failed.
  proc::Task<uint64_t> Read(uint64_t a);

  // rd_write (Figure 4): durably stores v at `a` on both disks. `op_id`
  // identifies this operation instance for recovery helping.
  proc::Task<void> Write(uint64_t a, uint64_t v, uint64_t op_id);

  // rd_recover (Figure 5): copies disk 1 onto disk 2 and rebuilds volatile
  // state (locks, leases). `helped` is called with the op_id of any write
  // recovery completed on a crashed thread's behalf.
  proc::Task<void> Recover(std::function<void(uint64_t)> helped);

  // Fail-stop injection.
  void FailDisk1() { d1_.Fail(); }
  void FailDisk2() { d2_.Fail(); }

  // The crash invariant (§5.1): registered once, checked by the explorer.
  const cap::CrashInvariants& crash_invariants() const { return invariants_; }
  // Durable state the world does not fingerprint: the helping registry
  // survives crashes without being CrashAware.
  void MixSurvivingState(Hasher128* h) const { help_.MixState(h); }

  // Harness: logical durable value at `a` (disk 1 unless failed).
  uint64_t PeekLogical(uint64_t a) const;

 private:
  // Volatile per-address state: the lock and the leases it protects.
  // Rebuilt from durable state by Init/Recover (a crash destroys it).
  struct AddrState {
    std::unique_ptr<goose::Mutex> mu;
    cap::Lease lease1;
    cap::Lease lease2;
  };

  // (Re-)creates locks and issues fresh leases for every address.
  void InitVolatile();

  // Single disk operation with the library's retry policy (transient
  // kUnavailable errors are retried with bounded backoff; kFailed is final).
  // The no_retry mutation degrades both to a single attempt.
  proc::Task<Result<disk::Block>> RetryRead(fault::FaultyDisk& d, uint64_t a);
  proc::Task<Status> RetryWrite(fault::FaultyDisk& d, uint64_t a, disk::Block value);

  goose::World* world_;
  fault::FaultyDisk d1_;
  fault::FaultyDisk d2_;
  cap::LeaseRegistry leases_;
  cap::HelpRegistry help_;
  cap::CrashInvariants invariants_;
  Mutations mutations_;
  std::vector<AddrState> addrs_;
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_REPL_REPLICATED_DISK_H_
