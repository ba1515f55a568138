// Block-device models: the "single-disk" and "two-disk" semantics the
// paper's crash-safety pattern examples are verified against (§9.1,
// Table 3).
//
// A disk is durable: blocks survive crashes. Each block read/write is one
// atomic step (standard disk model; real disks write sectors atomically).
// The two-disk configuration supports fail-stop injection — after Fail(),
// reads return a failure and writes are ignored, which is exactly the
// behavior the replicated-disk library must tolerate (Figure 1).
#ifndef PERENNIAL_SRC_DISK_DISK_H_
#define PERENNIAL_SRC_DISK_DISK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/disk/blockdev.h"
#include "src/goose/world.h"
#include "src/proc/footprint.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"

namespace perennial::disk {

// Convenience: a block holding a little-endian uint64 (checker workloads).
Block BlockOfU64(uint64_t value);
uint64_t U64OfBlock(const Block& b);

class Disk : public BlockDev, public goose::CrashAware {
 public:
  // All blocks start as `initial` (conventionally zeroes).
  Disk(goose::World* world, uint64_t num_blocks, Block initial);

  uint64_t size() const override { return blocks_.size(); }

  // Reads block `a`. kFailed if the disk has failed; kInvalid out of range.
  proc::Task<Result<Block>> Read(uint64_t a) override;

  // Writes block `a`. A failed disk ignores the write and reports kFailed
  // so callers can tell an absorbed write from a durable one; out-of-range
  // is kInvalid.
  proc::Task<Status> Write(uint64_t a, Block value) override;

  // The base disk is synchronously durable (every write survives a crash),
  // so a barrier is a pure step. FaultyDisk overrides this with real
  // deferred-durability semantics.
  proc::Task<Status> Barrier() override;

  // Fail-stop injection (harness / explorer): from now on reads fail.
  // Failure flips invariant-visible state (crash invariants consult
  // failed()), so it conflicts with every other invariant-visible step.
  void Fail() {
    proc::RecordAccess(MetaRes(), /*write=*/true);
    proc::RecordAccess(proc::MixResource(proc::kResInvariant, 0), /*write=*/true);
    failed_ = true;
  }
  bool failed() const { return failed_; }

  // Durability: contents survive a crash; a failed disk stays failed.
  void OnCrash() override {}
  void MixSurvivingState(Hasher128* h) const override;

  // Harness-only accessors.
  const Block& PeekBlock(uint64_t a) const override;
  void PokeBlock(uint64_t a, Block value) override;

 private:
  uint64_t MetaRes() const { return proc::MixResource(proc::kResDiskMeta, base_); }
  uint64_t SectorRes(uint64_t a) const { return proc::MixResource(proc::kResDiskSector, base_, a); }

  uint64_t base_;  // world-unique id distinguishing this disk's resources
  std::vector<Block> blocks_;
  bool failed_ = false;
};

// The two-disk configuration of Figure 1: physical disks d1 and d2 of equal
// size. At most one disk may be failed at a time in the modeled workloads
// (the library tolerates a single disk failure).
struct TwoDisks {
  TwoDisks(goose::World* world, uint64_t num_blocks, Block initial)
      : d1(world, num_blocks, initial), d2(world, num_blocks, initial) {}

  Disk d1;
  Disk d2;
};

}  // namespace perennial::disk

#endif  // PERENNIAL_SRC_DISK_DISK_H_
