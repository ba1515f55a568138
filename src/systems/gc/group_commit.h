// The group-commit pattern (§9.1, Table 3): buffered transactions with
// amortized durable commits, and a specification that says precisely when
// transactions may be lost.
//
// Writes append to an in-memory buffer and return immediately — fast, but
// a crash loses buffered transactions (the spec's crash transition permits
// keeping any prefix of the buffer). Flush() writes the buffered values to
// an on-disk log and commits them all with one atomic count-block write,
// amortizing the commit cost across the batch.
//
// Layout on one disk:
//   block 0              — count of committed log entries (the commit point)
//   blocks 1..capacity   — the value log
// The logical durable value is log[count] (0 when the count is 0).
#ifndef PERENNIAL_SRC_SYSTEMS_GC_GROUP_COMMIT_H_
#define PERENNIAL_SRC_SYSTEMS_GC_GROUP_COMMIT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cap/crash_invariant.h"
#include "src/cap/lease.h"
#include "src/disk/disk.h"
#include "src/goose/mutex.h"
#include "src/goose/world.h"
#include "src/proc/task.h"

namespace perennial::systems {

class GroupCommit : public goose::CrashAware {
 public:
  struct Mutations {
    bool commit_count_first = false;  // advance the count before writing values
  };

  GroupCommit(goose::World* world, uint64_t capacity, Mutations mutations);
  GroupCommit(goose::World* world, uint64_t capacity)
      : GroupCommit(world, capacity, Mutations{}) {}

  // Buffers v as the newest transaction; durable only after a Flush.
  proc::Task<void> Write(uint64_t v);

  // Returns the current logical value (buffered writes included).
  proc::Task<uint64_t> Read();

  // Durably commits every buffered transaction with one count write.
  proc::Task<void> Flush();

  // The buffer is volatile; recovery only rebuilds locks and leases.
  proc::Task<void> Recover();

  const cap::CrashInvariants& crash_invariants() const { return invariants_; }

  // Crash model: the buffered transactions are lost.
  void OnCrash() override { buffer_.clear(); }
  // The buffer is empty after a crash; the disk and the lease registry
  // register with the world themselves.
  void MixSurvivingState(Hasher128* h) const override {
    h->MixU64(buffer_.size());
    for (uint64_t v : buffer_) {
      h->MixU64(v);
    }
  }

  // Harness accessors.
  uint64_t PeekDurable() const;
  size_t BufferedForTesting() const { return buffer_.size(); }

 private:
  static constexpr uint64_t kCountBlock = 0;

  void InitVolatile();

  goose::World* world_;
  uint64_t capacity_;
  disk::Disk disk_;
  cap::LeaseRegistry leases_;
  cap::CrashInvariants invariants_;
  Mutations mutations_;
  std::unique_ptr<goose::Mutex> mu_;
  cap::Lease count_lease_;
  std::vector<uint64_t> buffer_;  // volatile (protected by mu_)
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_GC_GROUP_COMMIT_H_
