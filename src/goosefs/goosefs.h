// The modeled Goose file system (§6.2), with the paper's crash model.
//
// State is split by durability:
//  * Durable: directories (name → inode), inode contents, link counts.
//  * Volatile: open file descriptors.
// On crash, fds are lost (they are stamped with the crash generation and
// cleared), file data persists, and inodes with zero links and no open fd
// are reclaimed — which is why Mailboat's recovery only has to unlink spool
// files, never "half-written" anonymous data.
//
// Every operation is atomic with respect to other threads (one scheduling
// point, then the whole effect), matching the paper's semantics of the
// POSIX calls it models.
#ifndef PERENNIAL_SRC_GOOSEFS_GOOSEFS_H_
#define PERENNIAL_SRC_GOOSEFS_GOOSEFS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/goose/world.h"
#include "src/goosefs/filesys.h"
#include "src/proc/scheduler.h"

namespace perennial::goosefs {

class GooseFs : public Filesys, public goose::CrashAware {
 public:
  struct Options {
    // Deferred durability (the paper's named future-work extension): file
    // DATA is buffered in memory until Sync(fd); a crash truncates each
    // file to its last-synced length. Metadata (create/link/delete) stays
    // synchronous, like a journaled file system with delayed allocation.
    bool deferred_durability = false;
    // Environment faults. With deferred durability, an armed kUnsyncedTail
    // fault makes a crash keep part of the unsynced tail of one file — the
    // page cache flushed more than Sync() promised. Sound recovery code may
    // rely on the synced prefix surviving but never on the tail being gone.
    fault::FaultSchedule* faults = nullptr;
    // Record every operation as footprint-opaque instead of with precise
    // per-inode/per-entry access records (the pre-PR-4 behavior). Opaque
    // steps conflict with everything, so this only disables DPOR pruning
    // around file-system steps — it never changes verdicts. Kept as a
    // soundness control: equivalence tests diff precise-vs-opaque runs.
    bool opaque_footprints = false;
  };

  // The directory layout is fixed at construction (§6.2: directories cannot
  // be created or renamed).
  GooseFs(goose::World* world, std::vector<std::string> dirs, Options options);
  GooseFs(goose::World* world, std::vector<std::string> dirs)
      : GooseFs(world, std::move(dirs), Options{}) {}

  proc::Task<Result<Fd>> Create(const std::string& dir, const std::string& name) override;
  proc::Task<Result<Fd>> Open(const std::string& dir, const std::string& name) override;
  proc::Task<Status> Append(Fd fd, const Bytes& data) override;
  proc::Task<Result<Bytes>> ReadAt(Fd fd, uint64_t off, uint64_t count) override;
  proc::Task<Status> Sync(Fd fd) override;
  proc::Task<Status> Close(Fd fd) override;
  proc::Task<Result<std::vector<std::string>>> List(const std::string& dir) override;
  proc::Task<Result<bool>> Link(const std::string& src_dir, const std::string& src_name,
                        const std::string& dst_dir, const std::string& dst_name) override;
  proc::Task<Status> Delete(const std::string& dir, const std::string& name) override;

  // Crash model: fds lost, data durable, orphaned inodes reclaimed.
  void OnCrash() override;
  // The directory trees and the contents they name. Inodes are numbered in
  // walk order (first name reached), so two states that differ only in
  // inode numbers mix equal while hard links stay visible; the inode and fd
  // counters are left out (world.h).
  void MixSurvivingState(Hasher128* h) const override;

  // --- Harness-only observation (for invariants and tests) ---

  // Names present in `dir`, sorted. Panics on unknown dir.
  std::vector<std::string> PeekNames(const std::string& dir) const;
  // Contents of (dir, name) or nullopt when absent.
  std::optional<Bytes> PeekFile(const std::string& dir, const std::string& name) const;
  // The durable prefix only (what a crash would preserve).
  std::optional<Bytes> PeekDurableFile(const std::string& dir, const std::string& name) const;
  size_t OpenFdCountForTesting() const { return fds_.size(); }
  size_t InodeCountForTesting() const { return inodes_.size(); }

 private:
  enum class Mode { kRead, kAppend };

  struct Inode {
    Bytes data;
    uint64_t synced_len = 0;  // prefix guaranteed durable (== size unless deferred)
    uint64_t nlink = 0;
    uint64_t open_fds = 0;
  };
  struct FdState {
    uint64_t ino = 0;
    Mode mode = Mode::kRead;
  };

  // Looks up an fd, raising UB for stale/bad descriptors (a crashed fd or a
  // double close is a program bug, not an environment condition).
  FdState& ResolveFd(Fd fd, const char* op);
  void MaybeReclaim(uint64_t ino);

  // --- DPOR access records (src/proc/footprint.h; see DESIGN.md §10) ---
  // Each op announces the resources it may touch; failure paths record the
  // success-path superset, which only adds conflicts (sound, pessimal).
  // With options_.opaque_footprints the op is marked opaque instead and the
  // Rec() calls become no-ops.
  void BeginOpFootprint() const;
  void Rec(uint64_t resource, bool write) const;
  uint64_t AllocRes() const;
  uint64_t DirRes(const std::string& dir) const;
  uint64_t EntryRes(const std::string& dir, const std::string& name) const;
  uint64_t InodeRes(uint64_t ino) const;
  uint64_t TailRes(uint64_t ino) const;
  uint64_t FdRes(Fd fd) const;

  goose::World* world_;
  Options options_;
  uint64_t res_seed_ = 0;  // per-instance footprint namespace
  std::map<std::string, std::map<std::string, uint64_t>> dirs_;
  std::map<uint64_t, Inode> inodes_;
  std::map<Fd, FdState> fds_;
  uint64_t next_ino_ = 1;
  Fd next_fd_ = 1;
};

}  // namespace perennial::goosefs

#endif  // PERENNIAL_SRC_GOOSEFS_GOOSEFS_H_
