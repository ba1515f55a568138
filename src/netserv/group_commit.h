// Group commit: coalesce the fsyncs of many concurrent sessions into one
// batch barrier.
//
// Mailboat's Deliver costs ~4 durability points (spool-file data, spool-dir
// entry, mailbox-dir entry, spool-dir removal). Served naively, each session
// pays each one at full device latency. GroupCommitter implements the
// goosefs::Fsyncer seam: callers enqueue their fd and block; a committer
// thread closes the batch after a bounded latency window (or a batch-size
// cap, whichever first) and issues ONE barrier for everyone — then wakes the
// whole batch. Per-message fsync cost drops to O(1/batch) while every
// acknowledgment still happens strictly after its durability point, so the
// acked ⇒ durable contract the crash harness checks is unchanged.
//
// A batch is not held open for company that costs more than it saves. The
// committer times every barrier and keeps a running average,
// avg = (sample + 3·avg)/4 (jbd2's average commit time), seeded with
// max_wait_us. While the average barrier costs less than one quiet slice
// (tmpfs, cache-absorbed flushes: well under a microsecond), the committer
// closes each batch as soon as it picks it up: the shortest wait that could
// gather company would cost more than a barrier of the batch's own. Where a
// barrier costs a quiet slice or more (real media), the batching policy is
// the window plus the quiet close, unchanged.
//
// Two barrier flavors:
//  * kSyncfs (default): one syncfs() on the store's filesystem persists all
//    dirty state — files and directory entries — in a single device barrier.
//    Strictly stronger than the per-fd fsyncs it replaces.
//  * kFsyncPerFd: fsync each *unique* fd in the batch (duplicates deduped,
//    counted in stats().deduped). Deterministic per-fd accounting for tests,
//    and the honest comparison point on filesystems without syncfs.
//
// The committer never reorders acks before barriers: Fsync() returns only
// after the barrier covering the call has completed (or failed, in which
// case the error is reported to every waiter in the batch).
//
// Failed barriers are STICKY. On Linux, a failed fsync drops the dirty
// pages it could not write — a later fsync of the same fd can return
// success without the data ever reaching media. So when a barrier fails:
//  * every waiter in the closed batch gets the error (as before);
//  * every waiter in the still-open batch gets the error too — under
//    kSyncfs their dirty pages were part of the same failed writeback, so
//    a fresh barrier "succeeding" for them would prove nothing;
//  * every file fd that was dirty at the time (tracked via OnDirty from
//    PosixFilesys::Append) is poisoned: subsequent Fsync() calls on it
//    fail immediately until the fd is closed (OnClose). The only honest
//    path back to durable is reopen-and-rewrite — which Mailboat's
//    tempfail + client retry does naturally with a fresh spool file.
// Directory fds are not poisoned: a tempfailing session compensates with
// unlinks, which re-dirty the directory, so its next fsync is genuine.
#ifndef PERENNIAL_SRC_NETSERV_GROUP_COMMIT_H_
#define PERENNIAL_SRC_NETSERV_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/fault/syscall_fault.h"
#include "src/goosefs/posix_fs.h"

namespace perennial::netserv {

class GroupCommitter : public goosefs::Fsyncer {
 public:
  enum class Barrier {
    kSyncfs,
    kFsyncPerFd,
  };

  struct Options {
    // Latency window: how long the committer holds a batch open after it
    // picks it up, hoping for company. Bounded so a lone request is never
    // stuck behind an idle server. Held only while the average barrier
    // costs at least a quiet slice; on cheaper storage batches close at
    // once. The average starts at max_wait_us, so the first batch always
    // holds the window.
    uint64_t max_wait_us = 500;
    // Adaptive early close (jbd2-style): if no new request joins the batch
    // for this long, everyone who was going to arrive has arrived — commit
    // now instead of sleeping out the rest of the window. Set equal to
    // max_wait_us to hold the whole window whenever the committer waits.
    // Also the threshold below which a barrier counts as cheap and the
    // committer does not wait at all (see above).
    uint64_t quiet_us = 50;
    // Close the batch early once this many requests have queued.
    uint64_t max_batch = 64;
    Barrier barrier = Barrier::kSyncfs;
    // Any fd on the store's filesystem (e.g. a directory fd of the mail
    // root); required for kSyncfs, ignored for kFsyncPerFd. Not owned.
    int syncfs_fd = -1;
    // Syscall table for the barrier syscalls (fsync/syncfs); defaults to
    // the raw syscalls. Tests pass a fault::FaultInjectingSyscalls to make
    // barriers fail. Not owned.
    fault::FsSyscalls* sys = nullptr;
  };

  struct Stats {
    std::atomic<uint64_t> requests{0};       // Fsync() calls served by batches
    std::atomic<uint64_t> batches{0};        // barriers issued
    std::atomic<uint64_t> fsyncs_issued{0};  // actual syncfs/fsync syscalls
    std::atomic<uint64_t> deduped{0};        // requests absorbed by fd dedup
    std::atomic<uint64_t> failed_batches{0};  // barriers that returned an error
    std::atomic<uint64_t> poisoned_fails{0};  // Fsync() rejections on poisoned fds
    std::atomic<uint64_t> barrier_ns{0};      // wall time spent in barriers
  };

  explicit GroupCommitter(Options options);
  ~GroupCommitter() override;

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  void Start();
  // Drains the open batch, then joins the committer. After Stop, Fsync()
  // falls back to a direct fsync (teardown paths still get durability).
  void Stop();

  // Blocks until a barrier covering this request has completed. Thread-safe.
  // Fails immediately (no barrier) if `fd` was poisoned by an earlier
  // failed barrier; the caller must close and reopen to try again.
  Status Fsync(int fd) override;
  // PosixFilesys lifecycle hints: OnDirty marks `fd` as carrying unsynced
  // file data (poisoning candidate); OnClose clears both the dirty mark
  // and any poison (a fresh open of the same file starts clean).
  void OnDirty(int fd) override;
  void OnClose(int fd) override;

  const Stats& stats() const { return stats_; }

 private:
  struct Batch {
    std::vector<int> fds;
    bool committed = false;
    Status status;
    std::condition_variable done_cv;
  };

  void CommitterMain();
  Status IssueBarrier(std::vector<int> fds);
  Status FsyncDirect(int fd);
  fault::FsSyscalls& Sys() const {
    return options_.sys != nullptr ? *options_.sys : *fault::RealFsSyscalls();
  }

  Options options_;
  Stats stats_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // committer: "a batch opened / stop"
  std::shared_ptr<Batch> open_;      // batch accepting requests, or null
  bool running_ = false;
  bool stop_ = false;
  // Sticky-failure tracking (see the header comment): file fds with
  // unsynced appends, each with the close epoch current when it was last
  // dirtied, and fds whose dirty pages a failed barrier dropped. A batch
  // closing at epoch e covers only the marks with epoch <= e; an fd dirtied
  // while that barrier is in flight keeps its mark.
  std::unordered_map<int, uint64_t> dirty_;
  uint64_t close_epoch_ = 0;  // batches closed so far
  std::unordered_set<int> poisoned_;
  std::thread committer_;
};

}  // namespace perennial::netserv

#endif  // PERENNIAL_SRC_NETSERV_GROUP_COMMIT_H_
