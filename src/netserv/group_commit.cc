#include "src/netserv/group_commit.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/base/panic.h"

namespace perennial::netserv {

namespace {

template <typename Fn>
int RetryEintr(Fn&& fn) {
  int rc;
  do {
    rc = fn();
  } while (rc < 0 && errno == EINTR);
  return rc;
}

}  // namespace

Status GroupCommitter::FsyncDirect(int fd) {
  if (RetryEintr([&] { return Sys().Fsync(fd); }) != 0) {
    return Status::Failed(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::Ok();
}

GroupCommitter::GroupCommitter(Options options) : options_(options) {
  if (options_.barrier == Barrier::kSyncfs) {
    PCC_ENSURE(options_.syncfs_fd >= 0, "GroupCommitter: kSyncfs needs syncfs_fd");
  }
}

GroupCommitter::~GroupCommitter() { Stop(); }

void GroupCommitter::Start() {
  std::scoped_lock lock(mu_);
  PCC_ENSURE(!running_, "GroupCommitter: started twice");
  running_ = true;
  stop_ = false;
  committer_ = std::thread([this] { CommitterMain(); });
}

void GroupCommitter::Stop() {
  {
    std::scoped_lock lock(mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
  }
  work_cv_.notify_all();
  committer_.join();
  std::scoped_lock lock(mu_);
  running_ = false;
}

void GroupCommitter::OnDirty(int fd) {
  std::scoped_lock lock(mu_);
  dirty_[fd] = close_epoch_;
}

void GroupCommitter::OnClose(int fd) {
  std::scoped_lock lock(mu_);
  dirty_.erase(fd);
  poisoned_.erase(fd);
}

Status GroupCommitter::Fsync(int fd) {
  std::unique_lock<std::mutex> lock(mu_);
  if (poisoned_.count(fd) != 0) {
    // A failed barrier dropped this fd's dirty pages; a new barrier
    // "succeeding" now would ack data that never reached media. Fail until
    // the fd is closed and the file rewritten through a fresh one.
    stats_.poisoned_fails.fetch_add(1, std::memory_order_relaxed);
    return Status::Failed("fsync: fd poisoned by an earlier failed barrier");
  }
  if (!running_ || stop_) {
    lock.unlock();
    return FsyncDirect(fd);
  }
  if (open_ == nullptr) {
    open_ = std::make_shared<Batch>();
    work_cv_.notify_one();
  }
  std::shared_ptr<Batch> batch = open_;
  batch->fds.push_back(fd);
  if (batch->fds.size() >= options_.max_batch) {
    work_cv_.notify_one();
  }
  batch->done_cv.wait(lock, [&] { return batch->committed; });
  return batch->status;
}

void GroupCommitter::CommitterMain() {
  using Clock = std::chrono::steady_clock;
  const auto max_wait = std::chrono::nanoseconds(options_.max_wait_us * 1000);
  const auto quiet = std::min(std::chrono::nanoseconds(options_.quiet_us * 1000), max_wait);
  // Running average barrier time, avg = (sample + 3·avg)/4 as jbd2 keeps
  // its average commit time. Seeded with the window, so the first batch
  // waits exactly as it would without the average.
  auto avg_barrier = max_wait;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || open_ != nullptr; });
    if (open_ == nullptr) {
      // stop with no pending work
      return;
    }
    // Hold the batch open for the latency window (or until it fills), but
    // close early once arrivals go quiet: sessions blocked on THIS barrier
    // cannot submit again until it commits, so a quiet period means the
    // stragglers we are waiting for do not exist and the rest of the window
    // would be pure idle time. A barrier that costs less than one quiet
    // slice is not worth waiting for at all: the shortest wait that could
    // gather company costs more than a barrier of the batch's own, so the
    // batch closes as soon as the committer picks it up.
    if (avg_barrier >= quiet) {
      const auto deadline = Clock::now() + max_wait;
      for (;;) {
        size_t before = open_->fds.size();
        if (before >= options_.max_batch || stop_) {
          break;
        }
        auto slice = Clock::now() + quiet;
        bool closed = work_cv_.wait_until(lock, std::min(slice, deadline), [&] {
          return stop_ || open_->fds.size() >= options_.max_batch;
        });
        if (closed || Clock::now() >= deadline) {
          break;
        }
        if (open_->fds.size() == before) {
          break;  // a full quiet slice with no arrivals: commit now
        }
      }
    }
    std::shared_ptr<Batch> batch = std::move(open_);
    open_ = nullptr;
    const uint64_t covered = close_epoch_++;  // dirty marks up to here predate the close
    std::vector<int> fds = batch->fds;  // fds stay open: every owner is blocked in Fsync()
    lock.unlock();

    const auto t0 = Clock::now();
    Status s = IssueBarrier(std::move(fds));
    const auto took = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
    avg_barrier = (took + 3 * avg_barrier) / 4;
    stats_.barrier_ns.fetch_add(static_cast<uint64_t>(took.count()), std::memory_order_relaxed);

    lock.lock();
    stats_.requests.fetch_add(batch->fds.size(), std::memory_order_relaxed);
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      // The barrier covered everything dirty at close time. Under kSyncfs
      // it covered every dirty fd on the filesystem; under kFsyncPerFd,
      // exactly the batch's fds. Marks set while it was in flight stay.
      if (options_.barrier == Barrier::kSyncfs) {
        std::erase_if(dirty_, [&](const auto& mark) { return mark.second <= covered; });
      } else {
        for (int fd : batch->fds) {
          auto it = dirty_.find(fd);
          if (it != dirty_.end() && it->second <= covered) {
            dirty_.erase(it);
          }
        }
      }
    } else {
      stats_.failed_batches.fetch_add(1, std::memory_order_relaxed);
      // Sticky failure: the kernel dropped the dirty pages it could not
      // write. Poison every fd that had unsynced file data — including
      // fds whose owners are still buffering in the open batch — and fail
      // the open batch's waiters outright rather than issuing them a
      // trivially-"successful" barrier over already-dropped pages.
      for (const auto& mark : dirty_) {
        poisoned_.insert(mark.first);
      }
      dirty_.clear();
      if (open_ != nullptr) {
        std::shared_ptr<Batch> doomed = std::move(open_);
        open_ = nullptr;
        stats_.requests.fetch_add(doomed->fds.size(), std::memory_order_relaxed);
        doomed->status = Status::Failed("group commit: preceding barrier failed (" +
                                        s.ToString() + ")");
        doomed->committed = true;
        doomed->done_cv.notify_all();
      }
    }
    batch->status = s;
    batch->committed = true;
    batch->done_cv.notify_all();
    if (stop_ && open_ == nullptr) {
      return;
    }
  }
}

Status GroupCommitter::IssueBarrier(std::vector<int> fds) {
  uint64_t total = fds.size();
  std::sort(fds.begin(), fds.end());
  fds.erase(std::unique(fds.begin(), fds.end()), fds.end());
  stats_.deduped.fetch_add(total - fds.size(), std::memory_order_relaxed);

  if (options_.barrier == Barrier::kSyncfs) {
    stats_.fsyncs_issued.fetch_add(1, std::memory_order_relaxed);
    if (RetryEintr([&] { return Sys().Syncfs(options_.syncfs_fd); }) == 0) {
      return Status::Ok();
    }
    // syncfs failed (exotic, but possible): fall back to per-fd fsync so
    // waiters still get a truthful answer. A failure here is still sticky
    // for everything that was dirty — CommitterMain poisons on error.
  }
  Status result = Status::Ok();
  for (int fd : fds) {
    stats_.fsyncs_issued.fetch_add(1, std::memory_order_relaxed);
    Status s = FsyncDirect(fd);
    if (!s.ok() && result.ok()) {
      result = s;
    }
  }
  return result;
}

}  // namespace perennial::netserv
