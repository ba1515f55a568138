// Span recording for the traced benchmark run, and timing decorators for
// the four public seams of the mail stack: mailboat::MailApi,
// goosefs::Filesys, goosefs::Fsyncer and fault::FsSyscalls.
//
// Each decorated call opens a span on a thread-local stack; the span's
// parent is whatever span is open below it on the same thread. When the
// span closes it is folded into per-thread totals for its name: call
// count, total duration, and self time (duration minus the durations of
// its children). Totals live in per-thread memory and are summed only when
// a snapshot is taken, so recording never takes a lock.
//
// Nesting is exact on the production stack because sessions run their
// coroutines synchronously on executor threads (proc::RunSync): a call
// that blocks (a user lock, a commit barrier) blocks its OS thread, so
// spans on one thread always close in LIFO order. Work done on another
// thread (the group committer's barrier syscalls) is recorded as a root
// span on that thread.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/syscall_fault.h"
#include "src/goosefs/filesys.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/mail_api.h"
#include "src/mailboat/mailboat.h"

namespace perfbench {

enum SpanId : int {
  // mailboat::MailApi
  kMailDeliver,
  kMailPickup,
  kMailDelete,
  kMailUnlock,
  // goosefs::Filesys
  kFsCreate,
  kFsOpen,
  kFsAppend,
  kFsReadAt,
  kFsSync,
  kFsClose,
  kFsList,
  kFsLink,
  kFsDelete,
  // goosefs::Fsyncer (the group committer as PosixFilesys sees it)
  kFsyncerFsync,
  // fault::FsSyscalls (the kernel boundary)
  kSysOpenat,
  kSysWrite,
  kSysPread,
  kSysFsync,
  kSysSyncfs,
  kSysLinkat,
  kSysUnlinkat,
  kNumSpans,
};

const char* SpanName(int id);

struct SpanTotals {
  std::array<uint64_t, kNumSpans> count{};
  std::array<uint64_t, kNumSpans> total_ns{};
  std::array<uint64_t, kNumSpans> self_ns{};

  // this - before, field by field.
  SpanTotals Minus(const SpanTotals& before) const;
  // Sums over the ids in [first, last].
  uint64_t TotalNs(int first, int last) const;
  uint64_t SelfNs(int first, int last) const;
};

// Sums the totals of every thread that has recorded a span so far.
SpanTotals SnapshotSpans();

class ScopedSpan {
 public:
  explicit ScopedSpan(int id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

class TracedMailApi : public perennial::mailboat::MailApi {
 public:
  explicit TracedMailApi(perennial::mailboat::MailApi* inner) : inner_(inner) {}

  perennial::proc::Task<perennial::Result<std::vector<perennial::mailboat::Message>>> Pickup(
      uint64_t user) override;
  perennial::proc::Task<perennial::Result<std::string>> Deliver(
      uint64_t user, const perennial::goosefs::Bytes& msg) override;
  perennial::proc::Task<perennial::Result<std::string>> DeliverChunked(
      uint64_t user, uint64_t len, perennial::mailboat::ChunkReader read_chunk) override;
  perennial::proc::Task<perennial::Status> Delete(uint64_t user, const std::string& id) override;
  perennial::proc::Task<void> Unlock(uint64_t user) override;
  perennial::proc::Task<void> Recover() override;
  uint64_t num_users() const override { return inner_->num_users(); }

 private:
  perennial::mailboat::MailApi* inner_;
};

class TracedFilesys : public perennial::goosefs::Filesys {
 public:
  using Fd = perennial::goosefs::Fd;
  using Bytes = perennial::goosefs::Bytes;
  template <typename T>
  using Task = perennial::proc::Task<T>;
  template <typename T>
  using Result = perennial::Result<T>;
  using Status = perennial::Status;

  explicit TracedFilesys(perennial::goosefs::Filesys* inner) : inner_(inner) {}

  Task<Result<Fd>> Create(const std::string& dir, const std::string& name) override;
  Task<Result<Fd>> Open(const std::string& dir, const std::string& name) override;
  Task<Status> Append(Fd fd, const Bytes& data) override;
  Task<Result<Bytes>> ReadAt(Fd fd, uint64_t off, uint64_t count) override;
  Task<Status> Sync(Fd fd) override;
  Task<Status> Close(Fd fd) override;
  Task<Result<std::vector<std::string>>> List(const std::string& dir) override;
  Task<Result<bool>> Link(const std::string& src_dir, const std::string& src_name,
                          const std::string& dst_dir, const std::string& dst_name) override;
  Task<Status> Delete(const std::string& dir, const std::string& name) override;

 private:
  perennial::goosefs::Filesys* inner_;
};

class TracedFsyncer : public perennial::goosefs::Fsyncer {
 public:
  explicit TracedFsyncer(perennial::goosefs::Fsyncer* inner) : inner_(inner) {}
  perennial::Status Fsync(int fd) override;
  void OnDirty(int fd) override { inner_->OnDirty(fd); }
  void OnClose(int fd) override { inner_->OnClose(fd); }

 private:
  perennial::goosefs::Fsyncer* inner_;
};

class TracedSyscalls : public perennial::fault::FsSyscalls {
 public:
  explicit TracedSyscalls(perennial::fault::FsSyscalls* inner) : inner_(inner) {}
  int OpenAt(int dirfd, const char* name, int flags, mode_t mode) override;
  ssize_t Write(int fd, const void* buf, size_t count) override;
  ssize_t Pread(int fd, void* buf, size_t count, off_t off) override;
  int Fsync(int fd) override;
  int Syncfs(int fd) override;
  int LinkAt(int src_dirfd, const char* src, int dst_dirfd, const char* dst) override;
  int UnlinkAt(int dirfd, const char* name) override;

 private:
  perennial::fault::FsSyscalls* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
