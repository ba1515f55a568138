#include "perfbench/spans.h"

#include <atomic>
#include <mutex>
#include <utility>

#include "perfbench/common.h"

namespace perfbench {

namespace pcc = perennial;

namespace {

constexpr int kMaxDepth = 32;

// One thread's totals. Only the owning thread writes; snapshots read the
// atomics from another thread, so writes are relaxed load-add-store (no
// read-modify-write contention, no lock).
struct ThreadSpans {
  std::array<std::atomic<uint64_t>, kNumSpans> count{};
  std::array<std::atomic<uint64_t>, kNumSpans> total_ns{};
  std::array<std::atomic<uint64_t>, kNumSpans> self_ns{};

  struct Open {
    int id;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  Open stack[kMaxDepth] = {};
  int depth = 0;
};

void Add(std::atomic<uint64_t>& slot, uint64_t v) {
  slot.store(slot.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

std::mutex g_threads_mu;
// Never freed: a thread's totals outlive the thread so a snapshot taken
// after a worker exits still counts its spans.
std::vector<ThreadSpans*>* g_threads = new std::vector<ThreadSpans*>();

ThreadSpans* Tls() {
  thread_local ThreadSpans* mine = [] {
    auto* t = new ThreadSpans();
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads->push_back(t);
    return t;
  }();
  return mine;
}

}  // namespace

const char* SpanName(int id) {
  static const char* const kNames[kNumSpans] = {
      "mailboat.deliver", "mailboat.pickup", "mailboat.delete", "mailboat.unlock",
      "goosefs.create",   "goosefs.open",    "goosefs.append",  "goosefs.read_at",
      "goosefs.sync",     "goosefs.close",   "goosefs.list",    "goosefs.link",
      "goosefs.delete",   "fsyncer.fsync",   "sys.openat",      "sys.write",
      "sys.pread",        "sys.fsync",       "sys.syncfs",      "sys.linkat",
      "sys.unlinkat",
  };
  return kNames[id];
}

SpanTotals SpanTotals::Minus(const SpanTotals& before) const {
  SpanTotals out;
  for (int i = 0; i < kNumSpans; ++i) {
    out.count[i] = count[i] - before.count[i];
    out.total_ns[i] = total_ns[i] - before.total_ns[i];
    out.self_ns[i] = self_ns[i] - before.self_ns[i];
  }
  return out;
}

uint64_t SpanTotals::TotalNs(int first, int last) const {
  uint64_t sum = 0;
  for (int i = first; i <= last; ++i) sum += total_ns[i];
  return sum;
}

uint64_t SpanTotals::SelfNs(int first, int last) const {
  uint64_t sum = 0;
  for (int i = first; i <= last; ++i) sum += self_ns[i];
  return sum;
}

SpanTotals SnapshotSpans() {
  SpanTotals out;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (ThreadSpans* t : *g_threads) {
    for (int i = 0; i < kNumSpans; ++i) {
      out.count[i] += t->count[i].load(std::memory_order_relaxed);
      out.total_ns[i] += t->total_ns[i].load(std::memory_order_relaxed);
      out.self_ns[i] += t->self_ns[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

ScopedSpan::ScopedSpan(int id) {
  ThreadSpans* t = Tls();
  if (t->depth < kMaxDepth) {
    t->stack[t->depth] = ThreadSpans::Open{id, NowNs(), 0};
  }
  ++t->depth;
}

ScopedSpan::~ScopedSpan() {
  ThreadSpans* t = Tls();
  --t->depth;
  if (t->depth >= kMaxDepth) {
    return;
  }
  const ThreadSpans::Open& open = t->stack[t->depth];
  const uint64_t dur = NowNs() - open.start_ns;
  Add(t->count[open.id], 1);
  Add(t->total_ns[open.id], dur);
  Add(t->self_ns[open.id], dur > open.child_ns ? dur - open.child_ns : 0);
  if (t->depth > 0 && t->depth - 1 < kMaxDepth) {
    t->stack[t->depth - 1].child_ns += dur;
  }
}

// ---- MailApi ----
// Each decorator awaits into a named result before co_return (the repo's
// idiom for GCC 12 coroutines, docs/gcc12_coroutine_notes.md).

pcc::proc::Task<pcc::Result<std::vector<pcc::mailboat::Message>>> TracedMailApi::Pickup(
    uint64_t user) {
  ScopedSpan span(kMailPickup);
  pcc::Result<std::vector<pcc::mailboat::Message>> r = co_await inner_->Pickup(user);
  co_return r;
}

pcc::proc::Task<pcc::Result<std::string>> TracedMailApi::Deliver(uint64_t user,
                                                                  const pcc::goosefs::Bytes& msg) {
  ScopedSpan span(kMailDeliver);
  pcc::Result<std::string> r = co_await inner_->Deliver(user, msg);
  co_return r;
}

pcc::proc::Task<pcc::Result<std::string>> TracedMailApi::DeliverChunked(
    uint64_t user, uint64_t len, pcc::mailboat::ChunkReader read_chunk) {
  ScopedSpan span(kMailDeliver);
  pcc::Result<std::string> r = co_await inner_->DeliverChunked(user, len, std::move(read_chunk));
  co_return r;
}

pcc::proc::Task<pcc::Status> TracedMailApi::Delete(uint64_t user, const std::string& id) {
  ScopedSpan span(kMailDelete);
  pcc::Status s = co_await inner_->Delete(user, id);
  co_return s;
}

pcc::proc::Task<void> TracedMailApi::Unlock(uint64_t user) {
  ScopedSpan span(kMailUnlock);
  co_await inner_->Unlock(user);
}

pcc::proc::Task<void> TracedMailApi::Recover() { co_await inner_->Recover(); }

// ---- Filesys ----

using TF = TracedFilesys;

TF::Task<TF::Result<TF::Fd>> TF::Create(const std::string& dir, const std::string& name) {
  ScopedSpan span(kFsCreate);
  Result<Fd> r = co_await inner_->Create(dir, name);
  co_return r;
}

TF::Task<TF::Result<TF::Fd>> TF::Open(const std::string& dir, const std::string& name) {
  ScopedSpan span(kFsOpen);
  Result<Fd> r = co_await inner_->Open(dir, name);
  co_return r;
}

TF::Task<TF::Status> TF::Append(Fd fd, const Bytes& data) {
  ScopedSpan span(kFsAppend);
  Status s = co_await inner_->Append(fd, data);
  co_return s;
}

TF::Task<TF::Result<TF::Bytes>> TF::ReadAt(Fd fd, uint64_t off, uint64_t count) {
  ScopedSpan span(kFsReadAt);
  Result<Bytes> r = co_await inner_->ReadAt(fd, off, count);
  co_return r;
}

TF::Task<TF::Status> TF::Sync(Fd fd) {
  ScopedSpan span(kFsSync);
  Status s = co_await inner_->Sync(fd);
  co_return s;
}

TF::Task<TF::Status> TF::Close(Fd fd) {
  ScopedSpan span(kFsClose);
  Status s = co_await inner_->Close(fd);
  co_return s;
}

TF::Task<TF::Result<std::vector<std::string>>> TF::List(const std::string& dir) {
  ScopedSpan span(kFsList);
  Result<std::vector<std::string>> r = co_await inner_->List(dir);
  co_return r;
}

TF::Task<TF::Result<bool>> TF::Link(const std::string& src_dir, const std::string& src_name,
                                    const std::string& dst_dir, const std::string& dst_name) {
  ScopedSpan span(kFsLink);
  Result<bool> r = co_await inner_->Link(src_dir, src_name, dst_dir, dst_name);
  co_return r;
}

TF::Task<TF::Status> TF::Delete(const std::string& dir, const std::string& name) {
  ScopedSpan span(kFsDelete);
  Status s = co_await inner_->Delete(dir, name);
  co_return s;
}

// ---- Fsyncer and FsSyscalls (synchronous) ----

pcc::Status TracedFsyncer::Fsync(int fd) {
  ScopedSpan span(kFsyncerFsync);
  return inner_->Fsync(fd);
}

int TracedSyscalls::OpenAt(int dirfd, const char* name, int flags, mode_t mode) {
  ScopedSpan span(kSysOpenat);
  return inner_->OpenAt(dirfd, name, flags, mode);
}

ssize_t TracedSyscalls::Write(int fd, const void* buf, size_t count) {
  ScopedSpan span(kSysWrite);
  return inner_->Write(fd, buf, count);
}

ssize_t TracedSyscalls::Pread(int fd, void* buf, size_t count, off_t off) {
  ScopedSpan span(kSysPread);
  return inner_->Pread(fd, buf, count, off);
}

int TracedSyscalls::Fsync(int fd) {
  ScopedSpan span(kSysFsync);
  return inner_->Fsync(fd);
}

int TracedSyscalls::Syncfs(int fd) {
  ScopedSpan span(kSysSyncfs);
  return inner_->Syncfs(fd);
}

int TracedSyscalls::LinkAt(int src_dirfd, const char* src, int dst_dirfd, const char* dst) {
  ScopedSpan span(kSysLinkat);
  return inner_->LinkAt(src_dirfd, src, dst_dirfd, dst);
}

int TracedSyscalls::UnlinkAt(int dirfd, const char* name) {
  ScopedSpan span(kSysUnlinkat);
  return inner_->UnlinkAt(dirfd, name);
}

}  // namespace perfbench
