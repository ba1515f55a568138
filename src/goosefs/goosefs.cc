#include "src/goosefs/goosefs.h"

#include <algorithm>

#include "src/base/panic.h"
#include "src/proc/footprint.h"

namespace perennial::goosefs {

Bytes BytesOfString(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string StringOfBytes(const Bytes& b) { return std::string(b.begin(), b.end()); }

GooseFs::GooseFs(goose::World* world, std::vector<std::string> dirs, Options options)
    : world_(world), options_(options), res_seed_(world->NextResourceId()) {
  for (std::string& d : dirs) {
    dirs_[std::move(d)] = {};
  }
  world_->Register(this);
}

void GooseFs::BeginOpFootprint() const {
  if (options_.opaque_footprints) {
    proc::RecordOpaque();
  }
}

void GooseFs::Rec(uint64_t resource, bool write) const {
  if (!options_.opaque_footprints) {
    proc::RecordAccess(resource, write);
  }
}

uint64_t GooseFs::AllocRes() const { return proc::MixResource(proc::kResFsAlloc, res_seed_); }

uint64_t GooseFs::DirRes(const std::string& dir) const {
  return proc::MixResourceKey(proc::kResFsDir, res_seed_, dir);
}

uint64_t GooseFs::EntryRes(const std::string& dir, const std::string& name) const {
  // Entry ids hang off the directory id so "a/bc" and "ab/c" cannot alias.
  return proc::MixResourceKey(proc::kResFsEntry, DirRes(dir), name);
}

uint64_t GooseFs::InodeRes(uint64_t ino) const {
  return proc::MixResource(proc::kResFsInode, res_seed_, ino);
}

uint64_t GooseFs::TailRes(uint64_t ino) const {
  return proc::MixResource(proc::kResFsTail, res_seed_, ino);
}

uint64_t GooseFs::FdRes(Fd fd) const { return proc::MixResource(proc::kResFsFd, res_seed_, fd); }

proc::Task<Result<Fd>> GooseFs::Create(const std::string& dir, const std::string& name) {
  co_await proc::Yield();
  BeginOpFootprint();
  // Writes even on failure paths: a failed create still *read* the entry,
  // and recording the write superset is sound (footprint.h header comment).
  Rec(DirRes(dir), /*write=*/true);
  Rec(EntryRes(dir, name), /*write=*/true);
  auto dir_it = dirs_.find(dir);
  if (dir_it == dirs_.end()) {
    co_return Status::NotFound("no such directory: " + dir);
  }
  auto [it, inserted] = dir_it->second.try_emplace(name, next_ino_);
  if (!inserted) {
    co_return Status::AlreadyExists(dir + "/" + name);
  }
  // The counters make any two allocating ops order-dependent (the numbers
  // they hand out differ), exactly like the heap's allocator resource.
  Rec(AllocRes(), /*write=*/true);
  uint64_t ino = next_ino_++;
  Rec(InodeRes(ino), /*write=*/true);
  Inode& inode = inodes_[ino];
  inode.nlink = 1;
  inode.open_fds = 1;
  Fd fd = next_fd_++;
  Rec(FdRes(fd), /*write=*/true);
  fds_[fd] = FdState{ino, Mode::kAppend};
  co_return fd;
}

proc::Task<Result<Fd>> GooseFs::Open(const std::string& dir, const std::string& name) {
  co_await proc::Yield();
  BeginOpFootprint();
  Rec(EntryRes(dir, name), /*write=*/false);
  auto dir_it = dirs_.find(dir);
  if (dir_it == dirs_.end()) {
    co_return Status::NotFound("no such directory: " + dir);
  }
  auto name_it = dir_it->second.find(name);
  if (name_it == dir_it->second.end()) {
    co_return Status::NotFound(dir + "/" + name);
  }
  uint64_t ino = name_it->second;
  Rec(AllocRes(), /*write=*/true);
  Rec(InodeRes(ino), /*write=*/true);  // open_fds++ feeds the reclaim decision
  inodes_.at(ino).open_fds++;
  Fd fd = next_fd_++;
  Rec(FdRes(fd), /*write=*/true);
  fds_[fd] = FdState{ino, Mode::kRead};
  co_return fd;
}

proc::Task<Status> GooseFs::Append(Fd fd, const Bytes& data) {
  co_await proc::Yield();
  BeginOpFootprint();
  Rec(FdRes(fd), /*write=*/false);
  FdState& state = ResolveFd(fd, "Append");
  if (state.mode != Mode::kAppend) {
    RaiseUb("Append on a read-mode fd");
  }
  Rec(InodeRes(state.ino), /*write=*/true);
  Rec(TailRes(state.ino), /*write=*/true);  // superset: deferred mode leaves it
  Inode& inode = inodes_.at(state.ino);
  inode.data.insert(inode.data.end(), data.begin(), data.end());
  if (!options_.deferred_durability) {
    inode.synced_len = inode.data.size();  // synchronous model: instantly durable
  }
  co_return Status::Ok();
}

proc::Task<Result<Bytes>> GooseFs::ReadAt(Fd fd, uint64_t off, uint64_t count) {
  co_await proc::Yield();
  BeginOpFootprint();
  Rec(FdRes(fd), /*write=*/false);
  FdState& state = ResolveFd(fd, "ReadAt");
  if (state.mode != Mode::kRead) {
    RaiseUb("ReadAt on an append-mode fd");
  }
  Rec(InodeRes(state.ino), /*write=*/false);
  const Bytes& contents = inodes_.at(state.ino).data;
  if (off >= contents.size()) {
    co_return Bytes{};
  }
  uint64_t end = std::min<uint64_t>(off + count, contents.size());
  co_return Bytes(contents.begin() + static_cast<long>(off), contents.begin() + static_cast<long>(end));
}

proc::Task<Status> GooseFs::Sync(Fd fd) {
  co_await proc::Yield();
  BeginOpFootprint();
  Rec(FdRes(fd), /*write=*/false);
  FdState& state = ResolveFd(fd, "Sync");
  Rec(InodeRes(state.ino), /*write=*/false);  // reads the current length
  Rec(TailRes(state.ino), /*write=*/true);
  Inode& inode = inodes_.at(state.ino);
  inode.synced_len = inode.data.size();
  co_return Status::Ok();
}

proc::Task<Status> GooseFs::Close(Fd fd) {
  co_await proc::Yield();
  BeginOpFootprint();
  Rec(FdRes(fd), /*write=*/true);
  FdState& state = ResolveFd(fd, "Close");
  uint64_t ino = state.ino;
  Rec(InodeRes(ino), /*write=*/true);  // open_fds--, possibly reclaim
  fds_.erase(fd);
  Inode& inode = inodes_.at(ino);
  PCC_ENSURE(inode.open_fds > 0, "Close: fd refcount underflow");
  inode.open_fds--;
  MaybeReclaim(ino);
  co_return Status::Ok();
}

proc::Task<Result<std::vector<std::string>>> GooseFs::List(const std::string& dir) {
  co_await proc::Yield();
  BeginOpFootprint();
  // Membership aggregate: every op that adds or removes a name in `dir`
  // writes DirRes(dir), so List conflicts with exactly those.
  Rec(DirRes(dir), /*write=*/false);
  auto dir_it = dirs_.find(dir);
  if (dir_it == dirs_.end()) {
    co_return Status::NotFound("no such directory: " + dir);
  }
  std::vector<std::string> names;
  names.reserve(dir_it->second.size());
  for (const auto& [name, ino] : dir_it->second) {
    names.push_back(name);
  }
  co_return names;  // std::map iterates sorted
}

proc::Task<Result<bool>> GooseFs::Link(const std::string& src_dir, const std::string& src_name,
                                       const std::string& dst_dir, const std::string& dst_name) {
  co_await proc::Yield();
  BeginOpFootprint();
  Rec(EntryRes(src_dir, src_name), /*write=*/false);
  Rec(DirRes(dst_dir), /*write=*/true);
  Rec(EntryRes(dst_dir, dst_name), /*write=*/true);
  auto src_dir_it = dirs_.find(src_dir);
  if (src_dir_it == dirs_.end()) {
    co_return false;
  }
  auto src_it = src_dir_it->second.find(src_name);
  if (src_it == src_dir_it->second.end()) {
    co_return false;
  }
  auto dst_dir_it = dirs_.find(dst_dir);
  if (dst_dir_it == dirs_.end()) {
    co_return false;
  }
  auto [dst_it, inserted] = dst_dir_it->second.try_emplace(dst_name, src_it->second);
  if (!inserted) {
    co_return false;
  }
  Rec(InodeRes(src_it->second), /*write=*/true);  // nlink++
  inodes_.at(src_it->second).nlink++;
  co_return true;
}

proc::Task<Status> GooseFs::Delete(const std::string& dir, const std::string& name) {
  co_await proc::Yield();
  BeginOpFootprint();
  Rec(DirRes(dir), /*write=*/true);
  Rec(EntryRes(dir, name), /*write=*/true);
  auto dir_it = dirs_.find(dir);
  if (dir_it == dirs_.end()) {
    co_return Status::NotFound("no such directory: " + dir);
  }
  auto name_it = dir_it->second.find(name);
  if (name_it == dir_it->second.end()) {
    co_return Status::NotFound(dir + "/" + name);
  }
  uint64_t ino = name_it->second;
  Rec(InodeRes(ino), /*write=*/true);  // nlink--, possibly reclaim
  dir_it->second.erase(name_it);
  Inode& inode = inodes_.at(ino);
  PCC_ENSURE(inode.nlink > 0, "Delete: nlink underflow");
  inode.nlink--;
  MaybeReclaim(ino);
  co_return Status::Ok();
}

void GooseFs::OnCrash() {
  // Deferred durability: unsynced data dies with the page cache — each
  // file truncates to its last-synced prefix. An armed kUnsyncedTail fault
  // instead leaves roughly half of one file's unsynced tail behind: the
  // kernel wrote back more than Sync() promised, which POSIX permits.
  for (auto& [ino, inode] : inodes_) {
    if (inode.data.size() > inode.synced_len) {
      uint64_t keep = inode.synced_len;
      if (options_.faults != nullptr &&
          options_.faults->Consume(fault::FaultKind::kUnsyncedTail, static_cast<int>(ino))) {
        uint64_t tail = inode.data.size() - inode.synced_len;
        keep += (tail + 1) / 2;
      }
      inode.data.resize(keep);
      inode.synced_len = keep;  // what survived the crash is durable now
    }
  }
  // File descriptors are volatile (§6.2): all lost. Their inode references
  // vanish with them, so orphaned inodes (created-but-never-linked spool
  // data) are reclaimed by the kernel model.
  for (auto& [fd, state] : fds_) {
    Inode& inode = inodes_.at(state.ino);
    PCC_ENSURE(inode.open_fds > 0, "OnCrash: fd refcount underflow");
    inode.open_fds--;
  }
  fds_.clear();
  for (auto it = inodes_.begin(); it != inodes_.end();) {
    if (it->second.nlink == 0 && it->second.open_fds == 0) {
      it = inodes_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::string> GooseFs::PeekNames(const std::string& dir) const {
  auto it = dirs_.find(dir);
  PCC_ENSURE(it != dirs_.end(), "PeekNames: no such directory " + dir);
  std::vector<std::string> names;
  for (const auto& [name, ino] : it->second) {
    names.push_back(name);
  }
  return names;
}

std::optional<Bytes> GooseFs::PeekFile(const std::string& dir, const std::string& name) const {
  auto dir_it = dirs_.find(dir);
  if (dir_it == dirs_.end()) {
    return std::nullopt;
  }
  auto it = dir_it->second.find(name);
  if (it == dir_it->second.end()) {
    return std::nullopt;
  }
  return inodes_.at(it->second).data;
}

std::optional<Bytes> GooseFs::PeekDurableFile(const std::string& dir,
                                              const std::string& name) const {
  std::optional<Bytes> full = PeekFile(dir, name);
  if (!full.has_value()) {
    return std::nullopt;
  }
  auto dir_it = dirs_.find(dir);
  const Inode& inode = inodes_.at(dir_it->second.at(name));
  full->resize(inode.synced_len);
  return full;
}

void GooseFs::MixSurvivingState(Hasher128* h) const {
  std::vector<uint64_t> walk_order;  // inode numbers in first-reached order
  h->MixU64(dirs_.size());
  for (const auto& [dir, entries] : dirs_) {
    h->MixString(dir);
    h->MixU64(entries.size());
    for (const auto& [name, ino] : entries) {
      h->MixString(name);
      auto seen = std::find(walk_order.begin(), walk_order.end(), ino);
      h->MixU64(static_cast<uint64_t>(seen - walk_order.begin()));
      if (seen != walk_order.end()) {
        continue;  // a hard link to an inode already mixed
      }
      walk_order.push_back(ino);
      const Inode& inode = inodes_.at(ino);
      h->MixU64(inode.synced_len);
      h->MixU64(inode.data.size());
      h->MixBytes(inode.data.data(), inode.data.size());
    }
  }
  // Open-but-unlinked inodes are reclaimed by OnCrash, so after a crash
  // every inode is reached by the walk; count them anyway so a caller that
  // mixes outside that window still tells such states apart.
  h->MixU64(inodes_.size());
}

GooseFs::FdState& GooseFs::ResolveFd(Fd fd, const char* op) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    RaiseUb(std::string(op) + ": bad or stale file descriptor (fds do not survive crashes)");
  }
  return it->second;
}

void GooseFs::MaybeReclaim(uint64_t ino) {
  auto it = inodes_.find(ino);
  PCC_ENSURE(it != inodes_.end(), "MaybeReclaim: no such inode");
  if (it->second.nlink == 0 && it->second.open_fds == 0) {
    inodes_.erase(it);
  }
}

}  // namespace perennial::goosefs
