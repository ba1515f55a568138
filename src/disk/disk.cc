#include "src/disk/disk.h"

namespace perennial::disk {

Block BlockOfU64(uint64_t value) {
  Block b(8);
  for (int i = 0; i < 8; ++i) {
    b[static_cast<size_t>(i)] = static_cast<uint8_t>(value >> (8 * i));
  }
  return b;
}

uint64_t U64OfBlock(const Block& b) {
  uint64_t value = 0;
  for (size_t i = 0; i < b.size() && i < 8; ++i) {
    value |= static_cast<uint64_t>(b[i]) << (8 * i);
  }
  return value;
}

Disk::Disk(goose::World* world, uint64_t num_blocks, Block initial)
    : base_(world->NextResourceId()), blocks_(num_blocks, std::move(initial)) {
  world->Register(this);
}

void Disk::MixSurvivingState(Hasher128* h) const {
  h->MixU64(failed_ ? 1 : 0);
  h->MixU64(blocks_.size());
  for (const Block& b : blocks_) {
    h->MixU64(b.size());
    h->MixBytes(b.data(), b.size());
  }
}

proc::Task<Result<Block>> Disk::Read(uint64_t a) {
  co_await proc::Yield();
  proc::RecordAccess(MetaRes(), /*write=*/false);  // consults failed_
  proc::RecordAccess(SectorRes(a), /*write=*/false);
  if (failed_) {
    co_return Status::Failed("disk failed");
  }
  if (a >= blocks_.size()) {
    co_return Status::Invalid("read out of range");
  }
  co_return blocks_[a];
}

proc::Task<Status> Disk::Write(uint64_t a, Block value) {
  co_await proc::Yield();
  proc::RecordAccess(MetaRes(), /*write=*/false);  // consults failed_
  proc::RecordAccess(SectorRes(a), /*write=*/true);
  // Crash invariants read disk contents via PeekBlock, so any sector write
  // can change the truth of an invariant; the shared invariant resource
  // makes all such steps mutually dependent (never reordered by POR).
  proc::RecordAccess(proc::MixResource(proc::kResInvariant, 0), /*write=*/true);
  if (failed_) {
    // Fail-stop: the write is absorbed (the disk's contents are gone
    // anyway), but the caller is told — silently returning Ok here made it
    // impossible to distinguish an ignored write from a durable one.
    co_return Status::Failed("disk failed");
  }
  if (a >= blocks_.size()) {
    co_return Status::Invalid("write out of range");
  }
  blocks_[a] = std::move(value);
  co_return Status::Ok();
}

proc::Task<Status> Disk::Barrier() {
  co_await proc::Yield();
  proc::RecordPure();
  co_return Status::Ok();
}

const Block& Disk::PeekBlock(uint64_t a) const {
  PCC_ENSURE(a < blocks_.size(), "PeekBlock out of range");
  return blocks_[a];
}

void Disk::PokeBlock(uint64_t a, Block value) {
  PCC_ENSURE(a < blocks_.size(), "PokeBlock out of range");
  blocks_[a] = std::move(value);
}

}  // namespace perennial::disk
