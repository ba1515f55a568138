// The Goose "world": the machine a modeled program runs on.
//
// The world owns the crash generation number (§5.2 "versioned state"): every
// volatile handle (heap pointer, slice, map, mutex, file descriptor) is
// stamped with the generation it was created in, and using a handle from an
// older generation is undefined behavior — the runtime analogue of
// Perennial's rule that capabilities at an old version are invalid.
//
// Crash() bumps the generation, resets registered volatile components (the
// heap), and runs crash hooks on durable components (the file system drops
// open fds but keeps data; disks keep blocks). Thread death is the
// scheduler's job and is coordinated by the crash explorer in src/refine.
//
// MixSurvivingState() fingerprints what a crash leaves behind. The crash
// explorer takes it right after Crash() to recognize a post-crash
// continuation it has already run (DESIGN.md §9, "Post-crash continuation
// cache"), so every component must mix everything its OnCrash keeps that
// recovery, the observers or a crash invariant can read.
#ifndef PERENNIAL_SRC_GOOSE_WORLD_H_
#define PERENNIAL_SRC_GOOSE_WORLD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/hash.h"

namespace perennial::goose {

// A component whose state participates in crashes. Volatile components lose
// everything; durable components apply their crash semantics (e.g. fds lost,
// data kept).
class CrashAware {
 public:
  virtual ~CrashAware() = default;
  virtual void OnCrash() = 0;
  // Mixes the state that survives OnCrash into `h`; called only right after
  // a crash. Counters that merely name objects (inode numbers, fd numbers,
  // lease serials, heap cell ids) are left out: the modeled programs only
  // compare them for equality, so a continuation behaves the same under any
  // renaming of them.
  virtual void MixSurvivingState(Hasher128* h) const = 0;
};

class World {
 public:
  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  uint64_t generation() const { return generation_; }

  // Components register once at construction; the world does not own them.
  void Register(CrashAware* component) { components_.push_back(component); }

  // Models the machine crashing: generation bumps, then every registered
  // component applies its crash transition. The caller (crash explorer) is
  // responsible for having killed all threads first.
  void Crash() {
    ++generation_;
    for (CrashAware* c : components_) {
      c->OnCrash();
    }
  }

  uint64_t crash_count() const { return generation_; }

  // Folds every registered component's surviving state, in registration
  // order (factories are deterministic, so the order is the same on every
  // replay).
  void MixSurvivingState(Hasher128* h) const {
    h->MixU64(generation_);
    h->MixU64(components_.size());
    for (const CrashAware* c : components_) {
      c->MixSurvivingState(h);
    }
  }

  // Allocates a world-unique id for DPOR access footprints (footprint.h).
  // Deterministic: factories construct primitives in a fixed order, so the
  // same object gets the same id on every replay of an execution prefix —
  // which is what lets the explorer compare footprints across executions.
  uint64_t NextResourceId() { return ++next_resource_id_; }

 private:
  uint64_t generation_ = 0;
  uint64_t next_resource_id_ = 0;
  std::vector<CrashAware*> components_;
};

}  // namespace perennial::goose

#endif  // PERENNIAL_SRC_GOOSE_WORLD_H_
