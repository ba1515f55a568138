// Lower-bound leases (§8.3): lease(dir, ⊇N).
//
// Mailboat's mailbox lock cannot hold an ordinary exclusive lease on the
// directory contents: delivery legitimately adds files *while the lock is
// held*. The paper's solution is a lower-bound lease — the lock holder
// knows the directory contains *at least* the names N it listed, may
// delete exactly those, and tolerates others creating new names.
//
// Runtime enforcement: the registry tracks, per resource, the holder's
// lower-bound set for the current crash generation.
//  * Acquire(resource, names) — takes the lease with lower bound `names`;
//    a second acquisition before release is UB (it is still exclusive
//    *as a lease* — only one thread may hold deletion rights).
//  * CheckDelete(lease, name) — deleting a name requires holding the
//    current lease and the name being in the bound (you may only delete
//    what you listed — §8.1's contract).
//  * NoteCreate(resource, name) — anyone may add names, lease or not;
//    the holder's bound is unaffected (the bound is a ⊇, not equality).
//  * Crashes invalidate every bounded lease, like all volatile capabilities.
#ifndef PERENNIAL_SRC_CAP_BOUNDED_LEASE_H_
#define PERENNIAL_SRC_CAP_BOUNDED_LEASE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/base/panic.h"
#include "src/goose/world.h"
#include "src/proc/footprint.h"

namespace perennial::cap {

struct BoundedLease {
  std::string resource;
  uint64_t gen = UINT64_MAX;
  uint64_t serial = 0;
};

class BoundedLeaseRegistry : public goose::CrashAware {
 public:
  explicit BoundedLeaseRegistry(goose::World* world)
      : world_(world), instance_(world->NextResourceId()) {
    world->Register(this);
  }

  // Takes the (exclusive) lower-bound lease on `resource`, recording that
  // it currently contains at least `names`.
  BoundedLease Acquire(const std::string& resource, std::vector<std::string> names) {
    Rec(resource, /*write=*/true);
    // The serial counter is registry-global: any two acquisitions are
    // order-dependent (the serials they mint differ).
    proc::RecordAccess(proc::MixResource(proc::kResRegistry, instance_, ~0ull), /*write=*/true);
    std::scoped_lock host_lock(mu_);
    auto [it, inserted] = held_.try_emplace(resource);
    if (!inserted) {
      RaiseUb("bounded lease for '" + resource + "' already held");
    }
    it->second.serial = next_serial_++;
    it->second.bound.insert(names.begin(), names.end());
    return BoundedLease{resource, world_->generation(), it->second.serial};
  }

  // Deleting `name` requires the current lease and name ∈ bound; the name
  // leaves the bound (it can only be deleted once).
  void CheckDelete(const BoundedLease& lease, const std::string& name) {
    Rec(lease.resource, /*write=*/true);  // the bound shrinks
    std::scoped_lock host_lock(mu_);
    Holding& holding = Resolve(lease, "CheckDelete");
    if (holding.bound.erase(name) == 0) {
      RaiseUb("bounded lease on '" + lease.resource + "': deleting un-listed name '" + name +
              "'");
    }
  }

  // Creation by any thread is compatible with the lower bound; the holder
  // may fold a name it learns about into its own bound.
  void ExtendBound(const BoundedLease& lease, const std::string& name) {
    Rec(lease.resource, /*write=*/true);
    std::scoped_lock host_lock(mu_);
    Resolve(lease, "ExtendBound").bound.insert(name);
  }

  void Release(const BoundedLease& lease) {
    Rec(lease.resource, /*write=*/true);
    std::scoped_lock host_lock(mu_);
    Resolve(lease, "Release");
    held_.erase(lease.resource);
  }

  bool IsHeld(const std::string& resource) const {
    Rec(resource, /*write=*/false);
    std::scoped_lock host_lock(mu_);
    return held_.count(resource) > 0;
  }

  // All bounded leases are volatile capabilities.
  void OnCrash() override { held_.clear(); }
  // Empty after a crash; the serial counter is a name, not state.
  void MixSurvivingState(Hasher128* h) const override {
    std::scoped_lock host_lock(mu_);
    h->MixU64(held_.size());
    for (const auto& [resource, holding] : held_) {
      h->MixString(resource);
      h->MixU64(holding.bound.size());
      for (const std::string& name : holding.bound) {
        h->MixString(name);
      }
    }
  }

 private:
  struct Holding {
    uint64_t serial = 0;
    std::set<std::string> bound;
  };

  // DPOR access record for one leased resource (src/proc/footprint.h); the
  // same (instance, key) scheme the help/lease registries use.
  void Rec(const std::string& resource, bool write) const {
    proc::RecordAccess(proc::MixResourceKey(proc::kResRegistry, instance_, resource), write);
  }

  Holding& Resolve(const BoundedLease& lease, const char* op) {
    if (lease.gen != world_->generation()) {
      RaiseUb(std::string(op) + ": bounded lease from a previous crash generation");
    }
    auto it = held_.find(lease.resource);
    if (it == held_.end() || it->second.serial != lease.serial) {
      RaiseUb(std::string(op) + ": stale or forged bounded lease for '" + lease.resource + "'");
    }
    return it->second;
  }

  goose::World* world_;
  uint64_t instance_;  // footprint namespace for this registry
  // Host-level: Mailboat runs natively in benchmarks, so registry state is
  // touched from several OS threads (in simulation the lock is uncontended).
  mutable std::mutex mu_;
  std::map<std::string, Holding> held_;
  uint64_t next_serial_ = 1;
};

}  // namespace perennial::cap

#endif  // PERENNIAL_SRC_CAP_BOUNDED_LEASE_H_
