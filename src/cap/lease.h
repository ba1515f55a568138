// Recovery leases (§5.3), enforced at runtime.
//
// Perennial splits every durable capability d[a] ↦ v into a persistent
// *master copy* (kept in the crash invariant, available to recovery) and a
// volatile *lease* (held by running threads, usually protected by a lock).
// The three rules of Table 1 become dynamic checks here:
//
//  1. Updating a durable resource requires presenting the current lease
//     (systems call LeaseRegistry::Verify on their write paths).
//  2. Only one lease per resource exists at a time: issuing a second lease
//     for the same resource in the same crash generation is UB.
//  3. Both the master and the lease are tied to the crash generation; a
//     crash invalidates every outstanding lease, and recovery synthesizes
//     fresh ones from the master copies (Issue after the generation bump).
//
// The "master copy" needs no separate token object at runtime: durable
// state itself (disk blocks, file-system trees) plays that role, and crash
// invariants (crash_invariant.h) are the predicates recovery relies on.
#ifndef PERENNIAL_SRC_CAP_LEASE_H_
#define PERENNIAL_SRC_CAP_LEASE_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/base/panic.h"
#include "src/goose/world.h"
#include "src/proc/footprint.h"

namespace perennial::cap {

// An exclusive, generation-stamped permission to modify one durable
// resource. Tokens are freely movable/copyable values; exclusivity is
// enforced by the registry (only the most recently issued serial for a
// resource is valid, and re-issuing within a generation is UB).
struct Lease {
  std::string resource;
  uint64_t gen = UINT64_MAX;
  uint64_t serial = 0;
};

class LeaseRegistry : public goose::CrashAware {
 public:
  explicit LeaseRegistry(goose::World* world)
      : world_(world), instance_(world->NextResourceId()) {
    world->Register(this);
  }

  // Synthesizes the lease for `resource` in the current generation.
  // Permitted once per resource per generation (rule 2); recovery calls
  // this after a crash to re-lease every durable resource (rule 3).
  Lease Issue(const std::string& resource) {
    proc::RecordAccess(KeyRes(resource), /*write=*/true);
    uint64_t gen = world_->generation();
    auto [it, inserted] = issued_.try_emplace(resource, next_serial_);
    if (!inserted) {
      RaiseUb("lease for '" + resource + "' already issued in this generation");
    }
    return Lease{resource, gen, next_serial_++};
  }

  // Verifies that `lease` is the valid, current-generation lease for its
  // resource; systems call this on every leased write path (rule 1).
  void Verify(const Lease& lease, const char* op) const {
    proc::RecordAccess(KeyRes(lease.resource), /*write=*/false);
    if (lease.gen != world_->generation()) {
      RaiseUb(std::string(op) + ": lease for '" + lease.resource +
              "' is from a previous crash generation");
    }
    auto it = issued_.find(lease.resource);
    if (it == issued_.end() || it->second != lease.serial) {
      RaiseUb(std::string(op) + ": stale or forged lease for '" + lease.resource + "'");
    }
  }

  // Voluntarily returns a lease (e.g. when a resource is destroyed); the
  // resource may then be leased again within the same generation.
  void Release(const Lease& lease) {
    proc::RecordAccess(KeyRes(lease.resource), /*write=*/true);
    Verify(lease, "Release");
    issued_.erase(lease.resource);
  }

  bool IsLeased(const std::string& resource) const { return issued_.count(resource) > 0; }

  // Crash: every lease is invalidated (leases live in volatile memory).
  void OnCrash() override { issued_.clear(); }
  // Empty after a crash; the serial counter is a name, not state.
  void MixSurvivingState(Hasher128* h) const override {
    h->MixU64(issued_.size());
    for (const auto& [resource, serial] : issued_) {
      h->MixString(resource);
    }
  }

 private:
  uint64_t KeyRes(const std::string& resource) const {
    return proc::MixResourceKey(proc::kResRegistry, instance_, resource);
  }

  goose::World* world_;
  uint64_t instance_;  // distinguishes this registry's keys in footprints
  std::map<std::string, uint64_t> issued_;  // resource -> live serial
  uint64_t next_serial_ = 1;
};

}  // namespace perennial::cap

#endif  // PERENNIAL_SRC_CAP_LEASE_H_
