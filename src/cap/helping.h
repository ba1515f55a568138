// Recovery helping (§5.4), enforced at runtime.
//
// When an operation reaches the point where a crash would leave visible
// partial state that recovery will complete (e.g. the replicated disk
// between its two writes, or a WAL commit record that is durable but not
// yet applied), the operation *deposits* its pending-op token — the
// paper's j ⇒ op assertion — into this registry, keyed by the resource
// recovery will inspect. Completing normally withdraws the token.
//
// The registry is DURABLE: it models an assertion stored in the crash
// invariant, so it survives crashes and recovery may Take() a token to
// justify completing the operation on the crashed thread's behalf.
// Take() returns the operation id, which the history recorder marks as
// "helped": the refinement checker then requires that the op's effect is
// linearized before the crash. Recovery completing work with *no* token to
// justify it is exactly the class of bug (e.g. "recovery zeroes both
// disks") the checker catches via the spec-side search.
#ifndef PERENNIAL_SRC_CAP_HELPING_H_
#define PERENNIAL_SRC_CAP_HELPING_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/base/hash.h"
#include "src/base/panic.h"
#include "src/proc/footprint.h"

namespace perennial::cap {

// A pending spec-level operation: thread j is mid-flight in op `op_id`
// (an opaque identifier assigned by the harness when the op was invoked).
struct PendingOp {
  int j = -1;           // spec-level thread id
  uint64_t op_id = 0;   // harness-assigned operation instance id
};

class HelpRegistry {
 public:
  // Deposits the pending op under `key` (e.g. "addr:3"). At most one token
  // per key: depositing over an existing token is UB — it would mean two
  // threads both claim the in-flight update of one resource, which the
  // locking discipline must prevent.
  void Deposit(const std::string& key, PendingOp op) {
    RecordMutation(key);
    auto [it, inserted] = tokens_.try_emplace(key, op);
    if (!inserted) {
      RaiseUb("helping: second pending op deposited for '" + key + "'");
    }
  }

  // Withdraws the token after the operation completes normally.
  void Withdraw(const std::string& key) {
    RecordMutation(key);
    size_t erased = tokens_.erase(key);
    if (erased == 0) {
      RaiseUb("helping: withdraw of absent token '" + key + "'");
    }
  }

  // Recovery: consumes the token for `key`, acquiring the right to complete
  // the operation on the crashed thread's behalf. nullopt when no operation
  // was in flight (the common, already-consistent case).
  std::optional<PendingOp> Take(const std::string& key) {
    RecordMutation(key);
    auto it = tokens_.find(key);
    if (it == tokens_.end()) {
      return std::nullopt;
    }
    PendingOp op = it->second;
    tokens_.erase(it);
    return op;
  }

  bool Has(const std::string& key) const { return tokens_.count(key) > 0; }

  // The registry is durable and not CrashAware: harnesses whose systems
  // own one mix it into their post-crash fingerprint (refine::Instance::
  // mix_surviving_state).
  void MixState(Hasher128* h) const {
    h->MixU64(tokens_.size());
    for (const auto& [key, op] : tokens_) {
      h->MixString(key);
      h->MixU64(static_cast<uint64_t>(static_cast<int64_t>(op.j)));
      h->MixU64(op.op_id);
    }
  }
  size_t size() const { return tokens_.size(); }
  void Clear() { tokens_.clear(); }

 private:
  // Registries have no World handle, so keys hash under instance 0 — two
  // registries' identical keys alias, which only adds dependence (sound).
  // Token mutations are also invariant-visible: crash invariants consult
  // Has(), so deposits/withdrawals join the shared invariant resource.
  void RecordMutation(const std::string& key) {
    proc::RecordAccess(proc::MixResourceKey(proc::kResRegistry, 0, key), /*write=*/true);
    proc::RecordAccess(proc::MixResource(proc::kResInvariant, 0), /*write=*/true);
  }

  std::map<std::string, PendingOp> tokens_;
};

}  // namespace perennial::cap

#endif  // PERENNIAL_SRC_CAP_HELPING_H_
