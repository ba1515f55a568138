// Specification of the Mailboat library (§8.1).
//
// Abstract state: one mailbox per user mapping message ids to contents,
// plus the per-user pickup/delete lock (needed to specify when Pickup can
// linearize and when Delete is defined). The crash transition keeps every
// mailbox and releases every lock — delivered mail is never lost, and
// spooled temporaries are invisible at this level.
//
// Deliver's fresh message id is data-dependent nondeterminism (the
// implementation picks random names). Prepare() bounds the branch set to
// the ids observed anywhere in the history plus one synthetic id per
// delivery — ids that are never observed are interchangeable, so this
// loses no generality.
#ifndef PERENNIAL_SRC_MAILBOAT_MAIL_SPEC_H_
#define PERENNIAL_SRC_MAILBOAT_MAIL_SPEC_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/refine/history.h"
#include "src/tsys/transition.h"

namespace perennial::mailboat {

struct MailSpec {
  struct State {
    std::map<uint64_t, std::map<std::string, std::string>> boxes;
    std::set<uint64_t> locked;
    friend bool operator==(const State&, const State&) = default;
  };

  enum class Kind { kPickup, kDeliver, kDelete, kUnlock };
  struct Op {
    Kind kind = Kind::kPickup;
    uint64_t user = 0;
    std::string arg;  // deliver: contents; delete: message id
  };

  struct Ret {
    std::string id;                                          // deliver
    std::vector<std::pair<std::string, std::string>> msgs;   // pickup
    friend bool operator==(const Ret&, const Ret&) = default;
  };

  uint64_t num_users = 1;
  std::vector<std::string> id_pool;  // filled by Prepare

  // The linearizer resumes a retained frontier spine only under an equal
  // prepared spec (linearize.h).
  friend bool operator==(const MailSpec&, const MailSpec&) = default;

  State Initial() const {
    State s;
    for (uint64_t u = 0; u < num_users; ++u) {
      s.boxes[u];  // empty mailbox per user
    }
    return s;
  }

  // Bounds Deliver's id nondeterminism using the history itself.
  void Prepare(const std::vector<typename refine::History<MailSpec>::Event>& events) {
    std::set<std::string> ids;
    size_t delivers = 0;
    for (const auto& e : events) {
      using EvKind = typename refine::History<MailSpec>::Kind;
      if (e.kind == EvKind::kInvoke) {
        if (e.op.kind == Kind::kDeliver) {
          ++delivers;
        } else if (e.op.kind == Kind::kDelete) {
          ids.insert(e.op.arg);
        }
      } else if (e.kind == EvKind::kReturn) {
        if (!e.ret.id.empty()) {
          ids.insert(e.ret.id);
        }
        for (const auto& [id, contents] : e.ret.msgs) {
          ids.insert(id);
        }
      }
    }
    for (size_t i = 0; i < delivers; ++i) {
      ids.insert("#unobserved-" + std::to_string(i));
    }
    id_pool.assign(ids.begin(), ids.end());
  }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (op.user >= num_users) {
      return tsys::Outcome<State, Ret>::Undef();
    }
    switch (op.kind) {
      case Kind::kPickup: {
        if (s.locked.count(op.user) > 0) {
          return tsys::Outcome<State, Ret>::None();  // blocked until Unlock
        }
        State next = s;
        next.locked.insert(op.user);
        Ret ret;
        for (const auto& [id, contents] : s.boxes.at(op.user)) {
          ret.msgs.emplace_back(id, contents);
        }
        return tsys::Outcome<State, Ret>::One(std::move(next), std::move(ret));
      }
      case Kind::kDeliver: {
        tsys::Outcome<State, Ret> out;
        for (const std::string& id : id_pool) {
          if (s.boxes.at(op.user).count(id) > 0) {
            continue;
          }
          State next = s;
          next.boxes[op.user][id] = op.arg;
          Ret ret;
          ret.id = id;
          out.branches.emplace_back(std::move(next), std::move(ret));
        }
        return out;
      }
      case Kind::kDelete: {
        if (s.locked.count(op.user) == 0 || s.boxes.at(op.user).count(op.arg) == 0) {
          // §8.1: deleting without the lock, or an id Pickup never listed,
          // is outside the contract.
          return tsys::Outcome<State, Ret>::Undef();
        }
        State next = s;
        next.boxes[op.user].erase(op.arg);
        return tsys::Outcome<State, Ret>::One(std::move(next), Ret{});
      }
      case Kind::kUnlock: {
        if (s.locked.count(op.user) == 0) {
          return tsys::Outcome<State, Ret>::Undef();
        }
        State next = s;
        next.locked.erase(op.user);
        return tsys::Outcome<State, Ret>::One(std::move(next), Ret{});
      }
    }
    return tsys::Outcome<State, Ret>::None();
  }

  // Crash: mail is durable; locks are volatile.
  std::vector<State> CrashSteps(const State& s) const {
    State next = s;
    next.locked.clear();
    return {std::move(next)};
  }

  static void MixState(Hasher128* h, const State& s) {
    h->MixU64(s.boxes.size());
    for (const auto& [user, box] : s.boxes) {
      h->MixU64(user);
      h->MixU64(box.size());
      for (const auto& [id, contents] : box) {
        h->MixString(id);
        h->MixString(contents);
      }
    }
    h->MixU64(s.locked.size());
    for (uint64_t u : s.locked) {
      h->MixU64(u);
    }
  }
  static std::string RetKey(const Ret& r) {
    std::string key = r.id + "|";
    for (const auto& [id, contents] : r.msgs) {
      key += id + "=" + contents + ";";
    }
    return key;
  }
  static std::string OpName(const Op& op) {
    switch (op.kind) {
      case Kind::kPickup:
        return "Pickup(" + std::to_string(op.user) + ")";
      case Kind::kDeliver:
        return "Deliver(" + std::to_string(op.user) + ", \"" + op.arg + "\")";
      case Kind::kDelete:
        return "Delete(" + std::to_string(op.user) + ", " + op.arg + ")";
      case Kind::kUnlock:
        return "Unlock(" + std::to_string(op.user) + ")";
    }
    return "?";
  }

  static Op MakePickup(uint64_t user) { return Op{Kind::kPickup, user, ""}; }
  static Op MakeDeliver(uint64_t user, std::string contents) {
    return Op{Kind::kDeliver, user, std::move(contents)};
  }
  static Op MakeDelete(uint64_t user, std::string id) {
    return Op{Kind::kDelete, user, std::move(id)};
  }
  static Op MakeUnlock(uint64_t user) { return Op{Kind::kUnlock, user, ""}; }
};

}  // namespace perennial::mailboat

#endif  // PERENNIAL_SRC_MAILBOAT_MAIL_SPEC_H_
