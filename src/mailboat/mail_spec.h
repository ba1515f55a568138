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
//
// Representation: Prepare() also interns every delivered body into
// `contents_pool`, so a State is a flat value — a sorted vector of
// (user, id index, contents index) triples and a lock bit mask — that the
// checker copies with one allocation and no string. Strings are built only
// for the Pickup and Deliver responses. A Deliver whose contents Prepare
// never saw (a direct Step on an unprepared spec) still works: the state
// interns those contents itself, in `loose_contents`.
#ifndef PERENNIAL_SRC_MAILBOAT_MAIL_SPEC_H_
#define PERENNIAL_SRC_MAILBOAT_MAIL_SPEC_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/panic.h"
#include "src/refine/history.h"
#include "src/tsys/transition.h"

namespace perennial::mailboat {

struct MailSpec {
  // Users are the bits of State::locked.
  static constexpr uint64_t kMaxUsers = 64;
  // Tags a Msg::contents index into State::loose_contents rather than
  // contents_pool.
  static constexpr uint32_t kLoose = uint32_t{1} << 31;

  struct Msg {
    uint32_t user = 0;
    uint32_t id = 0;        // index into id_pool
    uint32_t contents = 0;  // index into contents_pool, or kLoose | index into loose_contents
    friend bool operator==(const Msg&, const Msg&) = default;
  };

  struct State {
    // Every delivered, undeleted message, sorted by (user, id). id_pool is
    // sorted, so a mailbox's id order is its ids' string order.
    std::vector<Msg> msgs;
    // Bit u: user u holds the pickup/delete lock.
    uint64_t locked = 0;
    // Contents no prepared pool holds: sorted, distinct, each referenced by
    // some message (so equal mailboxes have equal States). Empty whenever
    // the spec was prepared on the history being checked.
    std::vector<std::string> loose_contents;
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
  // Filled by Prepare; both sorted and distinct.
  std::vector<std::string> id_pool{};
  std::vector<std::string> contents_pool{};

  // The linearizer resumes a retained frontier spine only under an equal
  // prepared spec (linearize.h); a State's indices mean something only
  // against the pools it was built with.
  friend bool operator==(const MailSpec&, const MailSpec&) = default;

  State Initial() const {
    PCC_ENSURE(num_users <= kMaxUsers, "MailSpec supports at most 64 users");
    return State{};
  }

  // Bounds Deliver's id nondeterminism using the history itself, and
  // interns the delivered contents.
  void Prepare(const std::vector<typename refine::History<MailSpec>::Event>& events) {
    std::set<std::string_view> ids;
    std::set<std::string_view> contents;
    size_t delivers = 0;
    for (const auto& e : events) {
      using EvKind = typename refine::History<MailSpec>::Kind;
      if (e.kind == EvKind::kInvoke) {
        if (e.op.kind == Kind::kDeliver) {
          ++delivers;
          contents.insert(e.op.arg);
        } else if (e.op.kind == Kind::kDelete) {
          ids.insert(e.op.arg);
        }
      } else if (e.kind == EvKind::kReturn) {
        if (!e.ret.id.empty()) {
          ids.insert(e.ret.id);
        }
        for (const auto& [id, body] : e.ret.msgs) {
          ids.insert(id);
        }
      }
    }
    std::vector<std::string> synthetic;
    for (size_t i = 0; i < delivers; ++i) {
      synthetic.push_back("#unobserved-" + std::to_string(i));
    }
    ids.insert(synthetic.begin(), synthetic.end());
    id_pool.assign(ids.begin(), ids.end());
    contents_pool.assign(contents.begin(), contents.end());
  }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    using Out = tsys::Outcome<State, Ret>;
    if (op.user >= num_users) {
      return Out::Undef();
    }
    PCC_ENSURE(op.user < kMaxUsers, "MailSpec supports at most 64 users");
    const uint32_t user = static_cast<uint32_t>(op.user);
    const uint64_t bit = uint64_t{1} << op.user;
    switch (op.kind) {
      case Kind::kPickup: {
        if ((s.locked & bit) != 0) {
          return Out::None();  // blocked until Unlock
        }
        State next = s;
        next.locked |= bit;
        Ret ret;
        for (auto it = Seek(s.msgs, user, 0); it != s.msgs.end() && it->user == user; ++it) {
          ret.msgs.emplace_back(id_pool[it->id], ContentsOf(s, it->contents));
        }
        return Out::One(std::move(next), std::move(ret));
      }
      case Kind::kDeliver: {
        // Contents outside the pool are interned into the state first, once
        // for every branch.
        const State* from = &s;
        State interned;
        uint32_t contents = PoolIndex(contents_pool, op.arg);
        if (contents == kNotFound) {
          interned = s;
          contents = InternLoose(&interned, op.arg);
          from = &interned;
        }
        auto it = Seek(from->msgs, user, 0);
        Out out;
        for (uint32_t id = 0; id < id_pool.size(); ++id) {
          while (it != from->msgs.end() && it->user == user && it->id < id) {
            ++it;
          }
          if (it != from->msgs.end() && it->user == user && it->id == id) {
            continue;
          }
          State next;
          next.locked = from->locked;
          next.loose_contents = from->loose_contents;
          next.msgs.reserve(from->msgs.size() + 1);
          next.msgs.insert(next.msgs.end(), from->msgs.begin(), it);
          next.msgs.push_back(Msg{user, id, contents});
          next.msgs.insert(next.msgs.end(), it, from->msgs.end());
          Ret ret;
          ret.id = id_pool[id];
          out.branches.emplace_back(std::move(next), std::move(ret));
        }
        return out;
      }
      case Kind::kDelete: {
        // §8.1: deleting without the lock, or an id Pickup never listed,
        // is outside the contract.
        const uint32_t id = PoolIndex(id_pool, op.arg);
        const auto it = Seek(s.msgs, user, id);
        if ((s.locked & bit) == 0 || id == kNotFound || it == s.msgs.end() ||
            it->user != user || it->id != id) {
          return Out::Undef();
        }
        State next;
        next.locked = s.locked;
        next.loose_contents = s.loose_contents;
        next.msgs.reserve(s.msgs.size() - 1);
        next.msgs.insert(next.msgs.end(), s.msgs.begin(), it);
        next.msgs.insert(next.msgs.end(), it + 1, s.msgs.end());
        if ((it->contents & kLoose) != 0) {
          ReleaseLoose(&next, it->contents);
        }
        return Out::One(std::move(next), Ret{});
      }
      case Kind::kUnlock: {
        if ((s.locked & bit) == 0) {
          return Out::Undef();
        }
        State next = s;
        next.locked &= ~bit;
        return Out::One(std::move(next), Ret{});
      }
    }
    return Out::None();
  }

  // Crash: mail is durable; locks are volatile.
  std::vector<State> CrashSteps(const State& s) const {
    State next = s;
    next.locked = 0;
    return {std::move(next)};
  }

  // Injective for a fixed prepared spec, which is all a config fingerprint
  // compares (indices and pool ids are < 2^32).
  static void MixState(Hasher128* h, const State& s) {
    h->MixU64(s.msgs.size());
    for (const Msg& m : s.msgs) {
      h->MixU64(m.user);
      h->MixU64((uint64_t{m.id} << 32) | m.contents);
    }
    h->MixU64(s.locked);
    h->MixU64(s.loose_contents.size());
    for (const std::string& c : s.loose_contents) {
      h->MixString(c);
    }
  }
  static void MixRet(Hasher128* h, const Ret& r) {
    h->MixString(r.id);
    h->MixU64(r.msgs.size());
    for (const auto& [id, contents] : r.msgs) {
      h->MixString(id);
      h->MixString(contents);
    }
  }
  // Every string is quoted with `"` and `\` escaped, so distinct returns
  // render distinctly whatever bytes the ids and contents hold.
  static std::string RetKey(const Ret& r) {
    std::string key = Quote(r.id) + " [";
    for (size_t i = 0; i < r.msgs.size(); ++i) {
      key += (i == 0 ? "" : ", ") + Quote(r.msgs[i].first) + "=" + Quote(r.msgs[i].second);
    }
    return key + "]";
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

 private:
  static constexpr uint32_t kNotFound = ~uint32_t{0};

  static uint32_t PoolIndex(const std::vector<std::string>& pool, std::string_view s) {
    auto it = std::lower_bound(pool.begin(), pool.end(), s);
    return it != pool.end() && *it == s ? static_cast<uint32_t>(it - pool.begin()) : kNotFound;
  }

  // The first message at or after (user, id) in State::msgs order.
  static std::vector<Msg>::const_iterator Seek(const std::vector<Msg>& msgs, uint32_t user,
                                               uint32_t id) {
    return std::lower_bound(msgs.begin(), msgs.end(), std::pair(user, id),
                            [](const Msg& m, std::pair<uint32_t, uint32_t> key) {
                              return std::pair(m.user, m.id) < key;
                            });
  }

  const std::string& ContentsOf(const State& s, uint32_t contents) const {
    return (contents & kLoose) != 0 ? s.loose_contents[contents & ~kLoose]
                                    : contents_pool[contents];
  }

  // Adds `contents` to s->loose_contents (keeping it sorted, and the
  // messages' loose indices pointing at the same strings); returns its
  // tagged index.
  static uint32_t InternLoose(State* s, const std::string& contents) {
    auto it = std::lower_bound(s->loose_contents.begin(), s->loose_contents.end(), contents);
    const uint32_t k = static_cast<uint32_t>(it - s->loose_contents.begin());
    if (it == s->loose_contents.end() || *it != contents) {
      s->loose_contents.insert(it, contents);
      for (Msg& m : s->msgs) {
        if ((m.contents & kLoose) != 0 && (m.contents & ~kLoose) >= k) {
          ++m.contents;
        }
      }
    }
    return kLoose | k;
  }

  // Drops loose contents `tagged` once no message refers to it.
  static void ReleaseLoose(State* s, uint32_t tagged) {
    for (const Msg& m : s->msgs) {
      if (m.contents == tagged) {
        return;
      }
    }
    s->loose_contents.erase(s->loose_contents.begin() + (tagged & ~kLoose));
    for (Msg& m : s->msgs) {
      if ((m.contents & kLoose) != 0 && m.contents > tagged) {
        --m.contents;
      }
    }
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    return out + "\"";
  }
};

}  // namespace perennial::mailboat

#endif  // PERENNIAL_SRC_MAILBOAT_MAIL_SPEC_H_
