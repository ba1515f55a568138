// The concurrent-recovery-refinement decision procedure.
//
// Given a complete history (history.h) and a specification transition
// system, this module decides whether the history is explainable by some
// interleaving of atomic spec transitions — i.e. whether this execution
// witnesses concurrent recovery refinement (§3.1, Theorem 2):
//
//  * Each completed operation linearizes between its invocation and its
//    response, with a return value the spec allows (Wing & Gong's
//    linearizability search, here over possibly-nondeterministic specs).
//  * At a crash, each still-pending operation either linearizes before the
//    spec-level crash transition (its effect is durable — possibly because
//    recovery helped it) or is discarded (it never happened).
//  * Operations recovery claims to have helped MUST linearize before the
//    crash they were pending at.
//  * The crash itself takes one atomic spec crash transition (which may be
//    nondeterministic, e.g. group commit losing buffered transactions).
//
// If any search branch drives the spec into *undefined* behavior, the
// history is accepted: the spec imposes no obligations past UB (§8.3) —
// the workloads used by the explorer are designed to stay within defined
// behavior, so this arises only when deliberately testing UB exploitation.
//
// The search runs as a LAYERED BREADTH-FIRST pass: it maintains, per
// history prefix, the frontier of reachable spec configurations (state,
// chosen-but-unreturned responses, commit records), closed under "some
// pending op linearizes now". A history is accepted iff the frontier after
// the last event is non-empty (or UB was reached). Two properties make the
// frontier a pure function of the PREFIX, which is what lets a later
// history that shares the prefix resume the search from it (the spine
// below):
//
//  * Every obligation is checked at the event that imposes it. In
//    particular the helped-op obligation is enforced at the kHelped event
//    (the op must appear in the commit snapshot taken at the most recent
//    crash), not at the crash — the crash event cannot know which ops a
//    later recovery will claim.
//  * Configurations carry only prefix-determined data: the commit set is
//    EVERY op id ever linearized (not just the ids some future recovery
//    will help), plus the snapshot of that set at the last crash.
//
// This is equivalent to the DFS formulation: an op helped after crash C
// must have linearized while still pending, and crashes clear the pending
// set, so "linearized before C" and "present in C's commit snapshot"
// coincide.
//
// Spec requirements (a "SpecModel"):
//   using State, Op, Ret;                     // Ret: equality-comparable
//   State Initial() const;
//   tsys::Outcome<State, Ret> Step(const State&, const Op&) const;
//   std::vector<State> CrashSteps(const State&) const;
//   static void MixState(Hasher128*, const State&); // injective encoding
//   static void MixRet(Hasher128*, const Ret&);     // injective, self-delimiting
//   static std::string RetKey(const Ret&);     // for messages
//   static std::string OpName(const Op&);      // canonical, injective
//
// MixState and MixRet feed a state / a chosen response into the config
// fingerprint field by field (length-prefixing every variable-size part),
// so deduplicating a config renders no string. MixRet also feeds returns
// into history fingerprints (memo.h), whose events it must delimit.
//
// A Config (SpecFrontier below) is a flat value: the spec state, sorted
// vectors for the pending and linearized ops, and two op-id sets that
// store ids below 64 inline. Copying one allocates one buffer per
// non-empty vector plus whatever copying the spec's State and Rets
// allocates, which is why specs keep State flat too (MailSpec interns ids
// and contents, mail_spec.h). A pending op is named
// by the index of its invocation event instead of a copy of its Op: a
// frontier after events[0..i) names only events below i, and every history
// that resumes from that frontier shares those events.
//
// Specs with an optional `Prepare(events)` hook (data-dependent
// nondeterminism, e.g. Mailboat's message-id pool) read the WHOLE history
// before stepping, and must be equality-comparable. A frontier is a pure
// function of the event prefix AND the prepared spec, so the spine below
// is resumed only when the newly prepared spec compares equal to the one
// the spine was built with; otherwise the search restarts from slot 0.
//
// HOT PATH: the checker owns a per-search ARENA that is reset, not
// freed, between histories. Frontiers live in a spine_ vector where
// spine_[i] is the closed frontier after events[0..i); deriving a frontier
// clears and refills the next slot in place, and configs are deduplicated
// by 128-bit fingerprints (seen_, a retained hash set) instead of
// serialized string keys. Check(history, reuse_events) lets the caller
// resume from a retained spine prefix: the explorer's DFS odometer knows
// how many leading events the new history shares with the previous one, so
// consecutive executions skip re-deriving the common prefix entirely.
// spine_states_[i] retains the cumulative states_explored count a
// from-scratch run would have at slot i, so resuming reports bit-identical
// spec_states_explored — which is what keeps serial and parallel reports
// equal even though workers resume from different depths.
#ifndef PERENNIAL_SRC_REFINE_LINEARIZE_H_
#define PERENNIAL_SRC_REFINE_LINEARIZE_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/refine/history.h"
#include "src/tsys/transition.h"

namespace perennial::refine {

// A set of op ids. History numbers ops densely from 1, so ids below 64
// live in one inline word and copying the set allocates nothing; larger ids
// spill into a sorted vector. Sets only grow, so equal sets are equal
// values.
class OpIdSet {
 public:
  bool contains(uint64_t id) const {
    return id < 64 ? ((word_ >> id) & 1) != 0
                   : std::binary_search(spill_.begin(), spill_.end(), id);
  }
  void insert(uint64_t id) {
    if (id < 64) {
      word_ |= uint64_t{1} << id;
      return;
    }
    auto it = std::lower_bound(spill_.begin(), spill_.end(), id);
    if (it == spill_.end() || *it != id) {
      spill_.insert(it, id);
    }
  }
  void Mix(Hasher128* h) const {
    h->MixU64(word_);
    h->MixU64(spill_.size());
    for (uint64_t id : spill_) {
      h->MixU64(id);
    }
  }
  friend bool operator==(const OpIdSet&, const OpIdSet&) = default;

 private:
  uint64_t word_ = 0;
  std::vector<uint64_t> spill_;
};

// The spec-side configurations reachable after one history prefix, closed
// under linearization moves. `undefined` is sticky: some reachable config
// stepped into spec UB, which accepts every history with this prefix.
template <typename Spec>
struct SpecFrontier {
  using State = typename Spec::State;
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;

  // A flat value: the state, two sorted vectors and two op-id sets.
  struct Config {
    State state;
    // Invoked, not yet linearized, sorted by op id: (op id, index of the
    // op's kInvoke event). The Op is read from the history. A frontier
    // after events[0..i) names only events below i, and every history that
    // resumes from it through the spine shares those.
    std::vector<std::pair<uint64_t, size_t>> pending;
    // Linearized with a chosen return value, awaiting the response; sorted
    // by op id.
    std::vector<std::pair<uint64_t, Ret>> linearized;
    // Every op id that ever linearized. Never reset (commit records model
    // durable facts); pending is derivable from (prefix, committed), so
    // this also determines the pending set.
    OpIdSet committed;
    // Snapshot of `committed` taken at the most recent crash event; the
    // kHelped obligation is checked against it.
    OpIdSet committed_at_crash;
  };

  bool undefined = false;
  std::vector<Config> configs;
};

template <typename Spec>
class LinearizabilityChecker {
 public:
  using State = typename Spec::State;
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;
  using Hist = History<Spec>;
  using Frontier = SpecFrontier<Spec>;

  explicit LinearizabilityChecker(const Spec* spec)
      : spec_storage_(*spec), spec_(&spec_storage_), spine_spec_(*spec) {}

  // nullopt when the history refines the spec; otherwise a description of
  // why no spec interleaving explains it.
  //
  // `reuse_events`: the caller guarantees that the first `reuse_events`
  // events of `history` are identical to the first `reuse_events` events of
  // the history passed to the PREVIOUS Check call on this checker (0 = no
  // guarantee). The search then resumes from the deepest retained spine
  // frontier at or below that depth. The reported states_explored is
  // unaffected by where the search resumed (see the header comment), so
  // callers may pass any sound value without perturbing reports.
  std::optional<std::string> Check(const Hist& history, size_t reuse_events = 0) {
    const std::vector<typename Hist::Event>& events = history.events;
    states_explored_ = 0;
    resumed_events_ = 0;
    // A helped event needs a crash to snapshot against; recovery only
    // emits kHelped after a crash, so this is a harness-integrity check.
    // The spine is not rebuilt for this history, so it may not be resumed.
    bool seen_crash = false;
    for (const auto& e : events) {
      if (e.kind == Hist::Kind::kCrash) {
        seen_crash = true;
      } else if (e.kind == Hist::Kind::kHelped && !seen_crash) {
        spine_ok_ = 0;
        return "helped event with no preceding crash";
      }
    }
    bool resumable = true;
    // Specs with data-dependent nondeterminism (e.g. Mailboat's random
    // message ids) pre-scan the history to bound their branch sets. Their
    // frontiers depend on the prepared spec as well as the prefix, so the
    // spine is resumable only under an equal prepared spec.
    if constexpr (kPrepares) {
      static_assert(std::equality_comparable<Spec>,
                    "a spec with Prepare() must define operator==");
      spec_storage_.Prepare(events);
      resumable = spec_storage_ == spine_spec_;
    }

    // Pick the resume point: the deepest spine frontier within the shared
    // prefix that the last Check left valid (spine_ok_), or slot 0 (built
    // on first use, and whenever a Prepare spec's prepared data changed —
    // Initial may observe it).
    size_t resume = 0;
    if (resumable && spine_ok_ > 0) {
      resume = std::min(std::min(reuse_events, spine_ok_ - 1), events.size());
    } else {
      if constexpr (kPrepares) {
        spine_spec_ = spec_storage_;
      }
      EnsureSlot(0);
      BuildInitial(&spine_[0]);
      spine_states_[0] = 0;
      spine_ok_ = 1;
    }
    resumed_events_ = resume;
    states_explored_ = spine_states_[resume];
    size_t idx = resume;
    while (idx < events.size()) {
      // Resize BEFORE binding cur: EnsureSlot may reallocate the spine.
      EnsureSlot(idx + 1);
      const Frontier& cur = spine_[idx];
      if (cur.undefined) {
        break;  // spec UB: no further obligations
      }
      if (cur.configs.empty()) {
        break;  // already inexplicable; later events cannot help
      }
      DeriveNext(cur, events, idx, &spine_[idx + 1]);
      spine_states_[idx + 1] = states_explored_;
      ++idx;
    }
    // The next Check may resume from any slot this history derived.
    spine_ok_ = idx + 1;
    const Frontier& fin = spine_[idx];
    if (fin.undefined || !fin.configs.empty()) {
      // Leftover pending ops simply never happened; every response (and
      // every helped-op obligation) was explained.
      return std::nullopt;
    }
    return "no spec interleaving explains this history:\n" + history.ToString();
  }

  uint64_t states_explored() const { return states_explored_; }

  // Leading events of the last checked history whose frontiers came from
  // the retained spine instead of being derived (0: the search started at
  // the initial frontier, or the last Check returned before searching).
  size_t resumed_events() const { return resumed_events_; }

  // Arena introspection for the reset-between-histories regression test:
  // retained capacity must plateau across same-shaped histories.
  struct ArenaStats {
    size_t spine_slots = 0;       // frontier slots ever materialized
    size_t config_capacity = 0;   // sum of per-slot config vector capacities
    size_t seen_buckets = 0;      // dedup hash-set bucket count
  };
  ArenaStats arena_stats() const {
    ArenaStats s;
    s.spine_slots = spine_.size();
    for (const Frontier& f : spine_) {
      s.config_capacity += f.configs.capacity();
    }
    s.seen_buckets = seen_.bucket_count();
    return s;
  }

  // Approximate bytes retained by the arena between histories — the
  // explorer's memory-budget input (ExplorerOptions::max_memory_bytes).
  // Deliberately an ACCOUNTING estimate, not RSS: capacities times element
  // sizes, so the number is a deterministic function of the exploration
  // path and a resumed run observes the same budget pressure as an
  // uninterrupted one. A Config's heap parts (the spec state's own
  // buffers, the pending/linearized vectors, spilled op ids) are folded in
  // as a flat per-config constant; the explorer polls this at execution
  // granularity, so a per-element walk would dominate small specs.
  size_t approx_retained_bytes() const {
    size_t b = spine_.capacity() * sizeof(Frontier);
    for (const Frontier& f : spine_) {
      b += f.configs.capacity() * (sizeof(Config) + 64);
    }
    b += spine_states_.capacity() * sizeof(uint64_t);
    b += seen_.bucket_count() * (sizeof(Hash128) + sizeof(void*));
    return b;
  }

 private:
  using Config = typename Frontier::Config;

  struct Hash128Hasher {
    size_t operator()(const Hash128& h) const { return static_cast<size_t>(h.lo); }
  };

  void EnsureSlot(size_t i) {
    if (spine_.size() <= i) {
      spine_.resize(i + 1);
    }
    if (spine_states_.size() <= i) {
      spine_states_.resize(i + 1, 0);
    }
  }

  // 128-bit config fingerprint for frontier dedup: the state through
  // Spec::MixState and the chosen responses through Spec::MixRet, so no
  // string is rendered. pending is omitted: it equals (ops invoked since
  // the last crash) minus committed, both of which the fingerprint already
  // determines. Collisions would merge two distinct configs; at 128 bits
  // that is as improbable as the history-fingerprint collisions the dedup
  // layer already accepts.
  static Hash128 ConfigFp(const Config& c) {
    Hasher128 f;
    Spec::MixState(&f, c.state);
    f.MixU64(c.linearized.size());
    for (const auto& [id, ret] : c.linearized) {
      f.MixU64(id);
      Spec::MixRet(&f, ret);
    }
    c.committed.Mix(&f);
    c.committed_at_crash.Mix(&f);
    return f.digest();
  }

  // The initial frontier: the spec's initial state, trivially closed (no
  // pending ops exist before the first event, so closure is a no-op).
  void BuildInitial(Frontier* out) {
    out->undefined = false;
    out->configs.clear();
    Config init;
    init.state = spec_->Initial();
    out->configs.push_back(std::move(init));
  }

  // Consumes events[idx] — maps each config of `in` to its successors
  // (possibly none: a config that cannot explain the event drops out) —
  // then closes the result under "one pending op linearizes now": any
  // pending op may take effect at any moment between its invocation and its
  // response/crash. Sets out->undefined (and stops) if a step leaves the
  // spec's defined domain. `out` is reused storage: cleared, not freed.
  // One seen_ set spans both phases, which matches the old two-set scheme
  // exactly (the closure seeded its set with every event-phase config).
  void DeriveNext(const Frontier& in, const std::vector<typename Hist::Event>& events,
                  size_t idx, Frontier* out) {
    const typename Hist::Event& e = events[idx];
    out->undefined = false;
    out->configs.clear();
    seen_.clear();
    auto emit = [&](Config&& c) {
      if (seen_.insert(ConfigFp(c)).second) {
        ++states_explored_;
        out->configs.push_back(std::move(c));
      }
    };
    for (const Config& c : in.configs) {
      switch (e.kind) {
        case Hist::Kind::kInvoke: {
          Config c2;
          c2.state = c.state;
          c2.pending = WithInserted(c.pending, IdPos(c.pending, e.op_id),
                                    std::pair<uint64_t, size_t>(e.op_id, idx));
          c2.linearized = c.linearized;
          c2.committed = c.committed;
          c2.committed_at_crash = c.committed_at_crash;
          emit(std::move(c2));
          break;
        }
        case Hist::Kind::kReturn: {
          const size_t pos = IdPos(c.linearized, e.op_id);
          if (pos < c.linearized.size() && c.linearized[pos].first == e.op_id &&
              c.linearized[pos].second == e.ret) {
            Config c2;
            c2.state = c.state;
            c2.pending = c.pending;
            c2.linearized = WithErased(c.linearized, pos);
            c2.committed = c.committed;
            c2.committed_at_crash = c.committed_at_crash;
            emit(std::move(c2));
          }
          // Not linearized, or a mismatched chosen return: dead branch.
          break;
        }
        case Hist::Kind::kHelped: {
          // Recovery committed this op on a crashed thread's behalf, which
          // is only sound if the op's effect was durable at the crash —
          // i.e. it linearized before the snapshot taken there.
          if (c.committed_at_crash.contains(e.op_id)) {
            emit(Config(c));
          }
          break;
        }
        case Hist::Kind::kCrash: {
          // The crash discards every pending op and every unreturned
          // response; the spec takes one (possibly nondeterministic) crash
          // transition; commit records survive and are snapshotted.
          for (State& next : spec_->CrashSteps(c.state)) {
            Config c2;
            c2.state = std::move(next);
            c2.committed = c.committed;
            c2.committed_at_crash = c.committed;
            emit(std::move(c2));
          }
          break;
        }
      }
    }
    // out->configs doubles as the BFS queue: new configs are appended and
    // scanned in turn. emit may reallocate it, so the config being scanned
    // is re-read by index after every emit instead of being held by
    // reference (or copied).
    for (size_t i = 0; i < out->configs.size(); ++i) {
      for (size_t j = 0; j < out->configs[i].pending.size(); ++j) {
        const auto [id, invoke] = out->configs[i].pending[j];
        tsys::Outcome<State, Ret> res = spec_->Step(out->configs[i].state, events[invoke].op);
        if (res.undefined) {
          out->undefined = true;
          return;
        }
        for (auto& [next_state, ret] : res.branches) {
          const Config& c = out->configs[i];
          Config c2;
          c2.state = std::move(next_state);
          c2.pending = WithErased(c.pending, j);
          c2.linearized = WithInserted(c.linearized, IdPos(c.linearized, id),
                                       std::pair<uint64_t, Ret>(id, std::move(ret)));
          c2.committed = c.committed;
          c2.committed.insert(id);
          c2.committed_at_crash = c.committed_at_crash;
          emit(std::move(c2));
        }
      }
    }
  }

  // Where op `id` is, or would go, in a vector sorted by op id.
  template <typename T>
  static size_t IdPos(const std::vector<std::pair<uint64_t, T>>& v, uint64_t id) {
    auto before = [](const std::pair<uint64_t, T>& p, uint64_t x) { return p.first < x; };
    return std::lower_bound(v.begin(), v.end(), id, before) - v.begin();
  }
  // Copies of `v` with one element inserted at / erased from `pos`, built
  // at their final size (one allocation, no shifting).
  template <typename T>
  static std::vector<T> WithInserted(const std::vector<T>& v, size_t pos, T x) {
    std::vector<T> out;
    out.reserve(v.size() + 1);
    out.insert(out.end(), v.begin(), v.begin() + pos);
    out.push_back(std::move(x));
    out.insert(out.end(), v.begin() + pos, v.end());
    return out;
  }
  template <typename T>
  static std::vector<T> WithErased(const std::vector<T>& v, size_t pos) {
    std::vector<T> out;
    out.reserve(v.size() - 1);
    out.insert(out.end(), v.begin(), v.begin() + pos);
    out.insert(out.end(), v.begin() + pos + 1, v.end());
    return out;
  }

  static constexpr bool kPrepares =
      requires(Spec& s, const std::vector<typename Hist::Event>& ev) { s.Prepare(ev); };

  Spec spec_storage_;
  const Spec* spec_;
  // Prepare specs only: the prepared spec spine_ was built with. A Check
  // whose prepared spec differs rebuilds the spine from slot 0.
  Spec spine_spec_;
  uint64_t states_explored_ = 0;
  size_t resumed_events_ = 0;
  // --- Per-search arena: reset between histories, never freed ---
  std::vector<Frontier> spine_;          // spine_[i]: frontier after events[0..i)
  std::vector<uint64_t> spine_states_;   // cumulative states count at spine_[i]
  // Slots [0, spine_ok_) hold the LAST-CHECKED history's frontiers; only
  // these are eligible resume points for the next Check.
  size_t spine_ok_ = 0;
  std::unordered_set<Hash128, Hash128Hasher> seen_;  // per-event config dedup
};

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_LINEARIZE_H_
