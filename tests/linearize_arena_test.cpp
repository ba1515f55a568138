// Arena regression tests for the linearizability checker (PR 4's
// allocation-lean hot path): a single LinearizabilityChecker instance is
// fed many histories and must (a) give exactly the verdict a fresh checker
// gives — the arena reset leaks no state between searches — and (b) stop
// growing: retained capacity (spine slots, config storage, dedup buckets)
// plateaus once the checker has seen the largest history shape. Running
// this binary under ASan (-DPCC_SANITIZE=address) additionally checks that
// spine reuse never touches freed or stale frontier storage.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/mailboat/mail_spec.h"
#include "src/refine/history.h"
#include "src/refine/linearize.h"
#include "src/tsys/transition.h"

namespace perennial::refine {
namespace {

// The register spec from refine_test.cpp: write(v) / read() -> v, durable
// across crashes.
struct RegSpec {
  struct State {
    uint64_t v = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  struct Op {
    bool is_write = false;
    uint64_t arg = 0;
  };
  using Ret = uint64_t;

  State Initial() const { return {}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (op.is_write) {
      return tsys::Outcome<State, Ret>::One(State{op.arg}, 0);
    }
    return tsys::Outcome<State, Ret>::One(s, s.v);
  }

  std::vector<State> CrashSteps(const State& s) const { return {s}; }

  static void MixState(Hasher128* h, const State& s) { h->MixU64(s.v); }
  static void MixRet(Hasher128* h, const Ret& r) { h->MixU64(r); }
  static std::string RetKey(const Ret& r) { return std::to_string(r); }
  static std::string OpName(const Op& op) {
    return op.is_write ? "write(" + std::to_string(op.arg) + ")" : "read()";
  }
};

RegSpec::Op Write(uint64_t v) { return RegSpec::Op{true, v}; }
RegSpec::Op Read() { return RegSpec::Op{false, 0}; }

using Hist = History<RegSpec>;

// Deterministic history generator: the SHAPE (event structure, hence
// frontier sizes) cycles with period 8 so every retained capacity is
// reached within the first few iterations; the VALUES vary freely — they
// change fingerprints but not allocation footprints.
Hist MakeHistory(uint64_t i) {
  uint64_t v1 = 1 + (i * 2654435761u) % 97;
  uint64_t v2 = 1 + (i * 40503u) % 89;
  Hist h;
  switch (i % 8) {
    case 0: {  // sequential write/read
      uint64_t w = h.Invoke(0, Write(v1));
      h.Return(w, 0);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1);
      break;
    }
    case 1: {  // two overlapping writers + racing reader
      uint64_t w1 = h.Invoke(0, Write(v1));
      uint64_t w2 = h.Invoke(1, Write(v2));
      uint64_t r = h.Invoke(2, Read());
      h.Return(w1, 0);
      h.Return(w2, 0);
      h.Return(r, v1);  // reader may see the first writer
      break;
    }
    case 2: {  // crash with a pending write that never happened
      uint64_t w = h.Invoke(0, Write(v1));
      (void)w;
      h.Crash();
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, 0);  // the pending write may be discarded
      break;
    }
    case 3: {  // helped op: write linearized before the crash
      uint64_t w = h.Invoke(0, Write(v1));
      h.Crash();
      h.Helped(w);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1);
      break;
    }
    case 4: {  // NON-linearizable: read sees a value nobody wrote
      uint64_t w = h.Invoke(0, Write(v1));
      h.Return(w, 0);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1 + 100);
      break;
    }
    case 5: {  // three concurrent writers, reader pinned to the last
      uint64_t w1 = h.Invoke(0, Write(v1));
      uint64_t w2 = h.Invoke(1, Write(v2));
      uint64_t w3 = h.Invoke(2, Write(v1 + v2));
      h.Return(w1, 0);
      h.Return(w2, 0);
      h.Return(w3, 0);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1 + v2);  // some order ends with w3
      break;
    }
    case 6: {  // two crashes, durable register
      uint64_t w = h.Invoke(0, Write(v1));
      h.Return(w, 0);
      h.Crash();
      h.Crash();
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1);
      break;
    }
    default: {  // NON-linearizable: helped op that was still pending
      uint64_t w = h.Invoke(0, Write(v1));
      (void)w;
      h.Crash();
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, 0);
      h.Helped(w);  // but the read-0 already forced "never happened"
      break;
    }
  }
  return h;
}

TEST(LinearizeArena, VerdictsMatchFreshCheckerAcross1kHistories) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> reused(&spec);
  for (uint64_t i = 0; i < 1000; ++i) {
    Hist h = MakeHistory(i);
    LinearizabilityChecker<RegSpec> fresh(&spec);
    auto expect = fresh.Check(h);
    auto got = reused.Check(h);
    ASSERT_EQ(got.has_value(), expect.has_value()) << "history " << i;
    // The per-history search work must also be independent of arena reuse:
    // states_explored feeds bit-identical explorer reports.
    ASSERT_EQ(reused.states_explored(), fresh.states_explored()) << "history " << i;
  }
}

TEST(LinearizeArena, RetainedCapacityPlateaus) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  for (uint64_t i = 0; i < 100; ++i) {
    (void)checker.Check(MakeHistory(i));
  }
  const auto warm = checker.arena_stats();
  EXPECT_GT(warm.spine_slots, 0u);
  for (uint64_t i = 100; i < 1000; ++i) {
    (void)checker.Check(MakeHistory(i));
  }
  const auto cold = checker.arena_stats();
  EXPECT_EQ(cold.spine_slots, warm.spine_slots);
  EXPECT_EQ(cold.config_capacity, warm.config_capacity);
  EXPECT_EQ(cold.seen_buckets, warm.seen_buckets);
}

TEST(LinearizeArena, SpineResumeMatchesFreshChecker) {
  // Check(history, reuse_events): resuming from a retained spine prefix
  // must change neither the verdict nor the reported search-state count.
  RegSpec spec;
  LinearizabilityChecker<RegSpec> reused(&spec);

  Hist base;
  uint64_t w1 = base.Invoke(0, Write(3));
  uint64_t w2 = base.Invoke(1, Write(7));
  base.Return(w1, 0);
  base.Return(w2, 0);
  uint64_t r = base.Invoke(0, Read());
  base.Return(r, 7);
  ASSERT_EQ(reused.Check(base), std::nullopt);

  // Variants diverging after each shared prefix length, including verdict
  // flips (the resumed suffix must still reject).
  for (size_t k = 0; k <= base.events.size(); ++k) {
    for (uint64_t tail : {uint64_t{3}, uint64_t{7}, uint64_t{99}}) {
      Hist variant;
      variant.events.assign(base.events.begin(), base.events.begin() + k);
      variant.next_op_id = base.next_op_id;
      uint64_t rv = variant.Invoke(2, Read());
      variant.Return(rv, tail);
      LinearizabilityChecker<RegSpec> fresh(&spec);
      auto expect = fresh.Check(variant);
      auto got = reused.Check(variant, /*reuse_events=*/k);
      ASSERT_EQ(got.has_value(), expect.has_value()) << "k=" << k << " tail=" << tail;
      ASSERT_EQ(reused.states_explored(), fresh.states_explored())
          << "k=" << k << " tail=" << tail;
      // Re-establish the contract for the next loop iteration: the next
      // variant shares only the base prefix with THIS one.
      ASSERT_EQ(reused.Check(base).has_value(), false);
    }
  }

  // Pending ops in a resumed frontier name their invocations by event
  // index, so they resolve in the RESUMING history's events. A leaves two
  // writes and a read pending after its first three events; each B shares
  // A's first k events, then the writes return in the other order, a crash
  // discards what is still pending, and a read sees `seen`. A's storage is
  // gone before B resumes from A's spine, so a frontier that pointed into
  // it instead of naming events by index would read freed memory (which
  // the ASan lane reports).
  Hist a;
  const uint64_t aw1 = a.Invoke(0, Write(3));
  const uint64_t aw2 = a.Invoke(1, Write(7));
  const uint64_t ra = a.Invoke(2, Read());
  a.Return(aw1, 0);
  a.Return(aw2, 0);
  a.Return(ra, 7);
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t k = 1; k <= 3; ++k) {
    for (uint64_t seen : {uint64_t{0}, uint64_t{3}, uint64_t{7}, uint64_t{99}}) {
      Hist b;
      b.events.assign(a.events.begin(), a.events.begin() + k);
      b.next_op_id = ra + 1;
      if (k == 3) {
        b.Return(ra, seen == 99 ? 0 : seen);
      }
      b.Return(aw2, 0);
      if (k >= 2) {
        b.Return(aw1, 0);
      }
      b.Crash();
      uint64_t rb = b.Invoke(3, Read());
      b.Return(rb, seen);
      {
        const Hist producer = a;
        ASSERT_EQ(reused.Check(producer), std::nullopt);
      }
      LinearizabilityChecker<RegSpec> fresh(&spec);
      auto expect = fresh.Check(b);
      auto got = reused.Check(b, /*reuse_events=*/k);
      ASSERT_EQ(reused.resumed_events(), k) << "k=" << k << " seen=" << seen;
      ASSERT_EQ(got.has_value(), expect.has_value()) << "k=" << k << " seen=" << seen;
      ASSERT_EQ(reused.states_explored(), fresh.states_explored())
          << "k=" << k << " seen=" << seen;
      (expect.has_value() ? rejected : accepted) += 1;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Resume under a Prepare spec: Mailboat's id pool is read from the WHOLE
// history, so a retained spine is only valid under an equal prepared spec.
// Variants share a prefix with the base history and end in one of several
// tails; some keep the base's id pool (the checker must resume from the
// shared prefix), others change it through a different returned id or an
// extra delivery (the checker must rebuild from slot 0). Either way the
// verdict and states_explored must equal a fresh checker's.
TEST(LinearizeArena, PrepareSpecResumesOnlyUnderAnEqualIdPool) {
  using mailboat::MailSpec;
  using MailHist = History<MailSpec>;
  auto deliver_ret = [](std::string id) {
    MailSpec::Ret r;
    r.id = std::move(id);
    return r;
  };
  auto pickup_ret = [](std::vector<std::pair<std::string, std::string>> msgs) {
    MailSpec::Ret r;
    r.msgs = std::move(msgs);
    return r;
  };

  MailSpec spec{1};
  LinearizabilityChecker<MailSpec> reused(&spec);
  MailHist base;
  uint64_t d1 = base.Invoke(0, MailSpec::MakeDeliver(0, "x"));
  uint64_t d2 = base.Invoke(1, MailSpec::MakeDeliver(0, "y"));
  base.Return(d1, deliver_ret("m1"));
  base.Return(d2, deliver_ret("m2"));
  uint64_t p = base.Invoke(2, MailSpec::MakePickup(0));
  base.Return(p, pickup_ret({{"m1", "x"}, {"m2", "y"}}));
  uint64_t u = base.Invoke(2, MailSpec::MakeUnlock(0));
  base.Return(u, MailSpec::Ret{});
  ASSERT_EQ(reused.Check(base), std::nullopt);
  MailSpec base_prepared = spec;
  base_prepared.Prepare(base.events);

  // Tails appended after the shared prefix by a fourth client.
  enum Tail { kSameIds, kSameIdsWrongContents, kNewId, kExtraDeliver };
  size_t resumed = 0;
  size_t rebuilt = 0;
  for (size_t k = 1; k <= base.events.size(); ++k) {
    for (Tail tail : {kSameIds, kSameIdsWrongContents, kNewId, kExtraDeliver}) {
      MailHist variant;
      variant.events.assign(base.events.begin(), base.events.begin() + k);
      variant.next_op_id = base.next_op_id;
      if (tail == kExtraDeliver) {
        uint64_t d = variant.Invoke(3, MailSpec::MakeDeliver(0, "z"));
        variant.Return(d, deliver_ret("m2"));
      }
      uint64_t q = variant.Invoke(3, MailSpec::MakePickup(0));
      switch (tail) {
        case kSameIds:
        case kExtraDeliver:
          variant.Return(q, pickup_ret({{"m1", "x"}, {"m2", "y"}}));
          break;
        case kSameIdsWrongContents:
          variant.Return(q, pickup_ret({{"m1", "y"}, {"m2", "x"}}));
          break;
        case kNewId:
          variant.Return(q, pickup_ret({{"m1", "x"}, {"m3", "y"}}));
          break;
      }
      MailSpec prepared = spec;
      prepared.Prepare(variant.events);
      const bool same_pool = prepared == base_prepared;

      LinearizabilityChecker<MailSpec> fresh(&spec);
      auto expect = fresh.Check(variant);
      auto got = reused.Check(variant, /*reuse_events=*/k);
      ASSERT_EQ(got.has_value(), expect.has_value()) << "k=" << k << " tail=" << tail;
      ASSERT_EQ(reused.states_explored(), fresh.states_explored())
          << "k=" << k << " tail=" << tail;
      ASSERT_EQ(reused.resumed_events(), same_pool ? k : 0) << "k=" << k << " tail=" << tail;
      (same_pool ? resumed : rebuilt) += 1;
      // The next variant shares only the base prefix with THIS one.
      ASSERT_EQ(reused.Check(base), std::nullopt);
    }
  }
  // Both rules were exercised: kNewId always changes the pool, and the
  // other tails keep it whenever the variant has two deliveries.
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(rebuilt, 0u);
}

}  // namespace
}  // namespace perennial::refine
