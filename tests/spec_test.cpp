// Direct unit tests for the specification transition systems: Step
// semantics, undefined-behavior boundaries, crash transitions, and the
// state-mixing and canonical key functions the memoizing checker depends on.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/hash.h"
#include "src/mailboat/mail_spec.h"
#include "src/refine/memo.h"
#include "src/systems/gc/gc_spec.h"
#include "src/systems/kvs/kv_spec.h"
#include "src/systems/pair_spec.h"
#include "src/systems/txnlog/txn_spec.h"

namespace perennial {
namespace {

using mailboat::MailSpec;
using systems::GcSpec;
using systems::KvSpec;
using systems::PairSpec;
using systems::TxnSpec;

// ---------- PairSpec ----------

TEST(PairSpecTest, WriteThenReadRoundTrips) {
  PairSpec spec;
  auto w = spec.Step(spec.Initial(), PairSpec::MakeWrite(3, 4));
  ASSERT_EQ(w.branches.size(), 1u);
  auto r = spec.Step(w.branches[0].first, PairSpec::MakeRead());
  EXPECT_EQ(r.branches[0].second, std::make_pair(uint64_t{3}, uint64_t{4}));
}

TEST(PairSpecTest, CrashIsIdentity) {
  PairSpec spec;
  PairSpec::State s{9, 8};
  auto crashed = spec.CrashSteps(s);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], s);
}

template <typename Spec>
Hash128 StateDigest(const typename Spec::State& s) {
  Hasher128 h;
  Spec::MixState(&h, s);
  return h.digest();
}

// Over every ordered pair of `states`: equal digests exactly when the
// states compare equal. Returns the number of pairs where that fails.
template <typename Spec>
size_t DigestEqualityMismatches(const std::vector<typename Spec::State>& states) {
  std::vector<Hash128> digests;
  for (const auto& s : states) {
    digests.push_back(StateDigest<Spec>(s));
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t j = 0; j < states.size(); ++j) {
      mismatches += (digests[i] == digests[j]) != (states[i] == states[j]);
    }
  }
  return mismatches;
}

TEST(PairSpecTest, MixStateIsInjectiveOnComponents) {
  EXPECT_NE(StateDigest<PairSpec>({12, 3}), StateDigest<PairSpec>({1, 23}));
  EXPECT_NE(StateDigest<PairSpec>({1, 2}), StateDigest<PairSpec>({2, 1}));
  EXPECT_EQ(StateDigest<PairSpec>({12, 3}), StateDigest<PairSpec>({12, 3}));
}

// ---------- GcSpec ----------

TEST(GcSpecTest, ReadPrefersBufferedTail) {
  GcSpec spec;
  GcSpec::State s;
  s.durable = 1;
  s.buffer = {2, 3};
  EXPECT_EQ(spec.Step(s, GcSpec::MakeRead()).branches[0].second, 3u);
}

TEST(GcSpecTest, ReadFallsBackToDurable) {
  GcSpec spec;
  GcSpec::State s;
  s.durable = 7;
  EXPECT_EQ(spec.Step(s, GcSpec::MakeRead()).branches[0].second, 7u);
}

TEST(GcSpecTest, FlushCommitsLastAndClears) {
  GcSpec spec;
  GcSpec::State s;
  s.buffer = {4, 5};
  auto out = spec.Step(s, GcSpec::MakeFlush());
  EXPECT_EQ(out.branches[0].first.durable, 5u);
  EXPECT_TRUE(out.branches[0].first.buffer.empty());
}

TEST(GcSpecTest, CrashEnumeratesPrefixes) {
  GcSpec spec;
  GcSpec::State s;
  s.durable = 1;
  s.buffer = {2, 3};
  auto crashed = spec.CrashSteps(s);
  // durable ∈ {1, 2, 3}, buffer always empty.
  ASSERT_EQ(crashed.size(), 3u);
  for (const auto& c : crashed) {
    EXPECT_TRUE(c.buffer.empty());
  }
  EXPECT_EQ(crashed[0].durable, 1u);
  EXPECT_EQ(crashed[1].durable, 2u);
  EXPECT_EQ(crashed[2].durable, 3u);
}

TEST(GcSpecTest, MixStateDigestsEqualExactlyForEqualStates) {
  // Durable value x buffers of length 0..3; 12 sits next to 1 and 2 so a
  // digest that concatenated digits would alias [1, 2] with [12].
  const std::vector<uint64_t> values = {0, 1, 2, 12};
  std::vector<std::vector<uint64_t>> buffers = {{}};
  for (size_t i = 0; i < buffers.size(); ++i) {
    for (uint64_t v : values) {
      if (buffers[i].size() < 3) {
        std::vector<uint64_t> longer = buffers[i];
        longer.push_back(v);
        buffers.push_back(std::move(longer));
      }
    }
  }
  std::vector<GcSpec::State> states;
  for (uint64_t durable : values) {
    for (const auto& buffer : buffers) {
      states.push_back(GcSpec::State{durable, buffer});
    }
  }
  ASSERT_EQ(states.size(), 4u * (1 + 4 + 16 + 64));
  // Equal states reached by different transitions hash alike too.
  GcSpec spec;
  GcSpec::State flushed = spec.Step(GcSpec::State{0, {1, 2}}, GcSpec::MakeFlush()).branches[0].first;
  states.push_back(flushed);
  states.push_back(spec.CrashSteps(GcSpec::State{0, {2}})[1]);
  EXPECT_EQ(DigestEqualityMismatches<GcSpec>(states), 0u);
}

TEST(GcSpecTest, CrashDeduplicatesEqualPrefixStates) {
  GcSpec spec;
  GcSpec::State s;
  s.durable = 2;
  s.buffer = {2};  // committing the buffered 2 leaves the same durable value
  EXPECT_EQ(spec.CrashSteps(s).size(), 1u);
}

// ---------- KvSpec ----------

TEST(KvSpecTest, PutPairIsAtomicInTheSpec) {
  KvSpec spec{3};
  auto out = spec.Step(spec.Initial(), KvSpec::MakePutPair(0, 5, 2, 6));
  ASSERT_EQ(out.branches.size(), 1u);
  EXPECT_EQ(out.branches[0].first.values, (std::vector<uint64_t>{5, 0, 6}));
}

TEST(KvSpecTest, EqualKeysInPutPairAreUndefined) {
  KvSpec spec{3};
  EXPECT_TRUE(spec.Step(spec.Initial(), KvSpec::MakePutPair(1, 5, 1, 6)).undefined);
}

TEST(KvSpecTest, OutOfRangeIsUndefined) {
  KvSpec spec{2};
  EXPECT_TRUE(spec.Step(spec.Initial(), KvSpec::MakeGet(2)).undefined);
  EXPECT_TRUE(spec.Step(spec.Initial(), KvSpec::MakePut(9, 1)).undefined);
}

TEST(KvSpecTest, CrashKeepsEverything) {
  KvSpec spec{2};
  KvSpec::State s{{4, 5}};
  EXPECT_EQ(spec.CrashSteps(s), std::vector<KvSpec::State>{s});
}

// ---------- TxnSpec ----------

TEST(TxnSpecTest, BatchAppliesInOrder) {
  TxnSpec spec{2};
  auto out = spec.Step(spec.Initial(), TxnSpec::MakeBatch({{0, 1}, {0, 2}, {1, 3}}));
  EXPECT_EQ(out.branches[0].first.values, (std::vector<uint64_t>{2, 3}));
}

TEST(TxnSpecTest, CheckpointIsObservablyANoOp) {
  TxnSpec spec{1};
  TxnSpec::State s{{8}};
  auto out = spec.Step(s, TxnSpec::MakeCheckpoint());
  EXPECT_EQ(out.branches[0].first, s);
}

TEST(TxnSpecTest, OutOfRangeRecordIsUndefined) {
  TxnSpec spec{1};
  EXPECT_TRUE(spec.Step(spec.Initial(), TxnSpec::MakeWrite(1, 5)).undefined);
}

// ---------- MailSpec ----------

// The map-based Mailboat spec the interned MailSpec::State replaced, kept
// as the reference its Step is checked against.
struct RefMail {
  std::map<uint64_t, std::map<std::string, std::string>> boxes;
  std::set<uint64_t> locked;
  friend bool operator==(const RefMail&, const RefMail&) = default;
};

RefMail ToRef(const MailSpec& spec, const MailSpec::State& s) {
  RefMail r;
  for (uint64_t u = 0; u < spec.num_users; ++u) {
    r.boxes[u];
    if ((s.locked >> u) & 1) {
      r.locked.insert(u);
    }
  }
  for (const MailSpec::Msg& m : s.msgs) {
    r.boxes[m.user][spec.id_pool[m.id]] =
        (m.contents & MailSpec::kLoose) != 0
            ? s.loose_contents[m.contents & ~MailSpec::kLoose]
            : spec.contents_pool[m.contents];
  }
  return r;
}

tsys::Outcome<RefMail, MailSpec::Ret> RefStep(const MailSpec& spec, const RefMail& s,
                                              const MailSpec::Op& op) {
  using Out = tsys::Outcome<RefMail, MailSpec::Ret>;
  if (op.user >= spec.num_users) {
    return Out::Undef();
  }
  switch (op.kind) {
    case MailSpec::Kind::kPickup: {
      if (s.locked.count(op.user) > 0) {
        return Out::None();
      }
      RefMail next = s;
      next.locked.insert(op.user);
      MailSpec::Ret ret;
      for (const auto& [id, contents] : s.boxes.at(op.user)) {
        ret.msgs.emplace_back(id, contents);
      }
      return Out::One(std::move(next), std::move(ret));
    }
    case MailSpec::Kind::kDeliver: {
      Out out;
      for (const std::string& id : spec.id_pool) {
        if (s.boxes.at(op.user).count(id) == 0) {
          RefMail next = s;
          next.boxes[op.user][id] = op.arg;
          MailSpec::Ret ret;
          ret.id = id;
          out.branches.emplace_back(std::move(next), std::move(ret));
        }
      }
      return out;
    }
    case MailSpec::Kind::kDelete: {
      if (s.locked.count(op.user) == 0 || s.boxes.at(op.user).count(op.arg) == 0) {
        return Out::Undef();
      }
      RefMail next = s;
      next.boxes[op.user].erase(op.arg);
      return Out::One(std::move(next), MailSpec::Ret{});
    }
    case MailSpec::Kind::kUnlock: {
      if (s.locked.count(op.user) == 0) {
        return Out::Undef();
      }
      RefMail next = s;
      next.locked.erase(op.user);
      return Out::One(std::move(next), MailSpec::Ret{});
    }
  }
  return Out::None();
}

// A state with mail[i] = (user, id, contents) delivered through Step, so
// the test never spells out pool indices.
MailSpec::State WithMail(const MailSpec& spec,
                         const std::vector<std::tuple<uint64_t, std::string, std::string>>& mail) {
  MailSpec::State s = spec.Initial();
  for (const auto& [user, id, contents] : mail) {
    auto out = spec.Step(s, MailSpec::MakeDeliver(user, contents));
    bool found = false;
    for (auto& [next, ret] : out.branches) {
      if (ret.id == id) {
        s = std::move(next);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "id " << id << " is not a free pool id for user " << user;
  }
  return s;
}

MailSpec::State Locked(MailSpec::State s, uint64_t user) {
  s.locked |= uint64_t{1} << user;
  return s;
}

TEST(MailSpecTest, PickupTakesTheLockAndListsMail) {
  MailSpec spec{1};
  spec.id_pool = {"m1"};
  spec.contents_pool = {"hello"};
  MailSpec::State s = WithMail(spec, {{0, "m1", "hello"}});
  auto out = spec.Step(s, MailSpec::MakePickup(0));
  ASSERT_EQ(out.branches.size(), 1u);
  EXPECT_EQ(out.branches[0].second.msgs.size(), 1u);
  EXPECT_EQ(out.branches[0].second.msgs[0].second, "hello");
  EXPECT_EQ(out.branches[0].first.locked, 1u);
}

TEST(MailSpecTest, PickupBlocksWhileLocked) {
  MailSpec spec{1};
  auto out = spec.Step(Locked(spec.Initial(), 0), MailSpec::MakePickup(0));
  EXPECT_FALSE(out.undefined);
  EXPECT_TRUE(out.branches.empty());  // blocked, not undefined
}

TEST(MailSpecTest, DeliverBranchesOverTheIdPool) {
  MailSpec spec{1};
  spec.id_pool = {"a", "b", "c"};
  spec.contents_pool = {"taken", "x"};
  MailSpec::State s = WithMail(spec, {{0, "b", "taken"}});
  auto out = spec.Step(s, MailSpec::MakeDeliver(0, "x"));
  ASSERT_EQ(out.branches.size(), 2u);  // "b" is occupied
  EXPECT_EQ(out.branches[0].second.id, "a");
  EXPECT_EQ(out.branches[1].second.id, "c");
}

TEST(MailSpecTest, DeleteRequiresLockAndListedId) {
  MailSpec spec{1};
  spec.id_pool = {"m", "zz"};
  spec.contents_pool = {"x"};
  MailSpec::State s = WithMail(spec, {{0, "m", "x"}});
  EXPECT_TRUE(spec.Step(s, MailSpec::MakeDelete(0, "m")).undefined);  // no lock
  s = Locked(s, 0);
  EXPECT_TRUE(spec.Step(s, MailSpec::MakeDelete(0, "zz")).undefined);  // unlisted id
  auto ok = spec.Step(s, MailSpec::MakeDelete(0, "m"));
  ASSERT_EQ(ok.branches.size(), 1u);
  EXPECT_EQ(ok.branches[0].first, Locked(spec.Initial(), 0));
}

TEST(MailSpecTest, DeleteOfAnIdOutsideThePoolIsUndefined) {
  MailSpec spec{1};
  spec.id_pool = {"m"};
  spec.contents_pool = {"x"};
  MailSpec::State s = Locked(WithMail(spec, {{0, "m", "x"}}), 0);
  EXPECT_TRUE(spec.Step(s, MailSpec::MakeDelete(0, "never-prepared")).undefined);
}

TEST(MailSpecTest, DeliverOfUnpreparedContentsIsListedAndDeletable) {
  MailSpec spec{1};
  spec.id_pool = {"m1", "m2"};
  spec.contents_pool = {"pooled"};
  MailSpec::State s = WithMail(spec, {{0, "m2", "pooled"}, {0, "m1", "loose"}});
  EXPECT_EQ(s.loose_contents, std::vector<std::string>{"loose"});
  auto picked = spec.Step(s, MailSpec::MakePickup(0));
  ASSERT_EQ(picked.branches.size(), 1u);
  const std::vector<std::pair<std::string, std::string>> listed = {{"m1", "loose"},
                                                                    {"m2", "pooled"}};
  EXPECT_EQ(picked.branches[0].second.msgs, listed);
  // Deleting the last message that holds loose contents forgets them, so
  // the state equals one that never saw them.
  auto deleted = spec.Step(picked.branches[0].first, MailSpec::MakeDelete(0, "m1"));
  ASSERT_EQ(deleted.branches.size(), 1u);
  EXPECT_EQ(deleted.branches[0].first, Locked(WithMail(spec, {{0, "m2", "pooled"}}), 0));
}

TEST(MailSpecTest, UnlockWithoutLockIsUndefined) {
  MailSpec spec{1};
  EXPECT_TRUE(spec.Step(spec.Initial(), MailSpec::MakeUnlock(0)).undefined);
}

TEST(MailSpecTest, CrashReleasesLocksKeepsMail) {
  MailSpec spec{1};
  spec.id_pool = {"m"};
  spec.contents_pool = {"x"};
  MailSpec::State s = Locked(WithMail(spec, {{0, "m", "x"}}), 0);
  auto crashed = spec.CrashSteps(s);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0].locked, 0u);
  EXPECT_EQ(ToRef(spec, crashed[0]).boxes.at(0).at("m"), "x");
}

// Every state reachable from Initial within the op budget, under every op
// (pooled and unprepared contents, listed and unknown ids, an out-of-range
// user): the interned Step and the map-based reference return the same
// outcomes.
TEST(MailSpecTest, StepMatchesTheMapBasedReference) {
  MailSpec spec{2};
  spec.id_pool = {"a", "ab", "b"};
  spec.contents_pool = {"", "x"};
  std::vector<MailSpec::Op> ops;
  for (uint64_t u = 0; u < 3; ++u) {
    ops.push_back(MailSpec::MakePickup(u));
    ops.push_back(MailSpec::MakeUnlock(u));
    for (const char* c : {"", "x", "loose", "loose2"}) {
      ops.push_back(MailSpec::MakeDeliver(u, c));
    }
    for (const char* id : {"a", "ab", "b", "zz"}) {
      ops.push_back(MailSpec::MakeDelete(u, id));
    }
  }
  std::vector<MailSpec::State> states = {spec.Initial()};
  size_t checked = 0;
  for (size_t i = 0; i < states.size() && states.size() < 3000; ++i) {
    const RefMail ref = ToRef(spec, states[i]);
    for (const MailSpec::Op& op : ops) {
      auto got = spec.Step(states[i], op);
      auto want = RefStep(spec, ref, op);
      ASSERT_EQ(got.undefined, want.undefined) << MailSpec::OpName(op);
      ASSERT_EQ(got.branches.size(), want.branches.size()) << MailSpec::OpName(op);
      for (size_t k = 0; k < got.branches.size(); ++k) {
        EXPECT_EQ(ToRef(spec, got.branches[k].first), want.branches[k].first);
        EXPECT_EQ(got.branches[k].second, want.branches[k].second);
        if (std::find(states.begin(), states.end(), got.branches[k].first) == states.end()) {
          states.push_back(got.branches[k].first);
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(states.size(), 1000u);
  EXPECT_GT(checked, 10000u);
}

// Equal mailboxes are equal States (so configs deduplicate exactly), also
// when they hold loose contents reached in different orders.
TEST(MailSpecTest, StateIsCanonical) {
  MailSpec spec{2};
  spec.id_pool = {"a", "b"};
  MailSpec::State one = WithMail(spec, {{0, "a", "p"}, {1, "b", "q"}, {1, "a", "p"}});
  MailSpec::State two = WithMail(spec, {{1, "a", "p"}, {0, "a", "p"}, {1, "b", "q"}});
  EXPECT_EQ(one, two);
  EXPECT_EQ(one.loose_contents, (std::vector<std::string>{"p", "q"}));
  EXPECT_EQ(ToRef(spec, one), ToRef(spec, two));
}

TEST(MailSpecTest, PrepareCollectsObservedAndSyntheticIds) {
  MailSpec spec{1};
  refine::History<MailSpec> h;
  uint64_t d1 = h.Invoke(0, MailSpec::MakeDeliver(0, "a"));
  MailSpec::Ret ret;
  ret.id = "msg-123";
  h.Return(d1, ret);
  h.Invoke(1, MailSpec::MakeDeliver(0, "b"));  // pending: no observed id
  spec.Prepare(h.events);
  // The observed id plus one synthetic per deliver (two delivers).
  EXPECT_EQ(spec.id_pool.size(), 3u);
  EXPECT_NE(std::find(spec.id_pool.begin(), spec.id_pool.end(), "msg-123"), spec.id_pool.end());
  EXPECT_EQ(spec.contents_pool, (std::vector<std::string>{"a", "b"}));
}

// The spine-resume rule (linearize.h) reads a State's indices against the
// spec it was built with, so specs with different contents pools differ.
TEST(MailSpecTest, EqualityCoversBothPools) {
  MailSpec a{1};
  a.id_pool = {"m"};
  a.contents_pool = {"x"};
  MailSpec b = a;
  EXPECT_EQ(a, b);
  b.contents_pool = {"y"};
  EXPECT_NE(a, b);
  b = a;
  b.id_pool = {"n"};
  EXPECT_NE(a, b);
}

TEST(MailSpecTest, MixStateDigestsEqualExactlyForEqualStates) {
  // One or two users; per box, each of the ids "a" and "ab" is absent or
  // holds "" or "b"; any lock set.
  MailSpec spec{2};
  spec.id_pool = {"a", "ab"};
  spec.contents_pool = {"", "b"};
  std::vector<std::vector<std::pair<std::string, std::string>>> boxes;
  for (int code = 0; code < 9; ++code) {
    std::vector<std::pair<std::string, std::string>> box;
    for (int k = 0, c = code; k < 2; ++k, c /= 3) {
      if (c % 3 > 0) {
        box.emplace_back(spec.id_pool[k], spec.contents_pool[c % 3 - 1]);
      }
    }
    boxes.push_back(std::move(box));
  }
  auto fill = [&](MailSpec::State s, uint64_t user, const auto& box) {
    std::vector<std::tuple<uint64_t, std::string, std::string>> mail;
    for (const auto& [id, contents] : box) {
      mail.emplace_back(user, id, contents);
    }
    MailSpec::State filled = WithMail(spec, mail);
    for (const MailSpec::Msg& m : filled.msgs) {
      s.msgs.push_back(m);
    }
    return s;
  };
  std::vector<MailSpec::State> states;
  for (uint64_t locked = 0; locked < 4; ++locked) {
    for (const auto& box0 : boxes) {
      MailSpec::State one = fill(MailSpec::State{}, 0, box0);
      one.locked = locked;
      states.push_back(one);
      for (const auto& box1 : boxes) {
        states.push_back(fill(one, 1, box1));
      }
    }
  }
  ASSERT_EQ(states.size(), 4u * (9 + 81));
  // Equal states reached by different transitions hash alike too.
  MailSpec::State picked = spec.Step(spec.Initial(), MailSpec::MakePickup(1)).branches[0].first;
  states.push_back(picked);
  states.push_back(spec.CrashSteps(picked)[0]);
  EXPECT_EQ(DigestEqualityMismatches<MailSpec>(states), 0u);
}

// Ids and contents may hold the characters a naive rendering would use as
// separators: these two pickups differ, and so must their renderings and
// the fingerprints of histories that return them.
TEST(MailSpecTest, ReturnRenderingAndFingerprintAreInjective) {
  MailSpec::Ret one;
  one.msgs = {{"m1", "x;m2=y"}};
  MailSpec::Ret two;
  two.msgs = {{"m1", "x"}, {"m2", "y"}};
  ASSERT_NE(one, two);
  EXPECT_NE(MailSpec::RetKey(one), MailSpec::RetKey(two));
  auto history = [](const MailSpec::Ret& r) {
    refine::History<MailSpec> h;
    h.Return(h.Invoke(0, MailSpec::MakePickup(0)), r);
    return h;
  };
  EXPECT_NE(refine::FingerprintHistory(history(one)), refine::FingerprintHistory(history(two)));
  EXPECT_EQ(refine::FingerprintHistory(history(one)), refine::FingerprintHistory(history(one)));
}

// Users are the bits of a 64-bit lock mask; a larger spec is rejected
// instead of shifting past the mask.
TEST(MailSpecTest, MoreThan64UsersIsRejected) {
  MailSpec spec{MailSpec::kMaxUsers + 1};
  EXPECT_DEATH(spec.Initial(), "at most 64 users");
  EXPECT_DEATH(spec.Step(MailSpec::State{}, MailSpec::MakePickup(MailSpec::kMaxUsers)),
               "at most 64 users");
}

TEST(MailSpecTest, UnknownUserIsUndefined) {
  MailSpec spec{1};
  EXPECT_TRUE(spec.Step(spec.Initial(), MailSpec::MakePickup(5)).undefined);
}

}  // namespace
}  // namespace perennial
