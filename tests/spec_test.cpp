// Direct unit tests for the specification transition systems: Step
// semantics, undefined-behavior boundaries, crash transitions, and the
// state-mixing and canonical key functions the memoizing checker depends on.
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/hash.h"
#include "src/mailboat/mail_spec.h"
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

TEST(MailSpecTest, PickupTakesTheLockAndListsMail) {
  MailSpec spec{1};
  MailSpec::State s = spec.Initial();
  s.boxes[0]["m1"] = "hello";
  auto out = spec.Step(s, MailSpec::MakePickup(0));
  ASSERT_EQ(out.branches.size(), 1u);
  EXPECT_EQ(out.branches[0].second.msgs.size(), 1u);
  EXPECT_EQ(out.branches[0].second.msgs[0].second, "hello");
  EXPECT_TRUE(out.branches[0].first.locked.count(0) > 0);
}

TEST(MailSpecTest, PickupBlocksWhileLocked) {
  MailSpec spec{1};
  MailSpec::State s = spec.Initial();
  s.locked.insert(0);
  auto out = spec.Step(s, MailSpec::MakePickup(0));
  EXPECT_FALSE(out.undefined);
  EXPECT_TRUE(out.branches.empty());  // blocked, not undefined
}

TEST(MailSpecTest, DeliverBranchesOverTheIdPool) {
  MailSpec spec{1};
  spec.id_pool = {"a", "b", "c"};
  MailSpec::State s = spec.Initial();
  s.boxes[0]["b"] = "taken";
  auto out = spec.Step(s, MailSpec::MakeDeliver(0, "x"));
  ASSERT_EQ(out.branches.size(), 2u);  // "b" is occupied
  EXPECT_EQ(out.branches[0].second.id, "a");
  EXPECT_EQ(out.branches[1].second.id, "c");
}

TEST(MailSpecTest, DeleteRequiresLockAndListedId) {
  MailSpec spec{1};
  MailSpec::State s = spec.Initial();
  s.boxes[0]["m"] = "x";
  EXPECT_TRUE(spec.Step(s, MailSpec::MakeDelete(0, "m")).undefined);  // no lock
  s.locked.insert(0);
  EXPECT_TRUE(spec.Step(s, MailSpec::MakeDelete(0, "zz")).undefined);  // unlisted id
  auto ok = spec.Step(s, MailSpec::MakeDelete(0, "m"));
  ASSERT_EQ(ok.branches.size(), 1u);
  EXPECT_TRUE(ok.branches[0].first.boxes.at(0).empty());
}

TEST(MailSpecTest, UnlockWithoutLockIsUndefined) {
  MailSpec spec{1};
  EXPECT_TRUE(spec.Step(spec.Initial(), MailSpec::MakeUnlock(0)).undefined);
}

TEST(MailSpecTest, CrashReleasesLocksKeepsMail) {
  MailSpec spec{1};
  MailSpec::State s = spec.Initial();
  s.boxes[0]["m"] = "x";
  s.locked.insert(0);
  auto crashed = spec.CrashSteps(s);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_TRUE(crashed[0].locked.empty());
  EXPECT_EQ(crashed[0].boxes.at(0).at("m"), "x");
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
}

TEST(MailSpecTest, MixStateDigestsEqualExactlyForEqualStates) {
  // One or two users; per box, each of the ids "a" and "ab" is absent or
  // holds "" or "b" (so id "a" with "b" meets id "ab" with ""); any lock set.
  const std::vector<std::string> ids = {"a", "ab"};
  const std::vector<std::string> contents = {"", "b"};
  std::vector<std::map<std::string, std::string>> boxes;
  for (int code = 0; code < 9; ++code) {
    std::map<std::string, std::string> box;
    for (int k = 0, c = code; k < 2; ++k, c /= 3) {
      if (c % 3 > 0) {
        box[ids[k]] = contents[c % 3 - 1];
      }
    }
    boxes.push_back(std::move(box));
  }
  const std::vector<std::set<uint64_t>> lock_sets = {{}, {0}, {1}, {0, 1}};
  std::vector<MailSpec::State> states;
  for (const auto& locked : lock_sets) {
    for (const auto& box0 : boxes) {
      MailSpec::State one;
      one.boxes[0] = box0;
      one.locked = locked;
      states.push_back(one);
      for (const auto& box1 : boxes) {
        MailSpec::State two = one;
        two.boxes[1] = box1;
        states.push_back(std::move(two));
      }
    }
  }
  ASSERT_EQ(states.size(), 4u * (9 + 81));
  // Equal states reached by different transitions hash alike too.
  MailSpec spec{2};
  MailSpec::State picked = spec.Step(spec.Initial(), MailSpec::MakePickup(1)).branches[0].first;
  states.push_back(picked);
  states.push_back(spec.CrashSteps(picked)[0]);
  EXPECT_EQ(DigestEqualityMismatches<MailSpec>(states), 0u);
}

TEST(MailSpecTest, UnknownUserIsUndefined) {
  MailSpec spec{1};
  EXPECT_TRUE(spec.Step(spec.Initial(), MailSpec::MakePickup(5)).undefined);
}

}  // namespace
}  // namespace perennial
