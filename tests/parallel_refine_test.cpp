// Serial-vs-parallel refinement-checking equivalence: for every system
// under src/systems/ (kvs, repl, shadow, wal, gc, txnlog) — correct and
// seeded-bug variants alike — the ParallelExplorer must produce the same
// execution counts and the same violation sequence as the serial Explorer
// at identical bounds, across 1/2/4 workers and several split depths.
// Thread-timing independence of the merge is the point: these tests also
// run under TSan via the tier2-parallel CTest label.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/refine/explorer.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/kvs/kv_harness.h"
#include "src/systems/pattern_harness.h"
#include "src/systems/repl/repl_harness.h"
#include "src/systems/txnlog/txn_harness.h"

namespace perennial::systems {
namespace {

using refine::Explorer;
using refine::ExplorerOptions;
using refine::ExplorerProgress;
using refine::ParallelExplorer;
using refine::Report;

// Runs the serial reference explorer and the parallel explorer at 1/2/4
// workers on the same (spec, factory, bounds); asserts the parallel
// aggregates are bit-identical. max_violations is lifted so neither side
// stops early (with early stopping, execution counts legitimately diverge —
// see parallel_explorer.h).
template <typename Spec, typename Factory>
void ExpectSerialParallelEquivalence(Spec spec, Factory factory, ExplorerOptions opts,
                                     int split_depth = 4) {
  opts.max_violations = 1 << 20;
  opts.split_depth = split_depth;
  Explorer<Spec> serial(spec, factory, opts);
  Report s = serial.Run();
  ASSERT_FALSE(s.truncated) << "workload too large for equivalence testing: " << s.Summary();
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers) +
                 " split_depth=" + std::to_string(split_depth));
    ExplorerOptions popts = opts;
    popts.num_workers = workers;
    ParallelExplorer<Spec> parallel(spec, factory, popts);
    Report p = parallel.Run();
    EXPECT_EQ(p.executions, s.executions);
    EXPECT_EQ(p.total_steps, s.total_steps);
    EXPECT_EQ(p.crashes_injected, s.crashes_injected);
    EXPECT_EQ(p.histories_checked, s.histories_checked);
    EXPECT_FALSE(p.truncated);
    if (!opts.dedup_histories) {
      // Without dedup every completed history is checked on both sides, so
      // even the spec-state totals agree.
      EXPECT_EQ(p.spec_states_explored, s.spec_states_explored);
    }
    ASSERT_EQ(p.violations.size(), s.violations.size()) << p.Summary() << "\nvs\n" << s.Summary();
    for (size_t i = 0; i < s.violations.size(); ++i) {
      EXPECT_EQ(p.violations[i].kind, s.violations[i].kind) << "violation " << i;
      EXPECT_EQ(p.violations[i].detail, s.violations[i].detail) << "violation " << i;
      EXPECT_EQ(p.violations[i].trace, s.violations[i].trace) << "violation " << i;
    }
  }
}

// ---------- Replicated disk ----------

TEST(ParallelEquivalence, ReplCorrect) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

TEST(ParallelEquivalence, ReplSeededBugSkipSecondWrite) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeRead(0)}};
  options.mutations.skip_second_write = true;
  options.with_disk1_failure_event = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

// ---------- Shadow copy ----------

TEST(ParallelEquivalence, ShadowCorrect) {
  ShadowHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(PairSpec{}, [&] { return MakeShadowInstance(options); }, opts);
}

TEST(ParallelEquivalence, ShadowSeededBugInPlaceUpdate) {
  ShadowHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
  options.mutations.in_place_update = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(PairSpec{}, [&] { return MakeShadowInstance(options); }, opts);
}

// ---------- Write-ahead log ----------

TEST(ParallelEquivalence, WalCorrectIncludingRecoveryCrash) {
  WalHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  ExplorerOptions opts;
  opts.max_crashes = 2;  // crashes during recovery too
  ExpectSerialParallelEquivalence(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
}

TEST(ParallelEquivalence, WalSeededBugApplyBeforeCommit) {
  WalHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
  options.mutations.apply_before_commit = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
}

TEST(ParallelEquivalence, WalSeededBugRecoveryDiscardsLog) {
  WalHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}};
  options.mutations.recovery_discards_log = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
}

// ---------- Group commit ----------

TEST(ParallelEquivalence, GcCorrect) {
  GcHarnessOptions options;
  options.client_ops = {{GcSpec::MakeWrite(1)}, {GcSpec::MakeWrite(2)}, {GcSpec::MakeFlush()}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(GcSpec{}, [&] { return MakeGcInstance(options); }, opts);
}

TEST(ParallelEquivalence, GcSeededBugCommitCountFirst) {
  GcHarnessOptions options;
  options.client_ops = {
      {GcSpec::MakeWrite(7), GcSpec::MakeFlush(), GcSpec::MakeWrite(9), GcSpec::MakeFlush()}};
  options.mutations.commit_count_first = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(GcSpec{}, [&] { return MakeGcInstance(options); }, opts);
}

// ---------- Transaction log ----------

TEST(ParallelEquivalence, TxnLogCorrect) {
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}, {1, 2}})}, {TxnSpec::MakeRead(0)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
}

TEST(ParallelEquivalence, TxnLogSeededBugHeaderBeforeRecords) {
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}, {1, 2}})}};
  options.mutations.header_before_records = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
}

// ---------- Durable KV ----------

TEST(ParallelEquivalence, KvCorrect) {
  KvHarnessOptions options;
  options.num_keys = 2;
  options.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}, {KvSpec::MakeGet(0)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(KvSpec{2}, [&] { return MakeKvInstance(options); }, opts);
}

TEST(ParallelEquivalence, KvSeededBugApplyBeforeCommit) {
  KvHarnessOptions options;
  options.num_keys = 2;
  options.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}};
  options.mutations.apply_before_commit = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectSerialParallelEquivalence(KvSpec{2}, [&] { return MakeKvInstance(options); }, opts);
}

TEST(ParallelEquivalence, KvSeededBugUnorderedLocksDeadlocks) {
  // Opposite lock orders deadlock under some interleavings: exercises
  // early-aborting executions (deadlock) inside worker subtrees.
  KvHarnessOptions options;
  options.num_keys = 2;
  options.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}, {KvSpec::MakePutPair(1, 9, 0, 8)}};
  options.mutations.unordered_locks = true;
  ExplorerOptions opts;
  opts.max_crashes = 0;
  ExpectSerialParallelEquivalence(KvSpec{2}, [&] { return MakeKvInstance(options); }, opts);
}

// ---------- Split-depth and dedup sweeps ----------

TEST(ParallelEquivalence, SplitDepthSweep) {
  // Partitioning must be exact at any split depth: 0 (single work item),
  // shallow, and deeper than any decision path (every item is one run).
  WalHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  for (int depth : {0, 1, 2, 6, 64}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    ExpectSerialParallelEquivalence(PairSpec{}, [&] { return MakeWalInstance(options); }, opts,
                                    depth);
  }
}

TEST(ParallelEquivalence, FingerprintDedupPreservesViolations) {
  // With dedup on, duplicate histories skip the spec search but replay the
  // cached verdict: violation sequences stay identical on both sides.
  ShadowHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
  options.mutations.in_place_update = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.dedup_histories = true;
  ExpectSerialParallelEquivalence(PairSpec{}, [&] { return MakeShadowInstance(options); }, opts);
}

TEST(ParallelEquivalence, DedupActuallyPrunes) {
  WalHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  opts.dedup_histories = true;
  Explorer<PairSpec> serial(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
  Report with_dedup = serial.Run();
  EXPECT_TRUE(with_dedup.ok()) << with_dedup.Summary();
  // Many schedules of the same two writes collapse to few distinct
  // histories: most checks must be pruned.
  EXPECT_GT(with_dedup.histories_deduped, with_dedup.histories_checked / 2);

  opts.dedup_histories = false;
  Explorer<PairSpec> baseline(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
  Report without = baseline.Run();
  EXPECT_EQ(without.histories_deduped, 0u);
  EXPECT_EQ(with_dedup.executions, without.executions);
  EXPECT_EQ(with_dedup.histories_checked, without.histories_checked);
  EXPECT_LT(with_dedup.spec_states_explored, without.spec_states_explored);
}

// ---------- Early stopping: the first max_violations still match ----------

TEST(ParallelEquivalence, DefaultMaxViolationsPrefixMatchesSerial) {
  ShadowHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)},
                        {PairSpec::MakeWrite(5, 6)}};
  options.mutations.in_place_update = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 3;  // serial stops early; parallel must agree on the first 3
  Explorer<PairSpec> serial(PairSpec{}, [&] { return MakeShadowInstance(options); }, opts);
  Report s = serial.Run();
  ASSERT_EQ(s.violations.size(), 3u);
  for (int workers : {2, 4}) {
    ExplorerOptions popts = opts;
    popts.num_workers = workers;
    ParallelExplorer<PairSpec> parallel(PairSpec{},
                                        [&] { return MakeShadowInstance(options); }, popts);
    Report p = parallel.Run();
    ASSERT_EQ(p.violations.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(p.violations[i].trace, s.violations[i].trace) << "violation " << i;
      EXPECT_EQ(p.violations[i].detail, s.violations[i].detail) << "violation " << i;
    }
  }
}

// ---------- Parallel progress callback ----------

TEST(ParallelProgress, CallbackSeesMonotoneExecutions) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  // Every mode runs through the same worker pool, so every mode reports.
  for (ExplorerOptions::Mode mode : {ExplorerOptions::Mode::kExhaustive,
                                     ExplorerOptions::Mode::kRandom,
                                     ExplorerOptions::Mode::kPct}) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
    ExplorerOptions opts;
    opts.mode = mode;
    opts.max_crashes = 1;
    opts.num_workers = 4;
    opts.progress_interval = 64;
    std::vector<uint64_t> seen;
    opts.progress_callback = [&](const ExplorerProgress& p) { seen.push_back(p.executions); };
    ParallelExplorer<ReplSpec> parallel(ReplSpec{1}, [&] { return MakeReplInstance(options); },
                                        opts);
    Report report = parallel.Run();
    EXPECT_TRUE(report.ok()) << report.Summary();
    ASSERT_FALSE(seen.empty());
    for (size_t i = 1; i < seen.size(); ++i) {
      EXPECT_GT(seen[i], seen[i - 1]);
    }
    EXPECT_LE(seen.back(), report.executions);
  }
}

// ---------- Parallel random mode ----------

TEST(ParallelRandom, DeterministicPerSeedAndWorkerCount) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  auto factory = [&] { return MakeReplInstance(options); };
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kRandom;
  opts.random_runs = 400;
  opts.seed = 7;
  opts.num_workers = 4;
  auto run = [&] { return ParallelExplorer<ReplSpec>(ReplSpec{1}, factory, opts).Run(); };
  Report a = run();
  Report b = run();
  EXPECT_EQ(a.executions, 400u);
  EXPECT_TRUE(a.ok()) << a.Summary();
  // crash_pruned, which Summary() prints, depends on which worker ran a
  // post-crash continuation first; every other field is deterministic.
  a.crash_pruned = b.crash_pruned = 0;
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.total_steps, b.total_steps);
  // Random runs are seeded per run index, so the serial report is the
  // parallel one at any worker count.
  ExpectSerialParallelEquivalence(ReplSpec{1}, factory, opts);
}

}  // namespace
}  // namespace perennial::systems
