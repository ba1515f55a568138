// Sleep-set POR equivalence (the tier2-por suite): partial-order reduction
// is an OPTIMIZATION, so its observable output must be bit-identical to the
// unreduced checker. Pruning may only shrink the execution count — never
// the set of distinct histories, any verdict, or the first violation found.
//
// The suite asserts, across every §9.1 system and every seeded-bug
// mutation (fault-injection variants included):
//   * correct systems: 0 violations with POR on and off, the identical
//     number of DISTINCT histories (measured as histories_checked -
//     histories_deduped under fingerprint dedup), and executions_por <=
//     executions_nopor;
//   * buggy systems (max_violations = 1): the first violation is
//     bit-identical — kind, detail, and schedule trace — because sleep
//     sets never prune the DFS-leftmost member of a commutation class;
//   * POR composes with the other knobs: the preemption-bound x dedup x
//     POR matrix is verdict-invariant (POR self-disables under bounding),
//     serial and ParallelExplorer agree field-for-field with POR on, and
//     a byte-capped verdict cache changes no verdict;
//   * the progress callback observes post-dedup counts monotonically.
//
// Like tier2-parallel/tier2-faults, this suite is also meant to run under
// -DPCC_SANITIZE=thread: the shared verdict cache is the cross-worker
// state.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mailboat/mail_harness.h"
#include "src/refine/explorer.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/ftl/ftl_harness.h"
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

void ExpectSameViolations(const Report& por, const Report& nopor) {
  ASSERT_EQ(por.violations.size(), nopor.violations.size())
      << "POR:\n" << por.Summary() << "\nunreduced:\n" << nopor.Summary();
  for (size_t i = 0; i < nopor.violations.size(); ++i) {
    EXPECT_EQ(por.violations[i].kind, nopor.violations[i].kind) << "violation " << i;
    EXPECT_EQ(por.violations[i].detail, nopor.violations[i].detail) << "violation " << i;
    EXPECT_EQ(por.violations[i].trace, nopor.violations[i].trace) << "violation " << i;
  }
}

// Correct-system equivalence: full enumeration with and without POR must
// agree on the verdict AND on the set of distinct histories — the checker's
// entire input. Distinctness is observed through fingerprint dedup:
// histories_checked - histories_deduped counts first-time fingerprints.
// `expect_reduction` additionally pins that POR actually pruned something
// (left false for workloads whose steps all conflict, e.g. goosefs-backed
// systems where file-system steps are footprint-opaque).
template <typename Spec, typename Factory>
void ExpectPorEquivalence(Spec spec, Factory factory, ExplorerOptions opts,
                          bool expect_reduction = true) {
  opts.max_violations = 1 << 20;
  opts.dedup_histories = true;
  ExplorerOptions unreduced = opts;
  unreduced.use_por = false;
  ExplorerOptions reduced = opts;
  reduced.use_por = true;
  Report nopor = Explorer<Spec>(spec, factory, unreduced).Run();
  Report por = Explorer<Spec>(spec, factory, reduced).Run();
  ASSERT_FALSE(nopor.truncated) << "workload too large for equivalence: " << nopor.Summary();
  ASSERT_FALSE(por.truncated) << por.Summary();
  EXPECT_LE(por.executions, nopor.executions);
  if (expect_reduction) {
    EXPECT_LT(por.executions, nopor.executions)
        << "POR pruned nothing on a workload with independent steps";
  }
  EXPECT_EQ(por.histories_checked - por.histories_deduped,
            nopor.histories_checked - nopor.histories_deduped)
      << "POR changed the set of distinct histories\nPOR:\n"
      << por.Summary() << "\nunreduced:\n" << nopor.Summary();
  ExpectSameViolations(por, nopor);
}

// Buggy-system equivalence: stop at the first violation (the configuration
// real bug hunts use) and require it to be bit-identical. Violation
// MULTIPLICITY under full enumeration is not POR-invariant — equivalent
// schedules each re-manifest the same bug — but the first one found is:
// sleep sets never prune the DFS-leftmost execution of a commutation
// class, and the pruned DFS order is a subsequence of the unpruned order.
template <typename Spec, typename Factory>
void ExpectPorFirstViolation(Spec spec, Factory factory, ExplorerOptions opts) {
  opts.max_violations = 1;
  ExplorerOptions unreduced = opts;
  unreduced.use_por = false;
  ExplorerOptions reduced = opts;
  reduced.use_por = true;
  Report nopor = Explorer<Spec>(spec, factory, unreduced).Run();
  Report por = Explorer<Spec>(spec, factory, reduced).Run();
  EXPECT_LE(por.executions, nopor.executions);
  EXPECT_EQ(por.ok(), nopor.ok()) << "POR:\n" << por.Summary() << "\nunreduced:\n"
                                  << nopor.Summary();
  ExpectSameViolations(por, nopor);
}

// ---------- All ten §9.1 systems, POR on == POR off ----------

TEST(PorEquivalence, ReplTwoWriters) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

TEST(PorEquivalence, ReplFailover) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 9)}, {ReplSpec::MakeRead(0)}};
  options.with_disk1_failure_event = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

TEST(PorEquivalence, ShadowTwoWriters) {
  ShadowHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(PairSpec{}, [&] { return MakeShadowInstance(options); }, opts);
}

TEST(PorEquivalence, WalTwoWriters) {
  WalHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
}

TEST(PorEquivalence, WalRecoveryCrash) {
  WalHarnessOptions options;
  options.client_ops = {{PairSpec::MakeWrite(1, 2)}};
  ExplorerOptions opts;
  opts.max_crashes = 2;  // the second crash can land inside recovery
  // One client thread: no sibling thread alternatives exist to commute, so
  // the schedule space is all crash placement — which POR never prunes.
  ExpectPorEquivalence(PairSpec{}, [&] { return MakeWalInstance(options); }, opts,
                       /*expect_reduction=*/false);
}

TEST(PorEquivalence, GroupCommitWritersAndFlush) {
  GcHarnessOptions options;
  options.client_ops = {{GcSpec::MakeWrite(1)}, {GcSpec::MakeWrite(2)}, {GcSpec::MakeFlush()}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(GcSpec{}, [&] { return MakeGcInstance(options); }, opts);
}

TEST(PorEquivalence, MailboatDeliverVsPickup) {
  mailboat::MailHarnessOptions options;
  options.num_users = 1;
  options.client_scripts = {
      {{mailboat::MailAction::Kind::kDeliver, 0, "a"}},
      {{mailboat::MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
  };
  ExplorerOptions opts;
  opts.max_crashes = 1;
  // GooseFs ops carry per-inode/per-entry footprints, so the deliver and
  // pickup threads commute whenever they touch disjoint fs state — POR must
  // both prune AND preserve the full set of distinct histories.
  ExpectPorEquivalence(mailboat::MailSpec{1}, [&] { return mailboat::MakeMailInstance(options); },
                       opts, /*expect_reduction=*/true);
}

TEST(PorEquivalence, MailboatOpaqueFootprintsStillEquivalent) {
  // Soundness control: the same workload with blanket-opaque fs footprints.
  // Opaque steps conflict with everything, so this checks the fallback path
  // (no fs pruning) still agrees with full enumeration.
  mailboat::MailHarnessOptions options;
  options.num_users = 1;
  options.opaque_fs_footprints = true;
  options.client_scripts = {
      {{mailboat::MailAction::Kind::kDeliver, 0, "a"}},
      {{mailboat::MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
  };
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(mailboat::MailSpec{1}, [&] { return mailboat::MakeMailInstance(options); },
                       opts, /*expect_reduction=*/false);
}

TEST(PorEquivalence, FtlTwoWriters) {
  FtlHarnessOptions options;
  options.num_lbas = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(ReplSpec{1}, [&] { return MakeFtlInstance(options); }, opts);
}

TEST(PorEquivalence, TxnLogBatchVsReader) {
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}, {1, 2}})}, {TxnSpec::MakeRead(0)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
}

TEST(PorEquivalence, DurableKvTxnVsReader) {
  KvHarnessOptions options;
  options.num_keys = 2;
  options.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}, {KvSpec::MakeGet(0)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(KvSpec{2}, [&] { return MakeKvInstance(options); }, opts);
}

// ---------- Every seeded-bug mutation: identical first violation ----------

TEST(PorFirstViolation, ReplMutations) {
  struct Case {
    const char* name;
    ReplicatedDisk::Mutations mutations;
    int max_crashes;
  };
  for (const Case& c : std::vector<Case>{
           {"skip_locking", {.skip_locking = true}, 0},
           {"skip_second_write", {.skip_second_write = true}, 0},
           {"recovery_zeroes", {.recovery_zeroes = true}, 1},
           {"skip_recovery", {.skip_recovery = true}, 1},
       }) {
    SCOPED_TRACE(c.name);
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = c.mutations.skip_locking
                             ? std::vector<std::vector<ReplSpec::Op>>{{ReplSpec::MakeWrite(0, 5)},
                                                                      {ReplSpec::MakeWrite(0, 7)}}
                             : std::vector<std::vector<ReplSpec::Op>>{{ReplSpec::MakeWrite(0, 5)}};
    options.mutations = c.mutations;
    if (c.mutations.skip_second_write || c.mutations.skip_recovery) {
      options.with_disk1_failure_event = true;  // expose the stale disk 2
      options.observe_repeats = 2;
    }
    ExplorerOptions opts;
    opts.max_crashes = c.max_crashes;
    ExpectPorFirstViolation(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  }
}

TEST(PorFirstViolation, ShadowMutations) {
  for (bool flip_before_data : {false, true}) {
    SCOPED_TRACE(flip_before_data ? "flip_before_data" : "in_place_update");
    ShadowHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
    options.mutations.in_place_update = !flip_before_data;
    options.mutations.flip_before_data = flip_before_data;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(PairSpec{}, [&] { return MakeShadowInstance(options); }, opts);
  }
}

TEST(PorFirstViolation, WalMutations) {
  {
    SCOPED_TRACE("apply_before_commit");
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
    options.mutations.apply_before_commit = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
  }
  {
    SCOPED_TRACE("skip_recovery");
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    options.mutations.skip_recovery = true;
    options.observer_ops = {PairSpec::MakeWrite(5, 6), PairSpec::MakeRead()};
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
  }
  {
    SCOPED_TRACE("recovery_discards_log");
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    options.mutations.recovery_discards_log = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(PairSpec{}, [&] { return MakeWalInstance(options); }, opts);
  }
}

TEST(PorFirstViolation, GroupCommitMutation) {
  GcHarnessOptions options;
  options.client_ops = {
      {GcSpec::MakeWrite(7), GcSpec::MakeFlush(), GcSpec::MakeWrite(9), GcSpec::MakeFlush()}};
  options.mutations.commit_count_first = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorFirstViolation(GcSpec{}, [&] { return MakeGcInstance(options); }, opts);
}

TEST(PorFirstViolation, FtlMutations) {
  {
    SCOPED_TRACE("reuse_sequence_numbers");
    FtlHarnessOptions options;
    options.num_lbas = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 1), ReplSpec::MakeWrite(0, 2)}};
    options.mutations.reuse_sequence_numbers = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(ReplSpec{1}, [&] { return MakeFtlInstance(options); }, opts);
  }
  {
    SCOPED_TRACE("volatile_write");
    FtlHarnessOptions options;
    options.num_lbas = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
    options.mutations.volatile_write = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(ReplSpec{1}, [&] { return MakeFtlInstance(options); }, opts);
  }
}

TEST(PorFirstViolation, TxnLogMutations) {
  {
    SCOPED_TRACE("header_before_records");
    TxnHarnessOptions options;
    options.num_addrs = 1;
    options.client_ops = {{TxnSpec::MakeWrite(0, 5), TxnSpec::MakeWrite(0, 7)}};
    options.mutations.header_before_records = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(TxnSpec{1}, [&] { return MakeTxnInstance(options); }, opts);
  }
  {
    SCOPED_TRACE("truncate_before_apply");
    TxnHarnessOptions options;
    options.num_addrs = 1;
    options.client_ops = {{TxnSpec::MakeWrite(0, 5), TxnSpec::MakeCheckpoint()}};
    options.mutations.truncate_before_apply = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(TxnSpec{1}, [&] { return MakeTxnInstance(options); }, opts);
  }
}

TEST(PorFirstViolation, KvMutations) {
  {
    SCOPED_TRACE("unordered_locks");
    KvHarnessOptions options;
    options.num_keys = 2;
    options.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}, {KvSpec::MakePutPair(1, 3, 0, 4)}};
    options.mutations.unordered_locks = true;
    ExplorerOptions opts;
    opts.max_crashes = 0;
    ExpectPorFirstViolation(KvSpec{2}, [&] { return MakeKvInstance(options); }, opts);
  }
  {
    SCOPED_TRACE("apply_before_commit");
    KvHarnessOptions options;
    options.num_keys = 2;
    options.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}};
    options.mutations.apply_before_commit = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(KvSpec{2}, [&] { return MakeKvInstance(options); }, opts);
  }
  {
    SCOPED_TRACE("skip_recovery");
    KvHarnessOptions options;
    options.num_keys = 2;
    options.client_ops = {{KvSpec::MakePut(0, 5)}};
    options.mutations.skip_recovery = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    ExpectPorFirstViolation(KvSpec{2}, [&] { return MakeKvInstance(options); }, opts);
  }
}

// GooseFs footprint soundness: precise per-inode/per-entry footprints must
// be a conservative superset of each op's real accesses. If they were not,
// sleep sets could prune the schedule that manifests a bug. Each seeded
// Mailboat mutation is explored twice under POR — precise footprints vs
// blanket-opaque ones — and the first counterexample must be bit-identical
// (both orders are subsequences of the same unpruned DFS order, and sleep
// sets never prune the leftmost execution of a commutation class).
TEST(PorFootprintSoundness, MailboatMutationsPreciseVsOpaque) {
  auto run_both = [](mailboat::MailHarnessOptions options, ExplorerOptions opts) {
    opts.use_por = true;
    opts.max_violations = 1;
    options.opaque_fs_footprints = true;
    Report opaque =
        Explorer<mailboat::MailSpec>(mailboat::MailSpec{1},
                                     [&] { return mailboat::MakeMailInstance(options); }, opts)
            .Run();
    options.opaque_fs_footprints = false;
    Report precise =
        Explorer<mailboat::MailSpec>(mailboat::MailSpec{1},
                                     [&] { return mailboat::MakeMailInstance(options); }, opts)
            .Run();
    EXPECT_LE(precise.executions, opaque.executions);
    EXPECT_EQ(precise.ok(), opaque.ok())
        << "precise:\n" << precise.Summary() << "\nopaque:\n" << opaque.Summary();
    ExpectSameViolations(precise, opaque);
    return precise;
  };
  {
    SCOPED_TRACE("pickup_512_loop");
    mailboat::MailHarnessOptions options;
    options.num_users = 1;
    options.read_size = 2;
    options.client_scripts = {{{mailboat::MailAction::Kind::kDeliver, 0, "xy"},
                               {mailboat::MailAction::Kind::kPickupUnlock, 0, ""}}};
    options.mutations.pickup_512_loop = true;
    options.observe_mailboxes = false;
    ExplorerOptions opts;
    opts.max_crashes = 0;
    opts.max_steps_per_run = 300;
    Report r = run_both(options, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.violations[0].kind, "step-bound");
  }
  {
    SCOPED_TRACE("deliver_in_place");
    mailboat::MailHarnessOptions options;
    options.num_users = 1;
    options.chunk_size = 1;  // several appends per message
    options.client_scripts = {
        {{mailboat::MailAction::Kind::kDeliver, 0, "abc"}},
        {{mailboat::MailAction::Kind::kPickupUnlock, 0, ""}},
    };
    options.mutations.deliver_in_place = true;
    ExplorerOptions opts;
    opts.max_crashes = 0;
    Report r = run_both(options, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.violations[0].kind, "non-linearizable");
  }
  {
    SCOPED_TRACE("recovery_deletes_mail");
    mailboat::MailHarnessOptions options;
    options.num_users = 1;
    options.client_scripts = {{{mailboat::MailAction::Kind::kDeliver, 0, "precious"}}};
    options.mutations.recovery_deletes_mail = true;
    ExplorerOptions opts;
    opts.max_crashes = 1;
    Report r = run_both(options, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.violations[0].kind, "non-linearizable");
  }
}

// Fault-injection variants: POR must not interfere with env (fault)
// alternatives — they are never slept, and fault slot mutations conflict
// with every consumer via the kResFaultSlot resource.

TEST(PorFirstViolation, ReplMissingRetryUnderTransientFault) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.no_retry = true;
  options.fault_plan.transient_writes = 1;
  options.fault_plan.target = ReplicatedDisk::kDisk1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorFirstViolation(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

TEST(PorFirstViolation, TxnLogMissingBarrierUnderTornWrite) {
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.log_capacity = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}};
  options.mutations.no_write_barrier = true;
  options.fault_plan.torn_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorFirstViolation(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
}

TEST(PorEquivalence, ReplWithRetrySurvivesFaultSweep) {
  // The fixed system under the same transient-write fault: both runs must
  // agree on "0 violations", and POR must still cut the execution count.
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.fault_plan.transient_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectPorEquivalence(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

// ---------- Composition with the other exploration knobs ----------

TEST(PorMatrix, BoundsDedupPorVerdictInvariance) {
  // preemption bound {0,1,2,unbounded} x dedup {off,on} x POR {off,on}:
  // within each (bound, dedup) cell, flipping POR may not change the
  // verdict. Bounded cells are exactly equal (POR self-disables: bounding
  // is itself an unsound reduction and the two do not compose soundly);
  // the unbounded cells assert first-violation equality.
  auto run_matrix = [](auto spec, auto factory, bool expect_bug) {
    for (int bound : {0, 1, 2, -1}) {
      for (bool dedup : {false, true}) {
        SCOPED_TRACE("bound=" + std::to_string(bound) + " dedup=" + std::to_string(dedup));
        ExplorerOptions opts;
        opts.max_crashes = 1;
        opts.max_preemptions = bound;
        opts.dedup_histories = dedup;
        opts.max_violations = 1;
        ExplorerOptions unreduced = opts;
        unreduced.use_por = false;
        ExplorerOptions reduced = opts;
        reduced.use_por = true;
        using Spec = decltype(spec);
        Report nopor = Explorer<Spec>(spec, factory, unreduced).Run();
        Report por = Explorer<Spec>(spec, factory, reduced).Run();
        EXPECT_EQ(por.ok(), nopor.ok());
        ExpectSameViolations(por, nopor);
        if (bound >= 0) {
          // POR inactive: the entire report must be identical.
          EXPECT_EQ(por.Summary(), nopor.Summary());
          EXPECT_EQ(por.por_pruned, 0u);
        }
        if (bound < 0 && !expect_bug) {
          EXPECT_TRUE(por.ok()) << por.Summary();
        }
      }
    }
  };
  {
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    run_matrix(ReplSpec{1}, [&] { return MakeReplInstance(options); }, /*expect_bug=*/false);
  }
  {
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
    options.mutations.apply_before_commit = true;
    run_matrix(PairSpec{}, [&] { return MakeWalInstance(options); }, /*expect_bug=*/true);
  }
}

TEST(PorParallel, SerialAndParallelAgreeWithPorOn) {
  // ParallelExplorer workers rebuild the serial sleep sets from the POR
  // baggage shipped in their work items; every aggregate field — including
  // por_pruned — must match the serial run bit-for-bit.
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5), ReplSpec::MakeRead(0)},
                        {ReplSpec::MakeWrite(0, 7)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.use_por = true;
  opts.max_violations = 1 << 20;
  Explorer<ReplSpec> serial(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report s = serial.Run();
  ASSERT_FALSE(s.truncated);
  for (int workers : {1, 2, 4}) {
    for (int split_depth : {2, 4, 6}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " split_depth=" + std::to_string(split_depth));
      ExplorerOptions popts = opts;
      popts.num_workers = workers;
      popts.split_depth = split_depth;
      ParallelExplorer<ReplSpec> parallel(ReplSpec{1}, [&] { return MakeReplInstance(options); },
                                          popts);
      Report p = parallel.Run();
      EXPECT_EQ(p.executions, s.executions);
      EXPECT_EQ(p.total_steps, s.total_steps);
      EXPECT_EQ(p.crashes_injected, s.crashes_injected);
      EXPECT_EQ(p.histories_checked, s.histories_checked);
      EXPECT_EQ(p.por_pruned, s.por_pruned);
      ExpectSameViolations(p, s);
    }
  }
}

TEST(PorMemo, ByteCappedCachesChangeNoVerdict) {
  // Whole-shard eviction under a byte cap may only convert verdict-cache
  // hits into misses: executions, histories checked, and every verdict are
  // unchanged; only the dedup hit rate may drop. The accounted total must
  // never exceed the cap (Insert drops the entry rather than overshooting),
  // which is what keeps checkpoint restore eviction-free and deterministic.
  GcHarnessOptions options;
  options.client_ops = {{GcSpec::MakeWrite(1)}, {GcSpec::MakeWrite(2)}, {GcSpec::MakeFlush()}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  opts.dedup_histories = true;
  Report baseline = Explorer<GcSpec>(GcSpec{}, [&] { return MakeGcInstance(options); }, opts).Run();
  ASSERT_GT(baseline.histories_deduped, 0u);

  constexpr size_t kCap = 2048;
  refine::VerdictCache verdicts;
  verdicts.set_max_bytes(kCap);
  Explorer<GcSpec> capped(GcSpec{}, [&] { return MakeGcInstance(options); }, opts);
  capped.set_verdict_cache(&verdicts);
  Report r = capped.Run();

  EXPECT_GT(verdicts.evictions(), 0u);
  EXPECT_LE(verdicts.bytes(), kCap);
  EXPECT_EQ(r.executions, baseline.executions);
  EXPECT_EQ(r.total_steps, baseline.total_steps);
  EXPECT_EQ(r.crashes_injected, baseline.crashes_injected);
  EXPECT_EQ(r.histories_checked, baseline.histories_checked);
  EXPECT_LE(r.histories_deduped, baseline.histories_deduped);
  EXPECT_EQ(r.ok(), baseline.ok());
  ExpectSameViolations(r, baseline);
}

// ---------- Progress callback: post-dedup counts, monotone ----------

TEST(PorProgress, CallbackObservesPostDedupCountsMonotonically) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.dedup_histories = true;
  opts.use_por = true;
  opts.max_violations = 1 << 20;
  opts.progress_interval = 1;  // observe after every execution
  std::vector<ExplorerProgress> samples;
  opts.progress_callback = [&](const ExplorerProgress& p) { samples.push_back(p); };
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(samples.empty());
  for (size_t i = 0; i < samples.size(); ++i) {
    const ExplorerProgress& p = samples[i];
    // The callback fires after the execution's dedup decision, so the
    // counts are internally consistent at every observation point.
    EXPECT_LE(p.histories_deduped, p.histories_checked) << "sample " << i;
    EXPECT_LE(p.histories_checked, p.executions) << "sample " << i;
    if (i > 0) {
      const ExplorerProgress& q = samples[i - 1];
      EXPECT_LT(q.executions, p.executions) << "sample " << i;
      EXPECT_LE(q.total_steps, p.total_steps) << "sample " << i;
      EXPECT_LE(q.histories_checked, p.histories_checked) << "sample " << i;
      EXPECT_LE(q.histories_deduped, p.histories_deduped) << "sample " << i;
      EXPECT_LE(q.por_pruned, p.por_pruned) << "sample " << i;
      EXPECT_LE(q.violations, p.violations) << "sample " << i;
    }
  }
  // With interval 1 the final sample is the finished run.
  const ExplorerProgress& last = samples.back();
  EXPECT_EQ(last.executions, report.executions);
  EXPECT_EQ(last.histories_checked, report.histories_checked);
  EXPECT_EQ(last.histories_deduped, report.histories_deduped);
  EXPECT_EQ(last.por_pruned, report.por_pruned);
  EXPECT_GT(report.histories_deduped, 0u) << "workload produced no duplicate histories";
}

}  // namespace
}  // namespace perennial::systems
