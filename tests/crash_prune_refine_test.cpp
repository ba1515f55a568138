// Post-crash continuation cache soundness (DESIGN.md §9, "Post-crash
// continuation cache"). The cache is an OPTIMIZATION: an execution that
// stops at its last crash on a hit is credited with exactly what the
// skipped continuation adds, so a run with the harness's
// Instance::mix_surviving_state hook set must give the same Report as the
// run with it cleared — every count (crash_pruned and histories_deduped
// excepted) and every violation's kind, detail, trace and schedule.
//
// The suite wraps each factory to clear the hook instead of adding an
// option, and covers every §9.1 system and Mailboat, with all their seeded
// mutations on and off, under the serial engine, ParallelExplorer at 2 and
// 4 workers, PCT, random mode, and the checkpoint interrupt/resume path.
// Two negative controls must be caught: a hook that leaves out the
// surviving durable state, and a cache that also admits continuations that
// added a violation.
//
// CrashPruneSmall.* is the tier-1 shape; the rest runs as
// crash_prune_refine_full (label tier2-crashprune), also under
// -DPCC_SANITIZE=thread, where ParallelExplorer workers each own a table.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
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

using mailboat::MailAction;
using mailboat::MailHarnessOptions;
using mailboat::MailSpec;
using refine::Explorer;
using refine::ExplorerOptions;
using refine::Instance;
using refine::ParallelExplorer;
using refine::Report;
using refine::RunOutcome;

template <typename Spec>
using Factory = std::function<Instance<Spec>()>;

template <typename Spec>
Factory<Spec> Unhooked(Factory<Spec> factory) {
  return [factory] {
    Instance<Spec> inst = factory();
    inst.mix_surviving_state = nullptr;
    return inst;
  };
}

// Empty when `got` matches `want` in everything the cache must preserve;
// otherwise the first difference.
std::string ReportDiff(const Report& got, const Report& want) {
  auto field = [](const char* name, uint64_t a, uint64_t b) {
    return a == b ? std::string()
                  : std::string(name) + ": " + std::to_string(a) + " vs " + std::to_string(b);
  };
  for (const std::string& d :
       {field("executions", got.executions, want.executions),
        field("total_steps", got.total_steps, want.total_steps),
        field("crashes_injected", got.crashes_injected, want.crashes_injected),
        field("env_events_fired", got.env_events_fired, want.env_events_fired),
        field("histories_checked", got.histories_checked, want.histories_checked),
        field("por_pruned", got.por_pruned, want.por_pruned),
        field("spec_states_explored", got.spec_states_explored, want.spec_states_explored),
        field("truncated", got.truncated, want.truncated),
        field("outcome", static_cast<uint64_t>(got.outcome), static_cast<uint64_t>(want.outcome)),
        field("violations", got.violations.size(), want.violations.size())}) {
    if (!d.empty()) {
      return d;
    }
  }
  for (size_t i = 0; i < want.violations.size(); ++i) {
    const refine::Violation& a = got.violations[i];
    const refine::Violation& b = want.violations[i];
    if (a.kind != b.kind || a.detail != b.detail || a.trace != b.trace ||
        a.schedule != b.schedule) {
      return "violation " + std::to_string(i) + ":\n  " + a.ToString() + "\nvs\n  " +
             b.ToString();
    }
  }
  return "";
}

void ExpectSameReport(const Report& hooked, const Report& unhooked) {
  EXPECT_EQ(ReportDiff(hooked, unhooked), "")
      << "hooked:\n" << hooked.Summary() << "\nunhooked:\n" << unhooked.Summary();
}

// One checker configuration, type-erased over its Spec.
struct System {
  std::string name;
  int max_crashes = 1;
  std::function<Report(const ExplorerOptions&, bool hooked)> serial;
  std::function<Report(const ExplorerOptions&, bool hooked)> parallel;
  // Serial, hooked, with the negative-control admission rule.
  std::function<Report(const ExplorerOptions&)> serial_admitting_violations;
};

template <typename Spec>
System MakeSystem(std::string name, int max_crashes, Spec spec, Factory<Spec> factory) {
  System s;
  s.name = std::move(name);
  s.max_crashes = max_crashes;
  s.serial = [spec, factory](const ExplorerOptions& o, bool hooked) {
    return Explorer<Spec>(spec, hooked ? factory : Unhooked(factory), o).Run();
  };
  s.parallel = [spec, factory](const ExplorerOptions& o, bool hooked) {
    return ParallelExplorer<Spec>(spec, hooked ? factory : Unhooked(factory), o).Run();
  };
  s.serial_admitting_violations = [spec, factory](const ExplorerOptions& o) {
    Explorer<Spec> explorer(spec, factory, o);
    explorer.AdmitViolatingContinuationsForTesting();
    return explorer.Run();
  };
  return s;
}

ExplorerOptions FullEnumeration(const System& sys) {
  ExplorerOptions opts;
  opts.max_crashes = sys.max_crashes;
  opts.max_violations = 1 << 20;  // every violation, so every skip is compared
  return opts;
}

// ---------------------------------------------------------------------------
// The catalog: every §9.1 system and Mailboat, correct and seeded-buggy.

MailHarnessOptions MailDeliverVsPickup() {
  MailHarnessOptions o;
  o.num_users = 1;
  o.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "a"}},
      {{MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
  };
  return o;
}

System MailSystem(std::string name, MailHarnessOptions o, int max_crashes = 1) {
  return MakeSystem<MailSpec>(std::move(name), max_crashes, MailSpec{o.num_users},
                              [o] { return mailboat::MakeMailInstance(o); });
}

std::vector<System> CorrectSystems() {
  std::vector<System> systems;
  {
    ReplHarnessOptions o;
    o.num_blocks = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    systems.push_back(
        MakeSystem<ReplSpec>("repl-2writers", 1, ReplSpec{1}, [o] { return MakeReplInstance(o); }));
  }
  {
    ReplHarnessOptions o;
    o.num_blocks = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 9)}, {ReplSpec::MakeRead(0)}};
    o.with_disk1_failure_event = true;
    systems.push_back(MakeSystem<ReplSpec>("repl-failover", 1, ReplSpec{1},
                                           [o] { return MakeReplInstance(o); }));
  }
  {
    ReplHarnessOptions o;
    o.num_blocks = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
    o.fault_plan.transient_writes = 1;
    systems.push_back(MakeSystem<ReplSpec>("repl-transient-fault", 1, ReplSpec{1},
                                           [o] { return MakeReplInstance(o); }));
  }
  {
    ShadowHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
    systems.push_back(MakeSystem<PairSpec>("shadow-2writers", 1, PairSpec{},
                                           [o] { return MakeShadowInstance(o); }));
  }
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
    systems.push_back(
        MakeSystem<PairSpec>("wal-2writers", 1, PairSpec{}, [o] { return MakeWalInstance(o); }));
  }
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    systems.push_back(MakeSystem<PairSpec>("wal-recovery-crash", 2, PairSpec{},
                                           [o] { return MakeWalInstance(o); }));
  }
  {
    GcHarnessOptions o;
    o.client_ops = {{GcSpec::MakeWrite(1)}, {GcSpec::MakeWrite(2)}, {GcSpec::MakeFlush()}};
    systems.push_back(
        MakeSystem<GcSpec>("gc-writers-flush", 1, GcSpec{}, [o] { return MakeGcInstance(o); }));
  }
  {
    FtlHarnessOptions o;
    o.num_lbas = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    systems.push_back(
        MakeSystem<ReplSpec>("ftl-2writers", 1, ReplSpec{1}, [o] { return MakeFtlInstance(o); }));
  }
  {
    TxnHarnessOptions o;
    o.num_addrs = 2;
    o.client_ops = {{TxnSpec::MakeBatch({{0, 1}, {1, 2}})}, {TxnSpec::MakeRead(0)}};
    systems.push_back(MakeSystem<TxnSpec>("txnlog-batch-reader", 1, TxnSpec{2},
                                          [o] { return MakeTxnInstance(o); }));
  }
  {
    TxnHarnessOptions o;
    o.num_addrs = 2;
    o.log_capacity = 2;
    o.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}};
    o.fault_plan.torn_writes = 1;
    systems.push_back(MakeSystem<TxnSpec>("txnlog-torn-write", 1, TxnSpec{2},
                                          [o] { return MakeTxnInstance(o); }));
  }
  {
    KvHarnessOptions o;
    o.num_keys = 2;
    o.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}, {KvSpec::MakeGet(0)}};
    systems.push_back(
        MakeSystem<KvSpec>("kv-txn-reader", 1, KvSpec{2}, [o] { return MakeKvInstance(o); }));
  }
  systems.push_back(MailSystem("mailboat-deliver-pickup", MailDeliverVsPickup()));
  {
    MailHarnessOptions o = MailDeliverVsPickup();
    o.deferred_durability = true;
    systems.push_back(MailSystem("mailboat-deferred", o));
  }
  return systems;
}

std::vector<System> MutatedSystems() {
  std::vector<System> systems;
  for (auto [name, m] : std::vector<std::pair<const char*, ReplicatedDisk::Mutations>>{
           {"repl-skip_second_write", {.skip_second_write = true}},
           {"repl-recovery_zeroes", {.recovery_zeroes = true}},
           {"repl-skip_recovery", {.skip_recovery = true}},
       }) {
    ReplHarnessOptions o;
    o.num_blocks = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
    o.mutations = m;
    if (m.skip_second_write || m.skip_recovery) {
      o.with_disk1_failure_event = true;  // expose the stale disk 2
      o.observe_repeats = 2;
    }
    systems.push_back(
        MakeSystem<ReplSpec>(name, 1, ReplSpec{1}, [o] { return MakeReplInstance(o); }));
  }
  {
    ReplHarnessOptions o;
    o.num_blocks = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
    o.mutations.no_retry = true;
    o.fault_plan.transient_writes = 1;
    o.fault_plan.target = ReplicatedDisk::kDisk1;
    systems.push_back(MakeSystem<ReplSpec>("repl-no_retry-transient", 1, ReplSpec{1},
                                           [o] { return MakeReplInstance(o); }));
  }
  for (bool flip_before_data : {false, true}) {
    ShadowHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
    o.mutations.in_place_update = !flip_before_data;
    o.mutations.flip_before_data = flip_before_data;
    systems.push_back(MakeSystem<PairSpec>(
        flip_before_data ? "shadow-flip_before_data" : "shadow-in_place_update", 1, PairSpec{},
        [o] { return MakeShadowInstance(o); }));
  }
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}};
    o.mutations.apply_before_commit = true;
    systems.push_back(MakeSystem<PairSpec>("wal-apply_before_commit", 1, PairSpec{},
                                           [o] { return MakeWalInstance(o); }));
  }
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    o.mutations.skip_recovery = true;
    o.observer_ops = {PairSpec::MakeWrite(5, 6), PairSpec::MakeRead()};
    systems.push_back(MakeSystem<PairSpec>("wal-skip_recovery", 1, PairSpec{},
                                           [o] { return MakeWalInstance(o); }));
  }
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    o.mutations.recovery_discards_log = true;
    systems.push_back(MakeSystem<PairSpec>("wal-recovery_discards_log", 1, PairSpec{},
                                           [o] { return MakeWalInstance(o); }));
  }
  {
    GcHarnessOptions o;
    o.client_ops = {
        {GcSpec::MakeWrite(7), GcSpec::MakeFlush(), GcSpec::MakeWrite(9), GcSpec::MakeFlush()}};
    o.mutations.commit_count_first = true;
    systems.push_back(MakeSystem<GcSpec>("gc-commit_count_first", 1, GcSpec{},
                                         [o] { return MakeGcInstance(o); }));
  }
  {
    FtlHarnessOptions o;
    o.num_lbas = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 1), ReplSpec::MakeWrite(0, 2)}};
    o.mutations.reuse_sequence_numbers = true;
    systems.push_back(MakeSystem<ReplSpec>("ftl-reuse_sequence_numbers", 1, ReplSpec{1},
                                           [o] { return MakeFtlInstance(o); }));
  }
  {
    FtlHarnessOptions o;
    o.num_lbas = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
    o.mutations.volatile_write = true;
    systems.push_back(MakeSystem<ReplSpec>("ftl-volatile_write", 1, ReplSpec{1},
                                           [o] { return MakeFtlInstance(o); }));
  }
  {
    TxnHarnessOptions o;
    o.num_addrs = 1;
    o.client_ops = {{TxnSpec::MakeWrite(0, 5), TxnSpec::MakeWrite(0, 7)}};
    o.mutations.header_before_records = true;
    systems.push_back(MakeSystem<TxnSpec>("txnlog-header_before_records", 1, TxnSpec{1},
                                          [o] { return MakeTxnInstance(o); }));
  }
  {
    TxnHarnessOptions o;
    o.num_addrs = 1;
    o.client_ops = {{TxnSpec::MakeWrite(0, 5), TxnSpec::MakeCheckpoint()}};
    o.mutations.truncate_before_apply = true;
    systems.push_back(MakeSystem<TxnSpec>("txnlog-truncate_before_apply", 1, TxnSpec{1},
                                          [o] { return MakeTxnInstance(o); }));
  }
  {
    TxnHarnessOptions o;
    o.num_addrs = 2;
    o.log_capacity = 2;
    o.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}};
    o.mutations.no_write_barrier = true;
    o.fault_plan.torn_writes = 1;
    systems.push_back(MakeSystem<TxnSpec>("txnlog-no_write_barrier-torn", 1, TxnSpec{2},
                                          [o] { return MakeTxnInstance(o); }));
  }
  {
    KvHarnessOptions o;
    o.num_keys = 2;
    o.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}};
    o.mutations.apply_before_commit = true;
    systems.push_back(MakeSystem<KvSpec>("kv-apply_before_commit", 1, KvSpec{2},
                                         [o] { return MakeKvInstance(o); }));
  }
  {
    KvHarnessOptions o;
    o.num_keys = 2;
    o.client_ops = {{KvSpec::MakePut(0, 5)}};
    o.mutations.skip_recovery = true;
    systems.push_back(
        MakeSystem<KvSpec>("kv-skip_recovery", 1, KvSpec{2}, [o] { return MakeKvInstance(o); }));
  }
  {
    MailHarnessOptions o;
    o.num_users = 1;
    o.client_scripts = {{{MailAction::Kind::kDeliver, 0, "precious"}}};
    o.mutations.recovery_deletes_mail = true;
    systems.push_back(MailSystem("mailboat-recovery_deletes_mail", o));
  }
  {
    MailHarnessOptions o = MailDeliverVsPickup();
    o.chunk_size = 1;
    o.client_scripts[0][0].contents = "abc";
    o.mutations.deliver_in_place = true;
    systems.push_back(MailSystem("mailboat-deliver_in_place", o));
  }
  {
    MailHarnessOptions o = MailDeliverVsPickup();
    o.deferred_durability = true;
    o.sync_on_deliver = false;
    systems.push_back(MailSystem("mailboat-no_sync_on_deliver", o));
  }
  return systems;
}

// Serial DFS, hooked vs cleared, with fingerprint dedup off and on.
void ExpectSerialEquivalence(const System& sys, bool expect_pruning) {
  SCOPED_TRACE(sys.name);
  for (bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "dedup on" : "dedup off");
    ExplorerOptions opts = FullEnumeration(sys);
    opts.dedup_histories = dedup;
    Report unhooked = sys.serial(opts, /*hooked=*/false);
    Report hooked = sys.serial(opts, /*hooked=*/true);
    ASSERT_FALSE(unhooked.truncated) << "workload too large: " << unhooked.Summary();
    EXPECT_EQ(unhooked.crash_pruned, 0u);
    ExpectSameReport(hooked, unhooked);
    if (expect_pruning) {
      EXPECT_GT(hooked.crash_pruned, 0u) << "the cache never hit: " << hooked.Summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Tier-1 shape.

TEST(CrashPruneSmall, MailboatSerialDfs) {
  ExpectSerialEquivalence(MailSystem("mailboat-deliver-pickup", MailDeliverVsPickup()),
                          /*expect_pruning=*/true);
}

TEST(CrashPruneSmall, MailboatParallelDfs) {
  System sys = MailSystem("mailboat-deliver-pickup", MailDeliverVsPickup());
  ExplorerOptions opts = FullEnumeration(sys);
  Report unhooked = sys.serial(opts, /*hooked=*/false);
  opts.num_workers = 2;
  ExpectSameReport(sys.parallel(opts, /*hooked=*/true), unhooked);
}

TEST(CrashPruneSmall, MailboatFirstViolation) {
  MailHarnessOptions o;
  o.num_users = 1;
  o.client_scripts = {{{MailAction::Kind::kDeliver, 0, "precious"}}};
  o.mutations.recovery_deletes_mail = true;
  System sys = MailSystem("mailboat-recovery_deletes_mail", o);
  ExplorerOptions opts = FullEnumeration(sys);
  opts.max_violations = 1;
  Report hooked = sys.serial(opts, /*hooked=*/true);
  ASSERT_FALSE(hooked.ok());
  ExpectSameReport(hooked, sys.serial(opts, /*hooked=*/false));
}

TEST(CrashPruneSmall, GroupCommitPct) {
  GcHarnessOptions o;
  o.client_ops = {{GcSpec::MakeWrite(1), GcSpec::MakeRead()},
                  {GcSpec::MakeWrite(2)},
                  {GcSpec::MakeFlush(), GcSpec::MakeRead()}};
  System sys = MakeSystem<GcSpec>("gc-pct", 1, GcSpec{}, [o] { return MakeGcInstance(o); });
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.random_runs = 500;
  opts.seed = 5;
  Report hooked = sys.serial(opts, /*hooked=*/true);
  ExpectSameReport(hooked, sys.serial(opts, /*hooked=*/false));
  EXPECT_GT(hooked.crash_pruned, 0u);
}

TEST(CrashPruneSmall, GroupCommitRandom) {
  GcHarnessOptions o;
  o.client_ops = {{GcSpec::MakeWrite(1), GcSpec::MakeRead()},
                  {GcSpec::MakeWrite(2)},
                  {GcSpec::MakeFlush(), GcSpec::MakeRead()}};
  System sys = MakeSystem<GcSpec>("gc-random", 1, GcSpec{}, [o] { return MakeGcInstance(o); });
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.mode = ExplorerOptions::Mode::kRandom;
  opts.random_runs = 500;
  opts.seed = 5;
  Report hooked = sys.serial(opts, /*hooked=*/true);
  ExpectSameReport(hooked, sys.serial(opts, /*hooked=*/false));
  EXPECT_GT(hooked.crash_pruned, 0u);
}

// Negative control 1: a hook that mixes only Mailboat's id generator and
// leaves out the file system. Crashes that leave different spool files
// behind under the same history then share a key, and a hit credits the
// wrong recovery — the comparison must notice.
TEST(CrashPruneSmall, NegativeControlMissingDurableStateIsCaught) {
  MailHarnessOptions o = MailDeliverVsPickup();
  auto broken = [o] {
    Instance<MailSpec> inst = mailboat::MakeMailInstance(o);
    inst.mix_surviving_state = [](Hasher128* h) { h->MixU64(0); };
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  Report bad = Explorer<MailSpec>(MailSpec{1}, broken, opts).Run();
  Report ref = Explorer<MailSpec>(MailSpec{1}, Unhooked<MailSpec>(broken), opts).Run();
  EXPECT_GT(bad.crash_pruned, 0u);
  EXPECT_NE(ReportDiff(bad, ref), "") << "a key without the durable state went unnoticed";
}

// Negative control 2: a cache that also stores continuations that added a
// violation. A later execution reaching the same key then skips its
// violation, so the violation list shrinks — the comparison must notice.
TEST(CrashPruneSmall, NegativeControlCachingViolationsIsCaught) {
  MailHarnessOptions o = MailDeliverVsPickup();
  o.mutations.recovery_deletes_mail = true;
  System sys = MailSystem("mailboat-recovery_deletes_mail", o);
  ExplorerOptions opts = FullEnumeration(sys);
  Report bad = sys.serial_admitting_violations(opts);
  Report ref = sys.serial(opts, /*hooked=*/false);
  ASSERT_FALSE(ref.ok());
  EXPECT_GT(bad.crash_pruned, 0u);
  EXPECT_NE(ReportDiff(bad, ref), "") << "caching violating continuations went unnoticed";
}

// ---------------------------------------------------------------------------
// Full set (tier2-crashprune).

TEST(CrashPruneEquivalence, CorrectSystemsSerial) {
  for (const System& sys : CorrectSystems()) {
    ExpectSerialEquivalence(sys, /*expect_pruning=*/false);
  }
}

TEST(CrashPruneEquivalence, MutatedSystemsSerial) {
  for (const System& sys : MutatedSystems()) {
    ExpectSerialEquivalence(sys, /*expect_pruning=*/false);
  }
}

// The cache must actually fire across the catalog, or the equivalence
// above proves nothing.
TEST(CrashPruneEquivalence, CatalogPrunes) {
  uint64_t pruned = 0;
  int systems_pruned = 0;
  for (const System& sys : CorrectSystems()) {
    Report r = sys.serial(FullEnumeration(sys), /*hooked=*/true);
    pruned += r.crash_pruned;
    systems_pruned += r.crash_pruned > 0 ? 1 : 0;
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_GE(systems_pruned, 8) << "the cache fired on too few systems";
}

TEST(CrashPruneEquivalence, ParallelWorkers) {
  std::vector<System> systems = CorrectSystems();
  for (System& sys : MutatedSystems()) {
    systems.push_back(std::move(sys));
  }
  for (const System& sys : systems) {
    SCOPED_TRACE(sys.name);
    ExplorerOptions opts = FullEnumeration(sys);
    Report unhooked = sys.serial(opts, /*hooked=*/false);
    for (int workers : {2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      opts.num_workers = workers;
      ExpectSameReport(sys.parallel(opts, /*hooked=*/true), unhooked);
    }
  }
}

// The sampling modes: every run has its own driver, so a run that stops at
// its last crash skips no draw a later run depends on.
void ExpectSampledEquivalence(ExplorerOptions::Mode mode) {
  std::vector<System> systems = CorrectSystems();
  for (System& sys : MutatedSystems()) {
    systems.push_back(std::move(sys));
  }
  for (const System& sys : systems) {
    SCOPED_TRACE(sys.name);
    ExplorerOptions opts;
    opts.max_crashes = sys.max_crashes;
    opts.mode = mode;
    opts.random_runs = 200;
    opts.seed = 11;
    opts.crash_probability = 0.1;
    opts.env_probability = 0.2;
    opts.max_violations = 1 << 20;
    Report unhooked = sys.serial(opts, /*hooked=*/false);
    ExpectSameReport(sys.serial(opts, /*hooked=*/true), unhooked);
    for (int workers : {2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      opts.num_workers = workers;
      ExpectSameReport(sys.parallel(opts, /*hooked=*/true), unhooked);
    }
  }
}

TEST(CrashPruneEquivalence, PctSerialAndParallel) {
  ExpectSampledEquivalence(ExplorerOptions::Mode::kPct);
}

TEST(CrashPruneEquivalence, RandomSerialAndParallel) {
  ExpectSampledEquivalence(ExplorerOptions::Mode::kRandom);
}

// Interrupt every k decisions, checkpoint, resume until done: the resumed
// legs start with empty tables, so they prune less, but every count and
// violation must still match the uninterrupted run with the hook cleared.
TEST(CrashPruneEquivalence, CheckpointInterruptResume) {
  std::vector<System> systems;
  systems.push_back(MailSystem("mailboat-deliver-pickup", MailDeliverVsPickup()));
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    systems.push_back(MakeSystem<PairSpec>("wal-recovery-crash", 2, PairSpec{},
                                           [o] { return MakeWalInstance(o); }));
  }
  {
    ShadowHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)},
                    {PairSpec::MakeWrite(5, 6)}};
    o.mutations.in_place_update = true;
    systems.push_back(MakeSystem<PairSpec>("shadow-in_place_update", 1, PairSpec{},
                                           [o] { return MakeShadowInstance(o); }));
  }
  const std::pair<ExplorerOptions::Mode, std::string> modes[] = {
      {ExplorerOptions::Mode::kExhaustive, "dfs"},
      {ExplorerOptions::Mode::kPct, "pct"},
      {ExplorerOptions::Mode::kRandom, "random"}};
  for (const System& sys : systems) {
    for (const auto& [mode, mode_name] : modes) {
      SCOPED_TRACE(sys.name + " " + mode_name);
      ExplorerOptions opts = FullEnumeration(sys);
      opts.mode = mode;
      opts.random_runs = 300;
      opts.crash_probability = 0.1;
      Report want = sys.serial(opts, /*hooked=*/false);
      const std::string path = "ckpt_crash_prune_" + sys.name + "_" + mode_name + ".bin";
      std::remove(path.c_str());
      opts.run_id = sys.name;
      opts.checkpoint_path = path;
      opts.cancel_after_decisions = 500;
      Report got = sys.serial(opts, /*hooked=*/true);
      int legs = 1;
      opts.resume_path = path;
      while (got.outcome != RunOutcome::kComplete && legs < 2000) {
        got = sys.serial(opts, /*hooked=*/true);
        ++legs;
      }
      std::remove(path.c_str());
      EXPECT_GE(legs, 2) << "the run was never interrupted";
      ASSERT_EQ(got.outcome, RunOutcome::kComplete) << got.Summary();
      ExpectSameReport(got, want);
    }
  }
}

}  // namespace
}  // namespace perennial::systems
