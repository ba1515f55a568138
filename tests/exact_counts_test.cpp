// Exact exploration counts, pinned. The checker's work on a fixed
// configuration — executions, scheduler steps, spec configurations
// explored — is deterministic, so a change to the explorer, the linearizer
// or a spec that claims to preserve behaviour must reproduce these numbers
// exactly. The constants were captured from the checker as it stood before
// the flat linearizer configurations and the interned MailSpec state; a
// representation change that alters them changed what is explored. They
// also hold with the post-crash continuation cache on (the harnesses set
// Instance::mix_surviving_state): a cache hit credits exactly what the
// skipped continuation would have added.
#include <cstdint>

#include <gtest/gtest.h>

#include "src/mailboat/mail_harness.h"
#include "src/mailboat/mail_spec.h"
#include "src/refine/explorer.h"
#include "src/systems/gc/gc_spec.h"
#include "src/systems/pattern_harness.h"

namespace perennial {
namespace {

using mailboat::MailAction;
using mailboat::MailHarnessOptions;
using mailboat::MailSpec;
using refine::Explorer;
using refine::ExplorerOptions;
using refine::Report;
using systems::GcSpec;

// Serial DFS with POR over Mailboat on the modeled GooseFs — the
// check-dfs-mailboat benchmark workload: one client delivers to user 0,
// one to user 1, a third picks up, deletes all and unlocks user 0; mailbox
// observer on; at most one crash.
MailHarnessOptions DfsMailboat() {
  MailHarnessOptions mail;
  mail.num_users = 2;
  mail.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "a"}},
      {{MailAction::Kind::kDeliver, 1, "b"}},
      {{MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
  };
  return mail;
}

Report RunMail(const MailHarnessOptions& mail, int max_violations) {
  ExplorerOptions options;
  options.max_crashes = 1;
  options.max_violations = max_violations;
  return Explorer<MailSpec>(MailSpec{mail.num_users},
                            [mail] { return mailboat::MakeMailInstance(mail); }, options)
      .Run();
}

TEST(ExactCounts, MailboatDfs) {
  Report r = RunMail(DfsMailboat(), /*max_violations=*/3);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.executions, 23'388u);
  EXPECT_EQ(r.total_steps, 709'610u);
  EXPECT_EQ(r.spec_states_explored, 3'164'070u);
  // Executions that stopped at their crash on a continuation-cache hit.
  // Not part of the bit-identity contract (the counts above are), but
  // deterministic for one serial engine and its fixed-size table.
  EXPECT_EQ(r.crash_pruned, 13'241u);
}

// The continuation cache is a fixed-size table: it never grows with the
// run, so its memory is a constant.
TEST(ExactCounts, ContinuationCacheIsFixedSize) {
  static_assert(refine::detail::ContinuationCache::kSlots == 1024);
  EXPECT_EQ(refine::detail::ContinuationCache::kBytes, 24u * 1024u);
}

// The first counterexample of a seeded Mailboat bug is found at the same
// execution, after the same work.
void ExpectFirstViolation(const MailHarnessOptions& mail, uint64_t executions,
                          uint64_t total_steps, uint64_t spec_states) {
  Report r = RunMail(mail, /*max_violations=*/1);
  ASSERT_EQ(r.violations.size(), 1u) << r.Summary();
  EXPECT_EQ(r.violations[0].kind, "non-linearizable");
  EXPECT_EQ(r.executions, executions);
  EXPECT_EQ(r.total_steps, total_steps);
  EXPECT_EQ(r.spec_states_explored, spec_states);
}

TEST(ExactCounts, MailboatDeliverInPlaceFirstViolation) {
  MailHarnessOptions mail = DfsMailboat();
  mail.mutations.deliver_in_place = true;
  ExpectFirstViolation(mail, 38, 1'040, 2'489);
}

TEST(ExactCounts, MailboatRecoveryDeletesMailFirstViolation) {
  MailHarnessOptions mail = DfsMailboat();
  mail.mutations.recovery_deletes_mail = true;
  ExpectFirstViolation(mail, 2, 68, 63);
}

// Serial PCT over the §9.1 group-commit model with a fixed run budget.
TEST(ExactCounts, GroupCommitPct) {
  systems::GcHarnessOptions gc;
  gc.client_ops = {
      {GcSpec::MakeWrite(1), GcSpec::MakeRead()},
      {GcSpec::MakeWrite(2)},
      {GcSpec::MakeWrite(3)},
      {GcSpec::MakeFlush(), GcSpec::MakeRead()},
  };
  ExplorerOptions options;
  options.max_crashes = 1;
  options.mode = ExplorerOptions::Mode::kPct;
  options.pct_depth = 3;
  options.pct_change_budget = 256;
  options.random_runs = 4000;
  options.seed = 3;
  Report r = Explorer<GcSpec>(GcSpec{}, [gc] { return systems::MakeGcInstance(gc); }, options)
                 .Run();
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.executions, 4000u);
  EXPECT_EQ(r.total_steps, 72'625u);
  EXPECT_EQ(r.spec_states_explored, 100'303u);
  EXPECT_EQ(r.crash_pruned, 2'251u);
}

}  // namespace
}  // namespace perennial
