// Durable-exploration suite (tier2-ckpt): crash-safe checkpoint/resume for
// the refinement checker itself.
//
// The load-bearing invariant: a run interrupted at ANY point — mid-
// execution included — and resumed from its checkpoint must produce a
// Report bit-identical to an uninterrupted run (executions, steps, crash
// and env counts, histories checked/deduped, POR prunes, spec states, and
// the exact violation sequence). The interruption points are driven by the
// deterministic cancel_after_decisions hook (serial) and a CancelToken
// fired from the progress callback (parallel); both land inside executions,
// so the rollback + exact-path-resume machinery is what is under test. The
// resume cases run DFS subtrees and random mode's sample slices alike: both
// are items of the one work list the engines share.
//
// The checkpoint FILE format is tested separately: torn, truncated,
// bit-flipped, version-bumped, trailing-garbage, and config-mismatched
// files must all be rejected cleanly, and an engine pointed at a rejected
// file must start from scratch and still match the baseline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/mailboat/mail_harness.h"
#include "src/refine/checkpoint.h"
#include "src/refine/explorer.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/ftl/ftl_harness.h"
#include "src/systems/kvs/kv_harness.h"
#include "src/systems/pattern_harness.h"
#include "src/systems/repl/repl_harness.h"
#include "src/systems/txnlog/txn_harness.h"

namespace perennial::systems {
namespace {

using refine::CancelToken;
using refine::CheckpointData;
using refine::CheckpointSubtree;
using refine::Explorer;
using refine::ExplorerOptions;
using refine::ExplorerProgress;
using refine::LoadCheckpoint;
using refine::ParallelExplorer;
using refine::Report;
using refine::RunOutcome;
using refine::SaveCheckpoint;

// ---------------------------------------------------------------------------
// System catalog: the ten §9.1 patterns, type-erased to (options -> Report)
// runners so one resume harness covers them all.

struct System {
  std::string name;
  int max_crashes = 1;
  std::function<Report(ExplorerOptions)> serial;
  std::function<Report(ExplorerOptions)> parallel;
};

template <typename Spec, typename Factory>
System MakeSystem(std::string name, int max_crashes, Spec spec, Factory factory) {
  System sys;
  sys.name = std::move(name);
  sys.max_crashes = max_crashes;
  sys.serial = [spec, factory](ExplorerOptions opts) {
    Explorer<Spec> ex(spec, factory, opts);
    return ex.Run();
  };
  sys.parallel = [spec, factory](ExplorerOptions opts) {
    ParallelExplorer<Spec> ex(spec, factory, opts);
    return ex.Run();
  };
  return sys;
}

std::vector<System> TenSystems() {
  std::vector<System> systems;
  {
    ReplHarnessOptions o;
    o.num_blocks = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    systems.push_back(
        MakeSystem("repl-2writers", 1, ReplSpec{1}, [o] { return MakeReplInstance(o); }));
  }
  {
    ReplHarnessOptions o;
    o.num_blocks = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 9)}, {ReplSpec::MakeRead(0)}};
    o.with_disk1_failure_event = true;
    systems.push_back(
        MakeSystem("repl-failover", 1, ReplSpec{1}, [o] { return MakeReplInstance(o); }));
  }
  {
    ShadowHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
    systems.push_back(
        MakeSystem("shadow-2writers", 1, PairSpec{}, [o] { return MakeShadowInstance(o); }));
  }
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
    systems.push_back(
        MakeSystem("wal-2writers", 1, PairSpec{}, [o] { return MakeWalInstance(o); }));
  }
  {
    WalHarnessOptions o;
    o.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    systems.push_back(
        MakeSystem("wal-recovery-crash", 2, PairSpec{}, [o] { return MakeWalInstance(o); }));
  }
  {
    GcHarnessOptions o;
    o.client_ops = {{GcSpec::MakeWrite(1)}, {GcSpec::MakeWrite(2)}, {GcSpec::MakeFlush()}};
    systems.push_back(
        MakeSystem("group-commit", 1, GcSpec{}, [o] { return MakeGcInstance(o); }));
  }
  {
    mailboat::MailHarnessOptions o;
    o.num_users = 1;
    o.client_scripts = {
        {{mailboat::MailAction::Kind::kDeliver, 0, "a"}},
        {{mailboat::MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
    };
    mailboat::MailSpec spec;
    spec.num_users = 1;
    systems.push_back(
        MakeSystem("mailboat", 1, spec, [o] { return mailboat::MakeMailInstance(o); }));
  }
  {
    FtlHarnessOptions o;
    o.num_lbas = 1;
    o.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    systems.push_back(
        MakeSystem("ftl-2writers", 1, ReplSpec{1}, [o] { return MakeFtlInstance(o); }));
  }
  {
    TxnHarnessOptions o;
    o.num_addrs = 2;
    o.client_ops = {{TxnSpec::MakeBatch({{0, 1}, {1, 2}})}, {TxnSpec::MakeRead(0)}};
    systems.push_back(MakeSystem("txnlog", 1, TxnSpec{2}, [o] { return MakeTxnInstance(o); }));
  }
  {
    KvHarnessOptions o;
    o.num_keys = 2;
    o.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}, {KvSpec::MakeGet(0)}};
    systems.push_back(MakeSystem("durable-kv", 1, KvSpec{2}, [o] { return MakeKvInstance(o); }));
  }
  return systems;
}

// A workload big enough (seconds, not milliseconds) that a 1 ms wall
// deadline reliably lands mid-run: two writers racing the crash-during-
// recovery window.
System Wal2cSystem() {
  WalHarnessOptions o;
  o.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  return MakeSystem("wal-recovery-crash-2c", 2, PairSpec{}, [o] { return MakeWalInstance(o); });
}

// The seeded-bug system used for violation-sequence identity (the catalog
// systems are all correct, so their violation lists are trivially equal).
System ShadowBugSystem() {
  ShadowHarnessOptions o;
  o.client_ops = {{PairSpec::MakeWrite(1, 2), PairSpec::MakeWrite(3, 4)}, {PairSpec::MakeWrite(5, 6)}};
  o.mutations.in_place_update = true;
  return MakeSystem("shadow-bug", 1, PairSpec{}, [o] { return MakeShadowInstance(o); });
}

// The resume contracts hold for every kind of work item: DFS subtrees, and
// the sample slices of random mode (PCT slices: pct_refine_test.cpp).
// Random mode gets a run budget and a crash rate that make the catalog
// workloads crash often and the seeded bug show.
ExplorerOptions ModeOptions(ExplorerOptions::Mode mode) {
  ExplorerOptions opts;
  opts.mode = mode;
  opts.random_runs = 300;
  opts.crash_probability = 0.2;
  return opts;
}

const ExplorerOptions::Mode kItemModes[] = {ExplorerOptions::Mode::kExhaustive,
                                            ExplorerOptions::Mode::kRandom};

std::string ModeName(ExplorerOptions::Mode mode) {
  return mode == ExplorerOptions::Mode::kExhaustive ? "dfs" : "random";
}

// ---------------------------------------------------------------------------
// Harness helpers.

// ctest runs in the build tree, so bare filenames stay inside it.
std::string CkptPath(const std::string& tag) { return "ckpt_" + tag + ".bin"; }

void ExpectReportsEqual(const Report& got, const Report& want, bool compare_dedup = true) {
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.total_steps, want.total_steps);
  EXPECT_EQ(got.crashes_injected, want.crashes_injected);
  EXPECT_EQ(got.env_events_fired, want.env_events_fired);
  EXPECT_EQ(got.histories_checked, want.histories_checked);
  if (compare_dedup) {
    EXPECT_EQ(got.histories_deduped, want.histories_deduped);
  }
  EXPECT_EQ(got.por_pruned, want.por_pruned);
  EXPECT_EQ(got.spec_states_explored, want.spec_states_explored);
  ASSERT_EQ(got.violations.size(), want.violations.size())
      << got.Summary() << "\nvs\n" << want.Summary();
  for (size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << "violation " << i;
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail) << "violation " << i;
    EXPECT_EQ(got.violations[i].trace, want.violations[i].trace) << "violation " << i;
  }
}

// Runs `sys` serially with a deterministic cancel every `k` decisions,
// checkpointing on every stop and resuming until the run completes. Fills
// *legs with the number of runs it took (>= 2 means the interruption
// actually happened).
Report RunSerialInterruptedChain(const System& sys, ExplorerOptions base, uint64_t k,
                                 const std::string& path, int* legs) {
  std::remove(path.c_str());
  ExplorerOptions opts = base;
  opts.run_id = sys.name;
  opts.checkpoint_path = path;
  opts.cancel_after_decisions = k;
  Report r = sys.serial(opts);
  int n = 1;
  opts.resume_path = path;
  // When k is smaller than one execution's decision count, the progress
  // gate guarantees exactly one execution per leg, so the chain can need up
  // to baseline-executions legs before it converges.
  while (r.outcome != RunOutcome::kComplete && n < 5000) {
    EXPECT_EQ(r.outcome, RunOutcome::kCanceled);
    EXPECT_TRUE(r.truncated);
    r = sys.serial(opts);
    ++n;
  }
  EXPECT_EQ(r.outcome, RunOutcome::kComplete) << "chain did not converge: " << r.Summary();
  if (legs != nullptr) {
    *legs = n;
  }
  std::remove(path.c_str());
  return r;
}

// ---------------------------------------------------------------------------
// Checkpoint file format.

CheckpointData SampleData() {
  CheckpointData data;
  data.config_fp = 0x1234567890abcdefULL;
  data.outcome = RunOutcome::kDeadline;
  CheckpointSubtree done;
  done.state = CheckpointSubtree::State::kDone;
  done.prefix = {0, 2};
  done.floor = 2;
  done.partial.executions = 17;
  done.partial.total_steps = 412;
  done.partial.violations.push_back({"refinement", "write lost", "t0 t1 crash", {}});
  data.subtrees.push_back(done);
  CheckpointSubtree in_progress;
  in_progress.state = CheckpointSubtree::State::kInProgress;
  in_progress.prefix = {1};
  in_progress.floor = 1;
  in_progress.next_path = {1, 3, 0, 2};
  in_progress.por_levels.resize(2);
  refine::detail::TriedAlt alt;
  alt.kind = refine::detail::AltKind::kThread;
  alt.thread = 1;
  alt.footprint.recorded = true;
  alt.footprint.accesses.push_back({42, true});
  in_progress.por_levels[1].tried.push_back(alt);
  in_progress.partial.executions = 3;
  data.subtrees.push_back(in_progress);
  data.verdicts.emplace_back(Hash128{1, 2}, std::nullopt);
  data.verdicts.emplace_back(Hash128{3, 4}, std::optional<std::string>("bad history"));
  return data;
}

TEST(CheckpointFile, SaveLoadRoundTrip) {
  const std::string path = CkptPath("roundtrip");
  CheckpointData data = SampleData();
  ASSERT_TRUE(SaveCheckpoint(path, data).ok());
  CheckpointData loaded;
  ASSERT_TRUE(LoadCheckpoint(path, data.config_fp, &loaded).ok());
  EXPECT_EQ(loaded.config_fp, data.config_fp);
  EXPECT_EQ(loaded.outcome, data.outcome);
  ASSERT_EQ(loaded.subtrees.size(), 2u);
  EXPECT_EQ(loaded.subtrees[0].state, CheckpointSubtree::State::kDone);
  EXPECT_EQ(loaded.subtrees[0].prefix, data.subtrees[0].prefix);
  EXPECT_EQ(loaded.subtrees[0].partial.executions, 17u);
  ASSERT_EQ(loaded.subtrees[0].partial.violations.size(), 1u);
  EXPECT_EQ(loaded.subtrees[0].partial.violations[0].detail, "write lost");
  EXPECT_EQ(loaded.subtrees[1].next_path, data.subtrees[1].next_path);
  ASSERT_EQ(loaded.subtrees[1].por_levels.size(), 2u);
  ASSERT_EQ(loaded.subtrees[1].por_levels[1].tried.size(), 1u);
  EXPECT_EQ(loaded.subtrees[1].por_levels[1].tried[0].thread, 1);
  ASSERT_EQ(loaded.subtrees[1].por_levels[1].tried[0].footprint.accesses.size(), 1u);
  EXPECT_EQ(loaded.subtrees[1].por_levels[1].tried[0].footprint.accesses[0].resource, 42u);
  ASSERT_EQ(loaded.verdicts.size(), 2u);
  EXPECT_FALSE(loaded.verdicts[0].second.has_value());
  EXPECT_EQ(loaded.verdicts[1].second.value(), "bad history");
  EXPECT_FALSE(loaded.AllDone());
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileIsNotFound) {
  CheckpointData out;
  Status st = LoadCheckpoint(CkptPath("nonexistent"), 0, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(CheckpointFile, TornAndTamperedFilesRejected) {
  const std::string path = CkptPath("tamper");
  CheckpointData data = SampleData();
  ASSERT_TRUE(SaveCheckpoint(path, data).ok());
  const std::string good = ReadAll(path);
  ASSERT_GT(good.size(), 40u);

  // Truncations at several depths: inside the header, at the payload
  // boundary, and one byte short of complete.
  for (size_t keep : {size_t{3}, size_t{17}, size_t{31}, good.size() - 1}) {
    SCOPED_TRACE("truncate to " + std::to_string(keep));
    WriteAll(path, good.substr(0, keep));
    CheckpointData out;
    EXPECT_FALSE(LoadCheckpoint(path, data.config_fp, &out).ok());
  }
  // A flipped payload byte must fail the checksum.
  {
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x40;
    WriteAll(path, bad);
    CheckpointData out;
    EXPECT_FALSE(LoadCheckpoint(path, data.config_fp, &out).ok());
  }
  // Bad magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    WriteAll(path, bad);
    CheckpointData out;
    EXPECT_FALSE(LoadCheckpoint(path, data.config_fp, &out).ok());
  }
  // A version bump (bytes 4..8 little-endian) must be rejected even though
  // the payload is intact.
  {
    std::string bad = good;
    bad[4] = static_cast<char>(refine::kCheckpointVersion + 1);
    WriteAll(path, bad);
    CheckpointData out;
    EXPECT_FALSE(LoadCheckpoint(path, data.config_fp, &out).ok());
  }
  // Trailing garbage after a valid payload.
  {
    WriteAll(path, good + "garbage");
    CheckpointData out;
    EXPECT_FALSE(LoadCheckpoint(path, data.config_fp, &out).ok());
  }
  // Config-fingerprint mismatch: the file is valid but belongs to another
  // exploration configuration.
  {
    WriteAll(path, good);
    CheckpointData out;
    Status st = LoadCheckpoint(path, data.config_fp + 1, &out);
    EXPECT_FALSE(st.ok());
    // And the same file loads fine when the caller skips the check.
    EXPECT_TRUE(LoadCheckpoint(path, 0, &out).ok());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serial interrupt/resume bit-identity.

TEST(SerialResume, BitIdenticalAcrossAllTenSystems) {
  for (const System& sys : TenSystems()) {
    SCOPED_TRACE(sys.name);
    ExplorerOptions opts;
    opts.max_crashes = sys.max_crashes;
    Report baseline = sys.serial(opts);
    ASSERT_FALSE(baseline.truncated) << baseline.Summary();
    // Aim for a handful of legs regardless of workload size: decisions track
    // steps closely, so a quarter of the baseline's steps interrupts every
    // system at least once without needing hundreds of resumes.
    const uint64_t k = std::max<uint64_t>(120, baseline.total_steps / 4);
    int legs = 0;
    Report resumed = RunSerialInterruptedChain(sys, opts, k, CkptPath(sys.name), &legs);
    EXPECT_GE(legs, 2) << "cancel_after_decisions never fired; workload too small?";
    EXPECT_TRUE(resumed.resumed);
    ExpectReportsEqual(resumed, baseline);
  }
}

TEST(SerialResume, SeveralSplitPointsOnWal) {
  System sys = TenSystems()[3];  // wal-2writers
  ASSERT_EQ(sys.name, "wal-2writers");
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Report baseline = sys.serial(opts);
  for (uint64_t k : {37u, 230u, 1001u, 5000u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    int legs = 0;
    Report resumed = RunSerialInterruptedChain(sys, opts, k, CkptPath("wal-split"), &legs);
    ExpectReportsEqual(resumed, baseline);
  }
}

TEST(SerialResume, ViolationSequencePreserved) {
  System sys = ShadowBugSystem();
  for (ExplorerOptions::Mode mode : kItemModes) {
    SCOPED_TRACE(ModeName(mode));
    ExplorerOptions opts = ModeOptions(mode);
    opts.max_crashes = 1;
    opts.max_violations = 1 << 20;
    Report baseline = sys.serial(opts);
    ASSERT_GT(baseline.violations.size(), 0u);
    int legs = 0;
    Report resumed =
        RunSerialInterruptedChain(sys, opts, /*k=*/200, CkptPath("shadow-bug"), &legs);
    EXPECT_GE(legs, 2);
    ExpectReportsEqual(resumed, baseline);
  }
}

TEST(SerialResume, DedupCountersSurviveResume) {
  // The verdict cache is persisted in the checkpoint, so even
  // histories_deduped — a function of which fingerprints were already seen —
  // is bit-identical across the interruption.
  System sys = TenSystems()[3];  // wal-2writers
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.dedup_histories = true;
  Report baseline = sys.serial(opts);
  ASSERT_GT(baseline.histories_deduped, 0u);
  int legs = 0;
  Report resumed = RunSerialInterruptedChain(sys, opts, /*k=*/200, CkptPath("wal-dedup"), &legs);
  EXPECT_GE(legs, 2);
  ExpectReportsEqual(resumed, baseline, /*compare_dedup=*/true);
}

TEST(SerialResume, CompletedCheckpointResumesToSameReport) {
  System sys = TenSystems()[0];  // repl-2writers
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.run_id = sys.name;
  const std::string path = CkptPath("completed");
  std::remove(path.c_str());
  ExplorerOptions first = opts;
  first.checkpoint_path = path;
  // Exercise the periodic cadence too: the final file is the completion
  // snapshot, but every 5 executions a mid-run one was written over it.
  first.checkpoint_every_execs = 5;
  Report done = sys.serial(first);
  EXPECT_EQ(done.outcome, RunOutcome::kComplete);
  CheckpointData data;
  ASSERT_TRUE(LoadCheckpoint(path, 0, &data).ok());
  EXPECT_TRUE(data.AllDone());
  ExplorerOptions again = opts;
  again.resume_path = path;
  Report replayed = sys.serial(again);
  EXPECT_TRUE(replayed.resumed);
  ExpectReportsEqual(replayed, done);
  std::remove(path.c_str());
}

TEST(SerialResume, RejectedResumeFileFallsBackToScratch) {
  System sys = TenSystems()[0];  // repl-2writers
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Report baseline = sys.serial(opts);
  const std::string path = CkptPath("corrupt-resume");
  for (const std::string& bytes : {std::string("not a checkpoint"), std::string("PCCK\x07")}) {
    WriteAll(path, bytes);
    ExplorerOptions with_resume = opts;
    with_resume.resume_path = path;
    Report fresh = sys.serial(with_resume);
    EXPECT_FALSE(fresh.resumed);
    ExpectReportsEqual(fresh, baseline);
  }
  // Missing file: same fallback.
  std::remove(path.c_str());
  ExplorerOptions with_resume = opts;
  with_resume.resume_path = path;
  Report fresh = sys.serial(with_resume);
  EXPECT_FALSE(fresh.resumed);
  ExpectReportsEqual(fresh, baseline);
}

// ---------------------------------------------------------------------------
// Deadline and memory-budget outcomes: the run returns (never aborts), tags
// the cause, flushes a resumable checkpoint.

TEST(DurableStops, DeadlineReturnsPartialAndResumes) {
  System sys = Wal2cSystem();
  ExplorerOptions opts;
  opts.max_crashes = sys.max_crashes;
  opts.run_id = sys.name;
  Report baseline = sys.serial(opts);
  const std::string path = CkptPath("deadline");
  std::remove(path.c_str());
  ExplorerOptions limited = opts;
  limited.wall_deadline_ms = 1;
  limited.checkpoint_path = path;
  Report partial = sys.serial(limited);
  ASSERT_EQ(partial.outcome, RunOutcome::kDeadline) << partial.Summary();
  EXPECT_TRUE(partial.truncated);
  EXPECT_LT(partial.executions, baseline.executions);
  EXPECT_NE(partial.Summary().find("outcome=deadline"), std::string::npos);
  CheckpointData data;
  ASSERT_TRUE(LoadCheckpoint(path, 0, &data).ok());
  EXPECT_EQ(data.outcome, RunOutcome::kDeadline);
  EXPECT_FALSE(data.AllDone());
  // Resume with the deadline lifted: completes and matches the baseline.
  ExplorerOptions resume = opts;
  resume.resume_path = path;
  resume.checkpoint_path = path;
  Report resumed = sys.serial(resume);
  EXPECT_EQ(resumed.outcome, RunOutcome::kComplete);
  EXPECT_TRUE(resumed.resumed);
  ExpectReportsEqual(resumed, baseline);
  std::remove(path.c_str());
}

TEST(DurableStops, MemoryBudgetReturnsOomAndResumes) {
  System sys = TenSystems()[3];  // wal-2writers
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.run_id = sys.name;
  Report baseline = sys.serial(opts);
  const std::string path = CkptPath("oom");
  std::remove(path.c_str());
  ExplorerOptions limited = opts;
  limited.max_memory_bytes = 4096;  // well under the linearizer arena's working set
  limited.checkpoint_path = path;
  Report partial = sys.serial(limited);
  ASSERT_EQ(partial.outcome, RunOutcome::kOom) << partial.Summary();
  EXPECT_TRUE(partial.truncated);
  EXPECT_LT(partial.executions, baseline.executions);
  CheckpointData data;
  ASSERT_TRUE(LoadCheckpoint(path, 0, &data).ok());
  EXPECT_EQ(data.outcome, RunOutcome::kOom);
  ExplorerOptions resume = opts;
  resume.resume_path = path;
  Report resumed = sys.serial(resume);
  EXPECT_EQ(resumed.outcome, RunOutcome::kComplete);
  ExpectReportsEqual(resumed, baseline);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Parallel interrupt/resume.

// Cancels a parallel run once `cancel_at` executions completed (via the
// progress callback, which fires on worker threads), then resumes until
// complete. The resume may use a different worker count than the
// interrupted run — items come from the checkpoint file.
Report RunParallelInterruptedChain(const System& sys, ExplorerOptions base, uint64_t cancel_at,
                                   int resume_workers, const std::string& path,
                                   bool* interrupted) {
  std::remove(path.c_str());
  CancelToken token;
  ExplorerOptions first = base;
  first.run_id = sys.name;
  first.checkpoint_path = path;
  first.cancel_token = &token;
  first.progress_interval = 1;
  first.progress_callback = [&token, cancel_at](const ExplorerProgress& p) {
    if (p.executions >= cancel_at) {
      token.RequestCancel();
    }
  };
  Report r = sys.parallel(first);
  *interrupted = r.outcome != RunOutcome::kComplete;
  ExplorerOptions resume = base;
  resume.run_id = sys.name;
  resume.checkpoint_path = path;
  resume.resume_path = path;
  resume.num_workers = resume_workers;
  int guard = 0;
  while (r.outcome != RunOutcome::kComplete && ++guard < 50) {
    r = sys.parallel(resume);
  }
  EXPECT_EQ(r.outcome, RunOutcome::kComplete) << r.Summary();
  std::remove(path.c_str());
  return r;
}

TEST(ParallelResume, CancelThenResumeMatchesBaseline) {
  System sys = TenSystems()[3];  // wal-2writers
  for (ExplorerOptions::Mode mode : kItemModes) {
    SCOPED_TRACE(ModeName(mode));
    ExplorerOptions opts = ModeOptions(mode);
    opts.max_crashes = 1;
    opts.num_workers = 4;
    Report baseline = sys.parallel(opts);
    ASSERT_FALSE(baseline.truncated);
    for (int resume_workers : {1, 2, 4}) {
      SCOPED_TRACE("resume_workers=" + std::to_string(resume_workers));
      bool interrupted = false;
      Report resumed = RunParallelInterruptedChain(sys, opts, /*cancel_at=*/40, resume_workers,
                                                   CkptPath("par-wal"), &interrupted);
      EXPECT_TRUE(interrupted) << "token cancel landed after completion; lower cancel_at";
      EXPECT_TRUE(resumed.resumed);
      ExpectReportsEqual(resumed, baseline);
    }
  }
}

TEST(ParallelResume, CrossEngineCheckpointsInterconvert) {
  System sys = TenSystems()[0];  // repl-2writers
  const std::string path = CkptPath("cross");
  for (ExplorerOptions::Mode mode : kItemModes) {
    SCOPED_TRACE(ModeName(mode));
    ExplorerOptions opts = ModeOptions(mode);
    opts.max_crashes = 1;
    opts.run_id = sys.name;
    Report baseline = sys.serial(opts);
    // Serial interrupt -> parallel resume.
    {
      std::remove(path.c_str());
      ExplorerOptions first = opts;
      first.checkpoint_path = path;
      first.cancel_after_decisions = 200;
      Report interrupted = sys.serial(first);
      ASSERT_EQ(interrupted.outcome, RunOutcome::kCanceled);
      ExplorerOptions resume = opts;
      resume.resume_path = path;
      resume.num_workers = 4;
      Report resumed = sys.parallel(resume);
      EXPECT_EQ(resumed.outcome, RunOutcome::kComplete);
      EXPECT_TRUE(resumed.resumed);
      ExpectReportsEqual(resumed, baseline);
    }
    // Parallel interrupt -> serial resume.
    {
      std::remove(path.c_str());
      CancelToken token;
      ExplorerOptions first = opts;
      first.checkpoint_path = path;
      first.num_workers = 2;
      first.cancel_token = &token;
      first.progress_interval = 1;
      first.progress_callback = [&token](const ExplorerProgress& p) {
        if (p.executions >= 30) {
          token.RequestCancel();
        }
      };
      Report interrupted = sys.parallel(first);
      ASSERT_NE(interrupted.outcome, RunOutcome::kComplete);
      ExplorerOptions resume = opts;
      resume.resume_path = path;
      Report resumed = sys.serial(resume);
      EXPECT_EQ(resumed.outcome, RunOutcome::kComplete);
      EXPECT_TRUE(resumed.resumed);
      ExpectReportsEqual(resumed, baseline);
    }
  }
  std::remove(path.c_str());
}

// A serial resume of a parallel (multi-item) checkpoint writes periodic
// checkpoints inside every item it runs, not only inside the first: the
// cadence counts the run's executions, whichever item they belong to. The
// progress callback reloads the file after every execution and records how
// far each in-progress item had got.
TEST(SerialResume, PeriodicCheckpointsAdvanceInsideEveryItem) {
  System sys = TenSystems()[3];  // wal-2writers
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.run_id = sys.name;
  const std::string path = CkptPath("periodic-items");
  std::remove(path.c_str());
  CancelToken token;
  ExplorerOptions first = opts;
  first.num_workers = 1;
  first.checkpoint_path = path;
  first.cancel_token = &token;
  first.progress_interval = 1;
  first.progress_callback = [&token](const ExplorerProgress& p) {
    if (p.executions >= 5) {
      token.RequestCancel();
    }
  };
  ASSERT_EQ(sys.parallel(first).outcome, RunOutcome::kCanceled);
  CheckpointData before;
  ASSERT_TRUE(LoadCheckpoint(path, 0, &before).ok());
  ASSERT_GT(before.subtrees.size(), 2u);

  std::vector<uint64_t> shown(before.subtrees.size(), 0);
  ExplorerOptions resume = opts;
  resume.resume_path = path;
  resume.checkpoint_path = path;
  resume.checkpoint_every_execs = 2;
  resume.progress_interval = 1;
  resume.progress_callback = [&](const ExplorerProgress&) {
    CheckpointData now;
    ASSERT_TRUE(LoadCheckpoint(path, 0, &now).ok());
    ASSERT_EQ(now.subtrees.size(), shown.size());
    for (size_t i = 0; i < shown.size(); ++i) {
      if (now.subtrees[i].state == CheckpointSubtree::State::kInProgress) {
        shown[i] = std::max(shown[i], now.subtrees[i].partial.executions);
      }
    }
  };
  ASSERT_EQ(sys.serial(resume).outcome, RunOutcome::kComplete);
  CheckpointData after;
  ASSERT_TRUE(LoadCheckpoint(path, 0, &after).ok());
  ASSERT_EQ(after.subtrees.size(), before.subtrees.size());
  int items_checked = 0;
  for (size_t i = 0; i < before.subtrees.size(); ++i) {
    const uint64_t start = before.subtrees[i].partial.executions;
    const uint64_t ran = after.subtrees[i].partial.executions - start;
    // Every 2 executions a checkpoint lands; with 3 or more, one lands
    // before the item's last execution, and the next callback sees it.
    if (before.subtrees[i].state == CheckpointSubtree::State::kDone || ran < 3) {
      continue;
    }
    ++items_checked;
    EXPECT_GT(shown[i], start) << "no periodic checkpoint inside item " << i << " (" << ran
                               << " executions)";
  }
  EXPECT_GE(items_checked, 2);
  std::remove(path.c_str());
}

TEST(ParallelResume, ViolationSequencePreserved) {
  System sys = ShadowBugSystem();
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  opts.num_workers = 4;
  Report baseline = sys.parallel(opts);
  ASSERT_GT(baseline.violations.size(), 0u);
  bool interrupted = false;
  Report resumed = RunParallelInterruptedChain(sys, opts, /*cancel_at=*/60, /*resume_workers=*/2,
                                               CkptPath("par-bug"), &interrupted);
  EXPECT_TRUE(interrupted);
  ExpectReportsEqual(resumed, baseline);
}

TEST(ParallelDurable, DeadlineTagsOutcomeAndResumes) {
  System sys = Wal2cSystem();
  ExplorerOptions opts;
  opts.max_crashes = sys.max_crashes;
  opts.num_workers = 2;
  Report baseline = sys.parallel(opts);
  const std::string path = CkptPath("par-deadline");
  std::remove(path.c_str());
  ExplorerOptions limited = opts;
  limited.run_id = sys.name;
  limited.wall_deadline_ms = 1;
  limited.checkpoint_path = path;
  Report partial = sys.parallel(limited);
  ASSERT_EQ(partial.outcome, RunOutcome::kDeadline) << partial.Summary();
  EXPECT_TRUE(partial.truncated);
  ExplorerOptions resume = opts;
  resume.run_id = sys.name;
  resume.resume_path = path;
  Report resumed = sys.parallel(resume);
  EXPECT_EQ(resumed.outcome, RunOutcome::kComplete);
  ExpectReportsEqual(resumed, baseline);
  std::remove(path.c_str());
}

TEST(ParallelDurable, WatchdogFlagsStuckWorkerAndRunRecovers) {
  // A factory that stalls one execution long enough to trip the watchdog:
  // the coordinator must flush a recovery checkpoint, cancel the run, and
  // the resume must still converge to the baseline.
  WalHarnessOptions o;
  o.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
  std::atomic<int> builds{0};
  auto stalling_factory = [o, &builds] {
    if (builds.fetch_add(1) + 1 == 40) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    return MakeWalInstance(o);
  };
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<PairSpec> serial_baseline(PairSpec{}, [o] { return MakeWalInstance(o); }, opts);
  Report baseline = serial_baseline.Run();

  const std::string path = CkptPath("watchdog");
  std::remove(path.c_str());
  ExplorerOptions limited = opts;
  limited.num_workers = 1;
  limited.checkpoint_path = path;
  limited.stuck_worker_timeout_ms = 60;
  ParallelExplorer<PairSpec> stalled(PairSpec{}, stalling_factory, limited);
  Report partial = stalled.Run();
  ASSERT_EQ(partial.outcome, RunOutcome::kCanceled) << partial.Summary();
  CheckpointData data;
  ASSERT_TRUE(LoadCheckpoint(path, 0, &data).ok());
  ExplorerOptions resume = opts;
  resume.resume_path = path;
  resume.num_workers = 2;
  ParallelExplorer<PairSpec> recovered(PairSpec{}, [o] { return MakeWalInstance(o); }, resume);
  Report resumed = recovered.Run();
  EXPECT_EQ(resumed.outcome, RunOutcome::kComplete);
  ExpectReportsEqual(resumed, baseline);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perennial::systems
