// tier2-crashreal: the cross-process crash harness against real storage.
//
// These tests fork SIGKILL-ed children and run hundreds of kill/recover
// rounds per cell, so they carry the tier-2 label and a generous timeout.
// They are meant to run WITHOUT TSan (see .claude/skills/verify/SKILL.md):
// the TSan runtime does not survive fork+SIGKILL children and would report
// on the harness, not the code under test.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/crashreal/runner.h"
#include "src/crashreal/trace.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCC_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PCC_TSAN 1
#endif

namespace perennial::crashreal {
namespace {

class CrashRealTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef PCC_TSAN
    GTEST_SKIP() << "crash harness forks SIGKILL-ed children; run without TSan";
#endif
    root_ = ::testing::TempDir() + "/pcc_crashreal_test";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  CrashRealConfig Config(const std::string& system, const std::string& regime,
                         uint64_t rounds) {
    CrashRealConfig config;
    config.system = system;
    config.regime = regime;
    config.rounds = rounds;
    config.workdir = root_ + "/" + system + "-" + regime;
    config.artifact_dir = root_ + "/artifacts";
    return config;
  }

  std::string root_;
};

// The acceptance soak: >= 200 seeded kill/recover rounds per system per
// regime with zero divergences (and in particular zero unclassified ones).
TEST_F(CrashRealTest, Soak200RoundsPerCellIsClean) {
  for (const char* system : {"txnlog", "mailboat"}) {
    for (const char* regime : {"kill", "powerfail"}) {
      Result<SoakSummary> r = RunSoak(Config(system, regime, 200));
      ASSERT_TRUE(r.ok()) << system << "/" << regime << ": " << r.status().ToString();
      const SoakSummary& s = r.value();
      EXPECT_EQ(s.rounds, 200u) << system << "/" << regime;
      // Round 0 profiles (no kill); nearly every later round must actually
      // die at its kill point or the soak is not exercising crashes.
      EXPECT_GE(s.killed, 150u) << system << "/" << regime;
      for (const Divergence& d : s.divergences) {
        ADD_FAILURE() << system << "/" << regime << " round " << d.round << " ["
                      << d.classification << "] " << d.detail;
      }
    }
  }
}

// Replays the trace a diverging soak saved and expects the same divergence
// (round + classification) again; `expect_class` additionally pins the
// classification the first divergence must carry.
void ExpectCaughtAndReplayable(const CrashRealConfig& config, const std::string& expect_class,
                               const std::string& replay_workdir) {
  Result<SoakSummary> r = RunSoak(config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().divergences.empty()) << "seeded bug was not caught";
  const Divergence& first = r.value().divergences.front();
  EXPECT_EQ(first.classification, expect_class) << first.detail;
  for (const Divergence& d : r.value().divergences) {
    EXPECT_NE(d.classification, "unclassified") << d.detail;
    EXPECT_FALSE(d.trace_path.empty());
  }

  // One-command repro: the persisted artifact alone rebuilds the config
  // (mutations included) and reproduces the divergence.
  CrashTrace trace;
  ASSERT_TRUE(LoadCrashTrace(first.trace_path, &trace).ok()) << first.trace_path;
  CrashRealConfig replay_config = ConfigFromTrace(trace, replay_workdir);
  replay_config.artifact_dir = config.artifact_dir;
  bool reproduced = false;
  Result<SoakSummary> replay = ReplayTrace(replay_config, trace, &reproduced);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(reproduced) << "trace " << first.trace_path << " did not reproduce";
}

// Deleting TxnLog's write barriers makes commit headers race their records
// out of the volatile cache; the power-fail regime must catch it, and the
// model with the same mutation also violates => implementation-bug.
TEST_F(CrashRealTest, WriteBarrierDeletionIsCaught) {
  CrashRealConfig config = Config("txnlog", "powerfail", 100);
  ASSERT_TRUE(ApplyMutationName("no_write_barrier", &config));
  ExpectCaughtAndReplayable(config, "implementation-bug", root_ + "/replay-barrier");
}

// Reverting the dir-fsync fix (satellite of this harness's PR) leaves new
// directory entries volatile; the projection prunes them and the surviving
// mailbox misses delivered mail. The modeled GooseFs keeps metadata
// durable even with deferred data durability, so the model stays clean =>
// model-too-weak is the expected classification.
TEST_F(CrashRealTest, DirFsyncRegressionIsCaught) {
  CrashRealConfig config = Config("mailboat", "powerfail", 100);
  ASSERT_TRUE(ApplyMutationName("no_dir_fsync", &config));
  ExpectCaughtAndReplayable(config, "model-too-weak", root_ + "/replay-dirsync");
}

// A recovery that deletes user mail is visible even in the plain kill
// regime — no power-loss semantics needed.
TEST_F(CrashRealTest, RecoveryDeletingMailIsCaught) {
  CrashRealConfig config = Config("mailboat", "kill", 100);
  ASSERT_TRUE(ApplyMutationName("recovery_deletes_mail", &config));
  Result<SoakSummary> r = RunSoak(config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().divergences.empty()) << "seeded bug was not caught";
  for (const Divergence& d : r.value().divergences) {
    EXPECT_NE(d.classification, "unclassified") << d.detail;
  }
}

TEST_F(CrashRealTest, TraceArtifactRoundTrips) {
  CrashTrace trace;
  trace.system = "mailboat";
  trace.regime = "powerfail";
  trace.seed = 42;
  trace.round = 17;
  trace.kill_at = 9;
  trace.ops_per_round = 6;
  trace.num_addrs = 6;
  trace.log_capacity = 4;
  trace.num_users = 3;
  trace.sync_on_deliver = true;
  trace.fsync_dirs = false;
  trace.mutations = {"no_dir_fsync"};
  trace.classification = "model-too-weak";
  trace.detail = "post-recovery mailbox mismatch: example";
  CrashTrace parsed;
  ASSERT_TRUE(ParseCrashTrace(FormatCrashTrace(trace), &parsed).ok());
  EXPECT_EQ(parsed.system, trace.system);
  EXPECT_EQ(parsed.regime, trace.regime);
  EXPECT_EQ(parsed.seed, trace.seed);
  EXPECT_EQ(parsed.round, trace.round);
  EXPECT_EQ(parsed.kill_at, trace.kill_at);
  EXPECT_EQ(parsed.fsync_dirs, trace.fsync_dirs);
  EXPECT_EQ(parsed.mutations, trace.mutations);
  EXPECT_EQ(parsed.classification, trace.classification);
  EXPECT_EQ(parsed.detail, trace.detail);

  CrashRealConfig config = ConfigFromTrace(parsed, "/tmp/unused");
  EXPECT_EQ(config.system, "mailboat");
  EXPECT_FALSE(config.fsync_dirs);
  EXPECT_EQ(config.mutation_names, trace.mutations);
}

}  // namespace
}  // namespace perennial::crashreal
