// Tests for the GoMail baseline and the Figure 11 workload driver.
#include <filesystem>

#include <gtest/gtest.h>

#include "src/goose/world.h"
#include "src/goosefs/goosefs.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/gomail.h"
#include "src/mailboat/mailboat.h"
#include "src/mailboat/workload.h"
#include "tests/sim_util.h"

namespace perennial::mailboat {
namespace {

using perennial::testing::SimRun;
using perennial::testing::SimRunVoid;
using proc::Task;

TEST(GoMailLayout, IncludesLocksDir) {
  std::vector<std::string> dirs = GoMail::DirLayout(2);
  EXPECT_NE(std::find(dirs.begin(), dirs.end(), "locks"), dirs.end());
  EXPECT_NE(std::find(dirs.begin(), dirs.end(), "spool"), dirs.end());
  EXPECT_NE(std::find(dirs.begin(), dirs.end(), "user1"), dirs.end());
}

class GoMailTest : public ::testing::Test {
 protected:
  GoMailTest()
      : fs_(&world_, GoMail::DirLayout(2)), mail_(&fs_, GoMail::Options{2, 16, 16, 3, 0}) {}

  goose::World world_;
  goosefs::GooseFs fs_;
  GoMail mail_;
};

TEST_F(GoMailTest, DeliverPickupDeleteCycle) {
  auto body = [&]() -> Task<uint64_t> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("via gomail"));
    std::vector<Message> messages = (co_await mail_.Pickup(0)).value();
    EXPECT_EQ(messages.at(0).contents, "via gomail");
    (void)co_await mail_.Delete(0, messages.at(0).id);
    co_await mail_.Unlock(0);
    std::vector<Message> after = (co_await mail_.Pickup(0)).value();
    co_await mail_.Unlock(0);
    co_return after.size();
  };
  EXPECT_EQ(SimRun(body()), 0u);
}

TEST_F(GoMailTest, PickupHoldsAFileLock) {
  auto body = [&]() -> Task<uint64_t> {
    (void)co_await mail_.Pickup(1);
    co_return 0;
  };
  (void)SimRun(body());
  // The lock is a real file in locks/.
  EXPECT_EQ(fs_.PeekNames("locks"), std::vector<std::string>{"user1.lock"});
  auto unlock = [&]() -> Task<uint64_t> {
    co_await mail_.Unlock(1);
    co_return 0;
  };
  (void)SimRun(unlock());
  EXPECT_TRUE(fs_.PeekNames("locks").empty());
}

TEST_F(GoMailTest, DeliverTakesAndReleasesTheFileLock) {
  // The conservative baseline design: delivery holds the mailbox file lock
  // (it lacks Mailboat's verified atomic-link argument). Afterwards the
  // lock file is gone.
  auto body = [&]() -> Task<uint64_t> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("x"));
    co_return 0;
  };
  (void)SimRun(body());
  EXPECT_TRUE(fs_.PeekNames("locks").empty());
  EXPECT_EQ(fs_.PeekNames("user0").size(), 1u);
}

TEST_F(GoMailTest, DeliverWaitsForAHeldFileLock) {
  // With the lock file pre-created (a pickup in progress), delivery spins
  // until it is released — run both as threads and check both finish.
  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  bool delivered = false;
  auto locker = [&]() -> Task<void> {
    (void)co_await mail_.Pickup(0);  // takes locks/user0.lock
    for (int i = 0; i < 3; ++i) {
      co_await proc::Yield();
    }
    co_await mail_.Unlock(0);
  };
  auto deliverer = [&]() -> Task<void> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("y"));
    delivered = true;
  };
  sched.Spawn(locker());
  sched.Spawn(deliverer());
  // Round-robin: the deliverer's create-excl spin must not starve forever.
  size_t turn = 0;
  int guard = 0;
  while (!sched.AllDone() && guard++ < 2000) {
    auto runnable = sched.RunnableThreads();
    ASSERT_FALSE(runnable.empty());
    sched.Step(runnable[turn++ % runnable.size()]);
  }
  EXPECT_TRUE(sched.AllDone());
  EXPECT_TRUE(delivered);
}

TEST_F(GoMailTest, RecoverClearsSpoolAndStaleLocks) {
  auto body = [&]() -> Task<uint64_t> {
    (void)co_await mail_.Pickup(0);  // lock file exists
    goosefs::Fd fd = (co_await fs_.Create("spool", "tmp-stale")).value();
    (void)co_await fs_.Close(fd);
    co_return 0;
  };
  (void)SimRun(body());
  world_.Crash();
  auto recover = [&]() -> Task<uint64_t> {
    co_await mail_.Recover();
    co_return 0;
  };
  (void)SimRun(recover());
  EXPECT_TRUE(fs_.PeekNames("spool").empty());
  EXPECT_TRUE(fs_.PeekNames("locks").empty());
}

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/pcc_workload_test";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  // Options choosing only the directory-fd cache; the rest default.
  static goosefs::PosixFilesys::Options DirFdCache(bool on) {
    goosefs::PosixFilesys::Options options;
    options.cache_dir_fds = on;
    return options;
  }

  std::string root_;
};

TEST_F(WorkloadTest, MailboatCompletesAllRequests) {
  goosefs::PosixFilesys fs(root_, DirFdCache(true));
  ASSERT_TRUE(fs.EnsureDirs(Mailboat::DirLayout(4)).ok());
  goose::World world;
  Mailboat mail(&world, &fs, Mailboat::Options{4, 4096, 512, 7});
  WorkloadOptions options;
  options.num_users = 4;
  options.total_requests = 200;
  options.msg_len = 256;
  WorkloadResult result = RunMixedWorkload(&mail, 2, options);
  EXPECT_EQ(result.requests, 200u);
  EXPECT_EQ(result.delivers + result.pickups, 200u);
  EXPECT_GT(result.delivers, 0u);
  EXPECT_GT(result.pickups, 0u);
  EXPECT_GT(result.requests_per_sec(), 0.0);
}

TEST_F(WorkloadTest, GoMailCompletesAllRequests) {
  goosefs::PosixFilesys fs(root_, DirFdCache(false));
  ASSERT_TRUE(fs.EnsureDirs(GoMail::DirLayout(4)).ok());
  GoMail mail(&fs, GoMail::Options{4, 4096, 512, 9, 0});
  WorkloadOptions options;
  options.num_users = 4;
  options.total_requests = 120;
  options.msg_len = 128;
  WorkloadResult result = RunMixedWorkload(&mail, 2, options);
  EXPECT_EQ(result.delivers + result.pickups, 120u);
}

TEST_F(WorkloadTest, SingleThreadDeterministicCounts) {
  goosefs::PosixFilesys fs(root_, DirFdCache(true));
  ASSERT_TRUE(fs.EnsureDirs(Mailboat::DirLayout(2)).ok());
  goose::World world;
  Mailboat mail(&world, &fs, Mailboat::Options{2, 4096, 512, 7});
  WorkloadOptions options;
  options.num_users = 2;
  options.total_requests = 50;
  options.msg_len = 64;
  options.seed = 11;
  WorkloadResult result = RunMixedWorkload(&mail, 1, options);
  EXPECT_EQ(result.requests, 50u);
  EXPECT_EQ(result.delivers + result.pickups, 50u);
}

}  // namespace
}  // namespace perennial::mailboat
