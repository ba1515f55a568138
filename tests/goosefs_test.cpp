// Tests for the modeled Goose file system (§6.2) and the POSIX backend.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/panic.h"
#include "src/goose/world.h"
#include "src/goosefs/goosefs.h"
#include "src/goosefs/posix_fs.h"
#include "tests/sim_util.h"

namespace perennial::goosefs {
namespace {

using perennial::testing::SimRun;
using proc::Task;

TEST(BytesCodec, RoundTrips) {
  EXPECT_EQ(StringOfBytes(BytesOfString("hello")), "hello");
  EXPECT_TRUE(BytesOfString("").empty());
}

class GooseFsTest : public ::testing::Test {
 protected:
  GooseFsTest() : fs_(&world_, {"spool", "user0", "user1"}) {}

  goose::World world_;
  GooseFs fs_;
};

TEST_F(GooseFsTest, CreateAppendReadRoundTrips) {
  auto body = [&]() -> Task<std::string> {
    Fd wfd = (co_await fs_.Create("user0", "msg1")).value();
    (void)co_await fs_.Append(wfd, BytesOfString("hello "));
    (void)co_await fs_.Append(wfd, BytesOfString("world"));
    (void)co_await fs_.Close(wfd);
    Fd rfd = (co_await fs_.Open("user0", "msg1")).value();
    Bytes data = (co_await fs_.ReadAt(rfd, 0, 100)).value();
    (void)co_await fs_.Close(rfd);
    co_return StringOfBytes(data);
  };
  EXPECT_EQ(SimRun(body()), "hello world");
}

TEST_F(GooseFsTest, CreateExclusiveFailsOnExisting) {
  auto body = [&]() -> Task<StatusCode> {
    Fd fd = (co_await fs_.Create("user0", "x")).value();
    (void)co_await fs_.Close(fd);
    Result<Fd> second = co_await fs_.Create("user0", "x");
    co_return second.status().code();
  };
  EXPECT_EQ(SimRun(body()), StatusCode::kAlreadyExists);
}

TEST_F(GooseFsTest, OpenMissingIsNotFound) {
  auto body = [&]() -> Task<StatusCode> {
    Result<Fd> r = co_await fs_.Open("user0", "nope");
    co_return r.status().code();
  };
  EXPECT_EQ(SimRun(body()), StatusCode::kNotFound);
}

TEST_F(GooseFsTest, UnknownDirectoryIsNotFound) {
  auto body = [&]() -> Task<StatusCode> {
    Result<Fd> r = co_await fs_.Create("nodir", "x");
    co_return r.status().code();
  };
  EXPECT_EQ(SimRun(body()), StatusCode::kNotFound);
}

TEST_F(GooseFsTest, ListReturnsSortedNames) {
  auto body = [&]() -> Task<std::vector<std::string>> {
    (void)co_await fs_.Create("user0", "b");
    (void)co_await fs_.Create("user0", "a");
    (void)co_await fs_.Create("user0", "c");
    co_return (co_await fs_.List("user0")).value();
  };
  EXPECT_EQ(SimRun(body()), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(GooseFsTest, ReadAtHonorsOffsetAndShortReads) {
  auto body = [&]() -> Task<std::string> {
    Fd wfd = (co_await fs_.Create("user0", "f")).value();
    (void)co_await fs_.Append(wfd, BytesOfString("abcdefgh"));
    (void)co_await fs_.Close(wfd);
    Fd rfd = (co_await fs_.Open("user0", "f")).value();
    Bytes mid = (co_await fs_.ReadAt(rfd, 2, 3)).value();
    Bytes tail = (co_await fs_.ReadAt(rfd, 6, 100)).value();
    Bytes past = (co_await fs_.ReadAt(rfd, 100, 10)).value();
    (void)co_await fs_.Close(rfd);
    co_return StringOfBytes(mid) + "|" + StringOfBytes(tail) + "|" + StringOfBytes(past);
  };
  EXPECT_EQ(SimRun(body()), "cde|gh|");
}

TEST_F(GooseFsTest, LinkMakesNameVisibleAtomically) {
  auto body = [&]() -> Task<bool> {
    Fd fd = (co_await fs_.Create("spool", "tmp1")).value();
    (void)co_await fs_.Append(fd, BytesOfString("mail"));
    (void)co_await fs_.Close(fd);
    Result<bool> linked = co_await fs_.Link("spool", "tmp1", "user1", "msg1");
    co_return linked.ok() && linked.value();
  };
  EXPECT_TRUE(SimRun(body()));
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("user1", "msg1")), "mail");
  // The spool name still exists too (hard link).
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("spool", "tmp1")), "mail");
}

TEST_F(GooseFsTest, LinkFailsIfDestinationExists) {
  auto body = [&]() -> Task<bool> {
    Fd a = (co_await fs_.Create("spool", "t")).value();
    (void)co_await fs_.Close(a);
    Fd b = (co_await fs_.Create("user1", "m")).value();
    (void)co_await fs_.Close(b);
    Result<bool> linked = co_await fs_.Link("spool", "t", "user1", "m");
    co_return linked.ok() && linked.value();
  };
  EXPECT_FALSE(SimRun(body()));
}

TEST_F(GooseFsTest, LinkFromMissingSourceFails) {
  auto body = [&]() -> Task<bool> {
    Result<bool> linked = co_await fs_.Link("spool", "zz", "user1", "m");
    co_return linked.ok() && linked.value();
  };
  EXPECT_FALSE(SimRun(body()));
}

TEST_F(GooseFsTest, DeleteRemovesName) {
  auto body = [&]() -> Task<Status> {
    Fd fd = (co_await fs_.Create("user0", "m")).value();
    (void)co_await fs_.Close(fd);
    co_return co_await fs_.Delete("user0", "m");
  };
  EXPECT_TRUE(SimRun(body()).ok());
  EXPECT_TRUE(fs_.PeekNames("user0").empty());
  EXPECT_EQ(fs_.InodeCountForTesting(), 0u);  // inode reclaimed
}

TEST_F(GooseFsTest, DeleteKeepsInodeWhileLinked) {
  auto body = [&]() -> Task<Status> {
    Fd fd = (co_await fs_.Create("spool", "t")).value();
    (void)co_await fs_.Append(fd, BytesOfString("data"));
    (void)co_await fs_.Close(fd);
    (void)co_await fs_.Link("spool", "t", "user0", "m");
    co_return co_await fs_.Delete("spool", "t");  // Mailboat's deliver sequence
  };
  EXPECT_TRUE(SimRun(body()).ok());
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("user0", "m")), "data");
  EXPECT_EQ(fs_.PeekFile("spool", "t"), std::nullopt);
}

TEST_F(GooseFsTest, OpenFdKeepsUnlinkedInodeReadable) {
  auto body = [&]() -> Task<std::string> {
    Fd wfd = (co_await fs_.Create("user0", "m")).value();
    (void)co_await fs_.Append(wfd, BytesOfString("keep"));
    (void)co_await fs_.Close(wfd);
    Fd rfd = (co_await fs_.Open("user0", "m")).value();
    (void)co_await fs_.Delete("user0", "m");
    Bytes data = (co_await fs_.ReadAt(rfd, 0, 10)).value();
    (void)co_await fs_.Close(rfd);
    co_return StringOfBytes(data);
  };
  EXPECT_EQ(SimRun(body()), "keep");
  EXPECT_EQ(fs_.InodeCountForTesting(), 0u);  // reclaimed after last close
}

TEST_F(GooseFsTest, AppendOnReadFdIsUb) {
  auto body = [&]() -> Task<void> {
    Fd wfd = (co_await fs_.Create("user0", "m")).value();
    (void)co_await fs_.Close(wfd);
    Fd rfd = (co_await fs_.Open("user0", "m")).value();
    (void)co_await fs_.Append(rfd, BytesOfString("x"));
  };
  EXPECT_THROW(perennial::testing::SimRunVoid(body()), UbViolation);
}

TEST_F(GooseFsTest, DoubleCloseIsUb) {
  auto body = [&]() -> Task<void> {
    Fd fd = (co_await fs_.Create("user0", "m")).value();
    (void)co_await fs_.Close(fd);
    (void)co_await fs_.Close(fd);
  };
  EXPECT_THROW(perennial::testing::SimRunVoid(body()), UbViolation);
}

TEST_F(GooseFsTest, CrashDropsFdsKeepsData) {
  auto body = [&]() -> Task<Fd> {
    Fd fd = (co_await fs_.Create("user0", "m")).value();
    (void)co_await fs_.Append(fd, BytesOfString("durable"));
    co_return fd;
  };
  Fd fd = SimRun(body());
  EXPECT_EQ(fs_.OpenFdCountForTesting(), 1u);
  world_.Crash();
  EXPECT_EQ(fs_.OpenFdCountForTesting(), 0u);
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("user0", "m")), "durable");
  // Using the stale fd after the crash is UB.
  auto after = [&]() -> Task<void> { (void)co_await fs_.Append(fd, BytesOfString("x")); };
  EXPECT_THROW(perennial::testing::SimRunVoid(after()), UbViolation);
}

TEST_F(GooseFsTest, CrashReclaimsOrphanedSpoolInode) {
  // A deliver that crashed between Create and Link: the name exists in
  // spool, so data survives; but if the file was created and the name then
  // deleted while an fd was open, crash reclaims the inode.
  auto body = [&]() -> Task<void> {
    Fd fd = (co_await fs_.Create("spool", "t")).value();
    (void)co_await fs_.Append(fd, BytesOfString("junk"));
    (void)co_await fs_.Delete("spool", "t");
    // fd still open; inode alive only through the fd.
  };
  perennial::testing::SimRunVoid(body());
  EXPECT_EQ(fs_.InodeCountForTesting(), 1u);
  world_.Crash();
  EXPECT_EQ(fs_.InodeCountForTesting(), 0u);
}

Hash128 SurvivingFp(const GooseFs& fs) {
  Hasher128 h;
  fs.MixSurvivingState(&h);
  return h.digest();
}

TEST_F(GooseFsTest, SurvivingStateFingerprintDistinguishesStates) {
  Hash128 before = SurvivingFp(fs_);
  auto body = [&]() -> Task<void> {
    Fd fd = (co_await fs_.Create("user0", "m")).value();
    (void)co_await fs_.Append(fd, BytesOfString("x"));
    (void)co_await fs_.Close(fd);
  };
  perennial::testing::SimRunVoid(body());
  EXPECT_NE(SurvivingFp(fs_), before);
}

// Two file systems that reach the same trees through different inode and
// fd numbers fingerprint equal after a crash; a hard link does not.
TEST_F(GooseFsTest, SurvivingStateFingerprintIgnoresInodeNumbers) {
  goose::World other_world;
  GooseFs other(&other_world, {"spool", "user0", "user1"});
  auto write = [](GooseFs& fs, const std::string& dir, const std::string& name,
                  const std::string& data) -> Task<void> {
    Fd fd = (co_await fs.Create(dir, name)).value();
    (void)co_await fs.Append(fd, BytesOfString(data));
    (void)co_await fs.Close(fd);
  };
  perennial::testing::SimRunVoid(write(fs_, "user0", "m", "x"));
  // `other` burns inode and fd numbers on a file that is gone by the crash.
  perennial::testing::SimRunVoid(write(other, "spool", "tmp", "junk"));
  auto drop = [&]() -> Task<void> { (void)co_await other.Delete("spool", "tmp"); };
  perennial::testing::SimRunVoid(drop());
  perennial::testing::SimRunVoid(write(other, "user0", "m", "x"));
  world_.Crash();
  other_world.Crash();
  EXPECT_EQ(SurvivingFp(fs_), SurvivingFp(other));

  auto link = [](GooseFs& fs, const std::string& dst) -> Task<void> {
    (void)co_await fs.Link("user0", "m", "user1", dst);
  };
  perennial::testing::SimRunVoid(link(fs_, "m"));
  perennial::testing::SimRunVoid(write(other, "user1", "m", "x"));
  EXPECT_NE(SurvivingFp(fs_), SurvivingFp(other)) << "a hard link must not mix like a copy";
}

// --- Deferred durability (the paper's named future-work extension) ---

class DeferredFsTest : public ::testing::Test {
 protected:
  DeferredFsTest() : fs_(&world_, {"d"}, {.deferred_durability = true}) {}

  goose::World world_;
  GooseFs fs_;
};

TEST_F(DeferredFsTest, ReadsSeeBufferedData) {
  auto body = [&]() -> Task<std::string> {
    Fd wfd = (co_await fs_.Create("d", "f")).value();
    (void)co_await fs_.Append(wfd, BytesOfString("buffered"));
    Fd rfd = (co_await fs_.Open("d", "f")).value();
    Bytes data = (co_await fs_.ReadAt(rfd, 0, 100)).value();
    (void)co_await fs_.Close(rfd);
    (void)co_await fs_.Close(wfd);
    co_return StringOfBytes(data);
  };
  // The page-cache view is coherent even before any Sync.
  EXPECT_EQ(SimRun(body()), "buffered");
}

TEST_F(DeferredFsTest, CrashDropsUnsyncedData) {
  auto body = [&]() -> Task<void> {
    Fd fd = (co_await fs_.Create("d", "f")).value();
    (void)co_await fs_.Append(fd, BytesOfString("gone"));
    (void)co_await fs_.Close(fd);
  };
  perennial::testing::SimRunVoid(body());
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("d", "f")), "gone");
  world_.Crash();
  // The name survives (metadata is synchronous) but the data does not.
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("d", "f")), "");
}

TEST_F(DeferredFsTest, SyncMakesDataDurable) {
  auto body = [&]() -> Task<void> {
    Fd fd = (co_await fs_.Create("d", "f")).value();
    (void)co_await fs_.Append(fd, BytesOfString("kept"));
    (void)co_await fs_.Sync(fd);
    (void)co_await fs_.Append(fd, BytesOfString("+lost"));
    (void)co_await fs_.Close(fd);
  };
  perennial::testing::SimRunVoid(body());
  world_.Crash();
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("d", "f")), "kept");
}

TEST_F(DeferredFsTest, PeekDurableShowsSyncedPrefixOnly) {
  auto body = [&]() -> Task<void> {
    Fd fd = (co_await fs_.Create("d", "f")).value();
    (void)co_await fs_.Append(fd, BytesOfString("ab"));
    (void)co_await fs_.Sync(fd);
    (void)co_await fs_.Append(fd, BytesOfString("cd"));
    (void)co_await fs_.Close(fd);
  };
  perennial::testing::SimRunVoid(body());
  EXPECT_EQ(StringOfBytes(*fs_.PeekFile("d", "f")), "abcd");
  EXPECT_EQ(StringOfBytes(*fs_.PeekDurableFile("d", "f")), "ab");
}

TEST_F(GooseFsTest, SynchronousModelSyncIsANoOpButLegal) {
  auto body = [&]() -> Task<Status> {
    Fd fd = (co_await fs_.Create("user0", "f")).value();
    (void)co_await fs_.Append(fd, BytesOfString("x"));
    Status s = co_await fs_.Sync(fd);
    (void)co_await fs_.Close(fd);
    co_return s;
  };
  EXPECT_TRUE(SimRun(body()).ok());
}

// --- POSIX backend (native mode, real directory) ---

class PosixFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/pcc_posix_fs_test";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string root_;
};

TEST_F(PosixFsTest, CreateAppendReadRoundTrips) {
  PosixFilesys fs(root_, {.cache_dir_fds = true});
  ASSERT_TRUE(fs.EnsureDirs({"spool", "user0"}).ok());
  auto body = [&]() -> Task<std::string> {
    Fd wfd = (co_await fs.Create("user0", "m")).value();
    (void)co_await fs.Append(wfd, BytesOfString("posix data"));
    (void)co_await fs.Close(wfd);
    Fd rfd = (co_await fs.Open("user0", "m")).value();
    Bytes data = (co_await fs.ReadAt(rfd, 0, 100)).value();
    (void)co_await fs.Close(rfd);
    co_return StringOfBytes(data);
  };
  EXPECT_EQ(proc::RunSync(body()), "posix data");
}

TEST_F(PosixFsTest, UncachedModeWorksToo) {
  PosixFilesys fs(root_, {.cache_dir_fds = false});
  ASSERT_TRUE(fs.EnsureDirs({"user0"}).ok());
  auto body = [&]() -> Task<std::string> {
    Fd wfd = (co_await fs.Create("user0", "m")).value();
    (void)co_await fs.Append(wfd, BytesOfString("slow path"));
    (void)co_await fs.Close(wfd);
    Fd rfd = (co_await fs.Open("user0", "m")).value();
    Bytes data = (co_await fs.ReadAt(rfd, 0, 100)).value();
    (void)co_await fs.Close(rfd);
    co_return StringOfBytes(data);
  };
  EXPECT_EQ(proc::RunSync(body()), "slow path");
}

TEST_F(PosixFsTest, ExclusiveCreateAndLinkSemanticsMatchModel) {
  PosixFilesys fs(root_, {.cache_dir_fds = true});
  ASSERT_TRUE(fs.EnsureDirs({"spool", "user0"}).ok());
  auto body = [&]() -> Task<int> {
    Fd fd = (co_await fs.Create("spool", "t")).value();
    (void)co_await fs.Append(fd, BytesOfString("m"));
    (void)co_await fs.Close(fd);
    int score = 0;
    Result<Fd> dup = co_await fs.Create("spool", "t");
    if (dup.status().code() == StatusCode::kAlreadyExists) {
      score += 1;
    }
    Result<bool> first = co_await fs.Link("spool", "t", "user0", "m");
    if (first.ok() && first.value()) {
      score += 2;
    }
    Result<bool> second = co_await fs.Link("spool", "t", "user0", "m");
    if (second.ok() && !second.value()) {
      score += 4;  // second link fails: destination exists
    }
    if ((co_await fs.Delete("spool", "t")).ok()) {
      score += 8;
    }
    co_return score;
  };
  EXPECT_EQ(proc::RunSync(body()), 15);
}

TEST_F(PosixFsTest, ListsSorted) {
  PosixFilesys fs(root_, {.cache_dir_fds = true});
  ASSERT_TRUE(fs.EnsureDirs({"user0"}).ok());
  auto body = [&]() -> Task<std::vector<std::string>> {
    for (const char* name : {"c", "a", "b"}) {
      Fd fd = (co_await fs.Create("user0", name)).value();
      (void)co_await fs.Close(fd);
    }
    co_return (co_await fs.List("user0")).value();
  };
  EXPECT_EQ(proc::RunSync(body()), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(PosixFsTest, EnsureDirsIdempotentAcrossRecoveredRuns) {
  // A recovered run re-creates the layout with clear_contents=false: the
  // directories already exist and the surviving files must be kept for
  // recovery to inspect, not wiped.
  PosixFilesys fs(root_, {.cache_dir_fds = true});
  ASSERT_TRUE(fs.EnsureDirs({"spool", "user0"}, /*clear_contents=*/false).ok());
  auto create = [&]() -> Task<void> {
    Fd fd = (co_await fs.Create("user0", "survivor")).value();
    (void)co_await fs.Close(fd);
  };
  proc::RunSyncVoid(create());
  PosixFilesys fs2(root_, {.cache_dir_fds = true});
  ASSERT_TRUE(fs2.EnsureDirs({"spool", "user0"}, /*clear_contents=*/false).ok());
  auto list = [&]() -> Task<std::vector<std::string>> {
    co_return (co_await fs2.List("user0")).value();
  };
  EXPECT_EQ(proc::RunSync(list()), (std::vector<std::string>{"survivor"}));
}

TEST_F(PosixFsTest, EnsureDirsPropagatesClearError) {
  // A regular file squatting on a directory name makes ClearDir fail
  // (opendir ENOTDIR); EnsureDirs must surface that instead of papering
  // over it and letting the caller run on a broken layout.
  std::ofstream(root_ + "/user0") << "not a directory";
  PosixFilesys fs(root_, {.cache_dir_fds = false});
  EXPECT_FALSE(fs.EnsureDirs({"user0"}, /*clear_contents=*/true).ok());
}

TEST_F(PosixFsTest, ClearDirFailsOnMissingDir) {
  PosixFilesys fs(root_, {.cache_dir_fds = false});
  EXPECT_FALSE(fs.ClearDir("nope").ok());
}

TEST_F(PosixFsTest, DirsyncHookFiresOnlyWhenFsyncDirsIsOn) {
  // The *.dirsync hook points mean "a directory fsync has landed"; the
  // crash harness's durability journal trusts the crossing itself, so it
  // must not fire when fsync_dirs is disabled (the seeded metadata-
  // durability mutation would otherwise be invisible).
  for (bool fsync_dirs : {true, false}) {
    std::vector<std::string> points;
    PosixFilesys::Options opts;
    opts.cache_dir_fds = false;
    opts.fsync_dirs = fsync_dirs;
    opts.hook = [&points](const char* point, const std::string&) {
      points.emplace_back(point);
    };
    PosixFilesys fs(root_ + "/h" + (fsync_dirs ? "1" : "0"), std::move(opts));
    std::filesystem::create_directories(root_ + "/h" + (fsync_dirs ? "1" : "0"));
    ASSERT_TRUE(fs.EnsureDirs({"spool", "user0"}, /*clear_contents=*/false).ok());
    auto body = [&]() -> Task<void> {
      Fd fd = (co_await fs.Create("spool", "msg")).value();
      (void)co_await fs.Append(fd, BytesOfString("x"));
      (void)co_await fs.Sync(fd);
      (void)co_await fs.Close(fd);
      (void)co_await fs.Link("spool", "msg", "user0", "msg");
      (void)co_await fs.Delete("spool", "msg");
    };
    proc::RunSyncVoid(body());
    auto count = [&](const std::string& p) {
      return std::count(points.begin(), points.end(), p);
    };
    if (fsync_dirs) {
      EXPECT_EQ(count("create.dirsync"), 1) << "fsync_dirs on";
      EXPECT_EQ(count("link.dirsync"), 1) << "fsync_dirs on";
      EXPECT_EQ(count("delete.dirsync"), 1) << "fsync_dirs on";
    } else {
      EXPECT_EQ(count("create.dirsync"), 0) << "fsync_dirs off";
      EXPECT_EQ(count("link.dirsync"), 0) << "fsync_dirs off";
      EXPECT_EQ(count("delete.dirsync"), 0) << "fsync_dirs off";
    }
    EXPECT_EQ(count("create.entry"), 1);
    EXPECT_EQ(count("delete.entry"), 1);
  }
}

TEST_F(PosixFsTest, EnsureDirsClearsLeftovers) {
  PosixFilesys fs(root_, {.cache_dir_fds = true});
  ASSERT_TRUE(fs.EnsureDirs({"user0"}).ok());
  auto create = [&]() -> Task<void> {
    Fd fd = (co_await fs.Create("user0", "old")).value();
    (void)co_await fs.Close(fd);
  };
  proc::RunSyncVoid(create());
  PosixFilesys fs2(root_, {.cache_dir_fds = true});
  ASSERT_TRUE(fs2.EnsureDirs({"user0"}).ok());
  auto list = [&]() -> Task<std::vector<std::string>> {
    co_return (co_await fs2.List("user0")).value();
  };
  EXPECT_TRUE(proc::RunSync(list()).empty());
}

}  // namespace
}  // namespace perennial::goosefs
