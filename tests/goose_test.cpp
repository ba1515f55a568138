// Tests for the Goose semantics: heap, slices, maps, mutex, race/UB rules,
// and crash generation discipline.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/panic.h"
#include "src/goose/heap.h"
#include "src/goose/mutex.h"
#include "src/goose/world.h"
#include "tests/sim_util.h"

namespace perennial::goose {
namespace {

using perennial::testing::DrainLowestFirst;
using perennial::testing::DrainRoundRobin;
using perennial::testing::SimRun;
using perennial::testing::SimRunVoid;
using proc::Scheduler;
using proc::SchedulerScope;
using proc::Task;

TEST(Heap, LoadReturnsStoredValue) {
  World world;
  Heap heap(&world);
  Ptr<int> p = heap.New(41);
  auto body = [&]() -> Task<int> {
    co_await heap.Store(p, 42);
    co_return co_await heap.Load(p);
  };
  EXPECT_EQ(SimRun(body()), 42);
}

TEST(Heap, LoadWorksInNativeMode) {
  World world;
  Heap heap(&world);
  Ptr<std::string> p = heap.New(std::string("hello"));
  auto body = [&]() -> Task<std::string> { co_return co_await heap.Load(p); };
  EXPECT_EQ(proc::RunSync(body()), "hello");
}

TEST(Heap, NilPointerLoadIsUb) {
  World world;
  Heap heap(&world);
  Ptr<int> nil;
  auto body = [&]() -> Task<int> { co_return co_await heap.Load(nil); };
  EXPECT_THROW(SimRun(body()), UbViolation);
}

TEST(Heap, StalePointerAfterCrashIsUb) {
  World world;
  Heap heap(&world);
  Ptr<int> p = heap.New(7);
  world.Crash();
  auto body = [&]() -> Task<int> { co_return co_await heap.Load(p); };
  EXPECT_THROW(SimRun(body()), UbViolation);
}

TEST(Heap, CrashClearsAllCells) {
  World world;
  Heap heap(&world);
  heap.New(1);
  heap.New(2);
  EXPECT_EQ(heap.cell_count(), 2u);
  world.Crash();
  EXPECT_EQ(heap.cell_count(), 0u);
  EXPECT_EQ(world.generation(), 1u);
}

// Two concurrent stores to the same pointer must be detectable as a race
// under some schedule: store is two atomic steps.
TEST(Heap, OverlappingStoresAreARace) {
  World world;
  Heap heap(&world);
  Ptr<int> p = heap.New(0);
  Scheduler sched;
  SchedulerScope scope(&sched);
  auto writer = [&]() -> Task<void> { co_await heap.Store(p, 1); };
  sched.Spawn(writer());
  sched.Spawn(writer());
  // Schedule: t0 write-start, t1 write-start -> race detected on t1.
  sched.Step(0);  // t0 reaches first yield inside Store
  sched.Step(0);  // t0 marks write-active, suspends at second yield
  sched.Step(1);  // t1 reaches first yield
  EXPECT_THROW(sched.Step(1), UbViolation);  // t1 sees in-flight write
}

TEST(Heap, SequentialStoresDoNotRace) {
  World world;
  Heap heap(&world);
  Ptr<int> p = heap.New(0);
  auto body = [&]() -> Task<int> {
    co_await heap.Store(p, 1);
    co_await heap.Store(p, 2);
    co_return co_await heap.Load(p);
  };
  EXPECT_EQ(SimRun(body()), 2);
}

TEST(Heap, LoadDuringStoreIsARace) {
  World world;
  Heap heap(&world);
  Ptr<int> p = heap.New(0);
  Scheduler sched;
  SchedulerScope scope(&sched);
  auto writer = [&]() -> Task<void> { co_await heap.Store(p, 1); };
  auto reader = [&]() -> Task<void> { (void)co_await heap.Load(p); };
  sched.Spawn(writer());
  sched.Spawn(reader());
  sched.Step(0);  // writer at first yield
  sched.Step(0);  // writer marks write-active
  sched.Step(1);  // reader at yield
  EXPECT_THROW(sched.Step(1), UbViolation);
}

TEST(Heap, ConcurrentLoadsAreFine) {
  World world;
  Heap heap(&world);
  Ptr<int> p = heap.New(9);
  Scheduler sched;
  SchedulerScope scope(&sched);
  int sum = 0;
  auto reader = [&]() -> Task<void> { sum += co_await heap.Load(p); };
  sched.Spawn(reader());
  sched.Spawn(reader());
  DrainRoundRobin(sched);
  EXPECT_EQ(sum, 18);
}

TEST(Slice, NewSliceGetSet) {
  World world;
  Heap heap(&world);
  Slice<int> s = heap.NewSlice<int>(3, 0);
  auto body = [&]() -> Task<int> {
    co_await heap.SliceSet(s, 1, 5);
    co_return co_await heap.SliceGet(s, 1);
  };
  EXPECT_EQ(SimRun(body()), 5);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Slice, OutOfRangeIndexIsUb) {
  World world;
  Heap heap(&world);
  Slice<int> s = heap.NewSlice<int>(2, 0);
  auto body = [&]() -> Task<int> { co_return co_await heap.SliceGet(s, 2); };
  EXPECT_THROW(SimRun(body()), UbViolation);
}

TEST(Slice, AppendProducesLongerSlice) {
  World world;
  Heap heap(&world);
  Slice<int> s = heap.SliceFromVector<int>({1, 2});
  auto body = [&]() -> Task<Slice<int>> { co_return co_await heap.SliceAppend(s, 3); };
  Slice<int> s2 = SimRun(body());
  EXPECT_EQ(s2.size(), 3u);
  EXPECT_EQ(heap.PeekSlice(s2), (std::vector<int>{1, 2, 3}));
  // Original slice is unchanged (copy-on-append model).
  EXPECT_EQ(heap.PeekSlice(s), (std::vector<int>{1, 2}));
}

TEST(Slice, SubSliceViewsSameArray) {
  World world;
  Heap heap(&world);
  Slice<int> s = heap.SliceFromVector<int>({1, 2, 3, 4});
  Slice<int> mid = heap.SubSlice(s, 1, 3);
  EXPECT_EQ(mid.size(), 2u);
  auto body = [&]() -> Task<void> { co_await heap.SliceSet(mid, 0, 99); };
  SimRunVoid(body());
  EXPECT_EQ(heap.PeekSlice(s), (std::vector<int>{1, 99, 3, 4}));
}

TEST(Slice, WriteDuringReadOfSameArrayIsARace) {
  World world;
  Heap heap(&world);
  Slice<int> s = heap.NewSlice<int>(4, 0);
  Scheduler sched;
  SchedulerScope scope(&sched);
  auto writer = [&]() -> Task<void> { co_await heap.SliceSet(s, 0, 1); };
  auto reader = [&]() -> Task<void> { (void)co_await heap.SliceGet(s, 3); };
  sched.Spawn(writer());
  sched.Spawn(reader());
  sched.Step(0);
  sched.Step(0);  // writer holds write_active on the array
  sched.Step(1);
  EXPECT_THROW(sched.Step(1), UbViolation);  // even though indexes differ: same object
}

TEST(Slice, StaleSliceAfterCrashIsUb) {
  World world;
  Heap heap(&world);
  Slice<int> s = heap.NewSlice<int>(2, 0);
  world.Crash();
  auto body = [&]() -> Task<int> { co_return co_await heap.SliceGet(s, 0); };
  EXPECT_THROW(SimRun(body()), UbViolation);
}

TEST(GoMapTest, InsertLookupDelete) {
  World world;
  Heap heap(&world);
  GoMap<uint64_t, std::string> m = heap.NewMap<uint64_t, std::string>();
  auto body = [&]() -> Task<std::optional<std::string>> {
    co_await heap.MapInsert(m, uint64_t{1}, std::string("one"));
    co_await heap.MapInsert(m, uint64_t{2}, std::string("two"));
    co_await heap.MapDelete(m, uint64_t{1});
    co_return co_await heap.MapLookup(m, uint64_t{1});
  };
  EXPECT_EQ(SimRun(body()), std::nullopt);
  auto body2 = [&]() -> Task<std::optional<std::string>> {
    co_return co_await heap.MapLookup(m, uint64_t{2});
  };
  EXPECT_EQ(SimRun(body2()), "two");
}

TEST(GoMapTest, LenCounts) {
  World world;
  Heap heap(&world);
  GoMap<int, int> m = heap.NewMap<int, int>();
  auto body = [&]() -> Task<uint64_t> {
    co_await heap.MapInsert(m, 1, 10);
    co_await heap.MapInsert(m, 2, 20);
    co_await heap.MapInsert(m, 1, 11);  // overwrite
    co_return co_await heap.MapLen(m);
  };
  EXPECT_EQ(SimRun(body()), 2u);
}

TEST(GoMapTest, ForEachVisitsAllEntries) {
  World world;
  Heap heap(&world);
  GoMap<int, int> m = heap.NewMap<int, int>();
  auto body = [&]() -> Task<int> {
    co_await heap.MapInsert(m, 1, 10);
    co_await heap.MapInsert(m, 2, 20);
    int sum = 0;
    co_await heap.MapForEach<int, int>(m, [&](const int& k, const int& v) -> Task<void> {
      sum += k + v;
      co_return;
    });
    co_return sum;
  };
  EXPECT_EQ(SimRun(body()), 33);
}

TEST(GoMapTest, MutationDuringIterationIsUb) {
  World world;
  Heap heap(&world);
  GoMap<int, int> m = heap.NewMap<int, int>();
  Scheduler sched;
  SchedulerScope scope(&sched);
  auto setup = [&]() -> Task<void> {
    co_await heap.MapInsert(m, 1, 10);
    co_await heap.MapInsert(m, 2, 20);
  };
  {
    SchedulerScope inner_unused(nullptr);  // run setup natively for brevity
    proc::RunSyncVoid(setup());
  }
  auto iterator = [&]() -> Task<void> {
    co_await heap.MapForEach<int, int>(m, [&](const int&, const int&) -> Task<void> {
      co_await proc::Yield();  // give the mutator a window
    });
  };
  auto mutator = [&]() -> Task<void> { co_await heap.MapInsert(m, 3, 30); };
  sched.Spawn(iterator());
  sched.Spawn(mutator());
  // Step iterator into the iteration (marks active), then run the mutator.
  sched.Step(0);
  sched.Step(0);
  bool threw = false;
  try {
    DrainRoundRobin(sched);
  } catch (const UbViolation&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

TEST(MutexTest, LockUnlockSequential) {
  World world;
  Mutex mu(&world);
  auto body = [&]() -> Task<int> {
    co_await mu.Lock();
    co_await mu.Unlock();
    co_return 1;
  };
  EXPECT_EQ(SimRun(body()), 1);
}

TEST(MutexTest, ProvidesMutualExclusion) {
  World world;
  Mutex mu(&world);
  Scheduler sched;
  SchedulerScope scope(&sched);
  std::vector<int> log;
  auto critical = [&](int id) -> Task<void> {
    co_await mu.Lock();
    log.push_back(id);  // enter
    co_await proc::Yield();
    co_await proc::Yield();
    log.push_back(id);  // exit
    co_await mu.Unlock();
  };
  sched.Spawn(critical(1));
  sched.Spawn(critical(2));
  DrainRoundRobin(sched);
  ASSERT_EQ(log.size(), 4u);
  // Critical sections never interleave: entries come in adjacent pairs.
  EXPECT_EQ(log[0], log[1]);
  EXPECT_EQ(log[2], log[3]);
  EXPECT_NE(log[0], log[2]);
}

TEST(MutexTest, BlockedWaiterWakesOnUnlock) {
  World world;
  Mutex mu(&world);
  Scheduler sched;
  SchedulerScope scope(&sched);
  bool second_ran = false;
  auto holder = [&]() -> Task<void> {
    co_await mu.Lock();
    co_await proc::Yield();
    co_await mu.Unlock();
  };
  auto waiter = [&]() -> Task<void> {
    co_await mu.Lock();
    second_ran = true;
    co_await mu.Unlock();
  };
  sched.Spawn(holder());
  sched.Spawn(waiter());
  DrainLowestFirst(sched);
  EXPECT_TRUE(second_ran);
}

TEST(MutexTest, UnlockOfUnlockedIsUb) {
  World world;
  Mutex mu(&world);
  auto body = [&]() -> Task<void> { co_await mu.Unlock(); };
  EXPECT_THROW(SimRunVoid(body()), UbViolation);
}

TEST(MutexTest, StaleMutexAfterCrashIsUb) {
  World world;
  Mutex mu(&world);
  world.Crash();
  auto body = [&]() -> Task<void> { co_await mu.Lock(); };
  EXPECT_THROW(SimRunVoid(body()), UbViolation);
}

TEST(MutexTest, NativeModeLocks) {
  World world;
  Mutex mu(&world);
  auto body = [&]() -> Task<int> {
    co_await mu.Lock();
    co_await mu.Unlock();
    co_return 3;
  };
  EXPECT_EQ(proc::RunSync(body()), 3);
}

TEST(WorldTest, CrashNotifiesAllComponents) {
  World world;
  struct Probe : CrashAware {
    int crashes = 0;
    void OnCrash() override { ++crashes; }
    void MixSurvivingState(Hasher128*) const override {}
  };
  Probe a;
  Probe b;
  world.Register(&a);
  world.Register(&b);
  world.Crash();
  world.Crash();
  EXPECT_EQ(a.crashes, 2);
  EXPECT_EQ(b.crashes, 2);
  EXPECT_EQ(world.generation(), 2u);
}

}  // namespace
}  // namespace perennial::goose
