// Tests for the sync/atomic extension: atomic ops, lock-free algorithms
// under the checker (CAS counters are linearizable; naive read-modify-write
// is not).
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "src/goose/atomic.h"
#include "src/goose/world.h"
#include "src/refine/explorer.h"
#include "src/tsys/transition.h"
#include "tests/sim_util.h"

namespace perennial::goose {
namespace {

using perennial::testing::DrainRoundRobin;
using perennial::testing::SimRun;
using proc::Task;

TEST(AtomicTest, LoadStoreRoundTrips) {
  World world;
  AtomicU64 a(&world, 5);
  auto body = [&]() -> Task<uint64_t> {
    co_await a.Store(9);
    co_return co_await a.Load();
  };
  EXPECT_EQ(SimRun(body()), 9u);
}

TEST(AtomicTest, AddReturnsNewValue) {
  World world;
  AtomicU64 a(&world, 10);
  auto body = [&]() -> Task<uint64_t> { co_return co_await a.Add(5); };
  EXPECT_EQ(SimRun(body()), 15u);
}

TEST(AtomicTest, CompareAndSwapSemantics) {
  World world;
  AtomicU64 a(&world, 1);
  auto body = [&]() -> Task<int> {
    bool first = co_await a.CompareAndSwap(1, 2);   // succeeds
    bool second = co_await a.CompareAndSwap(1, 3);  // fails (value is 2)
    co_return (first ? 1 : 0) + (second ? 10 : 0);
  };
  EXPECT_EQ(SimRun(body()), 1);
  EXPECT_EQ(a.PeekForTesting(), 2u);
}

TEST(AtomicTest, ConcurrentAddsAreNotARace) {
  World world;
  AtomicU64 a(&world, 0);
  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  auto inc = [&]() -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await a.Add(1);
    }
  };
  sched.Spawn(inc());
  sched.Spawn(inc());
  DrainRoundRobin(sched);  // no UbViolation, unlike racing heap stores
  EXPECT_EQ(a.PeekForTesting(), 10u);
}

TEST(AtomicTest, StaleAfterCrashIsUb) {
  World world;
  AtomicU64 a(&world, 0);
  world.Crash();
  auto body = [&]() -> Task<uint64_t> { co_return co_await a.Load(); };
  EXPECT_THROW(SimRun(body()), UbViolation);
}

TEST(AtomicTest, NativeModeCrossThread) {
  World world;
  AtomicU64 a(&world, 0);
  auto worker = [&] {
    auto body = [&]() -> Task<void> {
      for (int i = 0; i < 1000; ++i) {
        (void)co_await a.Add(1);
      }
    };
    proc::RunSyncVoid(body());
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(a.PeekForTesting(), 2000u);
}

// ---------- Lock-free counter, checked for linearizability ----------

struct CounterSpec {
  struct State {
    uint64_t v = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  struct Op {
    bool is_inc = false;
  };
  using Ret = uint64_t;  // inc: the new value; read: the current value

  State Initial() const { return {}; }
  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (op.is_inc) {
      return tsys::Outcome<State, Ret>::One(State{s.v + 1}, s.v + 1);
    }
    return tsys::Outcome<State, Ret>::One(s, s.v);
  }
  std::vector<State> CrashSteps(const State& s) const { return {s}; }
  static void MixState(Hasher128* h, const State& s) { h->MixU64(s.v); }
  static void MixRet(Hasher128* h, const Ret& r) { h->MixU64(r); }
  static std::string RetKey(const Ret& r) { return std::to_string(r); }
  static std::string OpName(const Op& op) { return op.is_inc ? "inc()" : "read()"; }
};

// Correct lock-free increment: CAS retry loop.
struct CasCounter {
  World world;
  AtomicU64 cell{&world, 0};

  Task<uint64_t> Run(CounterSpec::Op op) {
    if (!op.is_inc) {
      co_return co_await cell.Load();
    }
    while (true) {
      uint64_t current = co_await cell.Load();
      if (co_await cell.CompareAndSwap(current, current + 1)) {
        co_return current + 1;
      }
    }
  }
};

// Broken "lock-free" increment: load, then store — lost updates.
struct RmwCounter : CasCounter {
  Task<uint64_t> Run(CounterSpec::Op op) {
    if (!op.is_inc) {
      co_return co_await cell.Load();
    }
    uint64_t current = co_await cell.Load();
    co_await cell.Store(current + 1);
    co_return current + 1;
  }
};

template <typename Sys>
refine::Instance<CounterSpec> MakeCounterInstance() {
  auto sys = std::make_shared<Sys>();
  refine::Instance<CounterSpec> inst;
  inst.keep_alive = sys;
  inst.world = &sys->world;
  inst.client_ops = {{CounterSpec::Op{true}}, {CounterSpec::Op{true}}};
  inst.run_op = [sys](int, uint64_t, CounterSpec::Op op) { return sys->Run(op); };
  inst.observer_ops = {CounterSpec::Op{false}};
  return inst;
}

TEST(LockFree, CasCounterIsLinearizable) {
  refine::ExplorerOptions opts;
  opts.max_crashes = 0;
  refine::Explorer<CounterSpec> ex(CounterSpec{}, MakeCounterInstance<CasCounter>, opts);
  refine::Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_FALSE(report.truncated);
}

TEST(LockFree, NaiveReadModifyWriteLosesUpdates) {
  refine::ExplorerOptions opts;
  opts.max_crashes = 0;
  refine::Explorer<CounterSpec> ex(CounterSpec{}, MakeCounterInstance<RmwCounter>, opts);
  refine::Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

}  // namespace
}  // namespace perennial::goose
