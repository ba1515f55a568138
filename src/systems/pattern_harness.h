// Checker harnesses binding the shadow-copy, WAL, and group-commit
// implementations to their specifications (repl has its own harness in
// repl/repl_harness.h).
#ifndef PERENNIAL_SRC_SYSTEMS_PATTERN_HARNESS_H_
#define PERENNIAL_SRC_SYSTEMS_PATTERN_HARNESS_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/refine/explorer.h"
#include "src/systems/gc/gc_spec.h"
#include "src/systems/gc/group_commit.h"
#include "src/systems/pair_spec.h"
#include "src/systems/shadow/shadow_pair.h"
#include "src/systems/wal/wal_pair.h"

namespace perennial::systems {

struct ShadowHarnessOptions {
  std::vector<std::vector<PairSpec::Op>> client_ops;
  ShadowPair::Mutations mutations;
  int observe_repeats = 1;
};

inline refine::Instance<PairSpec> MakeShadowInstance(const ShadowHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<ShadowPair> sys;
  };
  auto bundle = std::make_shared<Bundle>();
  bundle->sys = std::make_unique<ShadowPair>(&bundle->world, options.mutations);
  ShadowPair* sys = bundle->sys.get();

  refine::Instance<PairSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.crash_invariants = &sys->crash_invariants();
  inst.client_ops = options.client_ops;
  inst.run_op = [sys](int, uint64_t, PairSpec::Op op) -> proc::Task<PairSpec::Ret> {
    if (op.is_write) {
      co_await sys->WritePair(op.x, op.y);
      co_return PairSpec::Ret{0, 0};
    }
    co_return co_await sys->ReadPair();
  };
  inst.recover = [sys](refine::History<PairSpec>*) -> proc::Task<void> {
    co_await sys->Recover();
  };
  inst.mix_surviving_state = [world = inst.world](Hasher128* h) { world->MixSurvivingState(h); };
  for (int repeat = 0; repeat < options.observe_repeats; ++repeat) {
    inst.observer_ops.push_back(PairSpec::MakeRead());
  }
  return inst;
}

struct WalHarnessOptions {
  std::vector<std::vector<PairSpec::Op>> client_ops;
  WalPair::Mutations mutations;
  std::vector<PairSpec::Op> observer_ops = {PairSpec::MakeRead()};
};

inline refine::Instance<PairSpec> MakeWalInstance(const WalHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<WalPair> sys;
  };
  auto bundle = std::make_shared<Bundle>();
  bundle->sys = std::make_unique<WalPair>(&bundle->world, options.mutations);
  WalPair* sys = bundle->sys.get();

  refine::Instance<PairSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.crash_invariants = &sys->crash_invariants();
  inst.client_ops = options.client_ops;
  inst.run_op = [sys](int, uint64_t op_id, PairSpec::Op op) -> proc::Task<PairSpec::Ret> {
    if (op.is_write) {
      co_await sys->WritePair(op.x, op.y, op_id);
      co_return PairSpec::Ret{0, 0};
    }
    co_return co_await sys->ReadPair();
  };
  inst.recover = [sys](refine::History<PairSpec>* history) -> proc::Task<void> {
    co_await sys->Recover([history](uint64_t op_id) { history->Helped(op_id); });
  };
  inst.mix_surviving_state = [world = inst.world, sys](Hasher128* h) {
    world->MixSurvivingState(h);
    sys->MixSurvivingState(h);
  };
  inst.observer_ops = options.observer_ops;
  return inst;
}

struct GcHarnessOptions {
  uint64_t capacity = 8;
  std::vector<std::vector<GcSpec::Op>> client_ops;
  GroupCommit::Mutations mutations;
  std::vector<GcSpec::Op> observer_ops = {GcSpec::MakeRead()};
};

inline refine::Instance<GcSpec> MakeGcInstance(const GcHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<GroupCommit> sys;
  };
  auto bundle = std::make_shared<Bundle>();
  bundle->sys = std::make_unique<GroupCommit>(&bundle->world, options.capacity, options.mutations);
  GroupCommit* sys = bundle->sys.get();

  refine::Instance<GcSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.crash_invariants = &sys->crash_invariants();
  inst.client_ops = options.client_ops;
  inst.run_op = [sys](int, uint64_t, GcSpec::Op op) -> proc::Task<uint64_t> {
    switch (op.kind) {
      case GcSpec::Kind::kWrite:
        co_await sys->Write(op.v);
        co_return 0;
      case GcSpec::Kind::kRead:
        co_return co_await sys->Read();
      case GcSpec::Kind::kFlush:
        co_await sys->Flush();
        co_return 0;
    }
    co_return 0;
  };
  inst.recover = [sys](refine::History<GcSpec>*) -> proc::Task<void> { co_await sys->Recover(); };
  inst.mix_surviving_state = [world = inst.world](Hasher128* h) { world->MixSurvivingState(h); };
  inst.observer_ops = options.observer_ops;
  return inst;
}

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_PATTERN_HARNESS_H_
