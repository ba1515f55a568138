// Checker harness for DurableKv.
#ifndef PERENNIAL_SRC_SYSTEMS_KVS_KV_HARNESS_H_
#define PERENNIAL_SRC_SYSTEMS_KVS_KV_HARNESS_H_

#include <memory>
#include <vector>

#include "src/refine/explorer.h"
#include "src/systems/kvs/kv_spec.h"
#include "src/systems/kvs/kv_store.h"

namespace perennial::systems {

struct KvHarnessOptions {
  uint64_t num_keys = 2;
  std::vector<std::vector<KvSpec::Op>> client_ops;
  DurableKv::Mutations mutations;
  bool observe_all = true;
};

inline refine::Instance<KvSpec> MakeKvInstance(const KvHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<DurableKv> kv;
  };
  auto bundle = std::make_shared<Bundle>();
  bundle->kv = std::make_unique<DurableKv>(&bundle->world, options.num_keys, options.mutations);
  DurableKv* kv = bundle->kv.get();

  refine::Instance<KvSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.crash_invariants = &kv->crash_invariants();
  inst.client_ops = options.client_ops;
  inst.run_op = [kv](int, uint64_t op_id, KvSpec::Op op) -> proc::Task<uint64_t> {
    switch (op.kind) {
      case KvSpec::Kind::kGet:
        co_return co_await kv->Get(op.k1);
      case KvSpec::Kind::kPut:
        co_await kv->Put(op.k1, op.v1, op_id);
        co_return 0;
      case KvSpec::Kind::kPutPair:
        co_await kv->PutPair(op.k1, op.v1, op.k2, op.v2, op_id);
        co_return 0;
    }
    co_return 0;
  };
  inst.recover = [kv](refine::History<KvSpec>* history) -> proc::Task<void> {
    co_await kv->Recover([history](uint64_t op_id) { history->Helped(op_id); });
  };
  inst.mix_surviving_state = [world = inst.world, kv](Hasher128* h) {
    world->MixSurvivingState(h);
    kv->MixSurvivingState(h);
  };
  if (options.observe_all) {
    for (uint64_t k = 0; k < options.num_keys; ++k) {
      inst.observer_ops.push_back(KvSpec::MakeGet(k));
    }
  }
  return inst;
}

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_KVS_KV_HARNESS_H_
