// Checker harness for the mini-FTL. The specification is the same
// one-logical-disk transition system as the replicated disk (Figure 3):
// addresses map to values, reads/writes are atomic, crashes lose nothing.
#ifndef PERENNIAL_SRC_SYSTEMS_FTL_FTL_HARNESS_H_
#define PERENNIAL_SRC_SYSTEMS_FTL_FTL_HARNESS_H_

#include <memory>
#include <vector>

#include "src/refine/explorer.h"
#include "src/systems/ftl/ftl.h"
#include "src/systems/repl/repl_spec.h"

namespace perennial::systems {

struct FtlHarnessOptions {
  uint64_t num_lbas = 2;
  uint64_t num_pages = 16;
  std::vector<std::vector<ReplSpec::Op>> client_ops;
  Ftl::Mutations mutations;
  bool observe_all = true;
};

inline refine::Instance<ReplSpec> MakeFtlInstance(const FtlHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<Ftl> ftl;
  };
  auto bundle = std::make_shared<Bundle>();
  bundle->ftl = std::make_unique<Ftl>(&bundle->world, options.num_lbas, options.num_pages,
                                      options.mutations);
  Ftl* ftl = bundle->ftl.get();

  refine::Instance<ReplSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.crash_invariants = &ftl->crash_invariants();
  inst.client_ops = options.client_ops;
  inst.run_op = [ftl](int, uint64_t, ReplSpec::Op op) -> proc::Task<uint64_t> {
    if (op.is_write) {
      co_await ftl->Write(op.a, op.v);
      co_return 0;
    }
    co_return co_await ftl->Read(op.a);
  };
  inst.recover = [ftl](refine::History<ReplSpec>*) -> proc::Task<void> {
    co_await ftl->Recover();
  };
  // The mapping and counters are volatile host state that Recover rebuilds
  // at its first step, so the world's components are all that survives.
  inst.mix_surviving_state = [world = inst.world](Hasher128* h) { world->MixSurvivingState(h); };
  if (options.observe_all) {
    for (uint64_t a = 0; a < options.num_lbas; ++a) {
      inst.observer_ops.push_back(ReplSpec::MakeRead(a));
    }
  }
  return inst;
}

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_FTL_FTL_HARNESS_H_
