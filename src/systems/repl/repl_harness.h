// Checker harness for the replicated disk: builds refine::Instance
// configurations binding the implementation to its spec.
#ifndef PERENNIAL_SRC_SYSTEMS_REPL_REPL_HARNESS_H_
#define PERENNIAL_SRC_SYSTEMS_REPL_REPL_HARNESS_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/fault/fault.h"
#include "src/fault/fault_events.h"
#include "src/refine/explorer.h"
#include "src/systems/repl/repl_spec.h"
#include "src/systems/repl/replicated_disk.h"

namespace perennial::systems {

struct ReplHarnessOptions {
  uint64_t num_blocks = 1;
  std::vector<std::vector<ReplSpec::Op>> client_ops;
  ReplicatedDisk::Mutations mutations;
  bool with_disk1_failure_event = false;
  bool with_disk2_failure_event = false;
  // Environment faults (transient I/O errors, fail-slow, ...) exposed as
  // explorer env alternatives. Default plan: no faults. Use
  // ReplicatedDisk::kDisk1/kDisk2 as FaultPlan::target to aim at one disk.
  fault::FaultPlan fault_plan;
  // When false, the §5.1 crash invariant is not registered with the
  // explorer, so defects surface purely as refinement (linearizability)
  // violations — useful to demonstrate the spec-level symptom of a bug the
  // invariant would otherwise flag first.
  bool check_crash_invariants = true;
  // Observe every address at the end to pin down the final durable state.
  bool observe_all = true;
  // Read each address this many times during observation; with a failure
  // event armed, repeated reads expose divergence between the disks (§3.1).
  int observe_repeats = 1;
};

inline refine::Instance<ReplSpec> MakeReplInstance(const ReplHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<fault::FaultSchedule> faults;
    std::unique_ptr<ReplicatedDisk> rd;
  };
  auto bundle = std::make_shared<Bundle>();
  if (options.fault_plan.AnyBudget()) {
    bundle->faults = std::make_unique<fault::FaultSchedule>(options.fault_plan);
  }
  bundle->rd = std::make_unique<ReplicatedDisk>(&bundle->world, options.num_blocks,
                                                options.mutations, bundle->faults.get());
  ReplicatedDisk* rd = bundle->rd.get();

  refine::Instance<ReplSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.crash_invariants = options.check_crash_invariants ? &rd->crash_invariants() : nullptr;
  inst.client_ops = options.client_ops;
  inst.run_op = [rd](int, uint64_t op_id, ReplSpec::Op op) -> proc::Task<uint64_t> {
    if (op.is_write) {
      co_await rd->Write(op.a, op.v, op_id);
      co_return 0;
    }
    co_return co_await rd->Read(op.a);
  };
  inst.recover = [rd](refine::History<ReplSpec>* history) -> proc::Task<void> {
    co_await rd->Recover([history](uint64_t op_id) { history->Helped(op_id); });
  };
  fault::FaultSchedule* faults = bundle->faults.get();
  inst.mix_surviving_state = [world = inst.world, rd, faults](Hasher128* h) {
    world->MixSurvivingState(h);
    rd->MixSurvivingState(h);
    if (faults != nullptr) {
      faults->MixState(h);  // armed faults outlive the crash
    }
  };
  if (options.observe_all) {
    for (int repeat = 0; repeat < options.observe_repeats; ++repeat) {
      for (uint64_t a = 0; a < options.num_blocks; ++a) {
        inst.observer_ops.push_back(ReplSpec::MakeRead(a));
      }
    }
  }
  if (options.with_disk1_failure_event) {
    inst.env_events.push_back(refine::EnvEvent{"fail-d1", 1, [rd] { rd->FailDisk1(); }});
  }
  if (options.with_disk2_failure_event) {
    inst.env_events.push_back(refine::EnvEvent{"fail-d2", 1, [rd] { rd->FailDisk2(); }});
  }
  if (bundle->faults != nullptr) {
    fault::AddFaultEvents(options.fault_plan, bundle->faults.get(), &inst);
  }
  return inst;
}

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_REPL_REPL_HARNESS_H_
