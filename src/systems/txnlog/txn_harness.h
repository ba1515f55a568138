// Checker harness for TxnLog.
#ifndef PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_HARNESS_H_
#define PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_HARNESS_H_

#include <memory>
#include <vector>

#include "src/fault/fault.h"
#include "src/fault/fault_events.h"
#include "src/refine/explorer.h"
#include "src/systems/txnlog/txn_log.h"
#include "src/systems/txnlog/txn_spec.h"

namespace perennial::systems {

struct TxnHarnessOptions {
  uint64_t num_addrs = 2;
  uint64_t log_capacity = 4;
  std::vector<std::vector<TxnSpec::Op>> client_ops;
  TxnLog::Mutations mutations;
  // Environment faults for the log device. The harness pins
  // torn_min_block to at least 1: block 0 is the header, modeled as a
  // single atomic sector (see txn_log.h); record/data blocks may tear.
  fault::FaultPlan fault_plan;
  bool observe_all = true;
};

inline refine::Instance<TxnSpec> MakeTxnInstance(const TxnHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<fault::FaultSchedule> faults;
    std::unique_ptr<TxnLog> log;
  };
  auto bundle = std::make_shared<Bundle>();
  fault::FaultPlan plan = options.fault_plan;
  if (plan.torn_min_block < 1) {
    plan.torn_min_block = 1;  // the header sector writes atomically
  }
  if (plan.AnyBudget()) {
    bundle->faults = std::make_unique<fault::FaultSchedule>(plan);
  }
  bundle->log = std::make_unique<TxnLog>(&bundle->world, options.num_addrs,
                                         options.log_capacity, options.mutations,
                                         bundle->faults.get());
  TxnLog* log = bundle->log.get();

  refine::Instance<TxnSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.crash_invariants = &log->crash_invariants();
  inst.client_ops = options.client_ops;
  inst.run_op = [log](int, uint64_t op_id, TxnSpec::Op op) -> proc::Task<uint64_t> {
    switch (op.kind) {
      case TxnSpec::Kind::kRead:
        co_return co_await log->Read(op.addr);
      case TxnSpec::Kind::kWriteBatch:
        co_await log->CommitBatch(op.records, op_id);
        co_return 0;
      case TxnSpec::Kind::kCheckpoint:
        co_await log->Checkpoint();
        co_return 0;
    }
    co_return 0;
  };
  inst.recover = [log](refine::History<TxnSpec>* history) -> proc::Task<void> {
    co_await log->Recover([history](uint64_t op_id) { history->Helped(op_id); });
  };
  fault::FaultSchedule* faults = bundle->faults.get();
  inst.mix_surviving_state = [world = inst.world, log, faults](Hasher128* h) {
    world->MixSurvivingState(h);
    log->MixSurvivingState(h);
    if (faults != nullptr) {
      faults->MixState(h);  // armed faults outlive the crash
    }
  };
  if (options.observe_all) {
    for (uint64_t a = 0; a < options.num_addrs; ++a) {
      inst.observer_ops.push_back(TxnSpec::MakeRead(a));
    }
  }
  if (bundle->faults != nullptr) {
    fault::AddFaultEvents(plan, bundle->faults.get(), &inst);
  }
  return inst;
}

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_HARNESS_H_
