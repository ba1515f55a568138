// Specification of TxnLog: an array of values where a committed batch
// applies atomically, reads are always current, checkpointing is
// observably a no-op, and crashes lose nothing committed.
#ifndef PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_SPEC_H_
#define PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/tsys/transition.h"

namespace perennial::systems {

struct TxnSpec {
  struct State {
    std::vector<uint64_t> values;
    friend bool operator==(const State&, const State&) = default;
  };
  enum class Kind { kRead, kWriteBatch, kCheckpoint };
  struct Op {
    Kind kind = Kind::kRead;
    uint64_t addr = 0;                                     // kRead
    std::vector<std::pair<uint64_t, uint64_t>> records;    // kWriteBatch
  };
  using Ret = uint64_t;

  uint64_t num_addrs = 1;

  State Initial() const { return State{std::vector<uint64_t>(num_addrs, 0)}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    switch (op.kind) {
      case Kind::kRead: {
        if (op.addr >= num_addrs) {
          return tsys::Outcome<State, Ret>::Undef();
        }
        return tsys::Outcome<State, Ret>::One(s, s.values[op.addr]);
      }
      case Kind::kWriteBatch: {
        State next = s;
        for (const auto& [addr, value] : op.records) {
          if (addr >= num_addrs) {
            return tsys::Outcome<State, Ret>::Undef();
          }
          next.values[addr] = value;
        }
        return tsys::Outcome<State, Ret>::One(std::move(next), 0);
      }
      case Kind::kCheckpoint: {
        return tsys::Outcome<State, Ret>::One(s, 0);
      }
    }
    return tsys::Outcome<State, Ret>::None();
  }

  std::vector<State> CrashSteps(const State& s) const { return {s}; }

  static void MixState(Hasher128* h, const State& s) {
    h->MixU64(s.values.size());
    for (uint64_t v : s.values) {
      h->MixU64(v);
    }
  }
  static void MixRet(Hasher128* h, const Ret& r) { h->MixU64(r); }
  static std::string RetKey(const Ret& r) { return std::to_string(r); }
  static std::string OpName(const Op& op) {
    switch (op.kind) {
      case Kind::kRead:
        return "Read(" + std::to_string(op.addr) + ")";
      case Kind::kWriteBatch: {
        std::string out = "WriteBatch{";
        for (const auto& [addr, value] : op.records) {
          out += std::to_string(addr) + "=" + std::to_string(value) + ";";
        }
        return out + "}";
      }
      case Kind::kCheckpoint:
        return "Checkpoint()";
    }
    return "?";
  }

  static Op MakeRead(uint64_t addr) { return Op{Kind::kRead, addr, {}}; }
  static Op MakeWrite(uint64_t addr, uint64_t value) {
    return Op{Kind::kWriteBatch, 0, {{addr, value}}};
  }
  static Op MakeBatch(std::vector<std::pair<uint64_t, uint64_t>> records) {
    return Op{Kind::kWriteBatch, 0, std::move(records)};
  }
  static Op MakeCheckpoint() { return Op{Kind::kCheckpoint, 0, {}}; }
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_TXNLOG_TXN_SPEC_H_
