// Specification of the replicated disk (paper Figure 3): the two physical
// disks behave as a single logical disk mapping addresses to values, reads
// and writes are atomic, and the crash transition loses nothing.
#ifndef PERENNIAL_SRC_SYSTEMS_REPL_REPL_SPEC_H_
#define PERENNIAL_SRC_SYSTEMS_REPL_REPL_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/tsys/transition.h"

namespace perennial::systems {

struct ReplSpec {
  struct State {
    std::vector<uint64_t> blocks;
    friend bool operator==(const State&, const State&) = default;
  };
  struct Op {
    bool is_write = false;
    uint64_t a = 0;
    uint64_t v = 0;
  };
  using Ret = uint64_t;  // rd_read: the value; rd_write: 0

  uint64_t num_blocks = 1;

  State Initial() const { return State{std::vector<uint64_t>(num_blocks, 0)}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (op.a >= s.blocks.size()) {
      // Out-of-bounds access is undefined (Figure 3's `undefined` branch).
      return tsys::Outcome<State, Ret>::Undef();
    }
    if (op.is_write) {
      State next = s;
      next.blocks[op.a] = op.v;
      return tsys::Outcome<State, Ret>::One(std::move(next), 0);
    }
    return tsys::Outcome<State, Ret>::One(s, s.blocks[op.a]);
  }

  // crash : ret tt — no data is lost (Figure 3).
  std::vector<State> CrashSteps(const State& s) const { return {s}; }

  static void MixState(Hasher128* h, const State& s) {
    h->MixU64(s.blocks.size());
    for (uint64_t b : s.blocks) {
      h->MixU64(b);
    }
  }
  static void MixRet(Hasher128* h, const Ret& r) { h->MixU64(r); }
  static std::string RetKey(const Ret& r) { return std::to_string(r); }
  static std::string OpName(const Op& op) {
    if (op.is_write) {
      return "rd_write(" + std::to_string(op.a) + ", " + std::to_string(op.v) + ")";
    }
    return "rd_read(" + std::to_string(op.a) + ")";
  }

  static Op MakeRead(uint64_t a) { return Op{false, a, 0}; }
  static Op MakeWrite(uint64_t a, uint64_t v) { return Op{true, a, v}; }
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_REPL_REPL_SPEC_H_
