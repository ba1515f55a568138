// Shared specification for the shadow-copy and write-ahead-log examples
// (§9.1): an atomically updated pair of values, durable across crashes.
#ifndef PERENNIAL_SRC_SYSTEMS_PAIR_SPEC_H_
#define PERENNIAL_SRC_SYSTEMS_PAIR_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/tsys/transition.h"

namespace perennial::systems {

struct PairSpec {
  struct State {
    uint64_t a = 0;
    uint64_t b = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  struct Op {
    bool is_write = false;
    uint64_t x = 0;
    uint64_t y = 0;
  };
  using Ret = std::pair<uint64_t, uint64_t>;  // reads: the pair; writes: (0,0)

  State Initial() const { return {}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (op.is_write) {
      return tsys::Outcome<State, Ret>::One(State{op.x, op.y}, Ret{0, 0});
    }
    return tsys::Outcome<State, Ret>::One(s, Ret{s.a, s.b});
  }

  // Updates are atomic even across crashes: nothing is lost, nothing tears.
  std::vector<State> CrashSteps(const State& s) const { return {s}; }

  static void MixState(Hasher128* h, const State& s) {
    h->MixU64(s.a);
    h->MixU64(s.b);
  }
  static void MixRet(Hasher128* h, const Ret& r) {
    h->MixU64(r.first);
    h->MixU64(r.second);
  }
  static std::string RetKey(const Ret& r) {
    return std::to_string(r.first) + "," + std::to_string(r.second);
  }
  static std::string OpName(const Op& op) {
    if (op.is_write) {
      return "write_pair(" + std::to_string(op.x) + ", " + std::to_string(op.y) + ")";
    }
    return "read_pair()";
  }

  static Op MakeRead() { return Op{false, 0, 0}; }
  static Op MakeWrite(uint64_t x, uint64_t y) { return Op{true, x, y}; }
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_PAIR_SPEC_H_
