// Specification of DurableKv: a map from a fixed keyspace to values where
// Put and PutPair are atomic and nothing is lost at a crash.
#ifndef PERENNIAL_SRC_SYSTEMS_KVS_KV_SPEC_H_
#define PERENNIAL_SRC_SYSTEMS_KVS_KV_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/tsys/transition.h"

namespace perennial::systems {

struct KvSpec {
  struct State {
    std::vector<uint64_t> values;
    friend bool operator==(const State&, const State&) = default;
  };
  enum class Kind { kGet, kPut, kPutPair };
  struct Op {
    Kind kind = Kind::kGet;
    uint64_t k1 = 0;
    uint64_t v1 = 0;
    uint64_t k2 = 0;
    uint64_t v2 = 0;
  };
  using Ret = uint64_t;  // gets: the value; puts: 0

  uint64_t num_keys = 1;

  State Initial() const { return State{std::vector<uint64_t>(num_keys, 0)}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    switch (op.kind) {
      case Kind::kGet: {
        if (op.k1 >= num_keys) {
          return tsys::Outcome<State, Ret>::Undef();
        }
        return tsys::Outcome<State, Ret>::One(s, s.values[op.k1]);
      }
      case Kind::kPut: {
        if (op.k1 >= num_keys) {
          return tsys::Outcome<State, Ret>::Undef();
        }
        State next = s;
        next.values[op.k1] = op.v1;
        return tsys::Outcome<State, Ret>::One(std::move(next), 0);
      }
      case Kind::kPutPair: {
        if (op.k1 >= num_keys || op.k2 >= num_keys || op.k1 == op.k2) {
          return tsys::Outcome<State, Ret>::Undef();
        }
        State next = s;
        next.values[op.k1] = op.v1;
        next.values[op.k2] = op.v2;
        return tsys::Outcome<State, Ret>::One(std::move(next), 0);
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
      case Kind::kGet:
        return "Get(" + std::to_string(op.k1) + ")";
      case Kind::kPut:
        return "Put(" + std::to_string(op.k1) + ", " + std::to_string(op.v1) + ")";
      case Kind::kPutPair:
        return "PutPair(" + std::to_string(op.k1) + "=" + std::to_string(op.v1) + ", " +
               std::to_string(op.k2) + "=" + std::to_string(op.v2) + ")";
    }
    return "?";
  }

  static Op MakeGet(uint64_t k) { return Op{Kind::kGet, k, 0, 0, 0}; }
  static Op MakePut(uint64_t k, uint64_t v) { return Op{Kind::kPut, k, v, 0, 0}; }
  static Op MakePutPair(uint64_t k1, uint64_t v1, uint64_t k2, uint64_t v2) {
    return Op{Kind::kPutPair, k1, v1, k2, v2};
  }
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_KVS_KV_SPEC_H_
