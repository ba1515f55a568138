// Specification for group commit (§9.1): a single logical value with
// buffered writes. The crash transition is where this spec differs from
// every other example — it is *allowed* to lose transactions, but only
// un-flushed ones, and only as a suffix (any prefix of the buffer may have
// been committed by a flush racing the crash).
#ifndef PERENNIAL_SRC_SYSTEMS_GC_GC_SPEC_H_
#define PERENNIAL_SRC_SYSTEMS_GC_GC_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/tsys/transition.h"

namespace perennial::systems {

struct GcSpec {
  struct State {
    uint64_t durable = 0;
    std::vector<uint64_t> buffer;
    friend bool operator==(const State&, const State&) = default;
  };
  enum class Kind { kWrite, kRead, kFlush };
  struct Op {
    Kind kind = Kind::kRead;
    uint64_t v = 0;
  };
  using Ret = uint64_t;  // reads: the logical value; writes/flushes: 0

  State Initial() const { return {}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    switch (op.kind) {
      case Kind::kWrite: {
        State next = s;
        next.buffer.push_back(op.v);
        return tsys::Outcome<State, Ret>::One(std::move(next), 0);
      }
      case Kind::kRead: {
        uint64_t value = s.buffer.empty() ? s.durable : s.buffer.back();
        return tsys::Outcome<State, Ret>::One(s, value);
      }
      case Kind::kFlush: {
        State next = s;
        if (!next.buffer.empty()) {
          next.durable = next.buffer.back();
          next.buffer.clear();
        }
        return tsys::Outcome<State, Ret>::One(std::move(next), 0);
      }
    }
    return tsys::Outcome<State, Ret>::None();
  }

  // Crash: any prefix of the buffer may have reached disk; the rest is
  // lost. (k = 0 means nothing extra committed.)
  std::vector<State> CrashSteps(const State& s) const {
    std::vector<State> out;
    for (size_t k = 0; k <= s.buffer.size(); ++k) {
      State next;
      next.durable = k == 0 ? s.durable : s.buffer[k - 1];
      bool duplicate = false;
      for (const State& seen : out) {
        duplicate = duplicate || seen == next;
      }
      if (!duplicate) {
        out.push_back(std::move(next));
      }
    }
    return out;
  }

  static void MixState(Hasher128* h, const State& s) {
    h->MixU64(s.durable);
    h->MixU64(s.buffer.size());
    for (uint64_t v : s.buffer) {
      h->MixU64(v);
    }
  }
  static void MixRet(Hasher128* h, const Ret& r) { h->MixU64(r); }
  static std::string RetKey(const Ret& r) { return std::to_string(r); }
  static std::string OpName(const Op& op) {
    switch (op.kind) {
      case Kind::kWrite:
        return "buffered_write(" + std::to_string(op.v) + ")";
      case Kind::kRead:
        return "read()";
      case Kind::kFlush:
        return "flush()";
    }
    return "?";
  }

  static Op MakeWrite(uint64_t v) { return Op{Kind::kWrite, v}; }
  static Op MakeRead() { return Op{Kind::kRead, 0}; }
  static Op MakeFlush() { return Op{Kind::kFlush, 0}; }
};

}  // namespace perennial::systems

#endif  // PERENNIAL_SRC_SYSTEMS_GC_GC_SPEC_H_
