// Durable-run checkpoints for the refinement checker.
//
// A checkpoint captures everything an interrupted exploration needs to
// continue exactly where it stopped: one entry per work item (a DFS
// subtree's partition prefix, odometer cursor and sleep-set POR
// bookkeeping, or a sample slice's next run, plus the partial Report the
// item has accumulated), plus the verdict-cache contents when history
// dedup is on — the dedup counters are part of the bit-identity contract,
// so the cache a resumed run starts from must equal the one the
// interrupted run held.
// Per-execution state (env budgets, crash counts, thread schedules) is NOT
// serialized: it is a pure function of the decision path and is rebuilt by
// deterministic replay, the same mechanism the DFS uses on every iteration.
//
// The file is written with the paper's §9.1 shadow-copy pattern — the
// checker for crash-safe systems is itself crash-safe: serialize to
// `path.tmp`, fsync, rename over `path`. A crash mid-write leaves either
// the old complete file or the new complete file, never a torn one; a torn
// or tampered file that does slip through (e.g. a crashed first write with
// no predecessor) is caught by the payload checksum and length checks on
// load, and the engines then restart from scratch.
//
// Layout (all integers little-endian):
//   magic 'PCCK' | version u32 | config_fp u64 | payload_len u64
//   | payload_fnv1a64 u64 | payload bytes
// The config fingerprint hashes every option that shapes the decision tree
// (bounds, POR, dedup, mode — not worker counts or durability knobs), so a
// checkpoint can only resume a run exploring the same space; worker count
// and split depth may differ freely, since resumed work items come from the
// file, not from re-enumeration.
#ifndef PERENNIAL_SRC_REFINE_CHECKPOINT_H_
#define PERENNIAL_SRC_REFINE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/status.h"
#include "src/refine/run_state.h"

namespace perennial::refine {

// v2: Violations carry their recorded decision schedule (the replayable
// witness minimize.h shrinks), and PCT/swarm runs reuse CheckpointSubtree
// with prefix = {batch, lo, hi} and next_path = {next_run}.
// v3: Reports carry crash_pruned.
// v4: no engine byte (both engines write the same work list); random mode
// writes sample slices like PCT.
// v5: the exploration config fingerprint no longer mixes a spec-prefix
// memoization bit (the option is gone).
inline constexpr uint32_t kCheckpointVersion = 5;

// One work item's durable state. Both engines use this struct directly as
// their in-memory work list, so checkpointing is a snapshot of the list,
// not a translation. The item's kind follows the run's mode:
//   * exhaustive: a DFS subtree. `prefix` is the partition prefix it owns
//     (empty for the serial whole-tree item), `floor` the odometer level
//     it may not retreat past, `next_path` the decision path of the next
//     execution and `por_levels` the POR bookkeeping valid along it.
//   * random and PCT: a sample slice, prefix = {batch, lo, hi} and
//     next_path = {next run}.
// A pending item's next_path is where it starts (== prefix for a subtree,
// {lo} for a slice).
struct CheckpointSubtree {
  enum class State : uint8_t { kPending = 0, kInProgress = 1, kDone = 2 };

  State state = State::kPending;
  std::vector<size_t> prefix;
  size_t floor = 0;
  std::vector<size_t> next_path;
  std::vector<detail::PorLevel> por_levels;
  // The subtree's Report so far (complete for kDone).
  Report partial;
};

struct CheckpointData {
  uint64_t config_fp = 0;
  RunOutcome outcome = RunOutcome::kComplete;
  std::vector<CheckpointSubtree> subtrees;
  // Verdict-cache contents at save time (dedup_histories runs only).
  std::vector<std::pair<Hash128, std::optional<std::string>>> verdicts;

  bool AllDone() const {
    for (const CheckpointSubtree& s : subtrees) {
      if (s.state != CheckpointSubtree::State::kDone) {
        return false;
      }
    }
    return true;
  }
};

// Serializes `data` and atomically replaces `path` (temp + fsync + rename).
// Any failure leaves the previous file (if any) intact.
Status SaveCheckpoint(const std::string& path, const CheckpointData& data);

// Loads and validates `path`. Rejects short/torn files, bad magic, version
// mismatches, checksum mismatches, trailing garbage, and — when
// expected_config_fp != 0 — checkpoints written by a differently-configured
// run. On any non-ok status `*out` is untouched.
Status LoadCheckpoint(const std::string& path, uint64_t expected_config_fp, CheckpointData* out);

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_CHECKPOINT_H_
