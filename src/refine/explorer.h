// The schedule-and-crash-point explorer: the executable stand-in for the
// universal quantification in Perennial's theorems.
//
// Where the paper's Coq proof covers all interleavings and all crash points
// by deduction, the explorer covers them by enumeration: it drives the
// modeled system (coroutine threads over the deterministic scheduler)
// through either every schedule up to configured bounds (exhaustive DFS) or
// a randomized sample, injecting machine crashes between any two atomic
// steps — including during recovery — and environment events such as disk
// failures. Every execution yields a history that is checked for
// concurrent recovery refinement (linearize.h), and registered crash
// invariants (src/cap) are evaluated at every step.
//
// Detected violation classes:
//   * non-linearizable  — no spec interleaving explains the history
//   * crash-invariant   — a registered invariant failed at some step
//   * undefined-behavior— the modeled program raised UbViolation
//   * deadlock          — live threads, none runnable
//   * step-bound        — execution exceeded max_steps_per_run (possible
//                         nontermination, e.g. the §9.5 Pickup loop bug)
//
// Partial-order reduction (use_por): the exhaustive DFS prunes schedules
// with SLEEP SETS over dynamic access footprints (src/proc/footprint.h).
// When sibling scheduling choices at a decision node are pairwise
// independent — disjoint footprints, neither a crash nor an environment
// alternative — exploring one sibling's subtree covers the other orders,
// so later siblings' subtrees put the explored thread "to sleep": its
// alternative is filtered from every descendant decision until some step
// conflicts with the footprint it had at the branch. A node whose every
// alternative is asleep is redundant in full (counted in
// Report::por_pruned, no history emitted). Soundness invariants:
//   * only THREAD alternatives are ever slept — crash points and
//     environment events are the quantification the checker exists to
//     cover, and they are pruned by nothing;
//   * a step with no footprint annotation conflicts with everything
//     (opaque-by-default, so unannotated code costs pruning, not bugs);
//   * invariant-visible effects (disk writes, help-registry updates) share
//     a dedicated resource, so steps crash invariants can observe are
//     never reordered past one another;
//   * history appends share a resource, so the set of DISTINCT histories —
//     and therefore every linearizability verdict — is POR-invariant, and
//     the DFS-leftmost member of each commutation class is never pruned
//     (the first violation found is bit-identical with POR on or off).
// POR engages only in the fully exhaustive regime: preemption bounding
// already prunes unsoundly (it is a bug-finding heuristic), and sleep sets
// assume the sibling subtree was explored in full, so max_preemptions >= 0
// disables POR rather than compound two incomparable reductions.
//
// Work items: every mode explores a list of CheckpointSubtree items
// (checkpoint.h), and RunItem() runs one from its cursor. In exhaustive
// mode an item is a DFS subtree — every execution is fully determined by
// its decision path, and factories are required to be deterministic, so
// the tree is prefix-partitionable. In random and PCT modes an item is a
// slice of runs, each seeded by (seed, batch, run) alone. Run() is the
// serial loop over the list; ParallelExplorer (parallel_explorer.h) hands
// the same items to a worker pool, with DFS items coming from
// EnumerateSubtreePrefixes(). DFS items carry the POR bookkeeping for their
// prefix (the footprints of already-explored sibling alternatives), so
// workers reconstruct exactly the serial engine's sleep sets. Two further
// knobs support that use:
//   * dedup_histories — fingerprint completed histories (src/base/hash.h)
//     and skip the linearizability search for repeats. Sound because the
//     spec check depends only on the history, every execution still runs in
//     full (crash invariants, UB, deadlock, and step bounds are evaluated
//     during execution), and a cached violating verdict is re-reported for
//     every duplicate, so the violation set is unchanged. The cache is a
//     ShardedMemo (memo.h) that ParallelExplorer shares across workers.
//   * progress_callback — periodic cumulative counts for long runs and
//     benches, observed after each execution completes (so dedup counts
//     are post-dedup).
//
// Post-crash continuation cache: once an execution has injected its last
// allowed crash and no env event remains, the rest of it is a function of
// the history and of what survived the crash. Harnesses that fingerprint
// the surviving state (Instance::mix_surviving_state) let the engine run
// each such continuation once: a later execution reaching the same key
// stops at the crash and is credited the cached continuation's steps and
// spec states, so every Report count stays what the full run would give.
// Only forced (single-alternative) continuations that added no violation
// are cached. Soundness argument and exclusions: DESIGN.md §9.
#ifndef PERENNIAL_SRC_REFINE_EXPLORER_H_
#define PERENNIAL_SRC_REFINE_EXPLORER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/panic.h"
#include "src/base/rand.h"
#include "src/cap/crash_invariant.h"
#include "src/goose/world.h"
#include "src/proc/footprint.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/refine/checkpoint.h"
#include "src/refine/history.h"
#include "src/refine/linearize.h"
#include "src/refine/memo.h"
#include "src/refine/run_state.h"

#ifndef PCC_POR_DEFAULT
#define PCC_POR_DEFAULT 1
#endif

namespace perennial::refine {

// An environment event the explorer may fire between steps (e.g. "fail
// disk 1"). `budget` bounds how many times it fires per execution.
struct EnvEvent {
  std::string name;
  int budget = 1;
  std::function<void()> fire;
};

template <typename Spec>
struct Instance;

// Handed to dynamic client programs: runs one spec-level operation against
// the implementation while recording its invocation and response in the
// history. Programs can branch on returned values (e.g. delete the ids a
// pickup returned).
template <typename Spec>
class OpRunner {
 public:
  OpRunner(Instance<Spec>* inst, History<Spec>* history, int client)
      : inst_(inst), history_(history), client_(client) {}

  proc::Task<typename Spec::Ret> Run(typename Spec::Op op) {
    uint64_t id = history_->Invoke(client_, op);
    typename Spec::Ret ret = co_await inst_->run_op(client_, id, std::move(op));
    history_->Return(id, ret);
    co_return ret;
  }

  int client() const { return client_; }

 private:
  Instance<Spec>* inst_;
  History<Spec>* history_;
  int client_;
};

// One freshly constructed system under test. Factories must be
// deterministic: the DFS explorer replays prefixes by reconstruction.
template <typename Spec>
struct Instance {
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;

  // Owns the world/system objects the raw pointers below refer to.
  std::shared_ptr<void> keep_alive;
  goose::World* world = nullptr;
  // Optional: invariants checked at every step (nullptr to skip).
  const cap::CrashInvariants* crash_invariants = nullptr;
  // Per-client operation sequences; client i runs its ops in order.
  std::vector<std::vector<Op>> client_ops;
  // Dynamic client programs (run as additional clients after client_ops
  // threads): each receives an OpRunner and may branch on results.
  std::vector<std::function<proc::Task<void>(OpRunner<Spec>*)>> client_programs;
  // Dynamic observer program run at the end (in addition to observer_ops).
  std::function<proc::Task<void>(OpRunner<Spec>*)> observer_program;
  // Runs one operation. `op_id` identifies the op instance for helping.
  std::function<proc::Task<Ret>(int client, uint64_t op_id, Op op)> run_op;
  // Recovery procedure; run after each crash (null: crashes not explored).
  std::function<proc::Task<void>(History<Spec>*)> recover;
  // Ops probed sequentially at the end of the execution (after recovery if
  // a crash happened); they pin down the surviving durable state.
  std::vector<Op> observer_ops;
  std::vector<EnvEvent> env_events;
  // Optional: mixes everything that survives World::Crash() into a
  // fingerprint: the world's components (World::MixSurvivingState) plus
  // host-level state no component owns (an id generator, armed faults, a
  // durable helping registry). With it set, each forced post-crash
  // continuation runs once per (history, surviving state) and later
  // executions reaching the same key stop at the crash (DESIGN.md §9).
  // Null: every continuation runs in full.
  std::function<void(Hasher128*)> mix_surviving_state;
};

// Cumulative counts handed to ExplorerOptions::progress_callback. All
// fields are post-execution values: histories_checked/deduped reflect the
// dedup decision already taken for the execution just finished.
struct ExplorerProgress {
  uint64_t executions = 0;
  uint64_t total_steps = 0;
  uint64_t violations = 0;
  uint64_t histories_checked = 0;
  uint64_t histories_deduped = 0;
  uint64_t por_pruned = 0;
  uint64_t crash_pruned = 0;
};

struct ExplorerOptions {
  enum class Mode { kExhaustive, kRandom, kPct };
  Mode mode = Mode::kExhaustive;

  int max_crashes = 1;                  // crashes injected per execution
  // CHESS-style preemption bounding: a "preemption" is scheduling away
  // from a thread that could have kept running. -1 = unbounded (full
  // exhaustiveness within the other bounds); small values (0-2) shrink the
  // schedule space drastically while still catching most concurrency bugs.
  int max_preemptions = -1;
  uint64_t max_steps_per_run = 5000;    // nontermination bound
  uint64_t max_executions = 2'000'000;  // DFS safety cap
  int max_violations = 3;               // stop collecting after this many

  // Random and PCT modes sample runs in slices of run indices; run r of
  // batch b draws from a seed derived from (seed, b, r) alone, so reports
  // do not depend on the engine, the worker count or resume splits, and
  // max_violations applies per slice (the merged list is trimmed to it).
  uint64_t random_runs = 1000;      // executions sampled (per swarm batch in PCT mode)
  uint64_t seed = 1;
  double crash_probability = 0.05;  // per-step chance of injecting a crash
  double env_probability = 0.05;    // per-step chance of firing an env event

  // ---- PCT mode (mode == kPct; DESIGN.md §12) ----
  // Priority-based randomized exploration with the PCT bug-finding bound
  // (Burckhardt et al.): every thread gets a random priority, the highest-
  // priority runnable thread always runs, and d-1 priority-change points
  // drawn uniformly over the step budget demote the running thread below
  // every initial priority. A bug of depth d (one needing d specific
  // ordering constraints) is found per run with probability >=
  // 1/(n * k^(d-1)) for n threads and k steps — a guarantee exhaustive DFS
  // under an execution budget cannot make, because DFS covers the decision
  // tree suffix-first and a bug needing an EARLY deviation sits at the far
  // end of its enumeration order. Crash and environment alternatives stay
  // in scope via the same per-step probability draws random mode uses, so
  // crash placement and fault injection are sampled on top of the PCT
  // thread schedule. Like random mode, reports are bit-identical across
  // serial/parallel engines, worker counts, and checkpoint/resume splits
  // (dedup counters excepted — see dedup_histories note below).
  int pct_depth = 3;                 // d: targeted bug depth (d-1 change points)
  uint64_t pct_change_budget = 256;  // k: steps the change points are drawn over

  // Swarm mode (PCT only; random mode always runs one batch): > 0 runs
  // that many independent seed batches of random_runs PCT executions each,
  // merged into one report in batch order. With swarm_vary_depth the
  // batches cycle pct_depth over {d-1, d, d+1} (floored at 2) so one sweep
  // covers several bug depths.
  uint64_t swarm_seeds = 0;
  bool swarm_vary_depth = false;

  // Skip the linearizability search for completed histories whose 128-bit
  // fingerprint was already checked this run (see the header comment for
  // the soundness argument). Counted in Report::histories_deduped. In the
  // sampling modes dedup stays sound (verdicts are pure functions of the
  // history) but the deduped COUNTER is excluded from the bit-identity
  // contract: which run pays for a fingerprint depends on cache sharing
  // across workers and on resume splits.
  bool dedup_histories = false;

  // Sleep-set dynamic partial-order reduction (header comment). Effective
  // only for exhaustive mode with unbounded preemptions; the compile-time
  // default comes from the PCC_POR CMake option.
  bool use_por = PCC_POR_DEFAULT != 0;

  // Memoize spec-search frontiers per history PREFIX (linearize.h), shared
  // across executions (and, under ParallelExplorer, workers). Off by
  // default: it changes Report::spec_states_explored (work skipped via the
  // cache is not re-counted), which several equivalence tests compare.
  bool memoize_spec_prefixes = false;

  // Observability: invoked every progress_interval executions with the
  // counts this Run() has added so far, summed over its work items. Under
  // ParallelExplorer the callback fires on worker threads, one caller at a
  // time (serialized by an internal mutex).
  std::function<void(const ExplorerProgress&)> progress_callback;
  uint64_t progress_interval = 1024;

  // ParallelExplorer only (ignored by the serial Explorer):
  int num_workers = 4;  // OS threads running work items
  // Decision-path depth at which the coordinator splits the tree into work
  // items. Deeper splits yield more, smaller items (better load balance,
  // more probe overhead); #items grows roughly with branching^depth.
  int split_depth = 4;

  // ---- Durable runs (checkpoint.h; DESIGN.md §11) ----
  // All default off: a run with none of these set pays nothing for them.
  // A triggered stop never aborts the process — the engine rolls back the
  // execution in flight, flushes a checkpoint (when checkpoint_path is
  // set), and returns a partial Report tagged with the outcome.

  // Wall-clock budget for the whole run, measured from Run() (or the first
  // RunItem a ParallelExplorer worker executes). 0 = none.
  uint64_t wall_deadline_ms = 0;
  // Budget for ACCOUNTED memory: the linearizer's retained arena plus the
  // memo caches (which also get per-cache byte caps with whole-shard
  // eviction, at max_memory_bytes / 4 each). Deliberately accounting-based
  // rather than RSS so the oom outcome is deterministic and testable; the
  // bench harness reports true peak RSS separately. 0 = none.
  uint64_t max_memory_bytes = 0;
  // Cooperative cancellation (e.g. a SIGINT handler); polled at every
  // decision point. Not owned; may be shared across engines.
  CancelToken* cancel_token = nullptr;
  // Deterministic cancellation once N decisions have been made across the
  // run — the testing hook behind the interrupt/resume bit-identity suite
  // (a SIGINT at a reproducible point). It only fires after the run has
  // COMPLETED at least one execution: a resumed leg replays the decisions
  // of the execution it interrupted, so a threshold inside the first
  // execution would re-trigger at the identical point every leg and never
  // make progress. 0 = off.
  uint64_t cancel_after_decisions = 0;
  // Write a checkpoint here on any durability stop, on completion, and at
  // the checkpoint_every_* cadence. Empty = never write.
  std::string checkpoint_path;
  // Load-and-continue from this checkpoint at Run() start. A missing,
  // torn, corrupt, version-bumped, or configuration-mismatched file is
  // rejected (stderr warning) and the run starts from scratch.
  std::string resume_path;
  // Periodic checkpoint cadence while the run is healthy: every N
  // executions of this run and/or every N seconds (whichever fires first).
  // 0 = only on stop/completion.
  uint64_t checkpoint_every_execs = 0;
  uint64_t checkpoint_every_secs = 0;
  // Distinguishes otherwise identically-configured runs of different
  // systems: mixed into the checkpoint config fingerprint so e.g. a
  // wal-recovery checkpoint cannot resume a repl-2writers sweep.
  std::string run_id;
  // ParallelExplorer: a worker whose heartbeat counter has not moved for
  // this long while it owns a work item is considered stuck — the
  // coordinator's watchdog writes a recovery checkpoint of everything else
  // and requests cancellation. 0 = no watchdog.
  uint64_t stuck_worker_timeout_ms = 0;
};

// Violation, Report, RunOutcome, CancelToken, and the detail:: POR
// bookkeeping types live in run_state.h (shared with the durable-run
// layer); the work-item type CheckpointSubtree lives in checkpoint.h.

namespace detail {

// Supplies one choice index per decision point.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual size_t Choose(const std::vector<Alt>& alts) = 0;
};

// Replays a recorded prefix, then picks alternative 0 and extends the path;
// records the alternative count at every decision for the DFS odometer.
class DfsDriver : public Driver {
 public:
  explicit DfsDriver(std::vector<size_t>* path) : path_(path) {}

  size_t Choose(const std::vector<Alt>& alts) override {
    counts_.push_back(alts.size());
    if (pos_ < path_->size()) {
      return (*path_)[pos_++];
    }
    path_->push_back(0);
    ++pos_;
    return 0;
  }

  const std::vector<size_t>& counts() const { return counts_; }

 private:
  std::vector<size_t>* path_;
  size_t pos_ = 0;
  std::vector<size_t> counts_;
};

class RandomDriver : public Driver {
 public:
  RandomDriver(uint64_t seed, double crash_p, double env_p)
      : rng_(seed), crash_p_(crash_p), env_p_(env_p) {}

  size_t Choose(const std::vector<Alt>& alts) override {
    std::vector<size_t> threads;
    std::vector<size_t> crashes;
    std::vector<size_t> envs;
    for (size_t i = 0; i < alts.size(); ++i) {
      switch (alts[i].kind) {
        case AltKind::kThread:
          threads.push_back(i);
          break;
        case AltKind::kCrash:
          crashes.push_back(i);
          break;
        case AltKind::kEnv:
          envs.push_back(i);
          break;
        case AltKind::kProceed:
          break;  // chosen only when nothing else is picked
      }
    }
    if (!crashes.empty() && rng_.Chance(crash_p_)) {
      // Uniform among crash alternatives (a single draw when there is only
      // one, so the stream stays comparable with older seeds).
      return crashes.size() == 1 ? crashes[0] : crashes[rng_.Below(crashes.size())];
    }
    if (!envs.empty() && rng_.Chance(env_p_)) {
      // Uniform among env alternatives, with the same single-candidate
      // guard as crashes: one candidate costs one draw, so the stream (and
      // therefore seed reproducibility) is unchanged by merely *offering*
      // an env event that is the only one of its kind.
      return envs.size() == 1 ? envs[0] : envs[rng_.Below(envs.size())];
    }
    if (!threads.empty()) {
      return threads[rng_.Below(threads.size())];
    }
    // No thread alternatives — the quiescent point offering
    // [proceed, CRASH, env...]. The declined draws above already said "no
    // crash, no env" for this step, so take the proceed alternative. (The
    // old fallback drew uniformly over the remainder, which made the
    // quiescent crash a coin flip even with crash_probability = 0 — a
    // crash-choice bias that skewed every random-mode sample toward
    // crashing exactly at the quiescent point.)
    for (size_t i = 0; i < alts.size(); ++i) {
      if (alts[i].kind == AltKind::kProceed) {
        return i;
      }
    }
    return alts.size() == 1 ? 0 : rng_.Below(alts.size());
  }

 private:
  Rng rng_;
  double crash_p_;
  double env_p_;
};

// The seed of sampled run `run` of batch `batch` (random and PCT modes): a
// pure function of the top-level seed and the two indices, so ANY
// partition of the run space — serial loop, parallel slices, resume legs —
// reproduces the identical per-run executions.
inline uint64_t SampleRunSeed(uint64_t seed, uint64_t batch, uint64_t run) {
  uint64_t state = seed;
  (void)SplitMix64(state);
  state += (batch + 1) * 0x9E3779B97F4A7C15ull;
  (void)SplitMix64(state);
  state += (run + 1) * 0xBF58476D1CE4E5B9ull;
  return SplitMix64(state);
}

// PCT (Burckhardt et al., ASPLOS 2010): every thread gets a random initial
// priority >= d, the highest-priority runnable thread always runs, and d-1
// priority-change points drawn uniformly over the step budget k demote the
// running thread to d-1-j (below every initial priority). A depth-d bug is
// hit with probability >= 1/(n * k^(d-1)). Crash and environment
// alternatives are sampled with the same per-step probability draws (and
// the same single-candidate guards) as RandomDriver, layered on top of the
// PCT thread schedule. Fully deterministic in the seed: priorities are
// assigned in alternative order and ties break toward the first maximum.
class PctDriver : public Driver {
 public:
  PctDriver(uint64_t seed, int depth, uint64_t change_budget, double crash_p, double env_p)
      : rng_(seed), crash_p_(crash_p), env_p_(env_p) {
    depth_ = depth < 1 ? 1 : depth;
    if (change_budget < 1) {
      change_budget = 1;
    }
    // d-1 change points in [1, k], sorted so the back is the next one due.
    for (int j = 0; j < depth_ - 1; ++j) {
      change_points_.push_back(1 + rng_.Below(change_budget));
    }
    std::sort(change_points_.begin(), change_points_.end(), std::greater<uint64_t>());
  }

  size_t Choose(const std::vector<Alt>& alts) override {
    std::vector<size_t> threads;
    std::vector<size_t> crashes;
    std::vector<size_t> envs;
    for (size_t i = 0; i < alts.size(); ++i) {
      switch (alts[i].kind) {
        case AltKind::kThread:
          threads.push_back(i);
          break;
        case AltKind::kCrash:
          crashes.push_back(i);
          break;
        case AltKind::kEnv:
          envs.push_back(i);
          break;
        case AltKind::kProceed:
          break;
      }
    }
    if (!crashes.empty() && rng_.Chance(crash_p_)) {
      return crashes.size() == 1 ? crashes[0] : crashes[rng_.Below(crashes.size())];
    }
    if (!envs.empty() && rng_.Chance(env_p_)) {
      return envs.size() == 1 ? envs[0] : envs[rng_.Below(envs.size())];
    }
    if (threads.empty()) {
      for (size_t i = 0; i < alts.size(); ++i) {
        if (alts[i].kind == AltKind::kProceed) {
          return i;
        }
      }
      return alts.size() == 1 ? 0 : rng_.Below(alts.size());
    }
    ++steps_;
    // Unseen threads draw their initial priority now, in alternative order
    // (deterministic). Collisions are possible and harmless: ties break
    // toward the first maximum, uniformly shifting probability mass rather
    // than invalidating the bound.
    for (size_t i : threads) {
      const int tid = alts[i].thread;
      if (priority_.find(tid) == priority_.end()) {
        priority_[tid] = static_cast<int64_t>(depth_) + static_cast<int64_t>(rng_.Below(1u << 20));
      }
    }
    auto argmax = [&]() -> size_t {
      size_t best = threads[0];
      int64_t best_p = priority_[alts[best].thread];
      for (size_t k = 1; k < threads.size(); ++k) {
        const int64_t p = priority_[alts[threads[k]].thread];
        if (p > best_p) {
          best_p = p;
          best = threads[k];
        }
      }
      return best;
    };
    size_t pick = argmax();
    // Change points due at this step demote the would-run thread to
    // d-1-j (the j-th firing), then re-resolve; several points landing on
    // one step demote successive maxima.
    while (!change_points_.empty() && steps_ >= change_points_.back()) {
      change_points_.pop_back();
      priority_[alts[pick].thread] = static_cast<int64_t>(depth_ - 1) - fired_;
      ++fired_;
      pick = argmax();
    }
    return pick;
  }

 private:
  Rng rng_;
  double crash_p_;
  double env_p_;
  int depth_ = 1;
  uint64_t steps_ = 0;                   // thread decisions seen so far
  int64_t fired_ = 0;                    // change points already fired
  std::vector<uint64_t> change_points_;  // descending; back() fires next
  std::map<int, int64_t> priority_;      // tid -> current priority
};

// Replays a recorded ScheduleDecision sequence as a list of INTENTS rather
// than indices: at each decision point the remaining intents are scanned in
// order, intents with no matching alternative are dropped, and the first
// match is taken. Index-free matching is what lets the minimizer delete
// decisions from the middle of a schedule and still replay the remainder
// meaningfully. When the intents run out the replay finishes
// deterministically: first thread alternative, else proceed, else
// alternative 0. `consumed()` is the subsequence actually taken;
// replaying consumed(X) reproduces the replay of X decision-for-decision
// (defaults depend only on the execution state, which matching preserves).
class ScheduleReplayDriver : public Driver {
 public:
  explicit ScheduleReplayDriver(std::vector<ScheduleDecision> schedule)
      : schedule_(std::move(schedule)) {}

  size_t Choose(const std::vector<Alt>& alts) override {
    while (pos_ < schedule_.size()) {
      const ScheduleDecision& d = schedule_[pos_];
      for (size_t i = 0; i < alts.size(); ++i) {
        if (Matches(d, alts[i])) {
          ++pos_;
          consumed_.push_back(d);
          return i;
        }
      }
      ++pos_;  // intent impossible here: drop it, try the next
    }
    return DefaultPick(alts);
  }

  const std::vector<ScheduleDecision>& consumed() const { return consumed_; }

 private:
  static bool Matches(const ScheduleDecision& d, const Alt& a) {
    if (d.kind != a.kind) {
      return false;
    }
    if (d.kind == AltKind::kThread) {
      return d.thread == a.thread;
    }
    if (d.kind == AltKind::kEnv) {
      return static_cast<size_t>(d.env) == a.env;
    }
    return true;  // crash / proceed carry no payload
  }

  static size_t DefaultPick(const std::vector<Alt>& alts) {
    for (size_t i = 0; i < alts.size(); ++i) {
      if (alts[i].kind == AltKind::kThread) {
        return i;
      }
    }
    for (size_t i = 0; i < alts.size(); ++i) {
      if (alts[i].kind == AltKind::kProceed) {
        return i;
      }
    }
    return 0;
  }

  std::vector<ScheduleDecision> schedule_;
  size_t pos_ = 0;
  std::vector<ScheduleDecision> consumed_;
};

// What a forced post-crash continuation added to its execution, keyed by
// the (history, surviving state, budgets) fingerprint taken right after the
// crash. A fixed-size, direct-mapped table: a colliding insert replaces the
// older entry, which only turns a later hit into a miss. One per engine,
// never shared, so it needs no locks; the slots are allocated at the first
// insert, so engines that never prune (probes) pay nothing.
class ContinuationCache {
 public:
  static constexpr size_t kSlots = 1024;

  struct Entry {
    uint32_t steps = 0;        // decisions after the crash (>= 1: recovery runs)
    uint32_t spec_states = 0;  // spec states the history's check added
  };

  bool Lookup(const Hash128& key, Entry* out) const {
    if (slots_ == nullptr) {
      return false;
    }
    const Slot& slot = slots_[key.lo & (kSlots - 1)];
    if (slot.entry.steps == 0 || !(slot.key == key)) {
      return false;
    }
    *out = slot.entry;
    return true;
  }

  // Counts too large for an entry are not cached (a miss is always sound).
  void Insert(const Hash128& key, uint64_t steps, uint64_t spec_states) {
    if (steps == 0 || steps > UINT32_MAX || spec_states > UINT32_MAX) {
      return;
    }
    if (slots_ == nullptr) {
      slots_ = std::make_unique<Slot[]>(kSlots);
    }
    slots_[key.lo & (kSlots - 1)] =
        Slot{key, Entry{static_cast<uint32_t>(steps), static_cast<uint32_t>(spec_states)}};
  }

  // The table's size once allocated; it never grows.
  static constexpr size_t kBytes = kSlots * (sizeof(Hash128) + sizeof(Entry));

 private:
  struct Slot {
    Hash128 key;
    Entry entry;  // entry.steps == 0 marks an empty slot
  };
  static_assert(sizeof(Slot) == sizeof(Hash128) + sizeof(Entry));

  std::unique_ptr<Slot[]> slots_;
};

}  // namespace detail

// Fingerprint of every option that shapes the decision tree a run
// explores. Stamped into checkpoints so a resume can only continue a run
// over the same space. Durability knobs (deadline, memory budget,
// checkpoint cadence) and parallelism knobs (num_workers, split_depth) are
// deliberately EXCLUDED: interrupting a run because of a deadline and
// resuming it without one — possibly on a different worker count — is the
// whole point, and resumed work items come from the checkpoint, not from
// re-enumeration.
inline uint64_t ExplorationConfigFp(const ExplorerOptions& options) {
  auto double_bits = [](double d) {
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  Hasher128 f;
  f.MixString("pcc-exploration-config-v5");
  f.MixString(options.run_id);
  f.MixU64(static_cast<uint64_t>(options.mode));
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.max_crashes)));
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.max_preemptions)));
  f.MixU64(options.max_steps_per_run);
  f.MixU64(options.max_executions);
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.max_violations)));
  f.MixU64(options.random_runs);
  f.MixU64(options.seed);
  f.MixU64(double_bits(options.crash_probability));
  f.MixU64(double_bits(options.env_probability));
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.pct_depth)));
  f.MixU64(options.pct_change_budget);
  f.MixU64(options.swarm_seeds);
  f.MixU64(options.swarm_vary_depth ? 1 : 0);
  f.MixU64(options.dedup_histories ? 1 : 0);
  f.MixU64(options.use_por ? 1 : 0);
  f.MixU64(options.memoize_spec_prefixes ? 1 : 0);
  return f.digest().lo;
}

// Run-wide counts for progress_callback, summed over work items. The hook
// an item runner calls after every completed execution hands over the
// item's partial Report and a snapshot of what was already counted for the
// item (its restored partial, at the item's start), so a resumed item adds
// only the work of this run. Thread-safe: ParallelExplorer workers share
// one tally.
class ProgressTally {
 public:
  static ExplorerProgress CountsOf(const Report& r) {
    return ExplorerProgress{r.executions,        r.total_steps,
                            static_cast<uint64_t>(r.violations.size()),
                            r.histories_checked, r.histories_deduped,
                            r.por_pruned,        r.crash_pruned};
  }

  // Counts one completed execution, fires the callback every
  // progress_interval run-wide executions, and returns the run-wide
  // execution count.
  uint64_t Add(const Report& partial, ExplorerProgress* seen, const ExplorerOptions& options) {
    const ExplorerProgress now = CountsOf(partial);
    auto add = [](std::atomic<uint64_t>& total, uint64_t grown) {
      total.fetch_add(grown, std::memory_order_relaxed);
    };
    add(steps_, now.total_steps - seen->total_steps);
    add(violations_, now.violations - seen->violations);
    add(checked_, now.histories_checked - seen->histories_checked);
    add(deduped_, now.histories_deduped - seen->histories_deduped);
    add(por_pruned_, now.por_pruned - seen->por_pruned);
    add(crash_pruned_, now.crash_pruned - seen->crash_pruned);
    *seen = now;
    const uint64_t executions = executions_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options.progress_callback != nullptr && options.progress_interval > 0 &&
        executions % options.progress_interval == 0) {
      auto load = [](const std::atomic<uint64_t>& total) {
        return total.load(std::memory_order_relaxed);
      };
      std::scoped_lock lock(mu_);
      options.progress_callback(ExplorerProgress{executions, load(steps_), load(violations_),
                                                 load(checked_), load(deduped_),
                                                 load(por_pruned_), load(crash_pruned_)});
    }
    return executions;
  }

  uint64_t executions() const { return executions_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> executions_{0};
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> violations_{0};
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> deduped_{0};
  std::atomic<uint64_t> por_pruned_{0};
  std::atomic<uint64_t> crash_pruned_{0};
  std::mutex mu_;  // one callback at a time
};

// Restores a work list, and the verdict cache, from options.resume_path.
// Any rejection (missing, torn, corrupt, version bump, config mismatch)
// warns on stderr and returns false: the caller starts from scratch, which
// is always sound. Both engines keep the same list, so either resumes the
// other's file, at any worker count.
inline bool ResumeWorkList(const ExplorerOptions& options, VerdictCache* verdicts,
                           std::vector<CheckpointSubtree>* items) {
  if (options.resume_path.empty()) {
    return false;
  }
  CheckpointData data;
  Status st = LoadCheckpoint(options.resume_path, ExplorationConfigFp(options), &data);
  if (!st.ok()) {
    std::fprintf(stderr, "[explorer] resume rejected, starting fresh: %s\n",
                 st.ToString().c_str());
    return false;
  }
  *items = std::move(data.subtrees);
  for (CheckpointSubtree& item : *items) {
    // The interruption is healed by resuming: the final report's
    // truncated/outcome reflect THIS run, not the interrupted one.
    item.partial.truncated = false;
    item.partial.outcome = RunOutcome::kComplete;
  }
  for (const auto& [fp, verdict] : data.verdicts) {
    verdicts->Insert(fp, verdict, VerdictEntryBytes(verdict));
  }
  return true;
}

// Writes `items` (under `items_mu` when workers may still be committing)
// and, with dedup_histories, the verdict cache to options.checkpoint_path.
// No path: nothing to do. A failed write warns and leaves the old file.
inline void SaveWorkList(const ExplorerOptions& options, RunOutcome outcome,
                         const std::vector<CheckpointSubtree>& items, const VerdictCache& verdicts,
                         std::mutex* items_mu = nullptr) {
  if (options.checkpoint_path.empty()) {
    return;
  }
  CheckpointData data;
  data.config_fp = ExplorationConfigFp(options);
  data.outcome = outcome;
  if (items_mu != nullptr) {
    std::scoped_lock lock(*items_mu);
    data.subtrees = items;
  } else {
    data.subtrees = items;
  }
  if (options.dedup_histories) {
    verdicts.ForEach([&](const Hash128& fp, const std::optional<std::string>& verdict) {
      data.verdicts.emplace_back(fp, verdict);
    });
  }
  Status st = SaveCheckpoint(options.checkpoint_path, data);
  if (!st.ok()) {
    std::fprintf(stderr, "[explorer] checkpoint write failed: %s\n", st.ToString().c_str());
  }
}

// Merges the items' partial Reports in list order — the order that makes
// serial, parallel and resumed reports identical — and trims the
// violations to the global cap (each item kept at most max_violations).
inline Report MergeWorkList(const std::vector<CheckpointSubtree>& items, int max_violations) {
  Report merged;
  for (const CheckpointSubtree& item : items) {
    MergeReport(&merged, item.partial);
  }
  if (merged.violations.size() > static_cast<size_t>(max_violations)) {
    merged.violations.resize(static_cast<size_t>(max_violations));
  }
  return merged;
}

template <typename Spec>
class Explorer {
 public:
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;
  using Factory = std::function<Instance<Spec>()>;
  using FrontierCache = typename LinearizabilityChecker<Spec>::FrontierCache;

  Explorer(Spec spec, Factory factory, ExplorerOptions options)
      : spec_(std::move(spec)), factory_(std::move(factory)), options_(options) {}

  // Cache injection for ParallelExplorer (must outlive the Explorer; may be
  // shared across threads). By default each Explorer owns private caches.
  void set_verdict_cache(VerdictCache* cache) { verdict_cache_ = cache; }
  void set_frontier_cache(FrontierCache* cache) { frontier_cache_ = cache; }

  // Negative control for the continuation-cache soundness suite: also
  // cache continuations that added a violation. Unsound on purpose — a
  // later hit then drops the violation the skipped continuation reports —
  // so the suite can show that it notices.
  void AdmitViolatingContinuationsForTesting() { admit_violating_continuations_ = true; }

  // Explores the work list of options_.mode — one whole-tree DFS item, or
  // the slices of BuildSampleItems() — item by item, resumed from
  // options_.resume_path when that file is valid. A durability stop
  // drains: the item in flight keeps its exact cursor and later items stay
  // pending, in the returned partial Report and in the checkpoint.
  Report Run() {
    EnsureDurabilityInit();
    std::vector<CheckpointSubtree> items;
    const bool resumed = ResumeWorkList(options_, verdict_cache_, &items);
    if (!resumed) {
      items = options_.mode == ExplorerOptions::Mode::kExhaustive
                  ? std::vector<CheckpointSubtree>(1)  // the whole tree, floor 0
                  : BuildSampleItems();
    }
    ProgressTally tally;
    periodic_items_ = &items;
    for (CheckpointSubtree& item : items) {
      if (item.state == CheckpointSubtree::State::kDone) {
        continue;
      }
      ExplorerProgress seen = ProgressTally::CountsOf(item.partial);
      RunItem(&item, [&](const Report& partial) {
        tally.Add(partial, &seen, options_);
        return true;
      });
      if (stop_cause_ != RunOutcome::kComplete) {
        break;
      }
    }
    periodic_items_ = nullptr;
    // Written on completion too: resuming a finished checkpoint returns
    // the full report without re-running anything.
    SaveWorkList(options_, stop_cause_, items, *verdict_cache_);
    Report report = MergeWorkList(items, options_.max_violations);
    report.resumed = resumed;
    report.outcome = stop_cause_;
    return report;
  }

  // Re-executes one run driving decisions from a recorded schedule
  // (intent-based, skip-unmatched — see detail::ScheduleReplayDriver).
  // Returns the single-execution Report; a recorded violation witness
  // replayed here reproduces its violation. `consumed`, if non-null,
  // receives the intents actually taken: ReplaySchedule(consumed(X))
  // reproduces ReplaySchedule(X) exactly, the canonicalization the
  // minimizer's termination argument rests on.
  Report ReplaySchedule(const std::vector<ScheduleDecision>& schedule,
                        std::vector<ScheduleDecision>* consumed = nullptr) {
    EnsureDurabilityInit();
    Report report;
    detail::ScheduleReplayDriver driver(schedule);
    RunOnce(driver, &report, nullptr, /*common_decisions=*/0, /*may_prune_crash=*/false);
    if (consumed != nullptr) {
      *consumed = driver.consumed();
    }
    report.outcome = stop_cause_;
    return report;
  }

  // Runs per sample slice: the parallel engine's load-balance unit and the
  // resume granularity cap.
  static constexpr uint64_t kSliceRuns = 64;

  // The sampling modes' work list: slices {batch, lo, hi} of run indices,
  // encoded in CheckpointSubtree::prefix, each starting at next_path =
  // {lo}. PCT swarm mode has swarm_seeds batches; random mode and plain
  // PCT have one. Both engines build the IDENTICAL list, so their
  // checkpoints interconvert and the merged report is independent of who
  // ran which slice.
  std::vector<CheckpointSubtree> BuildSampleItems() const {
    std::vector<CheckpointSubtree> items;
    const bool swarm = options_.mode == ExplorerOptions::Mode::kPct && options_.swarm_seeds > 0;
    const uint64_t batches = swarm ? options_.swarm_seeds : 1;
    for (uint64_t b = 0; b < batches; ++b) {
      for (uint64_t lo = 0; lo < options_.random_runs; lo += kSliceRuns) {
        const uint64_t hi = std::min(options_.random_runs, lo + kSliceRuns);
        CheckpointSubtree item;
        item.prefix = {static_cast<size_t>(b), static_cast<size_t>(lo),
                       static_cast<size_t>(hi)};
        item.next_path = {static_cast<size_t>(lo)};
        items.push_back(std::move(item));
      }
    }
    return items;
  }

  // Runs one work item from its cursor, accumulating onto item->partial:
  // a DFS subtree in exhaustive mode, a sample slice otherwise. Leaves the
  // cursor in the item: kDone once it is finished (max_violations ends an
  // item the way an uninterrupted run would), else kInProgress with
  // next_path — and, for DFS, por_levels — naming the exact next
  // execution, so running the item again continues as if it had never
  // stopped. `after_execution`, if set, sees item->partial after every
  // completed execution; returning false stops the item there. A
  // durability stop does the same; an execution it catches mid-run is
  // rolled back (RunOnce) and stays the next one.
  void RunItem(CheckpointSubtree* item,
               const std::function<bool(const Report&)>& after_execution = nullptr) {
    EnsureDurabilityInit();
    const bool finished = options_.mode == ExplorerOptions::Mode::kExhaustive
                              ? RunSubtree(item, after_execution)
                              : RunSlice(item, after_execution);
    if (finished) {
      item->state = CheckpointSubtree::State::kDone;
      item->next_path.clear();
      item->por_levels.clear();
    } else {
      item->state = CheckpointSubtree::State::kInProgress;
      item->partial.truncated = true;
    }
  }

  // The durability stop cause so far (kComplete while none). Sticky: once a
  // stop triggers, every later RunItem call on this engine drains
  // immediately — which is exactly what ParallelExplorer's cancel drain
  // relies on.
  RunOutcome stop_cause() const { return stop_cause_; }

  // Accounted retained memory: the linearizer arena plus the (possibly
  // shared) memo caches. The max_memory_bytes comparison base.
  size_t approx_memory_bytes() const {
    return checker_.approx_retained_bytes() + verdict_cache_->bytes() + frontier_cache_->bytes();
  }

  // Coordinator side of the parallel split: enumerates every reachable
  // decision-path prefix of length min(split_depth, run length) in DFS
  // order, as pending DFS items (floor = next_path = prefix) carrying the
  // POR bookkeeping a worker needs to reconstruct the serial sleep sets.
  // The prefixes partition the execution space — each decision path
  // extends exactly one of them — so per-item reports can be merged into
  // the serial result. Each probe run is structure discovery only (its
  // stats are discarded; the worker that owns the subtree re-runs it for
  // real). Sets *truncated if max_executions probes did not suffice to
  // finish the enumeration.
  std::vector<CheckpointSubtree> EnumerateSubtreePrefixes(int split_depth, bool* truncated) {
    PCC_ENSURE(split_depth >= 0, "split_depth must be non-negative");
    std::vector<CheckpointSubtree> items;
    Report scratch;
    std::vector<size_t> path;
    std::vector<detail::PorLevel> por;
    std::vector<detail::PorLevel>* por_ptr = PorActive() ? &por : nullptr;
    EnsureDurabilityInit();
    while (true) {
      detail::DfsDriver driver(&path);
      // Probe runs never claim a shared prefix: structure discovery only.
      // A durability stop during enumeration abandons it; the caller
      // checks stop_cause() and falls back to a single whole-tree item.
      // They never stop at a crash either: a stopped probe would end its
      // decision path early and shorten the prefix it reports.
      if (StopAtBoundary() ||
          !RunOnce(driver, &scratch, por_ptr, /*common_decisions=*/0, /*may_prune_crash=*/false)) {
        break;
      }
      const std::vector<size_t>& counts = driver.counts();
      PCC_ENSURE(path.size() >= counts.size(), "DFS: path shorter than counts");
      path.resize(counts.size());
      const size_t plen = std::min(static_cast<size_t>(split_depth), path.size());
      CheckpointSubtree item;
      item.prefix.assign(path.begin(), path.begin() + plen);
      item.floor = plen;
      item.next_path = item.prefix;
      if (por_ptr != nullptr) {
        // Ship, per prefix level, the alternatives explored before the one
        // the prefix takes — the sleep-set candidates a worker cannot
        // recompute (they belong to sibling subtrees).
        item.por_levels.resize(plen);
        for (size_t l = 0; l < plen; ++l) {
          const std::vector<detail::TriedAlt>& tried = por[l].tried;
          const size_t keep = std::min(item.prefix[l], tried.size());
          item.por_levels[l].tried.assign(tried.begin(), tried.begin() + keep);
        }
      }
      items.push_back(std::move(item));
      if (scratch.executions >= options_.max_executions) {
        *truncated = true;
        break;
      }
      // Advance the odometer over the first split_depth levels only: one
      // work item per distinct reachable prefix.
      path.resize(plen);
      bool advanced = false;
      while (!path.empty()) {
        if (path.back() + 1 < counts[path.size() - 1]) {
          ++path.back();
          advanced = true;
          break;
        }
        path.pop_back();
      }
      if (!advanced) {
        break;
      }
      if (por.size() > path.size()) {
        por.resize(path.size());
      }
    }
    return items;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Exhaustive DFS over decision sequences, replaying from scratch: every
  // path extending item->next_path, advanced by the odometer, never
  // retreating past item->floor (0 for the whole tree; the partition
  // prefix's length for an enumerated item, whose other levels belong to
  // sibling subtrees). next_path and por_levels advance in place. Returns
  // whether the subtree is finished.
  bool RunSubtree(CheckpointSubtree* item,
                  const std::function<bool(const Report&)>& after_execution) {
    Report* report = &item->partial;
    std::vector<size_t>& path = item->next_path;
    std::vector<detail::PorLevel>* por = PorActive() ? &item->por_levels : nullptr;
    // Decisions this run provably shares with the previous run of THIS
    // explorer: after the odometer bumps the decision at level a, levels
    // 0..a-1 replay identically, so the histories agree on every event the
    // previous run recorded before decision a (frontier-spine reuse). The
    // first run shares nothing — even its work prefix replays decisions
    // some OTHER explorer took.
    size_t common_decisions = 0;
    while (true) {
      // Boundary poll: a stop already requested (or a deadline/memory
      // trigger the amortized decision-point poll has not reached yet)
      // ends the walk BETWEEN executions, with `path` untouched — the
      // cursor names the execution that never started.
      if (StopAtBoundary()) {
        return false;
      }
      detail::DfsDriver driver(&path);
      if (!RunOnce(driver, report, por, common_decisions, /*may_prune_crash=*/true)) {
        // Durability stop mid-execution: RunOnce rolled its counters back,
        // and `path` still holds the aborted execution's decisions (the
        // prefix it replayed plus what it chose before the stop) — replay
        // is deterministic, so resuming from this exact path re-runs the
        // execution as if it had never been attempted.
        return false;
      }
      ++execs_completed_;
      const bool keep = after_execution == nullptr || after_execution(*report);
      if (report->violations.size() >= static_cast<size_t>(options_.max_violations)) {
        return true;
      }
      const bool hit_max_executions = report->executions >= options_.max_executions;
      // Odometer: advance the deepest decision that still has untried
      // alternatives; drop everything below it. A run that aborted early
      // (violation, POR prune) consumed fewer decisions than the stale path
      // holds, so first trim the path to what was actually replayed.
      const std::vector<size_t>& counts = driver.counts();
      PCC_ENSURE(path.size() >= counts.size(), "DFS: path shorter than counts");
      path.resize(counts.size());
      bool advanced = false;
      while (path.size() > item->floor) {
        if (path.back() + 1 < counts[path.size() - 1]) {
          ++path.back();
          advanced = true;
          break;
        }
        path.pop_back();
      }
      // POR bookkeeping below the advanced position is stale (it described
      // subtrees of the previous sibling); the level being advanced keeps
      // its explored-sibling list, which is exactly what the new sibling's
      // sleep sets need.
      if (por != nullptr && por->size() > path.size()) {
        por->resize(path.size());
      }
      // Budget stops: the cursor names the NEXT execution, so they are
      // resumable whenever the subtree still has work (`advanced`).
      if (hit_max_executions || !keep) {
        report->truncated = true;
        return !advanced;
      }
      if (!advanced) {
        return true;  // full bounded subtree explored
      }
      common_decisions = path.size() - 1;  // everything before the bumped level
      MaybePeriodicCheckpoint(item);
    }
  }

  // Runs the sample slice {batch, lo, hi} from run next_path[0] (advanced
  // in place). Run r gets a fresh driver seeded by SampleRunSeed(seed,
  // batch, r) alone, so any split of the runs samples the same executions.
  // Returns whether the slice is finished.
  bool RunSlice(CheckpointSubtree* item,
                const std::function<bool(const Report&)>& after_execution) {
    PCC_ENSURE(item->prefix.size() == 3 && item->next_path.size() == 1, "malformed sample slice");
    const uint64_t batch = item->prefix[0];
    const int depth = PctBatchDepth(batch);
    size_t& run = item->next_path[0];
    while (run < item->prefix[2]) {
      if (StopAtBoundary()) {
        return false;
      }
      const uint64_t seed = detail::SampleRunSeed(options_.seed, batch, run);
      bool completed = false;
      if (options_.mode == ExplorerOptions::Mode::kPct) {
        detail::PctDriver driver(seed, depth, options_.pct_change_budget,
                                 options_.crash_probability, options_.env_probability);
        completed = RunOnce(driver, &item->partial, nullptr, 0, /*may_prune_crash=*/true);
      } else {
        detail::RandomDriver driver(seed, options_.crash_probability, options_.env_probability);
        completed = RunOnce(driver, &item->partial, nullptr, 0, /*may_prune_crash=*/true);
      }
      if (!completed) {
        return false;
      }
      ++execs_completed_;
      ++run;
      const bool keep = after_execution == nullptr || after_execution(item->partial);
      if (item->partial.violations.size() >= static_cast<size_t>(options_.max_violations)) {
        return true;
      }
      if (!keep) {
        return false;
      }
      MaybePeriodicCheckpoint(item);
    }
    return true;
  }

  // The PCT depth batch `batch` runs at: pct_depth, or — under
  // swarm_vary_depth — cycling {d-1, d, d+1} (floored at 2) so one swarm
  // sweep covers several bug depths.
  int PctBatchDepth(uint64_t batch) const {
    int d = options_.pct_depth < 1 ? 1 : options_.pct_depth;
    if (!options_.swarm_vary_depth) {
      return d;
    }
    d += static_cast<int>(batch % 3) - 1;
    return d < 2 ? 2 : d;
  }

  // POR is sound only when sibling subtrees are explored in full: random
  // mode replays nothing, and preemption bounding (itself an unsound
  // reduction) can exclude exactly the sibling order a sleep set relies
  // on. Both therefore run unreduced.
  bool PorActive() const {
    return options_.use_por && options_.mode == ExplorerOptions::Mode::kExhaustive &&
           options_.max_preemptions < 0;
  }

  // Whether executions may stop at their last crash on a continuation-
  // cache hit (DESIGN.md §9). Every mode gives each execution its own
  // driver, so draws a stopped execution skips shift no later run. Prefix
  // memoization makes a history's spec-state count depend on the cache, so
  // a cached count would not match a re-run. Under a memory budget the
  // verdict cache may evict the history a hit would have deduplicated
  // against.
  bool CrashPruneActive() const {
    return !options_.memoize_spec_prefixes &&
           !(options_.dedup_histories && options_.max_memory_bytes > 0);
  }

  // Renders a decision sequence as the human-readable trace of a
  // Violation: "t<tid>", "CRASH", "observe", or the env event's name.
  static std::string RenderTrace(const std::vector<ScheduleDecision>& schedule,
                                 const std::vector<EnvEvent>& env_events) {
    if (schedule.empty()) {
      return "(empty)";
    }
    std::string trace;
    for (const ScheduleDecision& d : schedule) {
      if (!trace.empty()) {
        trace += ' ';
      }
      trace += d.kind == detail::AltKind::kEnv ? env_events[d.env].name
                                               : ScheduleDecisionLabel(d);
    }
    return trace;
  }

  // ---- Durable-run machinery ----

  // Lazily arms the durability checks: Run() is not the only entry point
  // (ParallelExplorer workers call RunItem directly), and the
  // deadline is measured from whichever entry came first. When nothing
  // durability-related is configured, durability_active_ stays false and
  // the per-decision poll is a single branch on a plain bool.
  void EnsureDurabilityInit() {
    if (durability_init_) {
      return;
    }
    durability_init_ = true;
    durability_active_ = options_.wall_deadline_ms > 0 || options_.max_memory_bytes > 0 ||
                         options_.cancel_token != nullptr || options_.cancel_after_decisions > 0;
    if (options_.wall_deadline_ms > 0) {
      deadline_ = Clock::now() + std::chrono::milliseconds(options_.wall_deadline_ms);
    }
    if (options_.max_memory_bytes > 0) {
      // Each memo cache gets a quarter of the budget with whole-shard
      // eviction (memo.h); the linearizer arena takes what remains. The
      // caps keep steady-state usage under the budget; the oom stop is the
      // backstop when the arena alone exceeds it.
      verdict_cache_->set_max_bytes(options_.max_memory_bytes / 4);
      frontier_cache_->set_max_bytes(options_.max_memory_bytes / 4);
    }
  }

  // The per-decision poll. Token and decision-count checks are O(1) every
  // call; the clock and memory walks are amortized (every 256 decisions) —
  // StopAtBoundary() forces them between executions, so coarse-grained
  // stops are never missed, only decision-granular ones delayed.
  bool StopRequested() {
    if (stop_cause_ != RunOutcome::kComplete) {
      return true;
    }
    if (options_.cancel_token != nullptr && options_.cancel_token->canceled()) {
      stop_cause_ = RunOutcome::kCanceled;
      return true;
    }
    if (options_.cancel_after_decisions > 0 &&
        decisions_total_ >= options_.cancel_after_decisions && execs_completed_ > 0) {
      stop_cause_ = RunOutcome::kCanceled;
      return true;
    }
    if ((++poll_gate_ & 0xFF) == 0) {
      return CheckDeadlineAndMemory();
    }
    return false;
  }

  bool CheckDeadlineAndMemory() {
    if (options_.wall_deadline_ms > 0 && Clock::now() >= deadline_) {
      stop_cause_ = RunOutcome::kDeadline;
      return true;
    }
    if (options_.max_memory_bytes > 0 && approx_memory_bytes() > options_.max_memory_bytes) {
      stop_cause_ = RunOutcome::kOom;
      return true;
    }
    return false;
  }

  // Execution-boundary poll: unamortized, so deadline and memory budget
  // are enforced at least once per execution even when the decision-point
  // gate never fires.
  bool StopAtBoundary() {
    if (!durability_active_) {
      return false;
    }
    if (stop_cause_ != RunOutcome::kComplete) {
      return true;
    }
    if (options_.cancel_token != nullptr && options_.cancel_token->canceled()) {
      stop_cause_ = RunOutcome::kCanceled;
      return true;
    }
    return CheckDeadlineAndMemory();
  }

  // Periodic-cadence gate, called by the item runners after every
  // completed execution with the item's cursor already advanced. Only
  // Run() arms it (periodic_items_); the parallel coordinator writes its
  // own periodic checkpoints.
  void MaybePeriodicCheckpoint(CheckpointSubtree* item) {
    if (periodic_items_ == nullptr || options_.checkpoint_path.empty()) {
      return;
    }
    const bool due =
        (options_.checkpoint_every_execs > 0 &&
         execs_completed_ >= last_checkpoint_execs_ + options_.checkpoint_every_execs) ||
        (options_.checkpoint_every_secs > 0 &&
         Clock::now() >= last_checkpoint_time_ + std::chrono::seconds(options_.checkpoint_every_secs));
    if (!due) {
      return;
    }
    last_checkpoint_execs_ = execs_completed_;
    last_checkpoint_time_ = Clock::now();
    item->state = CheckpointSubtree::State::kInProgress;
    SaveWorkList(options_, stop_cause_, *periodic_items_, *verdict_cache_);
  }

  proc::Task<void> ClientThread(int client, const std::vector<Op>* ops, Instance<Spec>* inst,
                                History<Spec>* history) {
    for (const Op& op : *ops) {
      uint64_t id = history->Invoke(client, op);
      Ret ret = co_await inst->run_op(client, id, op);
      history->Return(id, ret);
    }
  }

  proc::Task<void> RecoveryThread(Instance<Spec>* inst, History<Spec>* history) {
    co_await inst->recover(history);
  }

  proc::Task<void> ProgramThread(std::function<proc::Task<void>(OpRunner<Spec>*)> program,
                                 Instance<Spec>* inst, History<Spec>* history, int client) {
    OpRunner<Spec> runner(inst, history, client);
    co_await program(&runner);
  }

  // The final observation phase: fixed ops first, then the dynamic
  // observer program, all sequentially on one thread.
  proc::Task<void> ObserverThread(Instance<Spec>* inst, History<Spec>* history, int client) {
    OpRunner<Spec> runner(inst, history, client);
    for (const Op& op : inst->observer_ops) {
      (void)co_await runner.Run(op);
    }
    if (inst->observer_program != nullptr) {
      co_await inst->observer_program(&runner);
    }
  }

  // Sleep-set transition for one taken alternative: entries whose pending
  // step conflicts with what just ran wake up (their step may now differ);
  // fully explored earlier siblings that commute with the taken step go to
  // sleep in its subtree. Only thread alternatives ever sleep.
  static void AdvanceSleepSet(std::vector<detail::SleepEntry>* sleep,
                              const detail::PorLevel& level, size_t pick,
                              const detail::Alt& alt, const proc::Footprint& taken_fp) {
    if (alt.kind == detail::AltKind::kCrash || alt.kind == detail::AltKind::kProceed) {
      // A crash kills every thread (tids are even reused by recovery), and
      // the quiescent proceed point has no runnable threads: no sleeping
      // entry can remain meaningful.
      sleep->clear();
      return;
    }
    std::vector<detail::SleepEntry> next;
    next.reserve(sleep->size() + pick);
    for (const detail::SleepEntry& e : *sleep) {
      if (!proc::FootprintsConflict(e.footprint, taken_fp)) {
        next.push_back(e);
      }
    }
    for (size_t j = 0; j < pick && j < level.tried.size(); ++j) {
      const detail::TriedAlt& t = level.tried[j];
      if (t.kind != detail::AltKind::kThread) {
        continue;
      }
      if (!proc::FootprintsConflict(t.footprint, taken_fp)) {
        next.push_back(detail::SleepEntry{t.thread, t.footprint});
      }
    }
    *sleep = std::move(next);
  }

  // `por` non-null activates sleep-set pruning for this run (exhaustive
  // replays only; RandomDriver passes nullptr). `common_decisions` is the
  // caller's guarantee that this run's first decisions replay the previous
  // run's — the basis for resuming the linearizability search mid-history
  // (frontier-spine reuse) and for skipping footprint re-collection on
  // pure-replay steps. `may_prune_crash` lets the execution stop at its
  // last crash on a continuation-cache hit (CrashPruneActive() must hold
  // too).
  //
  // Returns false when a durability stop (cancel/deadline/oom) abandoned
  // the execution mid-run. Every Report counter it had touched is rolled
  // back to its entry value, so an aborted execution is indistinguishable
  // from one that never started — the caller re-runs the same decision
  // path on resume and deterministic replay reproduces it exactly.
  bool RunOnce(detail::Driver& driver, Report* report, std::vector<detail::PorLevel>* por,
               size_t common_decisions, bool may_prune_crash) {
    const uint64_t entry_executions = report->executions;
    const uint64_t entry_crashes = report->crashes_injected;
    const uint64_t entry_env = report->env_events_fired;
    const size_t entry_violations = report->violations.size();
    ++report->executions;
    // Events shared with the previous run: everything recorded before the
    // first differing decision. Chained through spine_valid_events_ so the
    // guarantee holds against the checker's retained spine even across
    // intermediate runs that never reached the checker (POR prunes, early
    // violations, dedup hits).
    size_t common_events = 0;
    if (common_decisions > 0) {
      PCC_ENSURE(common_decisions < prev_events_at_decision_.size(),
                 "spine reuse: shared decisions exceed the previous run");
      common_events = prev_events_at_decision_[common_decisions];
    }
    const size_t spine_reuse = std::min(spine_valid_events_, common_events);
    spine_valid_events_ = spine_reuse;  // pessimistic default; Check resets it
    prev_events_at_decision_.clear();

    Instance<Spec> inst = factory_();
    History<Spec> history;
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    if (por != nullptr) {
      sched.EnableFootprintCollection(true);
    }

    for (size_t c = 0; c < inst.client_ops.size(); ++c) {
      sched.Spawn(ClientThread(static_cast<int>(c), &inst.client_ops[c], &inst, &history),
                  "client" + std::to_string(c));
    }
    for (size_t p = 0; p < inst.client_programs.size(); ++p) {
      int client = static_cast<int>(inst.client_ops.size() + p);
      sched.Spawn(ProgramThread(inst.client_programs[p], &inst, &history, client),
                  "client" + std::to_string(client));
    }
    const int observer_client =
        static_cast<int>(inst.client_ops.size() + inst.client_programs.size());
    const bool has_observers = !inst.observer_ops.empty() || inst.observer_program != nullptr;

    int crashes_used = 0;
    int preemptions_used = 0;
    proc::Scheduler::Tid last_thread = proc::Scheduler::kInvalidTid;
    std::vector<int> env_budget;
    env_budget.reserve(inst.env_events.size());
    for (const EnvEvent& e : inst.env_events) {
      env_budget.push_back(e.budget);
    }
    bool observers_started = false;
    uint64_t steps = 0;
    size_t decision_level = 0;
    std::vector<detail::SleepEntry> sleep;
    schedule_log_.clear();
    bool violated = false;
    auto add_violation = [&](std::string kind, std::string detail_msg) {
      violated = true;
      if (report->violations.size() < static_cast<size_t>(options_.max_violations)) {
        report->violations.push_back(Violation{std::move(kind), std::move(detail_msg),
                                               RenderTrace(schedule_log_, inst.env_events),
                                               schedule_log_});
      }
    };

    // Continuation cache (DESIGN.md §9): set when this execution's last
    // crash made the rest of it a candidate, and cleared as soon as a
    // decision after the crash offers more than one alternative.
    std::optional<Hash128> continuation_key;
    uint64_t steps_at_crash = 0;

    // Presents `alts` (already sleep-filtered by the caller) to the driver,
    // executes nothing itself: returns the chosen index after recording the
    // decision and step count. The history-event watermark per decision
    // feeds the next run's frontier-spine reuse.
    auto choose = [&](const std::vector<detail::Alt>& alts) -> size_t {
      prev_events_at_decision_.push_back(history.events.size());
      ++decisions_total_;
      size_t pick = driver.Choose(alts);
      PCC_ENSURE(pick < alts.size(), "driver picked an invalid alternative");
      if (alts.size() != 1) {
        continuation_key.reset();  // not forced: another path may differ
      }
      schedule_log_.push_back(ScheduleDecision{alts[pick].kind, alts[pick].thread,
                                               static_cast<uint32_t>(alts[pick].env)});
      ++steps;
      return pick;
    };
    // Replay shortcut: when this decision re-takes an alternative whose
    // footprint the POR bookkeeping already holds (tried[pick] exists),
    // deterministic replay makes re-collecting it redundant — return the
    // cached footprint and disable collection for the step. A fresh
    // alternative (pick == tried.size(), including the odometer's bumped
    // level and the truncated seeds of parallel work items) collects
    // normally.
    auto replay_footprint = [&](const std::vector<detail::Alt>& alts,
                                size_t pick) -> const proc::Footprint* {
      if (por == nullptr) {
        return nullptr;
      }
      const detail::PorLevel& level = (*por)[decision_level];
      if (pick >= level.tried.size()) {
        sched.EnableFootprintCollection(true);
        return nullptr;
      }
      const detail::TriedAlt& t = level.tried[pick];
      PCC_ENSURE(t.kind == alts[pick].kind && t.thread == alts[pick].thread,
                 "POR replay divergence: cached alternative does not match");
      sched.EnableFootprintCollection(false);
      return &t.footprint;
    };
    // POR bookkeeping after the chosen alternative ran, with the footprint
    // its step produced; advances the sleep set and persists the footprint
    // for later siblings at this level.
    auto after_step = [&](const std::vector<detail::Alt>& alts, size_t pick,
                          const proc::Footprint& fp) {
      if (por == nullptr) {
        ++decision_level;
        return;
      }
      detail::PorLevel& level = (*por)[decision_level];
      if (pick == level.tried.size()) {
        level.tried.push_back(detail::TriedAlt{alts[pick].kind, alts[pick].thread, fp});
      }
      AdvanceSleepSet(&sleep, level, pick, alts[pick], fp);
      ++decision_level;
    };
    // Ensures a PorLevel exists for the current decision.
    auto ensure_level = [&] {
      if (por != nullptr && decision_level == por->size()) {
        por->emplace_back();
      }
    };
    const bool prune_crash = may_prune_crash && CrashPruneActive() &&
                             inst.mix_surviving_state != nullptr && inst.recover != nullptr;
    // Injects a machine crash and starts recovery. Returns true when the
    // execution can stop here instead: this was its last possible crash or
    // env event, and a forced continuation from the same key already ran
    // without a violation, so its steps, history check and spec states are
    // credited to this execution exactly as re-running it would add them.
    auto inject_crash = [&]() -> bool {
      ++crashes_used;
      ++report->crashes_injected;
      history.Crash();
      sched.KillAllThreads();
      inst.world->Crash();
      if (prune_crash && crashes_used == options_.max_crashes &&
          std::all_of(env_budget.begin(), env_budget.end(), [](int b) { return b == 0; })) {
        Hasher128 h;
        for (const auto& e : history.events) {
          MixEvent<Spec>(&h, e);
        }
        h.MixU64(history.events.size());
        h.MixU64(static_cast<uint64_t>(options_.max_crashes - crashes_used));
        h.MixU64(env_budget.size());  // every budget is zero here
        // Bounded preemptions decide which threads a post-crash decision
        // offers, so the budget left is part of what the continuation does.
        h.MixU64(options_.max_preemptions < 0 ? ~0ull
                                              : static_cast<uint64_t>(preemptions_used));
        inst.mix_surviving_state(&h);
        const Hash128 key = h.digest();
        detail::ContinuationCache::Entry hit;
        // The step bound depends on the prefix: a continuation that fit
        // after one prefix may not fit after a longer one.
        if (continuation_cache_.Lookup(key, &hit) &&
            steps + hit.steps < options_.max_steps_per_run) {
          ++report->crash_pruned;
          report->total_steps += steps + hit.steps;
          ++report->histories_checked;
          if (options_.dedup_histories) {
            // The full history is the one the cached run checked, so the
            // verdict cache already holds it: a re-run would dedup.
            ++report->histories_deduped;
          } else {
            report->spec_states_explored += hit.spec_states;
          }
          return true;
        }
        continuation_key = key;
        steps_at_crash = steps;
      }
      sched.Spawn(RecoveryThread(&inst, &history), "recovery");
      return false;
    };

    while (true) {
      // Durability poll, once per decision point (amortized clock/memory
      // reads inside StopRequested). An abandoned execution is rolled back
      // wholesale — see the function comment.
      if (durability_active_ && StopRequested()) {
        report->executions = entry_executions;
        report->crashes_injected = entry_crashes;
        report->env_events_fired = entry_env;
        if (report->violations.size() > entry_violations) {
          report->violations.resize(entry_violations);
        }
        return false;
      }

      // Crash invariants must hold at every step (§5.1).
      if (inst.crash_invariants != nullptr) {
        if (auto broken = inst.crash_invariants->FirstViolation()) {
          add_violation("crash-invariant", "invariant '" + *broken + "' does not hold");
          report->total_steps += steps;
          return true;
        }
      }

      if (sched.AllDone()) {
        if (observers_started) {
          break;  // execution complete
        }
        // Quiescent point: every thread has finished. The durability of
        // completed operations matters precisely here, so offer one more
        // decision — proceed to observation, or inject a crash first.
        bool crash_possible = inst.recover != nullptr && crashes_used < options_.max_crashes;
        bool env_possible = false;
        for (size_t i = 0; i < inst.env_events.size(); ++i) {
          env_possible = env_possible || env_budget[i] > 0;
        }
        if (crash_possible || env_possible) {
          std::vector<detail::Alt> alts;
          alts.push_back(detail::Alt{detail::AltKind::kProceed, -1, 0});
          if (crash_possible) {
            alts.push_back(detail::Alt{detail::AltKind::kCrash, -1, 0});
          }
          for (size_t i = 0; i < inst.env_events.size(); ++i) {
            if (env_budget[i] > 0) {
              alts.push_back(detail::Alt{detail::AltKind::kEnv, -1, i});
            }
          }
          ensure_level();
          size_t pick = choose(alts);
          const detail::Alt& alt = alts[pick];
          if (alt.kind == detail::AltKind::kCrash) {
            const bool pruned = inject_crash();
            after_step(alts, pick, proc::Footprint{});
            if (pruned) {
              return true;
            }
            continue;
          }
          if (alt.kind == detail::AltKind::kEnv) {
            --env_budget[alt.env];
            ++report->env_events_fired;
            const proc::Footprint* cached = replay_footprint(alts, pick);
            sched.BeginExternalFootprint();
            inst.env_events[alt.env].fire();
            after_step(alts, pick, cached != nullptr ? *cached : sched.last_footprint());
            continue;
          }
          // fall through: proceed to observation
          after_step(alts, pick, proc::Footprint{});
        }
        observers_started = true;
        if (!has_observers) {
          break;
        }
        sched.Spawn(ObserverThread(&inst, &history, observer_client), "observer");
        continue;
      }
      if (sched.Deadlocked()) {
        add_violation("deadlock", "live threads but none runnable\n" + history.ToString());
        report->total_steps += steps;
        return true;
      }
      if (steps >= options_.max_steps_per_run) {
        add_violation("step-bound",
                      "execution exceeded " + std::to_string(options_.max_steps_per_run) +
                          " steps (possible nontermination)");
        report->total_steps += steps;
        return true;
      }

      // Build the alternatives for this decision point.
      std::vector<detail::Alt> alts;
      std::vector<proc::Scheduler::Tid> runnable = sched.RunnableThreads();
      bool last_still_runnable = false;
      for (proc::Scheduler::Tid tid : runnable) {
        last_still_runnable = last_still_runnable || tid == last_thread;
      }
      const bool preemption_exhausted =
          options_.max_preemptions >= 0 && preemptions_used >= options_.max_preemptions;
      for (proc::Scheduler::Tid tid : runnable) {
        if (preemption_exhausted && last_still_runnable && tid != last_thread) {
          continue;  // switching away now would be one preemption too many
        }
        if (por != nullptr) {
          bool asleep = false;
          for (const detail::SleepEntry& e : sleep) {
            asleep = asleep || e.thread == tid;
          }
          if (asleep) {
            continue;  // its subtree here commutes with an explored one
          }
        }
        alts.push_back(detail::Alt{detail::AltKind::kThread, tid, 0});
      }
      if (!observers_started && inst.recover != nullptr && crashes_used < options_.max_crashes) {
        alts.push_back(detail::Alt{detail::AltKind::kCrash, -1, 0});
      }
      // Environment events (disk failures, ...) can strike at any time —
      // including while the observers probe the final state, which is how
      // §3.1's failover inconsistency ("read v, disk 1 fails, read old
      // value") becomes observable.
      for (size_t i = 0; i < inst.env_events.size(); ++i) {
        if (env_budget[i] > 0) {
          alts.push_back(detail::Alt{detail::AltKind::kEnv, -1, i});
        }
      }
      if (alts.empty()) {
        // Every runnable thread is asleep and no crash/env alternative
        // remains: every continuation from here commutes with a schedule
        // the DFS already explored. Abandon the execution without a
        // history; the odometer backtracks past this node.
        PCC_ENSURE(por != nullptr, "empty alternative set without POR");
        ++report->por_pruned;
        report->total_steps += steps;
        return true;
      }

      ensure_level();
      size_t pick = choose(alts);
      const detail::Alt& alt = alts[pick];

      switch (alt.kind) {
        case detail::AltKind::kThread: {
          if (last_still_runnable && alt.thread != last_thread) {
            ++preemptions_used;
          }
          last_thread = alt.thread;
          const proc::Footprint* cached = replay_footprint(alts, pick);
          try {
            sched.Step(alt.thread);
          } catch (const UbViolation& ub) {
            add_violation("undefined-behavior", ub.what() + ("\n" + history.ToString()));
            report->total_steps += steps;
            return true;
          }
          after_step(alts, pick, cached != nullptr ? *cached : sched.last_footprint());
          break;
        }
        case detail::AltKind::kCrash: {
          const bool pruned = inject_crash();
          last_thread = proc::Scheduler::kInvalidTid;  // no thread survived
          after_step(alts, pick, proc::Footprint{});
          if (pruned) {
            return true;
          }
          break;
        }
        case detail::AltKind::kEnv: {
          --env_budget[alt.env];
          ++report->env_events_fired;
          const proc::Footprint* cached = replay_footprint(alts, pick);
          sched.BeginExternalFootprint();
          inst.env_events[alt.env].fire();
          after_step(alts, pick, cached != nullptr ? *cached : sched.last_footprint());
          break;
        }
        case detail::AltKind::kProceed:
          PCC_ENSURE(false, "proceed alternative outside the quiescent point");
          break;
      }
    }

    report->total_steps += steps;
    ++report->histories_checked;
    checker_.set_frontier_cache(options_.memoize_spec_prefixes ? frontier_cache_ : nullptr);
    // Runs the persistent checker, resuming its retained frontier spine at
    // the deepest event this history provably shares with the spine's
    // source. After a Check the spine covers THIS history in full, so the
    // next run's guarantee is bounded only by its own shared prefix.
    auto check_history = [&]() -> std::optional<std::string> {
      std::optional<std::string> why = checker_.Check(history, spine_reuse);
      spine_valid_events_ = static_cast<size_t>(-1);
      return why;
    };
    std::optional<std::string> why;
    uint64_t spec_states = 0;
    if (options_.dedup_histories) {
      // Fingerprint pruning: identical histories get identical verdicts, so
      // replay the cached verdict instead of re-running the search. Only
      // the spec check is skipped — the execution itself (crash invariants,
      // UB, deadlock, step bound) already ran in full above.
      Hash128 fp = FingerprintHistory(history);
      if (verdict_cache_->Lookup(fp, &why)) {
        ++report->histories_deduped;
      } else {
        why = check_history();
        verdict_cache_->Insert(fp, why, VerdictEntryBytes(why));
        spec_states = checker_.states_explored();
      }
    } else {
      why = check_history();
      spec_states = checker_.states_explored();
    }
    if (why.has_value()) {
      add_violation("non-linearizable", *why);
    }
    report->spec_states_explored += spec_states;
    // Only a forced continuation that added no violation is cached, so a
    // bug is always re-found in full, with its own trace.
    if (continuation_key.has_value() && (!violated || admit_violating_continuations_)) {
      continuation_cache_.Insert(*continuation_key, steps - steps_at_crash, spec_states);
    }
    return true;
  }

  Spec spec_;
  Factory factory_;
  ExplorerOptions options_;
  // The persistent linearizability checker: its frontier spine (and dedup
  // arena) carries over between executions, which is what RunOnce's
  // spine_reuse resumes into.
  LinearizabilityChecker<Spec> checker_{&spec_};
  // Events of the checker spine's source history known to coincide with the
  // NEXT run's history (chained across runs that skip the checker).
  size_t spine_valid_events_ = 0;
  // Per-decision history-event watermarks of the previous RunOnce.
  std::vector<size_t> prev_events_at_decision_;
  // Every decision of the execution currently inside RunOnce, in order —
  // copied into each Violation as its machine-replayable witness.
  std::vector<ScheduleDecision> schedule_log_;
  // Forced post-crash continuations already run by this engine.
  detail::ContinuationCache continuation_cache_;
  bool admit_violating_continuations_ = false;  // negative-control seam only
  // Private default caches; ParallelExplorer injects shared ones.
  VerdictCache own_verdicts_;
  FrontierCache own_frontiers_;
  VerdictCache* verdict_cache_ = &own_verdicts_;
  FrontierCache* frontier_cache_ = &own_frontiers_;

  // ---- Durable-run state ----
  bool durability_init_ = false;
  bool durability_active_ = false;  // false => the per-decision poll is one branch
  RunOutcome stop_cause_ = RunOutcome::kComplete;
  // Executions completed by THIS engine (replays included) — gates the
  // cancel_after_decisions hook so every resume leg makes progress.
  uint64_t execs_completed_ = 0;
  Clock::time_point deadline_{};
  uint64_t decisions_total_ = 0;  // across every execution of this engine
  uint64_t poll_gate_ = 0;        // amortizes clock/memory reads in StopRequested
  // Periodic checkpoints: the cadence is counted in execs_completed_, so
  // it runs across items. periodic_items_ is Run()'s work list while it
  // runs (null otherwise: engines driven through RunItem never write).
  uint64_t last_checkpoint_execs_ = 0;
  Clock::time_point last_checkpoint_time_ = Clock::now();
  const std::vector<CheckpointSubtree>* periodic_items_ = nullptr;
};

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_EXPLORER_H_
