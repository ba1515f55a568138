// Multi-threaded refinement checking: the serial explorer's work list, run
// by a pool of OS worker threads.
//
// Every mode explores a list of CheckpointSubtree work items (explorer.h,
// checkpoint.h); the ParallelExplorer differs from Explorer::Run only in
// who runs them:
//
//   1. The item source. A resumed run loads the list from the checkpoint
//      file (no re-enumeration: worker count and split depth may differ
//      across the interruption). Otherwise exhaustive mode has a
//      coordinator replay the first `split_depth` decision levels
//      (Explorer::EnumerateSubtreePrefixes) and emit one DFS subtree per
//      reachable prefix, in DFS order. Prefixes are mutually disjoint and
//      jointly exhaustive, so the items partition the execution space. The
//      sampling modes (random and PCT) take Explorer::BuildSampleItems():
//      slices of runs whose seeds are pure functions of (seed, batch, run).
//   2. The workers. Each owns a private Explorer — and therefore its own
//      Instance, Scheduler, and World — claims items in list order and
//      runs each with Explorer::RunItem. This is safe precisely because
//      Instance factories are required to be deterministic: replaying a
//      prefix, or reseeding a run, reconstructs the same execution on any
//      thread. The verdict and spec-frontier caches (memo.h) are the
//      exception: they are shared across workers, which is sound because
//      cached values are pure functions of their fingerprints — sharing
//      only changes WHO pays for a check, never its outcome.
//   3. The merge. Per-item Reports are merged in list order, so the
//      aggregate is deterministic regardless of thread timing: executions,
//      steps, crash counts, and the violation *sequence* are bit-identical
//      to the serial Explorer (histories_deduped and crash_pruned, which
//      depend on who reached a fingerprint first, excepted). In the
//      sampling modes that holds for any max_violations, which both engines
//      apply per slice. In DFS it holds whenever the serial run does not
//      stop early (max_violations larger than the total violation count, no
//      max_executions truncation). With early stopping, the first
//      max_violations violations still match the serial ones — each subtree
//      contributes at most its first max_violations violations, and the
//      merged list is truncated to the global first max_violations — but
//      the execution count is larger because workers cannot know about
//      violations in other subtrees. max_executions caps the run-wide
//      execution count in DFS mode only.
//
// DURABLE RUNS (the robustness layer; see checkpoint.h): the coordinator
// owns the checkpoint file and the stop decision, workers only detect and
// drain. A stop request — user CancelToken, wall deadline, memory budget,
// or the stuck-worker watchdog — is published once into an internal token
// every worker engine polls at decision granularity; each worker rolls back
// its in-flight execution, commits its item's exact resume cursor under the
// state mutex, and exits. The final checkpoint then holds: done items with
// their complete partial Reports, the interrupted items with their cursor,
// and untouched items still pending. Because items are merged in list order
// and each item's partial Report is itself resume-exact (explorer.h), an
// interrupted-then-resumed parallel run reports the same deterministic
// counters as an uninterrupted one — in every mode, and across engines.
//
// A maintenance thread (started only when needed) writes periodic
// checkpoints on the configured cadence and watches per-worker heartbeat
// counters: a worker that holds an item but has not completed an execution
// for stuck_worker_timeout_ms gets flagged, a recovery checkpoint is
// flushed (claimed-but-uncommitted items appear at their last durable
// position — re-running an item from there is sound, merely redundant),
// and the run is canceled rather than left hanging.
#ifndef PERENNIAL_SRC_REFINE_PARALLEL_EXPLORER_H_
#define PERENNIAL_SRC_REFINE_PARALLEL_EXPLORER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/refine/checkpoint.h"
#include "src/refine/explorer.h"
#include "src/refine/run_state.h"

namespace perennial::refine {

template <typename Spec>
class ParallelExplorer {
 public:
  using Factory = typename Explorer<Spec>::Factory;

  // `factory` is invoked concurrently from worker threads; it must be
  // thread-safe in addition to deterministic (the harness factories in
  // src/systems/ qualify: they only read their options struct and build
  // fresh objects).
  ParallelExplorer(Spec spec, Factory factory, ExplorerOptions options)
      : spec_(std::move(spec)), factory_(std::move(factory)), options_(options) {}

  Report Run() {
    internal_cancel_.Reset();
    cause_.store(RunOutcome::kComplete, std::memory_order_relaxed);
    const bool dfs = options_.mode == ExplorerOptions::Mode::kExhaustive;
    const bool deadline_armed = options_.wall_deadline_ms > 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(options_.wall_deadline_ms);
    // Caches shared across the probe and every worker: a history (or history
    // prefix) checked by one thread is a cache hit for all. Verdicts and
    // frontiers are pure functions of their fingerprint, so cross-thread
    // sharing cannot change any verdict — only Report::histories_deduped
    // becomes timing-dependent (which worker reaches a fingerprint first).
    VerdictCache shared_verdicts;
    typename Explorer<Spec>::FrontierCache shared_frontiers;

    // The work list: resumed from the checkpoint file when possible,
    // otherwise built from the mode's item source.
    std::vector<CheckpointSubtree> items;
    bool truncated = false;  // the prefix enumeration ran out of max_executions
    const bool resumed = ResumeWorkList(options_, &shared_verdicts, &items);
    if (!resumed) {
      Explorer<Spec> source(spec_, factory_, ProbeOptions());
      if (dfs) {
        source.set_verdict_cache(&shared_verdicts);
        source.set_frontier_cache(&shared_frontiers);
        // Clamp like num_workers: a non-positive depth degenerates to one
        // subtree (the whole tree) rather than tripping the probe's
        // precondition.
        items = source.EnumerateSubtreePrefixes(std::max(options_.split_depth, 0), &truncated);
        if (source.stop_cause() != RunOutcome::kComplete) {
          // A durability stop during enumeration: the partition is unusable
          // (its prefixes may not be exhaustive), so the whole tree becomes
          // one pending item — nothing explored yet, everything resumable —
          // and the pool below drains at once.
          RequestStop(source.stop_cause());
          items.assign(1, CheckpointSubtree{});
          truncated = true;
        }
      } else {
        items = source.BuildSampleItems();
      }
    }

    const int workers = WorkerCount(items.size());
    std::atomic<size_t> next_item{0};
    std::atomic<bool> budget_exhausted{false};  // DFS: run-wide max_executions reached
    ProgressTally tally;
    // Guards every CheckpointSubtree in `items`: a worker copies its item
    // out when it claims it and commits the item back, cursor included,
    // when it stops; snapshots copy the vector under it. (Item CLAIMING is
    // the lock-free next_item cursor; a claimed-but-uncommitted item still
    // shows its last durable state, which is exactly what a recovery
    // snapshot should record.)
    std::mutex state_mu;
    auto snapshot = [&] {
      SaveWorkList(options_, cause_.load(std::memory_order_relaxed), items, shared_verdicts,
                   &state_mu);
    };
    // Per-worker liveness for the watchdog: heartbeats tick once per
    // completed execution, active[w] holds (item index + 1) while a worker
    // owns an item.
    std::vector<std::atomic<uint64_t>> heartbeats(workers);
    std::vector<std::atomic<size_t>> active(workers);

    auto worker_main = [&](int w) {
      Explorer<Spec> engine(spec_, factory_, WorkerOptions());
      engine.set_verdict_cache(&shared_verdicts);
      engine.set_frontier_cache(&shared_frontiers);
      while (!StopRequested() && !budget_exhausted.load(std::memory_order_relaxed)) {
        const size_t i = next_item.fetch_add(1, std::memory_order_relaxed);
        if (i >= items.size()) {
          break;
        }
        CheckpointSubtree item;
        {
          std::scoped_lock lock(state_mu);
          if (items[i].state == CheckpointSubtree::State::kDone) {
            continue;  // restored from a checkpoint fully explored
          }
          // Resume-exactness: the item accumulates ONTO its restored
          // partial, so per-item max_violations/max_executions fire at the
          // same point they would have in the uninterrupted run.
          item = items[i];
        }
        active[w].store(i + 1, std::memory_order_relaxed);
        ExplorerProgress seen = ProgressTally::CountsOf(item.partial);
        engine.RunItem(&item, [&](const Report& partial) {
          heartbeats[w].fetch_add(1, std::memory_order_relaxed);
          const uint64_t executions = tally.Add(partial, &seen, options_);
          // Coarse durable-run detection at execution granularity (the
          // worker engine catches the same conditions mid-execution): the
          // user's token and the coordinator deadline are forwarded into
          // the internal token so every other worker drains too.
          if (options_.cancel_token != nullptr && options_.cancel_token->canceled()) {
            RequestStop(RunOutcome::kCanceled);
          }
          if (deadline_armed && Clock::now() >= deadline) {
            RequestStop(RunOutcome::kDeadline);
          }
          if (dfs && executions >= options_.max_executions) {
            budget_exhausted.store(true, std::memory_order_relaxed);
            return false;
          }
          return !StopRequested();
        });
        {
          std::scoped_lock lock(state_mu);
          items[i] = std::move(item);
        }
        active[w].store(0, std::memory_order_relaxed);
        if (engine.stop_cause() != RunOutcome::kComplete) {
          // The engine detected a stop itself (deadline/memory mid-
          // execution, or the internal token); it is sticky-stopped, so
          // publish the cause and retire this worker.
          RequestStop(engine.stop_cause());
          break;
        }
      }
    };

    // Maintenance thread: periodic checkpoints + stuck-worker watchdog.
    // Started only when either job is configured, so undurable runs pay
    // nothing.
    const bool want_periodic = !options_.checkpoint_path.empty() &&
                               (options_.checkpoint_every_execs > 0 ||
                                options_.checkpoint_every_secs > 0);
    const bool want_watchdog = options_.stuck_worker_timeout_ms > 0;
    std::mutex maint_mu;
    std::condition_variable maint_cv;
    bool maint_done = false;
    std::thread maint;
    if (want_periodic || want_watchdog) {
      maint = std::thread([&] {
        uint64_t tick_ms = 1000;
        if (want_watchdog) {
          tick_ms = std::min(tick_ms, std::max<uint64_t>(options_.stuck_worker_timeout_ms / 4, 5));
        }
        if (want_periodic && options_.checkpoint_every_execs > 0) {
          tick_ms = std::min<uint64_t>(tick_ms, 20);
        }
        std::vector<uint64_t> last_hb(workers, 0);
        std::vector<Clock::time_point> last_beat(workers, Clock::now());
        std::vector<bool> flagged(workers, false);
        uint64_t last_ckpt_execs = 0;
        Clock::time_point last_ckpt_time = Clock::now();
        std::unique_lock lk(maint_mu);
        while (!maint_done) {
          maint_cv.wait_for(lk, std::chrono::milliseconds(tick_ms));
          if (maint_done) {
            break;
          }
          const Clock::time_point now = Clock::now();
          if (want_periodic) {
            const uint64_t executions = tally.executions();
            const bool due =
                (options_.checkpoint_every_execs > 0 &&
                 executions >= last_ckpt_execs + options_.checkpoint_every_execs) ||
                (options_.checkpoint_every_secs > 0 &&
                 now >= last_ckpt_time + std::chrono::seconds(options_.checkpoint_every_secs));
            if (due) {
              last_ckpt_execs = executions;
              last_ckpt_time = now;
              snapshot();
            }
          }
          if (want_watchdog) {
            for (int w = 0; w < workers; ++w) {
              const uint64_t hb = heartbeats[w].load(std::memory_order_relaxed);
              const bool busy = active[w].load(std::memory_order_relaxed) != 0;
              if (!busy || hb != last_hb[w]) {
                last_hb[w] = hb;
                last_beat[w] = now;
                flagged[w] = false;
                continue;
              }
              if (!flagged[w] &&
                  now - last_beat[w] >=
                      std::chrono::milliseconds(options_.stuck_worker_timeout_ms)) {
                flagged[w] = true;
                std::fprintf(stderr,
                             "[parallel-explorer] worker %d stuck on item %zu for %llu ms; "
                             "flushing recovery checkpoint and canceling\n",
                             w, active[w].load(std::memory_order_relaxed) - 1,
                             static_cast<unsigned long long>(options_.stuck_worker_timeout_ms));
                // The claimed-but-uncommitted item appears at its last
                // durable position: re-running it on resume repeats work
                // but never loses or double-counts any (committed partials
                // are the only ones merged).
                snapshot();
                RequestStop(RunOutcome::kCanceled);
              }
            }
          }
        }
      });
    }

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(worker_main, w);
    }
    for (std::thread& t : pool) {
      t.join();
    }
    if (maint.joinable()) {
      {
        std::scoped_lock lock(maint_mu);
        maint_done = true;
      }
      maint_cv.notify_all();
      maint.join();
    }

    // Final checkpoint (written on completion too, so a finished file
    // resumes to the full report); then the deterministic list-order merge.
    SaveWorkList(options_, cause_.load(std::memory_order_relaxed), items, shared_verdicts);
    Report report = MergeWorkList(items, options_.max_violations);
    report.truncated = report.truncated || truncated;
    report.resumed = resumed;
    report.outcome = cause_.load(std::memory_order_relaxed);
    return report;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Worker-side options: every durable-run responsibility except detection
  // stays with the coordinator. Workers keep the deadline and memory budget
  // (their engines abort mid-execution with exact rollback, which the
  // coordinator cannot do for them) but poll the coordinator's internal
  // token, not the user's (the after-execution hook forwards user
  // cancellation exactly once, through RequestStop). They never write
  // checkpoints or report progress: only Explorer::Run() does, and workers
  // call RunItem.
  ExplorerOptions WorkerOptions() const {
    ExplorerOptions opts = options_;
    opts.cancel_after_decisions = 0;
    opts.cancel_token = &internal_cancel_;
    return opts;
  }

  // The enumeration probe runs coordinator-side before workers exist, so
  // it polls the USER's cancel token (plus its own deadline/memory budget
  // via the usual engine machinery).
  ExplorerOptions ProbeOptions() const {
    ExplorerOptions opts = WorkerOptions();
    opts.cancel_token = options_.cancel_token;
    return opts;
  }

  int WorkerCount(size_t items) const {
    int workers = options_.num_workers > 0 ? options_.num_workers : 1;
    if (static_cast<size_t>(workers) > items) {
      workers = static_cast<int>(items);
    }
    return workers > 0 ? workers : 1;
  }

  // First stop wins; later causes (typically the cascaded kCanceled the
  // internal token induces in every other worker) keep the original tag.
  void RequestStop(RunOutcome cause) {
    RunOutcome expected = RunOutcome::kComplete;
    cause_.compare_exchange_strong(expected, cause, std::memory_order_relaxed);
    internal_cancel_.RequestCancel();
  }

  bool StopRequested() const {
    return cause_.load(std::memory_order_relaxed) != RunOutcome::kComplete;
  }

  Spec spec_;
  Factory factory_;
  ExplorerOptions options_;
  // Stop fan-out: the first detected cause is recorded here and the token
  // below cancels every worker engine. Mutable per Run().
  std::atomic<RunOutcome> cause_{RunOutcome::kComplete};
  mutable CancelToken internal_cancel_;
};

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_PARALLEL_EXPLORER_H_
