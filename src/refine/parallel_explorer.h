// Multi-threaded refinement checking: the serial explorer's decision-tree
// DFS, fanned out across a pool of OS worker threads.
//
// Where Explorer (explorer.h) walks every decision path one at a time, the
// ParallelExplorer splits the tree by decision-path *prefix*:
//
//   1. A coordinator replays the first `split_depth` decision levels
//      (Explorer::EnumerateSubtreePrefixes) and emits one work item per
//      reachable prefix, in DFS order. Prefixes are mutually disjoint and
//      jointly exhaustive, so the work items partition the execution space.
//   2. Each worker owns a private Explorer — and therefore its own
//      Instance, Scheduler, and World — and runs the ordinary bounded DFS
//      restricted to its item's subtree (Explorer::RunDfsSubtree). This is
//      safe precisely because Instance factories are required to be
//      deterministic: replaying a prefix reconstructs the same execution on
//      any thread. The verdict and spec-frontier caches (memo.h) are the
//      exception: they are shared across workers, which is sound because
//      cached values are pure functions of their fingerprints — sharing
//      only changes WHO pays for a check, never its outcome.
//   3. Per-item Reports are merged in item (= DFS) order, so the aggregate
//      is deterministic regardless of thread timing: executions, steps,
//      crash counts, and the violation *sequence* are bit-identical to the
//      serial Explorer whenever the serial run does not stop early
//      (max_violations larger than the total violation count, no
//      max_executions truncation). With early stopping, the first
//      max_violations violations still match the serial ones — each
//      subtree contributes at most its first max_violations violations,
//      and the merged list is truncated to the global first
//      max_violations — but the execution count is larger because workers
//      cannot know about violations in other subtrees.
//
// DURABLE RUNS (the robustness layer; see checkpoint.h): the coordinator
// owns the checkpoint file and the stop decision, workers only detect and
// drain. The work list IS a vector of CheckpointSubtree items — resuming
// loads it from the file (no re-enumeration; worker count and split depth
// may differ across the interruption), a fresh run builds it from the
// prefix enumeration. A stop request — user CancelToken, wall deadline,
// memory budget, or the stuck-worker watchdog — is published once into an
// internal token every worker engine polls at decision granularity; each
// worker rolls back its in-flight execution, commits its item's exact
// resume cursor under the state mutex, and exits. The final checkpoint
// then holds: done items with their complete partial Reports, the
// interrupted items with their next decision path, and untouched items
// still pending. Because items are merged in DFS item order and each
// item's partial Report is itself resume-exact (explorer.h), an
// interrupted-then-resumed parallel run reports the same deterministic
// counters as an uninterrupted one.
//
// A maintenance thread (started only when needed) writes periodic
// checkpoints on the configured cadence and watches per-worker heartbeat
// counters: a worker that holds an item but has not completed an execution
// for stuck_worker_timeout_ms gets flagged, a recovery checkpoint is
// flushed (claimed-but-uncommitted items appear at their last durable
// position — re-running a subtree from there is sound, merely redundant),
// and the run is canceled rather than left hanging.
//
// Random mode is partitioned by run count: worker w performs its share of
// random_runs with an independent stream forked from `seed` and w, merged
// in worker order — deterministic for a fixed (seed, num_workers), though
// not trace-for-trace identical to the serial random walk. Random walks
// have no durable cursor, so durability stops end them early (outcome
// tagged, nothing checkpointed).
//
// PCT/swarm mode gets the full durable treatment instead: the work list is
// Explorer::BuildPctItems() — (batch, run-range) slices whose per-run seeds
// are pure functions of (seed, batch, run) — so unlike plain random mode
// the parallel report is bit-identical to the serial one for any worker
// count (dedup counters excepted), and slices checkpoint/resume at run
// granularity exactly like DFS subtrees.
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

#include "src/base/rand.h"
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
    if (options_.mode == ExplorerOptions::Mode::kRandom) {
      return RunRandom();
    }
    if (options_.mode == ExplorerOptions::Mode::kPct) {
      return RunPct();
    }
    return RunExhaustive();
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Worker-side options: progress is reported centrally from global
  // counters, and every durable-run responsibility except detection stays
  // with the coordinator — workers keep the deadline and memory budget
  // (their engines abort mid-execution with exact rollback, which the
  // coordinator cannot do for them) but never touch checkpoint files, and
  // they poll the coordinator's internal token, not the user's (the
  // keep_going callback forwards user cancellation exactly once, through
  // RequestStop).
  ExplorerOptions WorkerOptions() const {
    ExplorerOptions opts = options_;
    opts.progress_callback = nullptr;
    opts.checkpoint_path.clear();
    opts.resume_path.clear();
    opts.checkpoint_every_execs = 0;
    opts.checkpoint_every_secs = 0;
    opts.cancel_after_decisions = 0;
    opts.stuck_worker_timeout_ms = 0;
    opts.cancel_token = &internal_cancel_;
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

  Report RunExhaustive() {
    Report aggregate;
    bool enumeration_truncated = false;
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
    verdict_snapshot_source_ = &shared_verdicts;

    // The work list: resumed from the checkpoint file when possible,
    // otherwise built by prefix enumeration. CheckpointSubtree is used
    // directly so checkpointing is a snapshot of this vector.
    std::vector<CheckpointSubtree> items;
    const bool resumed = TryResume(&items, &shared_verdicts);
    if (!resumed) {
      Explorer<Spec> probe(spec_, factory_, ProbeOptions());
      probe.set_verdict_cache(&shared_verdicts);
      probe.set_frontier_cache(&shared_frontiers);
      // Clamp like num_workers: a non-positive depth degenerates to one
      // subtree (the whole tree) rather than tripping the probe's
      // precondition.
      std::vector<SubtreeWork> prefixes = probe.EnumerateSubtreePrefixes(
          options_.split_depth > 0 ? options_.split_depth : 0, &enumeration_truncated);
      if (probe.stop_cause() != RunOutcome::kComplete) {
        // A durability stop during enumeration: the partition is unusable
        // (its prefixes may not be exhaustive), so the whole tree becomes
        // one pending item — nothing explored yet, everything resumable.
        RequestStop(probe.stop_cause());
        items.assign(1, CheckpointSubtree{});
        WriteSnapshot(items, /*mu=*/nullptr);
        verdict_snapshot_source_ = nullptr;
        aggregate.truncated = true;
        aggregate.outcome = cause_.load(std::memory_order_relaxed);
        return aggregate;
      }
      items.reserve(prefixes.size());
      for (SubtreeWork& w : prefixes) {
        CheckpointSubtree item;
        item.floor = w.prefix.size();
        item.next_path = w.prefix;  // kPending convention: next_path == prefix
        item.prefix = std::move(w.prefix);
        item.por_levels = std::move(w.por_seed);
        items.push_back(std::move(item));
      }
    }

    const int workers = WorkerCount(items.size());
    std::atomic<size_t> next_item{0};
    std::atomic<uint64_t> global_executions{0};
    std::atomic<uint64_t> global_steps{0};
    std::atomic<uint64_t> global_violations{0};
    std::atomic<uint64_t> global_checked{0};
    std::atomic<uint64_t> global_deduped{0};
    std::atomic<uint64_t> global_pruned{0};
    std::atomic<uint64_t> global_crash_pruned{0};
    std::atomic<bool> budget_exhausted{false};
    std::mutex progress_mu;
    // Guards every CheckpointSubtree field in `items`: workers commit an
    // item's report + cursor under it, the maintenance thread snapshots
    // the vector under it. (Item CLAIMING is the lock-free next_item
    // cursor; a claimed-but-uncommitted item still shows its last durable
    // state, which is exactly what a recovery snapshot should record.)
    std::mutex state_mu;
    // Per-worker liveness for the watchdog: heartbeats tick once per
    // completed execution, active[w] holds (item index + 1) while a worker
    // owns an item.
    std::vector<std::atomic<uint64_t>> heartbeats(workers);
    std::vector<std::atomic<size_t>> active(workers);

    auto worker_main = [&](int w) {
      Explorer<Spec> engine(spec_, factory_, WorkerOptions());
      engine.set_verdict_cache(&shared_verdicts);
      engine.set_frontier_cache(&shared_frontiers);
      while (true) {
        if (StopRequested() || budget_exhausted.load(std::memory_order_relaxed)) {
          break;
        }
        const size_t i = next_item.fetch_add(1, std::memory_order_relaxed);
        if (i >= items.size()) {
          break;
        }
        SubtreeWork work;
        Report local;
        {
          std::scoped_lock lock(state_mu);
          CheckpointSubtree& item = items[i];
          if (item.state == CheckpointSubtree::State::kDone) {
            continue;  // restored from a checkpoint fully explored
          }
          work.prefix = item.state == CheckpointSubtree::State::kInProgress ? item.next_path
                                                                            : item.prefix;
          work.por_seed = item.por_levels;
          work.floor = item.floor;
          // Resume-exactness: the DFS accumulates ONTO the restored
          // partial, so per-item max_violations/max_executions fire at the
          // same point they would have in the uninterrupted run.
          local = item.partial;
        }
        active[w].store(i + 1, std::memory_order_relaxed);
        uint64_t seen_steps = local.total_steps;
        uint64_t seen_violations = local.violations.size();
        uint64_t seen_checked = local.histories_checked;
        uint64_t seen_deduped = local.histories_deduped;
        uint64_t seen_pruned = local.por_pruned;
        uint64_t seen_crash_pruned = local.crash_pruned;
        auto keep_going = [&](const Report& r) {
          heartbeats[w].fetch_add(1, std::memory_order_relaxed);
          uint64_t executions = global_executions.fetch_add(1, std::memory_order_relaxed) + 1;
          global_steps.fetch_add(r.total_steps - seen_steps, std::memory_order_relaxed);
          seen_steps = r.total_steps;
          global_violations.fetch_add(r.violations.size() - seen_violations,
                                      std::memory_order_relaxed);
          seen_violations = r.violations.size();
          global_checked.fetch_add(r.histories_checked - seen_checked, std::memory_order_relaxed);
          seen_checked = r.histories_checked;
          global_deduped.fetch_add(r.histories_deduped - seen_deduped, std::memory_order_relaxed);
          seen_deduped = r.histories_deduped;
          global_pruned.fetch_add(r.por_pruned - seen_pruned, std::memory_order_relaxed);
          seen_pruned = r.por_pruned;
          global_crash_pruned.fetch_add(r.crash_pruned - seen_crash_pruned,
                                        std::memory_order_relaxed);
          seen_crash_pruned = r.crash_pruned;
          if (options_.progress_callback != nullptr && options_.progress_interval > 0 &&
              executions % options_.progress_interval == 0) {
            std::scoped_lock lock(progress_mu);
            options_.progress_callback(
                ExplorerProgress{executions, global_steps.load(std::memory_order_relaxed),
                                 global_violations.load(std::memory_order_relaxed),
                                 global_checked.load(std::memory_order_relaxed),
                                 global_deduped.load(std::memory_order_relaxed),
                                 global_pruned.load(std::memory_order_relaxed),
                                 global_crash_pruned.load(std::memory_order_relaxed)});
          }
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
          if (executions >= options_.max_executions) {
            budget_exhausted.store(true, std::memory_order_relaxed);
            return false;
          }
          return !StopRequested();
        };
        SubtreeCursor cursor;
        engine.RunDfsSubtree(std::move(work), &local, keep_going, &cursor);
        {
          std::scoped_lock lock(state_mu);
          CheckpointSubtree& item = items[i];
          item.partial = std::move(local);
          if (cursor.finished) {
            item.state = CheckpointSubtree::State::kDone;
            item.next_path.clear();
            item.por_levels.clear();
          } else {
            item.state = CheckpointSubtree::State::kInProgress;
            item.next_path = std::move(cursor.next_path);
            item.por_levels = std::move(cursor.por_levels);
            item.floor = cursor.floor;
          }
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
      active[w].store(0, std::memory_order_relaxed);
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
            bool due = options_.checkpoint_every_execs > 0 &&
                       global_executions.load(std::memory_order_relaxed) >=
                           last_ckpt_execs + options_.checkpoint_every_execs;
            if (!due && options_.checkpoint_every_secs > 0 &&
                now >= last_ckpt_time + std::chrono::seconds(options_.checkpoint_every_secs)) {
              due = true;
            }
            if (due) {
              last_ckpt_execs = global_executions.load(std::memory_order_relaxed);
              last_ckpt_time = now;
              WriteSnapshot(items, &state_mu);
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
                WriteSnapshot(items, &state_mu);
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
    // resumes to the full report); then the deterministic DFS-order merge.
    if (!options_.checkpoint_path.empty()) {
      WriteSnapshot(items, /*mu=*/nullptr);
    }
    verdict_snapshot_source_ = nullptr;
    aggregate.truncated = enumeration_truncated;
    aggregate.resumed = resumed;
    for (const CheckpointSubtree& item : items) {
      MergeReport(&aggregate, item.partial);
    }
    TrimReportViolations(&aggregate, options_.max_violations);
    aggregate.outcome = cause_.load(std::memory_order_relaxed);
    return aggregate;
  }

  // PCT/swarm: the same claim-commit worker pool as RunExhaustive, over the
  // slice list BuildPctItems() builds (or the checkpoint restores). Every
  // run's executions depend only on (seed, batch, run index), and slices
  // are merged in list order, so the aggregate is bit-identical to the
  // serial RunPctMode for any worker count — the shared verdict cache only
  // moves Report::histories_deduped between slices (documented exclusion).
  Report RunPct() {
    Report aggregate;
    const bool deadline_armed = options_.wall_deadline_ms > 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(options_.wall_deadline_ms);
    VerdictCache shared_verdicts;
    typename Explorer<Spec>::FrontierCache shared_frontiers;
    verdict_snapshot_source_ = &shared_verdicts;

    std::vector<CheckpointSubtree> items;
    const bool resumed = TryResume(&items, &shared_verdicts);
    if (!resumed) {
      Explorer<Spec> lister(spec_, factory_, options_);
      items = lister.BuildPctItems();
    }

    const int workers = WorkerCount(items.size());
    std::atomic<size_t> next_item{0};
    std::atomic<uint64_t> global_executions{0};
    std::atomic<uint64_t> global_steps{0};
    std::atomic<uint64_t> global_violations{0};
    std::atomic<uint64_t> global_checked{0};
    std::atomic<uint64_t> global_deduped{0};
    std::atomic<uint64_t> global_pruned{0};
    std::atomic<uint64_t> global_crash_pruned{0};
    std::mutex progress_mu;
    std::mutex state_mu;  // guards every CheckpointSubtree field in `items`
    std::vector<std::atomic<uint64_t>> heartbeats(workers);
    std::vector<std::atomic<size_t>> active(workers);

    auto worker_main = [&](int w) {
      Explorer<Spec> engine(spec_, factory_, WorkerOptions());
      engine.set_verdict_cache(&shared_verdicts);
      engine.set_frontier_cache(&shared_frontiers);
      while (true) {
        if (StopRequested()) {
          break;
        }
        const size_t i = next_item.fetch_add(1, std::memory_order_relaxed);
        if (i >= items.size()) {
          break;
        }
        uint64_t batch = 0;
        uint64_t start = 0;
        uint64_t hi = 0;
        Report local;
        {
          std::scoped_lock lock(state_mu);
          CheckpointSubtree& item = items[i];
          if (item.state == CheckpointSubtree::State::kDone) {
            continue;
          }
          PCC_ENSURE(item.prefix.size() == 3, "PCT work item: malformed slice");
          batch = item.prefix[0];
          hi = item.prefix[2];
          start = item.state == CheckpointSubtree::State::kInProgress && !item.next_path.empty()
                      ? item.next_path[0]
                      : item.prefix[1];
          // Resume-exactness: the slice accumulates ONTO the restored
          // partial, so per-slice max_violations fires where it would have
          // in the uninterrupted run.
          local = item.partial;
        }
        active[w].store(i + 1, std::memory_order_relaxed);
        uint64_t seen_steps = local.total_steps;
        uint64_t seen_violations = local.violations.size();
        uint64_t seen_checked = local.histories_checked;
        uint64_t seen_deduped = local.histories_deduped;
        uint64_t seen_pruned = local.por_pruned;
        uint64_t seen_crash_pruned = local.crash_pruned;
        auto keep_going = [&](const Report& r) {
          heartbeats[w].fetch_add(1, std::memory_order_relaxed);
          uint64_t executions = global_executions.fetch_add(1, std::memory_order_relaxed) + 1;
          global_steps.fetch_add(r.total_steps - seen_steps, std::memory_order_relaxed);
          seen_steps = r.total_steps;
          global_violations.fetch_add(r.violations.size() - seen_violations,
                                      std::memory_order_relaxed);
          seen_violations = r.violations.size();
          global_checked.fetch_add(r.histories_checked - seen_checked, std::memory_order_relaxed);
          seen_checked = r.histories_checked;
          global_deduped.fetch_add(r.histories_deduped - seen_deduped, std::memory_order_relaxed);
          seen_deduped = r.histories_deduped;
          global_pruned.fetch_add(r.por_pruned - seen_pruned, std::memory_order_relaxed);
          seen_pruned = r.por_pruned;
          global_crash_pruned.fetch_add(r.crash_pruned - seen_crash_pruned,
                                        std::memory_order_relaxed);
          seen_crash_pruned = r.crash_pruned;
          if (options_.progress_callback != nullptr && options_.progress_interval > 0 &&
              executions % options_.progress_interval == 0) {
            std::scoped_lock lock(progress_mu);
            options_.progress_callback(
                ExplorerProgress{executions, global_steps.load(std::memory_order_relaxed),
                                 global_violations.load(std::memory_order_relaxed),
                                 global_checked.load(std::memory_order_relaxed),
                                 global_deduped.load(std::memory_order_relaxed),
                                 global_pruned.load(std::memory_order_relaxed),
                                 global_crash_pruned.load(std::memory_order_relaxed)});
          }
          if (options_.cancel_token != nullptr && options_.cancel_token->canceled()) {
            RequestStop(RunOutcome::kCanceled);
          }
          if (deadline_armed && Clock::now() >= deadline) {
            RequestStop(RunOutcome::kDeadline);
          }
          return !StopRequested();
        };
        uint64_t next_run = start;
        const bool finished = engine.RunPctSlice(batch, start, hi, &local, keep_going, &next_run);
        {
          std::scoped_lock lock(state_mu);
          CheckpointSubtree& item = items[i];
          item.partial = std::move(local);
          if (finished) {
            item.state = CheckpointSubtree::State::kDone;
            item.next_path.clear();
          } else {
            item.state = CheckpointSubtree::State::kInProgress;
            item.next_path = {static_cast<size_t>(next_run)};
          }
        }
        active[w].store(0, std::memory_order_relaxed);
        if (engine.stop_cause() != RunOutcome::kComplete) {
          RequestStop(engine.stop_cause());
          break;
        }
      }
      active[w].store(0, std::memory_order_relaxed);
    };

    // Maintenance thread: same periodic-checkpoint + watchdog jobs as the
    // exhaustive coordinator.
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
            bool due = options_.checkpoint_every_execs > 0 &&
                       global_executions.load(std::memory_order_relaxed) >=
                           last_ckpt_execs + options_.checkpoint_every_execs;
            if (!due && options_.checkpoint_every_secs > 0 &&
                now >= last_ckpt_time + std::chrono::seconds(options_.checkpoint_every_secs)) {
              due = true;
            }
            if (due) {
              last_ckpt_execs = global_executions.load(std::memory_order_relaxed);
              last_ckpt_time = now;
              WriteSnapshot(items, &state_mu);
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
                             "[parallel-explorer] worker %d stuck on PCT item %zu for %llu ms; "
                             "flushing recovery checkpoint and canceling\n",
                             w, active[w].load(std::memory_order_relaxed) - 1,
                             static_cast<unsigned long long>(options_.stuck_worker_timeout_ms));
                WriteSnapshot(items, &state_mu);
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

    if (!options_.checkpoint_path.empty()) {
      WriteSnapshot(items, /*mu=*/nullptr);
    }
    verdict_snapshot_source_ = nullptr;
    aggregate.resumed = resumed;
    for (const CheckpointSubtree& item : items) {
      MergeReport(&aggregate, item.partial);
    }
    TrimReportViolations(&aggregate, options_.max_violations);
    aggregate.outcome = cause_.load(std::memory_order_relaxed);
    return aggregate;
  }

  // The enumeration probe runs coordinator-side before workers exist, so
  // it polls the USER's cancel token (plus its own deadline/memory budget
  // via the usual engine machinery).
  ExplorerOptions ProbeOptions() const {
    ExplorerOptions opts = WorkerOptions();
    opts.cancel_token = options_.cancel_token;
    return opts;
  }

  // Restores the parallel work list from options_.resume_path. Serial and
  // parallel checkpoints interconvert freely: a serial file yields one
  // (possibly in-progress) whole-tree item, and worker count never matters
  // because the items come from the file.
  bool TryResume(std::vector<CheckpointSubtree>* items, VerdictCache* verdicts) {
    if (options_.resume_path.empty()) {
      return false;
    }
    CheckpointData data;
    Status st = LoadCheckpoint(options_.resume_path, ExplorationConfigFp(options_), &data);
    if (!st.ok()) {
      std::fprintf(stderr, "[parallel-explorer] resume rejected, starting fresh: %s\n",
                   st.ToString().c_str());
      return false;
    }
    *items = std::move(data.subtrees);
    for (CheckpointSubtree& item : *items) {
      item.partial.truncated = false;
      item.partial.outcome = RunOutcome::kComplete;
    }
    for (const auto& [fp, verdict] : data.verdicts) {
      verdicts->Insert(fp, verdict, VerdictEntryBytes(verdict));
    }
    return true;
  }

  // Snapshots `items` (under `mu` when workers may still be committing)
  // and writes the checkpoint file. Coordinator-only: workers never see a
  // checkpoint path.
  void WriteSnapshot(const std::vector<CheckpointSubtree>& items, std::mutex* mu) {
    if (options_.checkpoint_path.empty()) {
      return;
    }
    CheckpointData data;
    data.config_fp = ExplorationConfigFp(options_);
    data.parallel = true;
    data.outcome = cause_.load(std::memory_order_relaxed);
    if (mu != nullptr) {
      std::scoped_lock lock(*mu);
      data.subtrees = items;
    } else {
      data.subtrees = items;
    }
    if (options_.dedup_histories && verdict_snapshot_source_ != nullptr) {
      verdict_snapshot_source_->ForEach(
          [&](const Hash128& fp, const std::optional<std::string>& verdict) {
            data.verdicts.emplace_back(fp, verdict);
          });
    }
    Status st = SaveCheckpoint(options_.checkpoint_path, data);
    if (!st.ok()) {
      std::fprintf(stderr, "[parallel-explorer] checkpoint write failed: %s\n",
                   st.ToString().c_str());
    }
  }

  Report RunRandom() {
    const uint64_t runs = options_.random_runs;
    const int workers =
        WorkerCount(static_cast<size_t>(runs < 1'000'000 ? runs : 1'000'000));
    std::vector<Report> worker_reports(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      // Even split; the first (runs % workers) workers take one extra.
      uint64_t share = runs / workers + (static_cast<uint64_t>(w) < runs % workers ? 1 : 0);
      pool.emplace_back([this, w, share, report = &worker_reports[w]] {
        ExplorerOptions opts = WorkerOptions();
        // Random workers poll the user's token directly: there is no
        // keep_going relay in this mode, and random walks are not
        // resumable anyway (no checkpoint to coordinate).
        opts.cancel_token = options_.cancel_token;
        opts.random_runs = share;
        // Independent stream per worker, derived from the user seed.
        uint64_t state = options_.seed + static_cast<uint64_t>(w);
        opts.seed = SplitMix64(state);
        Explorer<Spec> engine(spec_, factory_, opts);
        *report = engine.Run();
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
    Report aggregate;
    for (const Report& r : worker_reports) {
      MergeReport(&aggregate, r);
      // Strongest worker outcome wins (RunOutcome is severity-ordered).
      aggregate.outcome = std::max(aggregate.outcome, r.outcome);
    }
    TrimReportViolations(&aggregate, options_.max_violations);
    return aggregate;
  }

  Spec spec_;
  Factory factory_;
  ExplorerOptions options_;
  // Stop fan-out: the first detected cause is recorded here and the token
  // below cancels every worker engine. Mutable per Run().
  std::atomic<RunOutcome> cause_{RunOutcome::kComplete};
  mutable CancelToken internal_cancel_;
  // The shared verdict cache of the CURRENT RunExhaustive, for checkpoint
  // snapshots (set while workers run; null otherwise).
  VerdictCache* verdict_snapshot_source_ = nullptr;
};

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_PARALLEL_EXPLORER_H_
