// Counterexample minimization: shrink a violating execution's recorded
// decision schedule until it is 1-minimal, and persist it as a
// self-contained replayable trace file.
//
// A violation reported by the explorer carries the full decision sequence
// of the execution that manifested it (Violation::schedule) — often
// hundreds of decisions for a PCT or swarm run, most of them irrelevant to
// the bug. MinimizeSchedule() shrinks that sequence with three reduction
// passes, re-validating every candidate by actual re-execution through
// Explorer::ReplaySchedule (never by reasoning about the schedule):
//
//   1. event-range deletion — delta-debugging style: delete contiguous
//      chunks, halving the chunk size down to single decisions;
//   2. thread-subset removal — drop every decision of one thread at a
//      time (a client whose operations are incidental disappears whole);
//   3. crash-point hoisting — move the crash decision earlier; an equal-
//      length schedule is accepted only if the crash strictly moved
//      toward the front (the bug usually lives just before the crash, so
//      hoisting exposes further deletions).
//
// A candidate is accepted iff its replay still produces a violation of the
// same kind. Replay uses intent-based skip-unmatched semantics
// (detail::ScheduleReplayDriver), and every accepted candidate is
// CANONICALIZED to the intent subsequence the replay actually consumed —
// Replay(consumed(X)) reproduces Replay(X), so canonicalization is free,
// and it makes the termination measure strict: each acceptance decreases
// (schedule length, first-crash position) lexicographically. The loop
// stops after a full pass with no acceptance, at which point pass 1's
// chunk=1 sweep has proven the result 1-minimal: deleting any single
// retained decision makes the violation disappear.
//
// The trace-file format ("pcc-trace v1", plain text, one decision per
// line) is deliberately self-contained: run_id names the system harness,
// so `bench_pct --replay <file>` rebuilds the instance and replays the
// schedule — every bug report becomes a one-command repro.
#ifndef PERENNIAL_SRC_REFINE_MINIMIZE_H_
#define PERENNIAL_SRC_REFINE_MINIMIZE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/refine/explorer.h"
#include "src/refine/run_state.h"

namespace perennial::refine {

// A persisted minimized counterexample. `run_id` names the harness that
// reproduces it (the same slug the bench table uses); `kind` is the
// violation class the schedule provokes; `seed` records the PCT/random
// seed that originally found it (informational — replay does not need it).
struct TraceFile {
  std::string run_id;
  std::string kind;
  uint64_t seed = 0;
  std::vector<ScheduleDecision> schedule;
};

// Text round-trip (exposed separately from file I/O for the tests).
std::string FormatTrace(const TraceFile& trace);
Status ParseTrace(const std::string& text, TraceFile* out);

// Plain write / read of the text format. SaveTrace truncates `path`.
Status SaveTrace(const std::string& path, const TraceFile& trace);
Status LoadTrace(const std::string& path, TraceFile* out);

struct MinimizeOptions {
  // Replay budget: minimization stops (possibly before local minimality)
  // once this many candidate re-executions have run. Each replay is one
  // bounded execution, so the default is generous.
  uint64_t max_replays = 50'000;
};

struct MinimizeStats {
  uint64_t replays = 0;   // candidate re-executions performed
  uint64_t accepted = 0;  // candidates that kept the violation
};

struct MinimizeResult {
  // The minimized schedule (canonical intent subsequence). 1-minimal when
  // the replay budget did not run out.
  std::vector<ScheduleDecision> schedule;
  // The violation the minimized schedule produces. Its own `schedule`
  // member holds the FULL decision sequence of the minimized execution
  // (intents plus deterministic default picks) — `schedule` above is the
  // minimal intent list the trace file stores.
  Violation violation;
  MinimizeStats stats;
  // False when the seed witness did not reproduce at all (the result then
  // echoes the seed violation unmodified).
  bool reproduced = false;
};

// Shrinks `seed.schedule` against a fresh system built by `factory` under
// `options` (of which only the execution-shaping fields matter: the
// function clears durability, progress, dedup, and checkpoint knobs and
// pins max_violations to 1). "Still violates" means: the replay reports at
// least one violation and its kind equals seed.kind.
template <typename Spec>
MinimizeResult MinimizeSchedule(const Spec& spec,
                                const typename Explorer<Spec>::Factory& factory,
                                const ExplorerOptions& options, const Violation& seed,
                                const MinimizeOptions& mopts = MinimizeOptions{}) {
  ExplorerOptions opts = options;
  opts.max_violations = 1;
  opts.dedup_histories = false;
  opts.progress_callback = nullptr;
  opts.wall_deadline_ms = 0;
  opts.max_memory_bytes = 0;
  opts.cancel_token = nullptr;
  opts.cancel_after_decisions = 0;
  opts.checkpoint_path.clear();
  opts.resume_path.clear();
  opts.checkpoint_every_execs = 0;
  opts.checkpoint_every_secs = 0;

  MinimizeResult result;
  Explorer<Spec> engine(spec, factory, opts);
  auto replay = [&](const std::vector<ScheduleDecision>& cand,
                    std::vector<ScheduleDecision>* consumed, Violation* out) -> bool {
    ++result.stats.replays;
    Report r = engine.ReplaySchedule(cand, consumed);
    if (r.violations.empty() || r.violations[0].kind != seed.kind) {
      return false;
    }
    if (out != nullptr) {
      *out = r.violations[0];
    }
    return true;
  };
  auto first_crash = [](const std::vector<ScheduleDecision>& s) -> size_t {
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i].kind == detail::AltKind::kCrash) {
        return i;
      }
    }
    return s.size();
  };

  // Canonicalize the seed witness: replay it once and keep the consumed
  // intent subsequence (which reproduces the identical execution).
  std::vector<ScheduleDecision> cur;
  {
    std::vector<ScheduleDecision> consumed;
    if (!replay(seed.schedule, &consumed, &result.violation)) {
      result.schedule = seed.schedule;
      result.violation = seed;
      return result;
    }
    result.reproduced = true;
    cur = std::move(consumed);
  }

  auto budget_left = [&] { return result.stats.replays < mopts.max_replays; };
  auto accept = [&](std::vector<ScheduleDecision> consumed, Violation v) {
    cur = std::move(consumed);
    result.violation = std::move(v);
    ++result.stats.accepted;
  };

  bool changed = true;
  while (changed && budget_left()) {
    changed = false;

    // Pass 1: contiguous range deletion, halving chunk sizes down to 1.
    // Every acceptance strictly shrinks `cur` (the candidate is shorter
    // and the consumed subsequence no longer than the candidate).
    for (size_t chunk = std::max<size_t>(cur.size() / 2, 1); !cur.empty(); chunk /= 2) {
      for (size_t start = 0; start < cur.size() && budget_left();) {
        std::vector<ScheduleDecision> cand;
        cand.reserve(cur.size() - std::min(chunk, cur.size() - start));
        cand.insert(cand.end(), cur.begin(), cur.begin() + start);
        cand.insert(cand.end(), cur.begin() + std::min(start + chunk, cur.size()), cur.end());
        std::vector<ScheduleDecision> consumed;
        Violation v;
        if (replay(cand, &consumed, &v)) {
          accept(std::move(consumed), std::move(v));
          changed = true;
          // Do not advance: the next chunk slid into `start`.
        } else {
          start += chunk;
        }
      }
      if (chunk <= 1) {
        break;
      }
    }

    // Pass 2: drop every decision of one thread at a time.
    std::vector<int> tids;
    for (const ScheduleDecision& d : cur) {
      if (d.kind == detail::AltKind::kThread &&
          std::find(tids.begin(), tids.end(), d.thread) == tids.end()) {
        tids.push_back(d.thread);
      }
    }
    std::sort(tids.begin(), tids.end());
    for (int tid : tids) {
      if (!budget_left()) {
        break;
      }
      std::vector<ScheduleDecision> cand;
      cand.reserve(cur.size());
      for (const ScheduleDecision& d : cur) {
        if (!(d.kind == detail::AltKind::kThread && d.thread == tid)) {
          cand.push_back(d);
        }
      }
      if (cand.size() == cur.size()) {
        continue;  // tid vanished during this pass
      }
      std::vector<ScheduleDecision> consumed;
      Violation v;
      if (replay(cand, &consumed, &v)) {
        accept(std::move(consumed), std::move(v));
        changed = true;
      }
    }

    // Pass 3: hoist the first crash toward the front. Equal-length
    // candidates are accepted only when the crash strictly moved earlier,
    // so the (length, crash-position) measure still decreases.
    const size_t p = first_crash(cur);
    if (p < cur.size() && p > 0) {
      for (size_t q : {size_t{0}, p / 4, p / 2, (3 * p) / 4}) {
        if (q >= p || !budget_left()) {
          continue;
        }
        std::vector<ScheduleDecision> cand = cur;
        ScheduleDecision crash = cand[p];
        cand.erase(cand.begin() + p);
        cand.insert(cand.begin() + q, crash);
        std::vector<ScheduleDecision> consumed;
        Violation v;
        if (replay(cand, &consumed, &v) &&
            (consumed.size() < cur.size() ||
             (consumed.size() == cur.size() && first_crash(consumed) < first_crash(cur)))) {
          accept(std::move(consumed), std::move(v));
          changed = true;
          break;  // positions shifted; re-derive p next round
        }
      }
    }
  }

  result.schedule = std::move(cur);
  return result;
}

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_MINIMIZE_H_
