// bench_pct: bugs-found-vs-budget for the PCT deep-bug suite, and the
// one-command reproducer for minimized trace files.
//
// Default mode sweeps every pct_suite.h entry and prints one row per
// (strategy, budget) cell:
//   * dfs     — bounded exhaustive DFS at the calibrated budget (misses);
//   * pct@B/4, pct@B/2, pct@B — PCT d=3, seed 1, growing run budgets;
//   * swarm   — 4 seed batches splitting the full budget.
// With `--json <path>` the rows are UPSERTED into the shared
// BENCH_refine.json document: existing rows with the same (system, por)
// are replaced, all other rows are preserved verbatim.
// `bench_check` re-runs the cheapest PCT cell against the committed row.
//
// `--replay <trace>`: load a pcc-trace v1 file (written by the minimizer),
// rebuild the suite harness named by its run_id, replay the schedule, and
// report the violation — every minimized bug report is reproducible with
//   bench_pct --replay <file>.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/pct_suite.h"
#include "src/refine/explorer.h"
#include "src/refine/minimize.h"
#include "src/refine/parallel_explorer.h"

namespace {

using namespace perennial;           // NOLINT
using namespace perennial::systems;  // NOLINT
using benchjson::PorJsonRow;
using refine::ExplorerOptions;
using refine::Report;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

PorJsonRow MakeRow(const std::string& system, const Report& r, double ms) {
  PorJsonRow row;
  row.system = system;
  row.por = false;
  row.executions = r.executions;
  row.deduped = r.histories_deduped;
  row.pruned = r.por_pruned;
  row.histories = r.histories_checked;
  row.violations = r.violations.size();
  row.ms = ms;
  row.peak_rss = benchjson::PeakRssBytes();
  row.outcome = refine::OutcomeName(r.outcome);
  if (r.truncated && r.outcome == refine::RunOutcome::kComplete) {
    row.outcome = "truncated";  // budget exhausted before the bug: the DFS miss rows
  }
  return row;
}

int Replay(const char* path) {
  refine::TraceFile trace;
  Status s = refine::LoadTrace(path, &trace);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_pct --replay: %s\n", s.ToString().c_str());
    return 2;
  }
  int result = -1;
  ForEachDeepBug([&](const DeepBugInfo& info, auto spec, auto factory) {
    if (trace.run_id != info.slug || result != -1) {
      return;
    }
    using Spec = decltype(spec);
    ExplorerOptions opts;
    opts.max_crashes = info.max_crashes;
    opts.max_violations = 1;
    refine::Explorer<Spec> engine(spec, factory, opts);
    Report r = engine.ReplaySchedule(trace.schedule);
    if (r.violations.empty()) {
      std::printf("replay of %s: NO violation (expected %s)\n", info.slug, trace.kind.c_str());
      result = 1;
      return;
    }
    std::printf("replay of %s: %s\n  schedule: %s\n", info.slug,
                r.violations[0].kind.c_str(), r.violations[0].trace.c_str());
    result = r.violations[0].kind == trace.kind ? 0 : 1;
  });
  if (result == -1) {
    std::fprintf(stderr, "bench_pct --replay: unknown run_id '%s' (not a pct_suite slug)\n",
                 trace.run_id.c_str());
    return 2;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> rest;
  const char* replay_path = benchjson::ParseValueFlag(argc, argv, "--replay", &rest);
  if (replay_path != nullptr) {
    return Replay(replay_path);
  }
  const char* json_path = benchjson::ParseJsonPath(static_cast<int>(rest.size()), rest.data(),
                                                   nullptr);
  const char* filter = benchjson::ParseFilter(static_cast<int>(rest.size()), rest.data(), nullptr);

  std::vector<PorJsonRow> rows;
  std::printf("%-34s %10s %12s %6s %10s\n", "cell", "budget", "executions", "found", "ms");
  ForEachDeepBug([&](const DeepBugInfo& info, auto spec, auto factory) {
    if (!benchjson::FilterMatches(filter, info.slug, info.slug)) {
      return;
    }
    using Spec = decltype(spec);
    auto emit = [&](const std::string& cell, uint64_t budget, const Report& r, double ms) {
      std::printf("%-34s %10llu %12llu %6llu %10.1f\n", cell.c_str(),
                  static_cast<unsigned long long>(budget),
                  static_cast<unsigned long long>(r.executions),
                  static_cast<unsigned long long>(r.violations.size()), ms);
      rows.push_back(MakeRow(cell, r, ms));
    };
    {
      auto start = std::chrono::steady_clock::now();
      Report dfs = refine::Explorer<Spec>(spec, factory, DfsSuiteOptions(info)).Run();
      emit(std::string(info.slug) + "-dfs", info.budget, dfs, MsSince(start));
    }
    for (uint64_t denom : {4, 2, 1}) {
      ExplorerOptions opts = PctSuiteOptions(info, /*seed=*/1);
      opts.random_runs = info.budget / denom;
      auto start = std::chrono::steady_clock::now();
      Report pct = refine::Explorer<Spec>(spec, factory, opts).Run();
      emit(std::string(info.slug) + "-b" + std::to_string(info.budget / denom),
           info.budget / denom, pct, MsSince(start));
    }
    {
      ExplorerOptions opts = PctSuiteOptions(info, /*seed=*/1);
      opts.swarm_seeds = 4;
      opts.random_runs = info.budget / 4;
      auto start = std::chrono::steady_clock::now();
      Report swarm = refine::ParallelExplorer<Spec>(spec, factory, opts).Run();
      emit(std::string(info.slug) + "-swarm", info.budget, swarm, MsSince(start));
    }
  });
  if (json_path != nullptr && !benchjson::UpsertPorJson(json_path, "bench_pct", rows)) {
    return 1;
  }
  return 0;
}
