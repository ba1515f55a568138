// §9.1 reproduction: "Can Perennial be used to verify a variety of
// crash-safety patterns in concurrent systems?"
//
// The paper answers by exhibiting machine-checked proofs; the executable
// analogue is an exhaustive checker run per pattern — every interleaving
// of the configured workload, every crash point (including crashes during
// recovery), checked for concurrent recovery refinement, with the crash
// invariant evaluated at every step. A row with 0 violations is this
// repository's version of "the pattern verifies".
//
// Two ablations quantify the design choices DESIGN.md calls out:
//  * crash-point enumeration off (max_crashes = 0): how much of the state
//    space the crash dimension adds;
//  * recovery helping off (the WAL mutant whose recovery discards the
//    committed transaction while still claiming help): shows the helping
//    obligation is what rejects bogus recoveries.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "src/base/table.h"
#include "src/mailboat/mail_harness.h"
#include "src/refine/explorer.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/pattern_harness.h"
#include "src/systems/ftl/ftl_harness.h"
#include "src/systems/kvs/kv_harness.h"
#include "src/systems/txnlog/txn_harness.h"
#include "src/systems/repl/repl_harness.h"

namespace {

using namespace perennial;           // NOLINT
using namespace perennial::systems;  // NOLINT
using refine::Explorer;
using refine::ExplorerOptions;
using refine::Report;

struct RowResult {
  Report report;
  double ms = 0;
};

// Durable-run support (--deadline-ms / --checkpoint / --resume / Ctrl-C):
// every row polls this token, so one SIGINT drains the row in flight,
// flushes its checkpoint (when --checkpoint is set), and lets the bench
// finish writing whatever JSON it has. RequestCancel is a relaxed atomic
// store — async-signal-safe.
refine::CancelToken g_sigint_cancel;

void OnSigint(int) { g_sigint_cancel.RequestCancel(); }

// Per-row durability knobs. Checkpoints are per CELL (one file per table
// row), named <base>.<cell>.ckpt, with run_id = cell so a resume against
// the wrong cell's file is rejected by the config fingerprint. A completed
// cell's checkpoint replays instantly on resume, so re-running the whole
// bench with --resume regenerates the full JSON while only paying for the
// cells the interrupted run never finished.
struct DurableCfg {
  uint64_t deadline_ms = 0;  // per row, not per sweep
  const char* checkpoint_base = nullptr;
  const char* resume_base = nullptr;

  ExplorerOptions Apply(ExplorerOptions opts, const std::string& cell) const {
    opts.wall_deadline_ms = deadline_ms;
    opts.run_id = cell;
    if (checkpoint_base != nullptr) {
      opts.checkpoint_path = std::string(checkpoint_base) + "." + cell + ".ckpt";
    }
    if (resume_base != nullptr) {
      opts.resume_path = std::string(resume_base) + "." + cell + ".ckpt";
    }
    return opts;
  }
};

DurableCfg g_durable;

template <typename Spec, typename Factory>
RowResult RunCheckerOpts(Spec spec, Factory factory, ExplorerOptions opts) {
  if (opts.cancel_token == nullptr) {
    opts.cancel_token = &g_sigint_cancel;
  }
  auto start = std::chrono::steady_clock::now();
  Explorer<Spec> ex(std::move(spec), factory, opts);
  RowResult row;
  row.report = ex.Run();
  row.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
               .count();
  return row;
}

template <typename Spec, typename Factory>
RowResult RunChecker(Spec spec, Factory factory, int max_crashes) {
  ExplorerOptions opts;
  opts.max_crashes = max_crashes;
  return RunCheckerOpts(std::move(spec), std::move(factory), opts);
}

// One §9.1 pattern, registered once and run under several option sets (the
// headline table, then the POR before/after sweep). `run` must be a pure
// function of the options: the harness options are captured by value.
struct Sec91System {
  std::string name;  // table label
  std::string slug;  // stable JSON identifier
  int max_crashes = 1;
  std::function<RowResult(ExplorerOptions)> run;
};

std::vector<Sec91System> BuildSystems() {
  std::vector<Sec91System> systems;
  {
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    systems.push_back({"Replicated disk (2 writers)", "repl-2writers", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             ReplSpec{1}, [options] { return MakeReplInstance(options); }, opts);
                       }});
  }
  {
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 9)}, {ReplSpec::MakeRead(0)}};
    options.with_disk1_failure_event = true;
    systems.push_back({"Replicated disk (failover)", "repl-failover", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             ReplSpec{1}, [options] { return MakeReplInstance(options); }, opts);
                       }});
  }
  {
    ShadowHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
    systems.push_back({"Shadow copy (2 writers)", "shadow-2writers", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             PairSpec{}, [options] { return MakeShadowInstance(options); }, opts);
                       }});
  }
  {
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
    systems.push_back({"Write-ahead log (2 writers)", "wal-2writers", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             PairSpec{}, [options] { return MakeWalInstance(options); }, opts);
                       }});
  }
  {
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    systems.push_back({"Write-ahead log (recovery crash)", "wal-recovery-crash", 2,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             PairSpec{}, [options] { return MakeWalInstance(options); }, opts);
                       }});
  }
  {
    // Two writers racing the double-crash window: unlike the single-client
    // control row above, this workload has thread alternatives to commute,
    // so POR gets traction on the crash-during-recovery state space too.
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}};
    systems.push_back({"Write-ahead log (recovery crash, 2 writers)", "wal-recovery-crash-2c", 2,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             PairSpec{}, [options] { return MakeWalInstance(options); }, opts);
                       }});
  }
  {
    GcHarnessOptions options;
    options.client_ops = {{GcSpec::MakeWrite(1)}, {GcSpec::MakeWrite(2)}, {GcSpec::MakeFlush()}};
    systems.push_back({"Group commit (2 writers + flush)", "group-commit", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             GcSpec{}, [options] { return MakeGcInstance(options); }, opts);
                       }});
  }
  {
    mailboat::MailHarnessOptions options;
    options.num_users = 1;
    options.client_scripts = {
        {{mailboat::MailAction::Kind::kDeliver, 0, "a"}},
        {{mailboat::MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
    };
    systems.push_back({"Mailboat (deliver vs pickup+delete)", "mailboat", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             mailboat::MailSpec{1},
                             [options] { return mailboat::MakeMailInstance(options); }, opts);
                       }});
  }
  {
    // Extension: the mini flash translation layer (§1's "lower-level
    // storage systems like ... flash translation layers").
    FtlHarnessOptions options;
    options.num_lbas = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    systems.push_back({"Mini-FTL (2 writers; extension)", "ftl-2writers", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             ReplSpec{1}, [options] { return MakeFtlInstance(options); }, opts);
                       }});
  }
  {
    // Extension beyond the paper: the general transaction-log engine.
    TxnHarnessOptions options;
    options.num_addrs = 2;
    options.client_ops = {{TxnSpec::MakeBatch({{0, 1}, {1, 2}})}, {TxnSpec::MakeRead(0)}};
    systems.push_back({"Txn log (batch vs reader; extension)", "txnlog", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             TxnSpec{2}, [options] { return MakeTxnInstance(options); }, opts);
                       }});
  }
  {
    // Extension beyond the paper: the layered KV store (DESIGN.md §4).
    KvHarnessOptions options;
    options.num_keys = 2;
    options.client_ops = {{KvSpec::MakePutPair(0, 1, 1, 2)}, {KvSpec::MakeGet(0)}};
    systems.push_back({"Durable KV (txn vs reader; extension)", "durable-kv", 1,
                       [options](ExplorerOptions opts) {
                         return RunCheckerOpts(
                             KvSpec{2}, [options] { return MakeKvInstance(options); }, opts);
                       }});
  }
  return systems;
}

void AddRow(TextTable& table, const std::string& name, const RowResult& row) {
  std::string time = FixedDigits(row.ms, 0) + " ms";
  if (row.report.outcome != refine::RunOutcome::kComplete) {
    time += std::string(" (") + refine::OutcomeName(row.report.outcome) + ")";
  }
  table.AddRow({name, WithCommas(row.report.executions), WithCommas(row.report.total_steps),
                WithCommas(row.report.crashes_injected),
                WithCommas(row.report.spec_states_explored),
                std::to_string(row.report.violations.size()), time});
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = perennial::benchjson::ParseJsonPath(argc, argv, nullptr);
  const char* filter = perennial::benchjson::ParseFilter(argc, argv, nullptr);
  const char* deadline = perennial::benchjson::ParseValueFlag(argc, argv, "--deadline-ms", nullptr);
  if (deadline != nullptr) {
    g_durable.deadline_ms = std::strtoull(deadline, nullptr, 10);
  }
  g_durable.checkpoint_base = perennial::benchjson::ParseValueFlag(argc, argv, "--checkpoint", nullptr);
  g_durable.resume_base = perennial::benchjson::ParseValueFlag(argc, argv, "--resume", nullptr);
  std::signal(SIGINT, OnSigint);

  std::printf("== Section 9.1: checker verification of every crash-safety pattern ==\n");
  std::printf("(exhaustive over the configured workloads; crashes may also hit recovery)\n\n");

  std::vector<Sec91System> systems = BuildSystems();
  if (filter != nullptr) {
    std::erase_if(systems, [&](const Sec91System& sys) {
      return !perennial::benchjson::FilterMatches(filter, sys.name, sys.slug);
    });
    std::printf("--filter '%s': %zu of 11 systems selected\n\n", filter, systems.size());
  }

  TextTable table({"Pattern", "executions", "steps", "crashes", "spec states", "violations",
                   "time"});
  for (const Sec91System& sys : systems) {
    ExplorerOptions opts;
    opts.max_crashes = sys.max_crashes;
    AddRow(table, sys.name, sys.run(g_durable.Apply(opts, sys.slug + ".head")));
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("== State-space pruning: before/after per pattern ==\n");
  std::printf("(before = sleep-set POR off; after = POR on; the post-crash continuation\n");
  std::printf(" cache runs in both; workloads identical to the headline table. Verdicts\n");
  std::printf(" must not change — the tier2-por equivalence suite enforces that.)\n\n");
  std::vector<perennial::benchjson::PorJsonRow> json_rows;
  {
    TextTable por({"Pattern", "execs off", "execs on", "reduction", "spec states on",
                   "time off", "time on", "speedup"});
    double total_off_ms = 0;
    double total_on_ms = 0;
    uint64_t total_off_execs = 0;
    uint64_t total_on_execs = 0;
    for (const Sec91System& sys : systems) {
      ExplorerOptions opts;
      opts.max_crashes = sys.max_crashes;
      opts.use_por = false;
      RowResult off = sys.run(g_durable.Apply(opts, sys.slug + ".off"));
      opts.use_por = true;
      RowResult on = sys.run(g_durable.Apply(opts, sys.slug + ".on"));
      total_off_ms += off.ms;
      total_on_ms += on.ms;
      total_off_execs += off.report.executions;
      total_on_execs += on.report.executions;
      for (const RowResult* r : {&off, &on}) {
        json_rows.push_back({sys.slug, r == &on, r->report.executions,
                             r->report.histories_deduped, r->report.por_pruned,
                             r->report.histories_checked,
                             static_cast<uint64_t>(r->report.violations.size()), r->ms,
                             perennial::benchjson::PeakRssBytes(),
                             refine::OutcomeName(r->report.outcome)});
        json_rows.back().crash_pruned = r->report.crash_pruned;
      }
      por.AddRow({sys.name, WithCommas(off.report.executions),
                  WithCommas(on.report.executions),
                  FixedDigits(static_cast<double>(off.report.executions) /
                                  static_cast<double>(on.report.executions ? on.report.executions
                                                                           : 1),
                              1) + "x",
                  WithCommas(on.report.spec_states_explored), FixedDigits(off.ms, 0) + " ms",
                  FixedDigits(on.ms, 0) + " ms",
                  FixedDigits(off.ms / (on.ms > 0 ? on.ms : 1), 1) + "x"});
    }
    por.AddRow({"TOTAL", WithCommas(total_off_execs), WithCommas(total_on_execs),
                FixedDigits(static_cast<double>(total_off_execs) /
                                static_cast<double>(total_on_execs ? total_on_execs : 1),
                            1) + "x",
                "", FixedDigits(total_off_ms, 0) + " ms", FixedDigits(total_on_ms, 0) + " ms",
                FixedDigits(total_off_ms / (total_on_ms > 0 ? total_on_ms : 1), 1) + "x"});
    std::printf("%s\n", por.Render().c_str());
  }

  // The ablation and parallel sections run fixed workloads, not the
  // per-system sweep, so a --filter run skips them.
  if (filter == nullptr) {
  std::printf("== Ablations ==\n\n");
  TextTable ablation({"Configuration", "executions", "crashes", "violations", "time"});
  {
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    RowResult with_crashes = RunChecker(ReplSpec{1}, [&] { return MakeReplInstance(options); }, 1);
    RowResult without = RunChecker(ReplSpec{1}, [&] { return MakeReplInstance(options); }, 0);
    ablation.AddRow({"repl: crash points ON", WithCommas(with_crashes.report.executions),
                     WithCommas(with_crashes.report.crashes_injected),
                     std::to_string(with_crashes.report.violations.size()),
                     FixedDigits(with_crashes.ms, 0) + " ms"});
    ablation.AddRow({"repl: crash points OFF", WithCommas(without.report.executions),
                     WithCommas(without.report.crashes_injected),
                     std::to_string(without.report.violations.size()),
                     FixedDigits(without.ms, 0) + " ms"});
  }
  {
    // CHESS-style preemption bounding: schedule-space reduction vs coverage.
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    for (int bound : {0, 1, 2}) {
      ExplorerOptions opts;
      opts.max_crashes = 1;
      opts.max_preemptions = bound;
      auto start = std::chrono::steady_clock::now();
      Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
      Report report = ex.Run();
      double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                            start)
                      .count();
      ablation.AddRow({"repl: preemption bound = " + std::to_string(bound),
                       WithCommas(report.executions), WithCommas(report.crashes_injected),
                       std::to_string(report.violations.size()), FixedDigits(ms, 0) + " ms"});
    }
  }
  {
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    options.mutations.recovery_discards_log = true;
    RowResult bogus = RunChecker(PairSpec{}, [&] { return MakeWalInstance(options); }, 1);
    ablation.AddRow({"wal: recovery claims help, applies nothing",
                     WithCommas(bogus.report.executions),
                     WithCommas(bogus.report.crashes_injected),
                     std::to_string(bogus.report.violations.size()) + " (expected >0)",
                     FixedDigits(bogus.ms, 0) + " ms"});
  }
  std::printf("%s\n", ablation.Render().c_str());

  std::printf("== Parallel refinement checking ==\n");
  std::printf("(prefix-partitioned DFS across a worker pool; aggregates are deterministic,\n");
  std::printf(" so executions/violations must match the serial row exactly)\n\n");
  {
    TextTable par({"Configuration", "executions", "deduped", "violations", "time", "speedup"});
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5), ReplSpec::MakeRead(0)},
                          {ReplSpec::MakeWrite(0, 7)}};
    ExplorerOptions opts;
    opts.max_crashes = 1;
    opts.cancel_token = &g_sigint_cancel;
    auto time_run = [&](auto&& run) {
      auto start = std::chrono::steady_clock::now();
      Report report = run();
      double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
      return std::make_pair(report, ms);
    };
    auto [serial, serial_ms] = time_run([&] {
      refine::Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
      return ex.Run();
    });
    par.AddRow({"repl writer+reader vs writer: serial", WithCommas(serial.executions),
                WithCommas(serial.histories_deduped), std::to_string(serial.violations.size()),
                FixedDigits(serial_ms, 0) + " ms", "1.0x"});
    for (int workers : {1, 2, 4}) {
      for (bool dedup : {false, true}) {
        ExplorerOptions popts = opts;
        popts.num_workers = workers;
        popts.dedup_histories = dedup;
        auto [report, ms] = time_run([&] {
          refine::ParallelExplorer<ReplSpec> ex(ReplSpec{1},
                                                [&] { return MakeReplInstance(options); }, popts);
          return ex.Run();
        });
        par.AddRow({"parallel: " + std::to_string(workers) + " worker(s)" +
                        (dedup ? " + fingerprint dedup" : ""),
                    WithCommas(report.executions), WithCommas(report.histories_deduped),
                    std::to_string(report.violations.size()), FixedDigits(ms, 0) + " ms",
                    FixedDigits(serial_ms / (ms > 0 ? ms : 1), 1) + "x"});
      }
    }
    std::printf("%s\n", par.Render().c_str());
  }
  }

  std::printf(
      "paper result: all patterns verified (proofs machine-checked). Here: every\n"
      "pattern row must show 0 violations; the ablation row must show >0 —\n"
      "the helping obligation is what rejects a recovery that lies about\n"
      "completing a committed transaction.\n");

  if (json_path != nullptr) {
    if (perennial::benchjson::UpsertPorJson(json_path, "bench_sec91_patterns", json_rows)) {
      std::printf("\nupserted %zu before/after rows into %s\n", json_rows.size(), json_path);
    } else {
      return 1;
    }
  }
  return 0;
}
