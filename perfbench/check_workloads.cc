// The two checker workloads. Each repetition runs in a fresh process (this
// binary re-executed in child mode), so nothing — memo caches, allocator
// state, the parent's memory, peak RSS — carries from one repetition to the
// next:
//
//   check-dfs-mailboat  exhaustive DFS with POR over Mailboat on the
//                       modeled GooseFs (2 users; A delivers to user 0, B
//                       delivers to user 1, C picks up, deletes all and
//                       unlocks user 0; mailbox observer on; <= 1 crash).
//   check-pct-gc        PCT (d=3, k=256) with a fixed run budget over the
//                       §9.1 group-commit model; clients {write 1, read},
//                       {write 2}, {write 3}, {flush, read}; <= 1 crash.
//
// Both use ParallelExplorer with 2 workers. Timing is taken only from
// outside the checker: around ParallelExplorer::Run(), from the Report,
// and at the instance factory (one clock read per execution gives the
// per-execution latency; the traced run also times the build and counts
// the instance's run_op / recover calls).
//
// Set-up (make the spec, factory and options, construct the explorer,
// build the first instance) takes about a microsecond, and one sample's
// time depends on the host's state at that moment, so the parent takes a
// sample every 200 ms while it waits for a repetition, about a hundred
// spread over the run.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/mailboat/mail_harness.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/pattern_harness.h"

namespace perfbench {

namespace pcc = perennial;
namespace refine = perennial::refine;

namespace {

constexpr int kWorkers = 2;
// PCT runs per Run(): about a second of checking on a 4-vCPU host.
constexpr uint64_t kPctRuns = 40'000;
constexpr int kSampleEveryMs = 200;

// Everything a user builds before exploring: the spec, the instance
// factory and the options.
template <typename Spec>
struct Checker {
  Spec spec;
  std::function<refine::Instance<Spec>()> factory;
  refine::ExplorerOptions options;
};

// Times one set-up.
template <typename Spec>
double SetupSeconds(const std::function<Checker<Spec>()>& make) {
  uint64_t t0 = NowNs();
  Checker<Spec> c = make();
  refine::ParallelExplorer<Spec> explorer(std::move(c.spec), c.factory, c.options);
  refine::Instance<Spec> first = c.factory();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// The host's CPU clock, as a fixed dependent multiply chain's time per
// iteration (the best of five 20,000-iteration passes, about 25 us each).
// An annotation: it tells a slow CPU clock from other host slowdowns.
double ProbeNsPerIter() {
  uint64_t best = ~0ull;
  for (int pass = 0; pass < 5; ++pass) {
    uint64_t t0 = NowNs();
    volatile uint64_t x = pass;
    for (int i = 0; i < 20'000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    best = std::min(best, NowNs() - t0);
  }
  return static_cast<double>(best) / 20'000;
}

// Per-thread clock at the factory seam: the gap between two consecutive
// instance builds on one worker is one execution (build, run, check).
struct ExecClock {
  uint64_t last_ns = 0;
  std::vector<uint64_t> lat_ns;
};

std::mutex g_clocks_mu;
std::vector<ExecClock*> g_clocks;

ExecClock* Clock() {
  thread_local ExecClock* mine = [] {
    auto* c = new ExecClock();
    std::lock_guard<std::mutex> lock(g_clocks_mu);
    g_clocks.push_back(c);
    return c;
  }();
  return mine;
}

void MarkExecution() {
  ExecClock* c = Clock();
  uint64_t now = NowNs();
  if (c->last_ns != 0) {
    c->lat_ns.push_back(now - c->last_ns);
  }
  c->last_ns = now;
}

// Traced-run counters (padded: the two workers bump them concurrently).
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> v{0};
};
PaddedCounter g_builds, g_build_ns, g_ops, g_recovers;

template <typename Spec>
std::function<refine::Instance<Spec>()> Instrument(std::function<refine::Instance<Spec>()> inner,
                                                   bool trace) {
  if (!trace) {
    return [inner] {
      MarkExecution();
      return inner();
    };
  }
  return [inner] {
    MarkExecution();
    uint64_t t0 = NowNs();
    refine::Instance<Spec> inst = inner();
    g_build_ns.v.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    g_builds.v.fetch_add(1, std::memory_order_relaxed);
    auto run_op = std::move(inst.run_op);
    inst.run_op = [run_op](int client, uint64_t id, typename Spec::Op op) {
      g_ops.v.fetch_add(1, std::memory_order_relaxed);
      return run_op(client, id, std::move(op));
    };
    if (inst.recover) {
      auto recover = std::move(inst.recover);
      inst.recover = [recover](refine::History<Spec>* h) {
        g_recovers.v.fetch_add(1, std::memory_order_relaxed);
        return recover(h);
      };
    }
    return inst;
  };
}

// What one repetition sends back to the parent.
struct RepRecord {
  uint64_t wall_ns = 0;
  uint64_t cpu_us = 0;
  uint64_t maxrss_kb = 0;
  uint64_t executions = 0;
  uint64_t total_steps = 0;
  uint64_t spec_states = 0;
  uint64_t por_pruned = 0;
  uint64_t violations = 0;
  uint64_t outcome = 0;
  uint64_t truncated = 0;
  uint64_t builds = 0;
  uint64_t build_ns = 0;
  uint64_t ops = 0;
  uint64_t recovers = 0;
  // Per-execution latency percentiles of this repetition.
  uint64_t lat_samples = 0;
  double lat_p50_ns = 0;
  double lat_p90_ns = 0;
  double lat_p99_ns = 0;
};

template <typename Spec>
int ChildRun(int out_fd, Checker<Spec> c, bool trace) {
  refine::ParallelExplorer<Spec> explorer(std::move(c.spec), Instrument<Spec>(c.factory, trace),
                                          c.options);
  RepRecord rec;
  Usage u0 = SelfUsage();
  uint64_t t0 = NowNs();
  refine::Report report = explorer.Run();
  rec.wall_ns = NowNs() - t0;
  Usage u1 = SelfUsage();
  rec.cpu_us = u1.cpu_us - u0.cpu_us;
  rec.maxrss_kb = u1.maxrss_kb;
  rec.executions = report.executions;
  rec.total_steps = report.total_steps;
  rec.spec_states = report.spec_states_explored;
  rec.por_pruned = report.por_pruned;
  rec.violations = report.violations.size();
  rec.outcome = static_cast<uint64_t>(report.outcome);
  rec.truncated = report.truncated ? 1 : 0;
  rec.builds = g_builds.v.load();
  rec.build_ns = g_build_ns.v.load();
  rec.ops = g_ops.v.load();
  rec.recovers = g_recovers.v.load();
  std::vector<uint64_t> lat;
  std::lock_guard<std::mutex> lock(g_clocks_mu);
  for (ExecClock* clock : g_clocks) {
    lat.insert(lat.end(), clock->lat_ns.begin(), clock->lat_ns.end());
  }
  rec.lat_samples = lat.size();
  rec.lat_p50_ns = Percentile(lat, 50);
  rec.lat_p90_ns = Percentile(lat, 90);
  rec.lat_p99_ns = Percentile(lat, 99);
  return WriteAll(out_fd, &rec, sizeof(rec)) ? 0 : 3;
}

refine::ExplorerOptions BaseOptions() {
  refine::ExplorerOptions options;
  options.max_crashes = 1;
  options.num_workers = kWorkers;
  return options;
}

Checker<pcc::mailboat::MailSpec> MakeDfsMailboat(uint64_t seed) {
  // The seed picks the two delivered bodies (distinct single letters: the
  // model's chunk size is 2, so the length, and with it the state space,
  // is the same for every seed).
  const char a = static_cast<char>('a' + seed % 13);
  const char b = static_cast<char>('n' + (seed / 13) % 13);
  pcc::mailboat::MailHarnessOptions mail;
  mail.num_users = 2;
  mail.observe_mailboxes = true;
  using Kind = pcc::mailboat::MailAction::Kind;
  mail.client_scripts = {
      {{Kind::kDeliver, 0, std::string(1, a)}},
      {{Kind::kDeliver, 1, std::string(1, b)}},
      {{Kind::kPickupDeleteAllUnlock, 0, ""}},
  };
  Checker<pcc::mailboat::MailSpec> c;
  c.spec.num_users = 2;
  c.factory = [mail] { return pcc::mailboat::MakeMailInstance(mail); };
  c.options = BaseOptions();
  c.options.mode = refine::ExplorerOptions::Mode::kExhaustive;
  return c;
}

Checker<pcc::systems::GcSpec> MakePctGc(uint64_t seed) {
  using pcc::systems::GcSpec;
  pcc::systems::GcHarnessOptions gc;
  gc.client_ops = {
      {GcSpec::MakeWrite(1), GcSpec::MakeRead()},
      {GcSpec::MakeWrite(2)},
      {GcSpec::MakeWrite(3)},
      {GcSpec::MakeFlush(), GcSpec::MakeRead()},
  };
  Checker<GcSpec> c;
  c.factory = [gc] { return pcc::systems::MakeGcInstance(gc); };
  c.options = BaseOptions();
  c.options.mode = refine::ExplorerOptions::Mode::kPct;
  c.options.pct_depth = 3;
  c.options.pct_change_budget = 256;
  c.options.random_runs = kPctRuns;
  c.options.seed = seed;
  return c;
}

bool IsDfs(const std::string& workload) { return workload == "check-dfs-mailboat"; }

// Runs one repetition in a fresh process, calling `tick` every
// kSampleEveryMs while it waits; false if the child died or sent a short
// record.
bool SpawnRep(const Args& args, RepRecord* rec, const std::function<void()>& tick) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return false;
  }
  pid_t pid = SpawnSelf({"--child", "check", args.workload, std::to_string(args.seed),
                         args.trace ? "1" : "0", std::to_string(fds[1])},
                        {fds[1]});
  ::close(fds[1]);
  struct pollfd pfd = {fds[0], POLLIN, 0};
  while (pid > 0 && ::poll(&pfd, 1, kSampleEveryMs) == 0) {
    tick();
  }
  bool ok = pid > 0 && ReadAll(fds[0], rec, sizeof(*rec));
  ::close(fds[0]);
  return WaitChild(pid) && ok;
}

}  // namespace

int RunCheckChild(const std::string& workload, uint64_t seed, bool trace, int out_fd) {
  return IsDfs(workload) ? ChildRun(out_fd, MakeDfsMailboat(seed), trace)
                         : ChildRun(out_fd, MakePctGc(seed), trace);
}

RunResult RunCheckWorkload(const Args& args) {
  RunResult res;
  const uint64_t exact_runs = args.workload == "check-pct-gc" ? kPctRuns : 0;
  std::vector<double> setup_s, probe_ns, wall_s, cpu_s, rss_mb, p50, p90, p99;
  const std::function<void()> tick = [&] {
    setup_s.push_back(IsDfs(args.workload)
                          ? SetupSeconds<pcc::mailboat::MailSpec>(
                                [&] { return MakeDfsMailboat(args.seed); })
                          : SetupSeconds<pcc::systems::GcSpec>(
                                [&] { return MakePctGc(args.seed); }));
    probe_ns.push_back(ProbeNsPerIter());
  };
  RepRecord first;
  bool have_first = false;
  const uint64_t steal0 = StealTicks();
  const uint64_t start = NowNs();

  // Timed repetitions: keep going while another one (at the median
  // repetition time so far) still fits in the window; at least one.
  for (;;) {
    RepRecord rec;
    res.attempted += 1;
    if (!SpawnRep(args, &rec, tick)) {
      res.failed += 1;
      res.correct = false;
      res.problems.push_back("checker child died or sent a short record");
      break;
    }
    std::string why;
    if (rec.violations != 0) {
      why = "verdict has " + std::to_string(rec.violations) + " violations (expected 0)";
    } else if (rec.outcome != static_cast<uint64_t>(refine::RunOutcome::kComplete)) {
      why = "outcome is not complete";
    } else if (rec.truncated != 0) {
      why = "exploration truncated";
    } else if (exact_runs != 0 && rec.executions != exact_runs) {
      why = "ran " + std::to_string(rec.executions) + " executions, budget " +
            std::to_string(exact_runs);
    } else if (have_first && (rec.executions != first.executions ||
                              rec.total_steps != first.total_steps ||
                              rec.spec_states != first.spec_states)) {
      why = "counts differ between repetitions of one seed";
    }
    if (!why.empty()) {
      res.failed += 1;
      res.correct = false;
      if (std::find(res.problems.begin(), res.problems.end(), why) == res.problems.end()) {
        res.problems.push_back(why);
      }
    }
    if (!have_first) {
      first = rec;
      have_first = true;
    }
    wall_s.push_back(static_cast<double>(rec.wall_ns) / 1e9);
    cpu_s.push_back(static_cast<double>(rec.cpu_us) / 1e6);
    rss_mb.push_back(static_cast<double>(rec.maxrss_kb) / 1024.0);
    p50.push_back(rec.lat_p50_ns / 1e3);
    p90.push_back(rec.lat_p90_ns / 1e3);
    p99.push_back(rec.lat_p99_ns / 1e3);
    if (static_cast<double>(NowNs() - start) + Median(wall_s) * 1e9 > args.seconds * 1e9) {
      break;
    }
  }
  if (!have_first) {
    return res;
  }
  if (setup_s.empty()) {
    tick();
  }
  const uint64_t steal1 = StealTicks();

  const double execs = static_cast<double>(first.executions);
  const double verdict = Median(wall_s);
  const double cpu = Median(cpu_s);
  res.e2e["setup_s"] = Median(setup_s);
  res.e2e["ops_per_s"] = execs / verdict;
  res.e2e["lat_p50_us"] = Median(p50);
  res.e2e["lat_p90_us"] = Median(p90);
  res.e2e["cpu_us_per_op"] = cpu * 1e6 / execs;
  res.e2e["peak_rss_mb"] = Median(rss_mb);

  res.family["setup_s"] = res.e2e["setup_s"];
  res.family["verdict_s"] = verdict;
  res.family["check_cpu_s"] = cpu;
  res.family["peak_rss_mb"] = res.e2e["peak_rss_mb"];
  res.family["failed_frac"] =
      static_cast<double>(res.failed) / static_cast<double>(std::max<uint64_t>(1, res.attempted));

  res.notes["repetitions"] = static_cast<double>(wall_s.size());
  res.notes["setup_samples"] = static_cast<double>(setup_s.size());
  res.notes["probe_ns_per_iter"] = Median(probe_ns);
  res.notes["verdict_s_min"] = *std::min_element(wall_s.begin(), wall_s.end());
  res.notes["verdict_s_max"] = *std::max_element(wall_s.begin(), wall_s.end());
  res.notes["lat_p99_us"] = Median(p99);
  res.notes["lat_samples"] = static_cast<double>(first.lat_samples);
  res.notes["steal_ticks"] = static_cast<double>(steal1 - steal0);
  res.notes["executions"] = execs;
  res.notes["total_steps"] = static_cast<double>(first.total_steps);
  res.notes["spec_states"] = static_cast<double>(first.spec_states);

  res.layers["refine.executions"] = execs;
  res.layers["refine.steps_per_exec"] = static_cast<double>(first.total_steps) / execs;
  res.layers["refine.spec_states_per_exec"] = static_cast<double>(first.spec_states) / execs;
  res.layers["refine.por_pruned_frac"] = static_cast<double>(first.por_pruned) / execs;
  res.layers["refine.cpu_us_per_exec"] = cpu * 1e6 / execs;
  res.layers["pool.worker_util"] = cpu / (verdict * kWorkers);
  if (args.trace) {
    res.layers["sut.builds_per_exec"] = static_cast<double>(first.builds) / execs;
    res.layers["sut.build_us_per_exec"] = static_cast<double>(first.build_ns) / 1e3 / execs;
    res.layers["sut.ops_per_exec"] = static_cast<double>(first.ops) / execs;
    res.layers["sut.recovers_per_exec"] = static_cast<double>(first.recovers) / execs;
  }
  return res;
}

}  // namespace perfbench
