// bench_crashreal: the cross-process crash soak (src/crashreal) as a bench.
//
// Default mode runs seeded kill/recover soaks for TxnLog (PosixDisk) and
// Mailboat (PosixFilesys) in both regimes and prints one row per
// (system, regime) cell; `--json <path>` UPSERTS the rows into the shared
// BENCH_refine.json document (rows with the same (system, por) are
// replaced, everything else is preserved verbatim).
//
// `--replay <trace>`: load a pcc-crashreal v1 artifact written when a soak
// diverged, re-run the seeded soak up to the diverging round, and report
// whether the divergence (and its classification) reproduces — exit 0 iff
// it does. Every crash-harness finding is a one-command repro, mirroring
// `bench_pct --replay`.
//
// `--mutate <name>` (repeatable) arms a seeded bug, e.g.:
//   bench_crashreal --system txnlog --regime powerfail --mutate no_write_barrier
//   bench_crashreal --system mailboat --regime powerfail --mutate no_dir_fsync
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/crashreal/runner.h"
#include "src/crashreal/trace.h"

namespace {

using namespace perennial;  // NOLINT
using benchjson::PorJsonRow;
using crashreal::CrashRealConfig;
using crashreal::SoakSummary;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string DefaultWorkdir() {
  return "/tmp/pcc-crashreal-" + std::to_string(::getpid());
}

int Replay(const char* path, const char* workdir) {
  crashreal::CrashTrace trace;
  Status s = crashreal::LoadCrashTrace(path, &trace);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_crashreal --replay: %s\n", s.ToString().c_str());
    return 2;
  }
  std::string wd = workdir != nullptr ? workdir : DefaultWorkdir();
  CrashRealConfig config = crashreal::ConfigFromTrace(trace, wd);
  bool reproduced = false;
  Result<SoakSummary> summary = crashreal::ReplayTrace(config, trace, &reproduced);
  if (!summary.ok()) {
    std::fprintf(stderr, "bench_crashreal --replay: %s\n", summary.status().ToString().c_str());
    return 2;
  }
  for (const crashreal::Divergence& d : summary.value().divergences) {
    std::printf("round %llu kill_at %llu [%s] %s\n", static_cast<unsigned long long>(d.round),
                static_cast<unsigned long long>(d.kill_at), d.classification.c_str(),
                d.detail.c_str());
  }
  std::printf("replay of %s-%s seed %llu round %llu: %s\n", trace.system.c_str(),
              trace.regime.c_str(), static_cast<unsigned long long>(trace.seed),
              static_cast<unsigned long long>(trace.round),
              reproduced ? "REPRODUCED" : "did NOT reproduce");
  return reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> rest;
  const char* replay_path = benchjson::ParseValueFlag(argc, argv, "--replay", &rest);
  int argc2 = static_cast<int>(rest.size());
  char** argv2 = rest.data();
  std::vector<char*> rest2;
  const char* workdir = benchjson::ParseValueFlag(argc2, argv2, "--workdir", &rest2);
  if (replay_path != nullptr) {
    return Replay(replay_path, workdir);
  }
  argc2 = static_cast<int>(rest2.size());
  argv2 = rest2.data();
  std::vector<char*> rest3;
  const char* json_path = benchjson::ParseJsonPath(argc2, argv2, &rest3);
  argc2 = static_cast<int>(rest3.size());
  argv2 = rest3.data();

  uint64_t rounds = 200;
  uint64_t seed = 1;
  uint64_t cross_check_every = 0;
  std::string system = "both";
  std::string regime = "both";
  std::string artifact_dir;
  std::vector<std::string> mutations;
  for (int i = 1; i < argc2; ++i) {
    std::string arg = argv2[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc2) {
        std::fprintf(stderr, "bench_crashreal: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv2[++i];
    };
    if (arg == "--rounds") {
      rounds = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--system") {
      system = next();
    } else if (arg == "--regime") {
      regime = next();
    } else if (arg == "--mutate") {
      mutations.emplace_back(next());
    } else if (arg == "--artifact-dir") {
      artifact_dir = next();
    } else if (arg == "--cross-check-every") {
      cross_check_every = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "bench_crashreal: unknown flag %s\n"
                   "usage: bench_crashreal [--rounds N] [--seed S] [--system txnlog|mailboat|both]"
                   " [--regime kill|powerfail|both] [--mutate NAME]... [--workdir DIR]"
                   " [--artifact-dir DIR] [--cross-check-every N] [--json PATH]"
                   " | --replay TRACE\n",
                   arg.c_str());
      return 2;
    }
  }

  std::string base_workdir = workdir != nullptr ? workdir : DefaultWorkdir();
  std::vector<std::string> systems =
      system == "both" ? std::vector<std::string>{"txnlog", "mailboat"}
                       : std::vector<std::string>{system};
  std::vector<std::string> regimes = regime == "both"
                                         ? std::vector<std::string>{"kill", "powerfail"}
                                         : std::vector<std::string>{regime};

  std::vector<PorJsonRow> rows;
  int exit_code = 0;
  std::printf("%-28s %8s %8s %8s %10s %10s\n", "cell", "rounds", "killed", "diverge", "crossings",
              "ms");
  for (const std::string& sys : systems) {
    for (const std::string& reg : regimes) {
      CrashRealConfig config;
      config.system = sys;
      config.regime = reg;
      config.seed = seed;
      config.rounds = rounds;
      config.workdir = base_workdir + "-" + sys + "-" + reg;
      config.artifact_dir = artifact_dir;
      config.cross_check_every = cross_check_every;
      bool bad_mutation = false;
      for (const std::string& m : mutations) {
        if (!crashreal::ApplyMutationName(m, &config)) {
          std::fprintf(stderr, "bench_crashreal: unknown mutation '%s'\n", m.c_str());
          bad_mutation = true;
        }
      }
      if (bad_mutation) {
        return 2;
      }
      auto start = std::chrono::steady_clock::now();
      Result<SoakSummary> r = crashreal::RunSoak(config);
      double ms = MsSince(start);
      if (!r.ok()) {
        std::fprintf(stderr, "bench_crashreal %s/%s: %s\n", sys.c_str(), reg.c_str(),
                     r.status().ToString().c_str());
        return 2;
      }
      const SoakSummary& s = r.value();
      std::string cell = "crashreal-" + sys + "-" + reg;
      std::printf("%-28s %8llu %8llu %8llu %10llu %10.1f\n", cell.c_str(),
                  static_cast<unsigned long long>(s.rounds),
                  static_cast<unsigned long long>(s.killed),
                  static_cast<unsigned long long>(s.divergences.size()),
                  static_cast<unsigned long long>(s.hook_crossings), ms);
      for (const crashreal::Divergence& d : s.divergences) {
        std::printf("  round %llu kill_at %llu [%s] %s\n    trace: %s\n",
                    static_cast<unsigned long long>(d.round),
                    static_cast<unsigned long long>(d.kill_at), d.classification.c_str(),
                    d.detail.c_str(), d.trace_path.c_str());
      }
      if (!s.ok()) {
        exit_code = 1;
      }
      PorJsonRow row;
      row.system = cell;
      row.por = false;
      row.executions = s.rounds;
      row.deduped = 0;
      row.pruned = 0;
      row.histories = s.killed;
      row.violations = s.divergences.size();
      row.ms = ms;
      row.peak_rss = benchjson::PeakRssBytes();
      row.outcome = s.ok() ? "complete" : "diverged";
      rows.push_back(std::move(row));
    }
  }
  if (json_path != nullptr && !benchjson::UpsertPorJson(json_path, "bench_crashreal", rows)) {
    return 2;
  }
  return exit_code;
}
