// Load generator CLI for the production mail server.
//
// Default mode starts an in-process server (group commit on) and drives it;
// pass --smtp-port/--pop3-port to aim at an external mail_serverd instead.
//
//   bench_loadgen --clients=64 --requests=2000 --root=/tmp/pcc-loadgen
//   bench_loadgen --smtp-port=2525 --pop3-port=1110 --clients=256
//
// Prints one summary line: requests, errors, wall, req/s, p50/p99 latency;
// then CPU per request (in-proc: split into the server's and the load
// generator's share) and (in-proc only) the group-commit counters with the
// mean barrier time, both over the timed window only.
//
// --corpus=N prefills every mailbox with N messages through Mailboat (and
// so through the group committer) before the timed window, one delivery at
// a time, and reports how long that took:
//
//   bench_loadgen --clients=4 --pickup-fraction=1 --corpus=400 --requests=400
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "src/fault/syscall_fault.h"
#include "src/goosefs/filesys.h"
#include "src/netserv/harness.h"
#include "src/netserv/loadgen.h"
#include "src/proc/task.h"

namespace {

uint64_t FlagU64(int argc, char** argv, const char* name, uint64_t def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return std::strtoull(arg.c_str() + want.size(), nullptr, 10);
    }
  }
  return def;
}

double FlagDouble(int argc, char** argv, const char* name, double def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return std::strtod(arg.c_str() + want.size(), nullptr);
    }
  }
  return def;
}

std::string FlagStr(int argc, char** argv, const char* name, const std::string& def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return arg.substr(want.size());
    }
  }
  return def;
}

bool FlagSet(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == name) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perennial::netserv;

  if (FlagSet(argc, argv, "--help")) {
    std::printf(
        "usage: bench_loadgen [--clients=N] [--requests=N] [--users=N]\n"
        "                     [--pickup-fraction=F] [--body-bytes=N] [--rcpts=N] [--threads=N]\n"
        "                     [--root=DIR] [--loops=N] [--executors=N] [--corpus=N]\n"
        "                     [--no-group-commit] [--gc-window-us=N] [--gc-batch=N]\n"
        "                     [--fault-plan=key=rate,...]  (hostile disk, in-proc only)\n"
        "                     [--smtp-port=N --pop3-port=N]  (drive external server)\n"
        "--gc-window-us caps the group-commit window (default 500); batches do not wait\n"
        "at all while barriers average under 50 us. --corpus=N prefills N messages per\n"
        "mailbox through Mailboat before the timed window (in-proc only).\n");
    return 0;
  }

  LoadgenOptions load;
  load.clients = FlagU64(argc, argv, "--clients", 64);
  load.requests = FlagU64(argc, argv, "--requests", 2000);
  load.num_users = FlagU64(argc, argv, "--users", 8);
  load.pickup_fraction = FlagDouble(argc, argv, "--pickup-fraction", 0.25);
  load.body_bytes = FlagU64(argc, argv, "--body-bytes", 256);
  load.rcpts_per_msg = FlagU64(argc, argv, "--rcpts", 1);
  load.threads = FlagU64(argc, argv, "--threads", 1);
  load.rng_seed = FlagU64(argc, argv, "--seed", 1);

  uint16_t ext_smtp = static_cast<uint16_t>(FlagU64(argc, argv, "--smtp-port", 0));
  uint16_t ext_pop3 = static_cast<uint16_t>(FlagU64(argc, argv, "--pop3-port", 0));
  bool inproc = ext_smtp == 0 || ext_pop3 == 0;

  const uint64_t corpus = FlagU64(argc, argv, "--corpus", 0);
  if (corpus > 0 && !inproc) {
    std::fprintf(stderr, "bench_loadgen: --corpus needs the in-proc server\n");
    return 1;
  }

  std::unique_ptr<InprocMailServer> server;
  if (inproc) {
    InprocMailServer::Config config;
    config.root = FlagStr(argc, argv, "--root", "/tmp/pcc-loadgen");
    config.users = load.num_users;
    config.group_commit = !FlagSet(argc, argv, "--no-group-commit");
    config.gc_window_us = FlagU64(argc, argv, "--gc-window-us", 500);
    config.gc_batch = FlagU64(argc, argv, "--gc-batch", 64);
    config.loops = FlagU64(argc, argv, "--loops", 2);
    config.executors = FlagU64(argc, argv, "--executors", load.clients + 8);
    std::string fault_spec = FlagStr(argc, argv, "--fault-plan", "");
    if (!fault_spec.empty()) {
      perennial::Result<perennial::fault::SyscallFaultPlan> plan =
          perennial::fault::SyscallFaultPlan::Parse(fault_spec);
      if (!plan.ok()) {
        std::fprintf(stderr, "bench_loadgen: --fault-plan: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      config.fault_plan = plan.value();
    }
    server = std::make_unique<InprocMailServer>(std::move(config));
    if (!server->Start()) {
      std::fprintf(stderr, "bench_loadgen: in-proc server failed to start\n");
      return 1;
    }
    load.smtp_port = server->smtp_port();
    load.pop3_port = server->pop3_port();
    if (corpus > 0) {
      auto t0 = std::chrono::steady_clock::now();
      for (uint64_t user = 0; user < load.num_users; ++user) {
        for (uint64_t k = 0; k < corpus; ++k) {
          std::string line = "corpus-u" + std::to_string(user) + "-k" + std::to_string(k) + "-";
          line.resize(std::max<size_t>(line.size(), load.body_bytes), 'x');
          auto id = perennial::proc::RunSync(
              server->mail()->Deliver(user, perennial::goosefs::BytesOfString(line + "\r\n")));
          if (!id.ok()) {
            std::fprintf(stderr, "bench_loadgen: corpus delivery failed: %s\n",
                         id.status().ToString().c_str());
            return 1;
          }
        }
      }
      double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                      .count();
      std::printf("corpus: %llu messages in %.1f ms (%.1f us each)\n",
                  static_cast<unsigned long long>(corpus * load.num_users), ms,
                  ms * 1000.0 / static_cast<double>(corpus * load.num_users));
    }
  } else {
    load.smtp_port = ext_smtp;
    load.pop3_port = ext_pop3;
  }

  // Committer counters at the start of the timed window (set-up and the
  // corpus went through the committer too).
  struct GcSnap {
    uint64_t requests = 0, batches = 0, fsyncs = 0, deduped = 0, barrier_ns = 0;
  };
  auto gc_snap = [&] {
    GcSnap g;
    if (server != nullptr) {
      const auto& stats = server->committer()->stats();
      g = {stats.requests.load(), stats.batches.load(), stats.fsyncs_issued.load(),
           stats.deduped.load(), stats.barrier_ns.load()};
    }
    return g;
  };
  const GcSnap gc0 = gc_snap();
  perennial::benchjson::CpuUsage cpu0 = perennial::benchjson::ProcessCpuUsage();
  LoadgenResult result = RunLoadgen(load);
  perennial::benchjson::CpuUsage cpu1 = perennial::benchjson::ProcessCpuUsage();

  double reqs_per_s = result.wall_ms > 0 ? result.ok_requests / (result.wall_ms / 1000.0) : 0;
  std::printf(
      "loadgen: ok=%llu errors=%llu tempfails=%llu retries=%llu shed=%llu "
      "delivers=%llu pickups=%llu wall_ms=%.1f req/s=%.0f "
      "p50_us=%llu p99_us=%llu%s\n",
      static_cast<unsigned long long>(result.ok_requests),
      static_cast<unsigned long long>(result.errors),
      static_cast<unsigned long long>(result.tempfails),
      static_cast<unsigned long long>(result.retries),
      static_cast<unsigned long long>(result.shed_connects),
      static_cast<unsigned long long>(result.delivers),
      static_cast<unsigned long long>(result.pickups), result.wall_ms, reqs_per_s,
      static_cast<unsigned long long>(PercentileUs(result.latencies_us, 50)),
      static_cast<unsigned long long>(PercentileUs(result.latencies_us, 99)),
      result.aborted ? " ABORTED" : "");
  if (result.ok_requests > 0) {
    // Process CPU: the stable per-request cost on a host whose wall clock
    // is disk-noisy. With the in-proc server it includes the load
    // generator's driver threads, whose own CPU is then split out.
    const double reqs = static_cast<double>(result.ok_requests);
    uint64_t du = cpu1.utime_us - cpu0.utime_us;
    uint64_t ds = cpu1.stime_us - cpu0.stime_us;
    std::printf("cpu: %.1f us/req (utime %.1f + stime %.1f)", static_cast<double>(du + ds) / reqs,
                static_cast<double>(du) / reqs, static_cast<double>(ds) / reqs);
    if (server != nullptr) {
      uint64_t client = std::min(result.client_cpu_us, du + ds);
      std::printf("; server %.1f us/req, loadgen %.1f us/req",
                  static_cast<double>(du + ds - client) / reqs, static_cast<double>(client) / reqs);
    }
    std::printf("\n");
  }
  if (server != nullptr) {
    const GcSnap gc1 = gc_snap();
    const uint64_t batches = gc1.batches - gc0.batches;
    std::printf(
        "group_commit: requests=%llu batches=%llu fsyncs=%llu deduped=%llu barrier_us=%.1f\n",
        static_cast<unsigned long long>(gc1.requests - gc0.requests),
        static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(gc1.fsyncs - gc0.fsyncs),
        static_cast<unsigned long long>(gc1.deduped - gc0.deduped),
        batches > 0 ? static_cast<double>(gc1.barrier_ns - gc0.barrier_ns) / 1e3 /
                          static_cast<double>(batches)
                    : 0.0);
    server->Stop();
  }
  return result.aborted ? 1 : 0;
}
