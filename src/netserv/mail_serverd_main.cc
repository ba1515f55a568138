// The production mail daemon: Mailboat over PosixFilesys behind a
// multi-threaded epoll SMTP/POP3 front end, with group-commit fsync
// batching (DESIGN.md §14) and a hostile-disk fault envelope (§15).
//
// Quickstart:
//   mail_serverd --root /tmp/mail --smtp-port 2525 --pop3-port 1110
//   bench_loadgen --smtp-port 2525 --pop3-port 1110 --clients 64
//
// Prints one line "ports <smtp> <pop3>" to stdout once listening (so a
// parent process driving ephemeral ports can read them back), then serves
// until SIGINT (fast stop) or SIGTERM (graceful drain: stop accepting,
// flush in-flight acks, then exit).
//
// --supervise runs a tiny restart supervisor: the server runs in a child
// process; if the child dies (crash, OOM kill), the supervisor re-forks it
// with bounded exponential backoff, and the fresh child re-runs Mailboat's
// Recover against the surviving store — the same crash-restart contract the
// crashreal harness checks, now available in production form. Signals sent
// to the supervisor are forwarded to the child.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/fault/syscall_fault.h"
#include "src/goose/world.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/mailboat.h"
#include "src/netserv/group_commit.h"
#include "src/netserv/server.h"
#include "src/proc/task.h"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_drain{false};  // SIGTERM: drain before stopping

void OnSignal(int signum) {
  if (signum == SIGTERM) {
    g_drain.store(true);
  }
  g_stop.store(true);
}

// Supervisor state: the handler forwards the signal straight to the child
// (kill(2) is async-signal-safe) so a drain request reaches the server.
volatile pid_t g_child = -1;

void OnSupervisorSignal(int signum) {
  g_stop.store(true);
  pid_t child = g_child;
  if (child > 0) {
    ::kill(child, signum);
  }
}

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

int RunServer(int argc, char** argv) {
  using namespace perennial;

  std::string root = FlagStr(argc, argv, "--root", "/tmp/perennial-mail");
  uint64_t users = FlagU64(argc, argv, "--users", 100);
  bool group_commit = !FlagSet(argc, argv, "--no-group-commit");

  ::mkdir(root.c_str(), 0755);  // best effort; EnsureDirs handles the rest

  // A directory fd on the store's filesystem anchors the syncfs barrier.
  int root_fd = ::open(root.c_str(), O_DIRECTORY | O_RDONLY);
  if (root_fd < 0) {
    std::fprintf(stderr, "mail_serverd: cannot open root %s: %s\n", root.c_str(),
                 std::strerror(errno));
    return 1;
  }

  // Hostile-disk mode (soaks and demos): inject syscall faults at the
  // configured rates into the data path and the commit barriers.
  std::unique_ptr<fault::FaultInjectingSyscalls> faults;
  std::string fault_spec = FlagStr(argc, argv, "--fault-plan", "");
  if (!fault_spec.empty()) {
    Result<fault::SyscallFaultPlan> plan = fault::SyscallFaultPlan::Parse(fault_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "mail_serverd: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    if (plan.value().Any()) {
      faults = std::make_unique<fault::FaultInjectingSyscalls>(plan.value());
    }
  }

  netserv::GroupCommitter committer(netserv::GroupCommitter::Options{
      .max_wait_us = FlagU64(argc, argv, "--gc-window-us", 500),
      .max_batch = FlagU64(argc, argv, "--gc-batch", 64),
      .barrier = netserv::GroupCommitter::Barrier::kSyncfs,
      .syncfs_fd = root_fd,
      .sys = faults.get(),
  });
  if (group_commit) {
    committer.Start();
  }

  goosefs::PosixFilesys::Options fs_options;
  fs_options.cache_dir_fds = true;
  fs_options.fsync_dirs = true;
  fs_options.fsyncer = group_commit ? &committer : nullptr;
  if (!FlagSet(argc, argv, "--no-relaxed-spool")) {
    // Recover() reconciles the spool after a crash, so spool-entry
    // dirsyncs buy nothing: skip them (2 barriers per delivery, not 4).
    fs_options.recovery_reconciled_dirs = {"spool"};
  }
  fs_options.sys = faults.get();
  goosefs::PosixFilesys fs(root, fs_options);
  Status s = fs.EnsureDirs(mailboat::Mailboat::DirLayout(users), /*clear_contents=*/false);
  if (!s.ok()) {
    std::fprintf(stderr, "mail_serverd: EnsureDirs: %s\n", s.ToString().c_str());
    return 1;
  }

  goose::World world;
  mailboat::Mailboat mail(&world, &fs, mailboat::Mailboat::Options{users, 4096, 512, 42});
  proc::RunSyncVoid(mail.Recover());

  netserv::MailNetServer::Options server_options;
  server_options.smtp_port = static_cast<uint16_t>(FlagU64(argc, argv, "--smtp-port", 0));
  server_options.pop3_port = static_cast<uint16_t>(FlagU64(argc, argv, "--pop3-port", 0));
  server_options.num_loops = FlagU64(argc, argv, "--loops", 2);
  server_options.num_executors = FlagU64(argc, argv, "--executors", 64);
  server_options.idle_timeout_ms = FlagU64(argc, argv, "--idle-timeout-ms", 0);
  server_options.max_conns = FlagU64(argc, argv, "--max-conns", 0);
  netserv::MailNetServer server(&mail, server_options);
  if (!server.Start()) {
    return 1;
  }

  std::printf("ports %u %u\n", server.smtp_port(), server.pop3_port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "mail_serverd: root=%s users=%llu loops=%llu executors=%llu group_commit=%s%s\n",
               root.c_str(), static_cast<unsigned long long>(users),
               static_cast<unsigned long long>(server_options.num_loops),
               static_cast<unsigned long long>(server_options.num_executors),
               group_commit ? "on" : "off", faults != nullptr ? " fault-plan=on" : "");

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (g_drain.load()) {
    // SIGTERM: graceful. Stop admitting, let in-flight commands finish and
    // their acks reach the wire, then tear down.
    bool drained = server.Drain(FlagU64(argc, argv, "--drain-ms", 5000));
    std::fprintf(stderr, "mail_serverd: drain %s (%llu conns shed)\n",
                 drained ? "complete" : "timed out",
                 static_cast<unsigned long long>(server.shed_connects()));
  }
  server.Stop();
  committer.Stop();
  ::close(root_fd);
  std::fprintf(stderr, "mail_serverd: served %llu lines over %llu connections\n",
               static_cast<unsigned long long>(server.lines_served()),
               static_cast<unsigned long long>(server.accepted()));
  if (faults != nullptr) {
    std::fprintf(stderr, "mail_serverd: injected %s\n", faults->InjectedSummary().c_str());
  }
  return 0;
}

// Crash-restart supervisor: fork the server, wait, re-fork on abnormal
// death with bounded exponential backoff (100ms doubling to 5s, reset
// after a child survives 10s). The restarted child re-runs Recover against
// the store the dead one left behind — acked mail survives, spool orphans
// are reaped. A child that exits cleanly (or a forwarded signal) ends the
// supervisor too.
int RunSupervisor(int argc, char** argv) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSupervisorSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  uint64_t backoff_ms = 100;
  constexpr uint64_t kBackoffCapMs = 5000;
  uint64_t restarts = 0;
  uint64_t max_restarts = FlagU64(argc, argv, "--max-restarts", 0);  // 0 = unlimited

  while (!g_stop.load()) {
    auto born = std::chrono::steady_clock::now();
    pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "mail_serverd: fork: %s\n", std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      // Child: a fresh server generation. Reset inherited handler state.
      ::signal(SIGINT, SIG_DFL);
      ::signal(SIGTERM, SIG_DFL);
      ::_exit(RunServer(argc, argv));
    }
    g_child = pid;
    int wstatus = 0;
    pid_t waited;
    do {
      waited = ::waitpid(pid, &wstatus, 0);
    } while (waited < 0 && errno == EINTR && !g_stop.load());
    g_child = -1;
    if (waited < 0) {
      // Interrupted by our own shutdown signal: the handler already
      // forwarded it; reap the child and exit.
      ::waitpid(pid, &wstatus, 0);
    }
    if (g_stop.load()) {
      return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 0;
    }
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
      return 0;  // clean exit: nothing to supervise
    }
    auto lived = std::chrono::steady_clock::now() - born;
    if (lived >= std::chrono::seconds(10)) {
      backoff_ms = 100;  // the last incarnation was healthy; forgive
    }
    ++restarts;
    if (max_restarts != 0 && restarts > max_restarts) {
      std::fprintf(stderr, "mail_serverd: giving up after %llu restarts\n",
                   static_cast<unsigned long long>(max_restarts));
      return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 1;
    }
    if (WIFSIGNALED(wstatus)) {
      std::fprintf(stderr, "mail_serverd: child killed by signal %d; restart #%llu in %llums\n",
                   WTERMSIG(wstatus), static_cast<unsigned long long>(restarts),
                   static_cast<unsigned long long>(backoff_ms));
    } else {
      std::fprintf(stderr, "mail_serverd: child exited %d; restart #%llu in %llums\n",
                   WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1,
                   static_cast<unsigned long long>(restarts),
                   static_cast<unsigned long long>(backoff_ms));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (FlagSet(argc, argv, "--help")) {
    std::printf(
        "usage: mail_serverd [--root=DIR] [--smtp-port=N] [--pop3-port=N]\n"
        "                    [--users=N] [--loops=N] [--executors=N]\n"
        "                    [--gc-window-us=N] [--gc-batch=N] [--no-group-commit]\n"
        "                    [--no-relaxed-spool] [--fault-plan=key=rate,...]\n"
        "                    [--idle-timeout-ms=N] [--max-conns=N] [--drain-ms=N]\n"
        "                    [--supervise] [--max-restarts=N]\n"
        "  --gc-window-us=N  cap on how long a group-commit batch waits for company\n"
        "                    (default 500); batches do not wait at all while barriers\n"
        "                    average under 50 us (tmpfs), so the cap binds only on\n"
        "                    slower storage\n");
    return 0;
  }
  if (FlagSet(argc, argv, "--supervise")) {
    return RunSupervisor(argc, argv);
  }
  return RunServer(argc, argv);
}
