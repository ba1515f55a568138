// The two mail-server workloads: the production stack (PosixFilesys +
// GroupCommitter + Mailboat + MailNetServer, mail_serverd's defaults) in a
// child process, driven over loopback TCP by the repository's load
// generator from this process.
//
//   serve-deliver  4 pipelined SMTP connections in a closed loop, 256 B
//                  bodies, 1 recipient each; corpus of 100 messages per
//                  user, 8 users.
//   serve-pickup   4 POP3 clients (USER, PASS, LIST, RETR 1, DELE 1, QUIT);
//                  corpus of 400 messages per user. Between measured
//                  batches the child tops every mailbox back up to 400
//                  (unmeasured), so the working set stays the same size
//                  for the whole window.
//
// A run is a few rounds. Each round starts a fresh server on a fresh store
// (a private tmpfs mounted on a directory under .bench_build in the
// child's own mount namespace), measures batches of requests,
// then stops the server and has the child reopen the store with a fresh
// PosixFilesys and Mailboat::Recover and list every message back, which
// this process checks against what the load generator saw acked.
//
// Server-side numbers come from the child itself over a control pipe:
// getrusage (CPU, context switches, peak RSS), GroupCommitter::stats(),
// and, in the traced run, the span totals of the timing decorators at the
// MailApi / Filesys / Fsyncer / FsSyscalls seams (spans.h).
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/mount.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <numeric>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/spans.h"
#include "src/goose/world.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/mailboat.h"
#include "src/netserv/group_commit.h"
#include "src/netserv/loadgen.h"
#include "src/netserv/server.h"
#include "src/proc/task.h"

namespace perfbench {

namespace pcc = perennial;

namespace {

constexpr uint64_t kUsers = 8;
constexpr uint64_t kClients = 4;
constexpr uint64_t kBodyBytes = 256;
constexpr int kRounds = 3;

struct ServeConfig {
  bool pickup = false;
  uint64_t corpus_per_user = 100;
  uint64_t batch_requests = 1000;
  uint64_t seed = 1;
  bool trace = false;
  std::string store;
};

// Corpus message k of user u for a seed: a unique tagged line padded to
// the load generator's body size, stored with a CRLF like SMTP bodies.
std::string CorpusLine(uint64_t seed, uint64_t user, uint64_t k) {
  std::string line = "corpus-s" + std::to_string(seed) + "-u" + std::to_string(user) + "-k" +
                     std::to_string(k) + "-";
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + user * 0xBF58476D1CE4E5B9ull + k;
  while (line.size() < kBodyBytes) {
    x ^= x >> 31;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 29;
    line += static_cast<char>('a' + x % 26);
  }
  return line;
}

std::string StripCrlf(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
    s.pop_back();
  }
  return s;
}

// ---------------------------------------------------------------- child --

// Mounts a private tmpfs on `dir` inside a new mount namespace (a user
// namespace too when plain CLONE_NEWNS is not permitted). The mount dies
// with the child, so nothing outside the checkout is ever written.
bool MountPrivateTmpfs(const std::string& dir) {
  const uid_t uid = ::getuid();
  const gid_t gid = ::getgid();
  if (::unshare(CLONE_NEWNS) != 0) {
    if (::unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) {
      return false;
    }
    auto put = [](const char* path, const std::string& text) {
      int fd = ::open(path, O_WRONLY);
      if (fd < 0) {
        return false;
      }
      bool ok = ::write(fd, text.data(), text.size()) == static_cast<ssize_t>(text.size());
      ::close(fd);
      return ok;
    };
    if (!put("/proc/self/setgroups", "deny") ||
        !put("/proc/self/uid_map", "0 " + std::to_string(uid) + " 1") ||
        !put("/proc/self/gid_map", "0 " + std::to_string(gid) + " 1")) {
      return false;
    }
  }
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV, "size=1g,mode=0755") == 0;
}

void Reply(int fd, const std::string& line) { (void)WriteAll(fd, line.data(), line.size()); }

bool DeliverCorpus(pcc::mailboat::Mailboat* mail, uint64_t seed, uint64_t user, uint64_t k) {
  pcc::goosefs::Bytes body = pcc::goosefs::BytesOfString(CorpusLine(seed, user, k) + "\r\n");
  return pcc::proc::RunSync(mail->Deliver(user, body)).ok();
}

ServeConfig MakeServeConfig(const std::string& workload, uint64_t seed, bool trace) {
  ServeConfig cfg;
  cfg.pickup = workload == "serve-pickup";
  cfg.corpus_per_user = cfg.pickup ? 400 : 100;
  cfg.batch_requests = cfg.pickup ? 40 : 1000;
  cfg.seed = seed;
  cfg.trace = trace;
  return cfg;
}

int ServeChild(const ServeConfig& cfg, int cmd_fd, int out_fd) {
  // The workload is defined on tmpfs; a store on a disk would measure the
  // device instead, so a host that forbids the mount fails the run.
  if (!MountPrivateTmpfs(cfg.store)) {
    Reply(out_fd, "error cannot mount a private tmpfs on the store\n");
    return 4;
  }
  int root_fd = ::open(cfg.store.c_str(), O_DIRECTORY | O_RDONLY);
  if (root_fd < 0) {
    Reply(out_fd, "error cannot open store\n");
    return 4;
  }

  // The production wiring of mail_serverd, with the timing decorators
  // interposed at the four seams in the traced run.
  TracedSyscalls traced_sys(pcc::fault::RealFsSyscalls());
  pcc::fault::FsSyscalls* sys = cfg.trace ? &traced_sys : nullptr;
  pcc::netserv::GroupCommitter committer(pcc::netserv::GroupCommitter::Options{
      .max_wait_us = 500,
      .max_batch = 64,
      .barrier = pcc::netserv::GroupCommitter::Barrier::kSyncfs,
      .syncfs_fd = root_fd,
      .sys = sys,
  });
  committer.Start();
  TracedFsyncer traced_fsyncer(&committer);
  pcc::goosefs::PosixFilesys::Options fs_options;
  fs_options.cache_dir_fds = true;
  fs_options.fsync_dirs = true;
  fs_options.fsyncer = cfg.trace ? static_cast<pcc::goosefs::Fsyncer*>(&traced_fsyncer)
                                 : static_cast<pcc::goosefs::Fsyncer*>(&committer);
  fs_options.recovery_reconciled_dirs = {"spool"};
  fs_options.sys = sys;
  pcc::goosefs::PosixFilesys fs(cfg.store, fs_options);
  if (!fs.EnsureDirs(pcc::mailboat::Mailboat::DirLayout(kUsers), /*clear_contents=*/true).ok()) {
    Reply(out_fd, "error EnsureDirs\n");
    return 4;
  }
  TracedFilesys traced_fs(&fs);
  pcc::goose::World world;
  pcc::mailboat::Mailboat mail(
      &world, cfg.trace ? static_cast<pcc::goosefs::Filesys*>(&traced_fs) : &fs,
      pcc::mailboat::Mailboat::Options{kUsers, 4096, 512, 42});
  pcc::proc::RunSyncVoid(mail.Recover());
  std::vector<uint64_t> next_k(kUsers, 0);
  for (uint64_t u = 0; u < kUsers; ++u) {
    for (; next_k[u] < cfg.corpus_per_user; ++next_k[u]) {
      if (!DeliverCorpus(&mail, cfg.seed, u, next_k[u])) {
        Reply(out_fd, "error corpus delivery failed\n");
        return 4;
      }
    }
  }
  TracedMailApi traced_mail(&mail);
  pcc::netserv::MailNetServer::Options server_options;
  server_options.num_loops = 2;
  server_options.num_executors = 64;
  pcc::netserv::MailNetServer server(
      cfg.trace ? static_cast<pcc::mailboat::MailApi*>(&traced_mail) : &mail, server_options);
  if (!server.Start()) {
    Reply(out_fd, "error server start\n");
    return 4;
  }
  Reply(out_fd, "ready " + std::to_string(NowNs()) + " " + std::to_string(server.smtp_port()) +
                    " " + std::to_string(server.pop3_port()) + "\n");

  LineReader commands(cmd_fd);
  std::string cmd;
  while (commands.Next(&cmd)) {
    if (cmd == "snap") {
      Usage u = SelfUsage();
      const auto& st = committer.stats();
      std::ostringstream out;
      out << "snap " << u.cpu_us << " " << u.ctxsw << " " << u.maxrss_kb << " "
          << st.requests.load() << " " << st.batches.load() << " " << st.fsyncs_issued.load();
      SpanTotals spans = SnapshotSpans();
      for (int i = 0; i < kNumSpans; ++i) {
        out << " " << spans.count[i] << " " << spans.total_ns[i] << " " << spans.self_ns[i];
      }
      out << "\n";
      Reply(out_fd, out.str());
    } else if (cmd == "refill") {
      // Top every mailbox back up to the corpus size (between batches,
      // outside the measured intervals).
      uint64_t added = 0;
      for (uint64_t u = 0; u < kUsers; ++u) {
        auto names = pcc::proc::RunSync(fs.List("user" + std::to_string(u)));
        uint64_t have = names.ok() ? names.value().size() : cfg.corpus_per_user;
        for (; have < cfg.corpus_per_user; ++have, ++next_k[u], ++added) {
          if (!DeliverCorpus(&mail, cfg.seed, u, next_k[u])) {
            Reply(out_fd, "error refill delivery failed\n");
            return 4;
          }
        }
      }
      Reply(out_fd, "refilled " + std::to_string(added) + "\n");
    } else if (cmd == "stop") {
      break;
    }
  }
  server.Stop();
  committer.Stop();

  // Reopen the store as a restarted server would: a fresh PosixFilesys
  // (raw syscalls, no committer) and a fresh Mailboat whose Recover runs
  // before anything is read. Then list every mailbox back.
  pcc::goosefs::PosixFilesys::Options check_options;
  pcc::goosefs::PosixFilesys check_fs(cfg.store, check_options);
  pcc::goose::World check_world;
  pcc::mailboat::Mailboat check_mail(&check_world, &check_fs,
                                     pcc::mailboat::Mailboat::Options{kUsers, 4096, 512, 7});
  pcc::proc::RunSyncVoid(check_mail.Recover());
  std::string out;
  for (uint64_t u = 0; u < kUsers; ++u) {
    auto msgs = pcc::proc::RunSync(check_mail.Pickup(u));
    if (!msgs.ok()) {
      out += "error pickup of user" + std::to_string(u) + " failed after recovery\n";
      continue;
    }
    for (const auto& m : msgs.value()) {
      out += "m " + std::to_string(u) + " " + StripCrlf(m.contents) + "\n";
    }
    pcc::proc::RunSyncVoid(check_mail.Unlock(u));
    if (out.size() > (1u << 20)) {
      Reply(out_fd, out);
      out.clear();
    }
  }
  out += "end\n";
  Reply(out_fd, out);
  ::close(root_fd);
  return 0;
}

// --------------------------------------------------------------- parent --

struct Snap {
  uint64_t cpu_us = 0, ctxsw = 0, maxrss_kb = 0;
  uint64_t gc_requests = 0, gc_batches = 0, gc_fsyncs = 0;
  SpanTotals spans;
};

bool ParseSnap(const std::string& line, Snap* s) {
  std::istringstream in(line);
  std::string tag;
  in >> tag >> s->cpu_us >> s->ctxsw >> s->maxrss_kb >> s->gc_requests >> s->gc_batches >>
      s->gc_fsyncs;
  for (int i = 0; i < kNumSpans; ++i) {
    in >> s->spans.count[i] >> s->spans.total_ns[i] >> s->spans.self_ns[i];
  }
  return tag == "snap" && !in.fail();
}

// Everything measured across the batches of all rounds.
struct Totals {
  std::vector<double> batch_rate;     // ok requests / batch wall seconds
  std::vector<double> batch_cpu_us;   // server CPU per ok request
  std::vector<double> batch_p50_us;   // client latency percentiles per batch
  std::vector<double> batch_p90_us;
  std::vector<uint64_t> latencies_us;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  uint64_t ok = 0, ctxsw = 0, gc_requests = 0, gc_batches = 0, gc_fsyncs = 0;
  uint64_t delivers = 0, pickups = 0, deletes = 0, tempfails = 0;
  SpanTotals spans;
  double wall_s = 0;
};

class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Start(const std::string& workload, const ServeConfig& cfg, uint64_t* spawn_ns) {
    int cmd[2], out[2];
    if (::pipe2(cmd, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      return false;
    }
    *spawn_ns = NowNs();
    pid_ = SpawnSelf({"--child", "serve", workload, std::to_string(cfg.seed), cfg.trace ? "1" : "0",
                      cfg.store, std::to_string(cmd[0]), std::to_string(out[1])},
                     {cmd[0], out[1]});
    ::close(cmd[0]);
    ::close(out[1]);
    if (pid_ < 0) {
      ::close(cmd[1]);
      ::close(out[0]);
      return false;
    }
    cmd_fd_ = cmd[1];
    out_fd_ = out[0];
    reader_ = std::make_unique<LineReader>(out_fd_);
    return true;
  }

  bool Send(const std::string& line) { return WriteAll(cmd_fd_, line.data(), line.size()); }
  bool Next(std::string* line) { return reader_->Next(line); }

  bool Snapshot(Snap* s) {
    std::string line;
    return Send("snap\n") && Next(&line) && ParseSnap(line, s);
  }

  // Closes the pipes and reaps the child; true if it exited cleanly.
  bool Finish() {
    if (cmd_fd_ >= 0) ::close(cmd_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
    cmd_fd_ = out_fd_ = -1;
    bool ok = WaitChild(pid_);
    pid_ = -1;
    return ok;
  }

  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Finish();
    }
  }

 private:
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int out_fd_ = -1;
  std::unique_ptr<LineReader> reader_;
};

void Fail(RunResult* res, uint64_t n, const std::string& why) {
  res->correct = false;
  res->failed += n;
  if (res->problems.size() < 8) {
    res->problems.push_back(why);
  }
}

pcc::netserv::LoadgenOptions BatchOptions(const ServeConfig& cfg, int round, uint64_t batch,
                                          uint16_t smtp_port, uint16_t pop3_port) {
  pcc::netserv::LoadgenOptions lo;
  lo.smtp_port = smtp_port;
  lo.pop3_port = pop3_port;
  lo.clients = kClients;
  lo.requests = cfg.batch_requests;
  lo.num_users = kUsers;
  lo.pickup_fraction = cfg.pickup ? 1.0 : 0.0;
  lo.body_bytes = kBodyBytes;
  lo.rcpts_per_msg = 1;
  lo.pipeline = true;
  lo.threads = 1;
  lo.rng_seed = cfg.seed * 1'000'003 + static_cast<uint64_t>(round) * 10'007 + batch + 1;
  return lo;
}

// One round: fresh store, fresh server child, measured batches, stop,
// recover, verify.
void RunRound(const std::string& workload, const ServeConfig& base, int round, double seconds,
              RunResult* res, Totals* t) {
  ServeConfig cfg = base;
  cfg.store = (std::filesystem::current_path() / ".bench_build" / "perfbench-store" /
               (std::to_string(::getpid()) + "-" + std::to_string(round)))
                  .string();
  std::error_code ec;
  std::filesystem::remove_all(cfg.store, ec);
  std::filesystem::create_directories(cfg.store, ec);
  if (ec) {
    Fail(res, 1, "cannot create store directory " + cfg.store);
    return;
  }

  Child child;
  uint64_t spawn_ns = 0;
  std::string line;
  if (!child.Start(workload, cfg, &spawn_ns) || !child.Next(&line) || line.rfind("ready ", 0) != 0) {
    Fail(res, 1, "server child failed to start: " + line);
    child.Finish();
    std::filesystem::remove_all(cfg.store, ec);
    return;
  }
  uint64_t ready_ns = 0;
  unsigned smtp_port = 0, pop3_port = 0;
  {
    std::istringstream in(line.substr(6));
    in >> ready_ns >> smtp_port >> pop3_port;
  }
  t->setup_s.push_back(static_cast<double>(ready_ns - spawn_ns) / 1e9);

  uint64_t corpus_total = kUsers * cfg.corpus_per_user;
  std::map<std::string, int64_t> acked;  // body line -> acked deliveries
  uint64_t deletes = 0;
  std::vector<double> batch_wall;
  const uint64_t window_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  Snap last{};
  for (uint64_t batch = 0;; ++batch) {
    if (cfg.pickup && batch > 0) {
      if (!child.Send("refill\n") || !child.Next(&line) || line.rfind("refilled ", 0) != 0) {
        Fail(res, 1, "refill failed: " + line);
        break;
      }
      corpus_total += std::stoull(line.substr(9));
    }
    Snap s0, s1;
    if (!child.Snapshot(&s0)) {
      Fail(res, 1, "server child stopped answering");
      break;
    }
    pcc::netserv::LoadgenResult lg = pcc::netserv::RunLoadgen(
        BatchOptions(cfg, round, batch, static_cast<uint16_t>(smtp_port),
                     static_cast<uint16_t>(pop3_port)));
    if (!child.Snapshot(&s1)) {
      Fail(res, 1, "server child stopped answering");
      break;
    }
    last = s1;
    res->attempted += cfg.batch_requests;
    if (lg.ok_requests < cfg.batch_requests) {
      Fail(res, cfg.batch_requests - lg.ok_requests,
           "batch finished " + std::to_string(lg.ok_requests) + " of " +
               std::to_string(cfg.batch_requests) + " requests (errors " +
               std::to_string(lg.errors) + ", tempfails " + std::to_string(lg.tempfails) + ")");
    }
    for (const std::string& body : lg.acked_bodies) {
      acked[StripCrlf(body)] += 1;
    }
    deletes += lg.deletes;
    const double wall_s = lg.wall_ms / 1e3;
    batch_wall.push_back(wall_s);
    const uint64_t cpu_us = s1.cpu_us - s0.cpu_us;
    if (lg.ok_requests > 0 && wall_s > 0) {
      t->batch_rate.push_back(static_cast<double>(lg.ok_requests) / wall_s);
      t->batch_cpu_us.push_back(static_cast<double>(cpu_us) /
                                static_cast<double>(lg.ok_requests));
      t->batch_p50_us.push_back(Percentile(lg.latencies_us, 50));
      t->batch_p90_us.push_back(Percentile(lg.latencies_us, 90));
    }
    t->latencies_us.insert(t->latencies_us.end(), lg.latencies_us.begin(), lg.latencies_us.end());
    t->ok += lg.ok_requests;
    t->delivers += lg.delivers;
    t->pickups += lg.pickups;
    t->deletes += lg.deletes;
    t->tempfails += lg.tempfails;
    t->wall_s += wall_s;
    t->ctxsw += s1.ctxsw - s0.ctxsw;
    t->gc_requests += s1.gc_requests - s0.gc_requests;
    t->gc_batches += s1.gc_batches - s0.gc_batches;
    t->gc_fsyncs += s1.gc_fsyncs - s0.gc_fsyncs;
    SpanTotals d = s1.spans.Minus(s0.spans);
    for (int i = 0; i < kNumSpans; ++i) {
      t->spans.count[i] += d.count[i];
      t->spans.total_ns[i] += d.total_ns[i];
      t->spans.self_ns[i] += d.self_ns[i];
    }
    if (NowNs() + static_cast<uint64_t>(Median(batch_wall) * 1e9) > window_end) {
      break;
    }
  }
  t->rss_mb.push_back(static_cast<double>(last.maxrss_kb) / 1024.0);

  // Stop, recover, and check the store against what was acked.
  std::map<std::string, int64_t> seen_corpus;
  std::map<std::string, int64_t> seen_other;
  uint64_t stored = 0;
  bool ended = false;
  if (child.Send("stop\n")) {
    while (child.Next(&line)) {
      if (line == "end") {
        ended = true;
        break;
      }
      if (line.rfind("m ", 0) == 0) {
        size_t sp = line.find(' ', 2);
        const uint64_t user = std::stoull(line.substr(2, sp - 2));
        std::string body = line.substr(sp + 1);
        stored += 1;
        const std::string want = "corpus-s" + std::to_string(cfg.seed) + "-u" +
                                 std::to_string(user) + "-";
        if (body.rfind(want, 0) == 0) {
          seen_corpus[body] += 1;
        } else {
          seen_other[body] += 1;
        }
      } else {
        Fail(res, 1, "verification: " + line);
      }
    }
  }
  if (!child.Finish() || !ended) {
    Fail(res, 1, "server child did not finish the recovery listing");
  }
  std::filesystem::remove_all(cfg.store, ec);
  if (!ended) {
    return;
  }
  uint64_t missing = 0, duplicated = 0, phantom = 0;
  uint64_t acked_total = 0;
  for (const auto& [body, n] : acked) {
    acked_total += static_cast<uint64_t>(n);
    auto it = seen_other.find(body);
    int64_t have = it == seen_other.end() ? 0 : it->second;
    if (have < n) missing += static_cast<uint64_t>(n - have);
    if (have > n) duplicated += static_cast<uint64_t>(have - n);
  }
  for (const auto& [body, n] : seen_other) {
    if (acked.find(body) == acked.end()) phantom += static_cast<uint64_t>(n);
  }
  for (const auto& [body, n] : seen_corpus) {
    if (n > 1) duplicated += static_cast<uint64_t>(n - 1);
  }
  if (!cfg.pickup && seen_corpus.size() != corpus_total) {
    missing += corpus_total > seen_corpus.size() ? corpus_total - seen_corpus.size() : 0;
  }
  const uint64_t expected = corpus_total + acked_total - deletes;
  if (missing || duplicated || phantom || stored != expected) {
    Fail(res, std::max<uint64_t>(1, missing + duplicated + phantom),
         "round " + std::to_string(round) + ": stored " + std::to_string(stored) +
             " messages, expected " + std::to_string(expected) + " (corpus " +
             std::to_string(corpus_total) + " + acked " + std::to_string(acked_total) +
             " - deleted " + std::to_string(deletes) + "); missing " + std::to_string(missing) +
             ", duplicated " + std::to_string(duplicated) + ", phantom " +
             std::to_string(phantom));
  }
}

}  // namespace

int RunServeChild(const std::string& workload, uint64_t seed, bool trace, const std::string& store,
                  int cmd_fd, int out_fd) {
  ServeConfig cfg = MakeServeConfig(workload, seed, trace);
  cfg.store = store;
  return ServeChild(cfg, cmd_fd, out_fd);
}

RunResult RunServeWorkload(const Args& args) {
  const ServeConfig cfg = MakeServeConfig(args.workload, args.seed, args.trace);

  RunResult res;
  Totals t;
  const uint64_t steal0 = StealTicks();
  for (int round = 0; round < kRounds; ++round) {
    RunRound(args.workload, cfg, round, args.seconds / kRounds, &res, &t);
  }
  const uint64_t steal1 = StealTicks();
  if (t.ok == 0 || t.setup_s.empty()) {
    res.correct = false;
    if (res.attempted == 0) res.attempted = 1;
    res.failed = std::max<uint64_t>(res.failed, 1);
    return res;
  }
  res.failed = std::min(res.failed, res.attempted);

  const double reqs = static_cast<double>(t.ok);
  res.e2e["setup_s"] = Median(t.setup_s);
  res.e2e["ops_per_s"] = Median(t.batch_rate);
  // Every serve metric is a median over batches of the batch's own value,
  // so a burst of host steal that spoils a few batches does not move it.
  res.e2e["lat_p50_us"] = Median(t.batch_p50_us);
  res.e2e["lat_p90_us"] = Median(t.batch_p90_us);
  res.e2e["cpu_us_per_op"] = Median(t.batch_cpu_us);
  res.e2e["peak_rss_mb"] = Median(t.rss_mb);

  res.family["setup_s"] = res.e2e["setup_s"];
  res.family["req_per_s"] = res.e2e["ops_per_s"];
  res.family["lat_p50_us"] = res.e2e["lat_p50_us"];
  res.family["lat_p90_us"] = res.e2e["lat_p90_us"];
  res.family["server_cpu_us_per_req"] = res.e2e["cpu_us_per_op"];
  res.family["peak_rss_mb"] = res.e2e["peak_rss_mb"];
  res.family["failed_frac"] =
      static_cast<double>(res.failed) / static_cast<double>(std::max<uint64_t>(1, res.attempted));

  res.notes["rounds"] = static_cast<double>(t.setup_s.size());
  res.notes["batches"] = static_cast<double>(t.batch_rate.size());
  res.notes["requests"] = reqs;
  res.notes["req_per_s_pooled"] = reqs / t.wall_s;
  res.notes["lat_p50_us_pooled"] = Percentile(t.latencies_us, 50);
  res.notes["lat_p90_us_pooled"] = Percentile(t.latencies_us, 90);
  res.notes["lat_p99_us"] = Percentile(t.latencies_us, 99);
  res.notes["lat_samples"] = static_cast<double>(t.latencies_us.size());
  res.notes["steal_ticks"] = static_cast<double>(steal1 - steal0);
  res.notes["setup_s_min"] = *std::min_element(t.setup_s.begin(), t.setup_s.end());
  res.notes["setup_s_max"] = *std::max_element(t.setup_s.begin(), t.setup_s.end());
  res.notes["delivers"] = static_cast<double>(t.delivers);
  res.notes["pickups"] = static_cast<double>(t.pickups);
  res.notes["deletes"] = static_cast<double>(t.deletes);
  res.notes["tempfails"] = static_cast<double>(t.tempfails);
  // Digests of the seeded inputs, compared by the determinism self-test:
  // the corpus, and the request mix of the first batch as handed to the
  // load generator (its fixed per-client quotas and seeded recipient draws
  // make the mix a function of these options).
  auto fnv = [](uint64_t h, const std::string& s) {
    for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
  };
  uint64_t corpus = 1469598103934665603ull;
  for (uint64_t u = 0; u < kUsers; ++u) {
    for (uint64_t k = 0; k < cfg.corpus_per_user; ++k) {
      corpus = fnv(corpus, CorpusLine(cfg.seed, u, k));
    }
  }
  res.tags["corpus_digest"] = std::to_string(corpus);
  const pcc::netserv::LoadgenOptions first = BatchOptions(cfg, 0, 0, 0, 0);
  std::ostringstream mix;
  mix << first.clients << " " << first.requests << " " << first.num_users << " "
      << first.pickup_fraction << " " << first.body_bytes << " " << first.rcpts_per_msg << " "
      << first.pipeline << " " << first.rng_seed;
  res.tags["mix_digest"] = std::to_string(fnv(1469598103934665603ull, mix.str()));

  // Per-layer numbers, per completed client request.
  const SpanTotals& sp = t.spans;
  const double mail_us = static_cast<double>(sp.TotalNs(kMailDeliver, kMailUnlock)) / 1e3;
  const double mean_lat_us =
      static_cast<double>(std::accumulate(t.latencies_us.begin(), t.latencies_us.end(), 0.0)) /
      reqs;
  res.layers["netserv.ctxsw_per_req"] = static_cast<double>(t.ctxsw) / reqs;
  res.layers["netserv.commit.fsyncs_per_req"] = static_cast<double>(t.gc_fsyncs) / reqs;
  res.layers["netserv.commit.barriers_per_req"] = static_cast<double>(t.gc_batches) / reqs;
  res.layers["netserv.commit.batch_size"] =
      t.gc_batches ? static_cast<double>(t.gc_requests) / static_cast<double>(t.gc_batches) : 0;
  if (args.trace) {
    auto per_req = [&](int id) { return static_cast<double>(sp.count[id]) / reqs; };
    auto per_call_us = [&](int id) {
      return sp.count[id] ? static_cast<double>(sp.total_ns[id]) / 1e3 /
                                static_cast<double>(sp.count[id])
                          : 0.0;
    };
    res.layers["netserv.self_us_per_req"] = mean_lat_us - mail_us / reqs;
    res.layers["netserv.commit.wait_us_per_fsync"] = per_call_us(kFsyncerFsync);
    for (int id = kMailDeliver; id < kNumSpans; ++id) {
      if (id == kFsyncerFsync) continue;
      std::string name = SpanName(id);
      size_t dot = name.find('.');
      res.layers[name.substr(0, dot) + ".calls_per_req." + name.substr(dot + 1)] = per_req(id);
    }
    res.layers["mailboat.us_per_call.deliver"] = per_call_us(kMailDeliver);
    res.layers["mailboat.us_per_call.pickup"] = per_call_us(kMailPickup);
    res.layers["mailboat.self_us_per_req"] =
        static_cast<double>(sp.SelfNs(kMailDeliver, kMailUnlock)) / 1e3 / reqs;
    res.layers["goosefs.self_us_per_req"] =
        static_cast<double>(sp.SelfNs(kFsCreate, kFsDelete)) / 1e3 / reqs;
    res.layers["sys.us_per_req"] =
        static_cast<double>(sp.TotalNs(kSysOpenat, kSysUnlinkat)) / 1e3 / reqs;
  }
  return res;
}

}  // namespace perfbench
