// Shared helpers for the perfbench binary: clocks, resource usage, the
// host steal counter, percentiles, pipe I/O, and the result record every
// workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// What one invocation reports. run.py turns it into the final result line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;       // gated end-to-end metrics
  std::map<std::string, double> family;    // the per-family metric names (printed, not gated)
  std::map<std::string, double> layers;    // per-layer metrics (traced run)
  std::map<std::string, double> notes;     // annotations: steal ticks, p99, sample counts...
  std::map<std::string, std::string> tags;  // string annotations
  std::vector<std::string> problems;        // why correct is false
};

inline uint64_t NowNs() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

struct Usage {
  uint64_t cpu_us = 0;  // user + system
  uint64_t ctxsw = 0;   // voluntary + involuntary
  uint64_t maxrss_kb = 0;
};

inline Usage SelfUsage() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000ull +
             static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctxsw = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_kb = static_cast<uint64_t>(ru.ru_maxrss);
  return u;
}

// Hypervisor steal ticks summed over all CPUs (the 8th value of the "cpu"
// line of /proc/stat). An annotation only: it explains slow runs, it is
// never gated.
inline uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") {
    return 0;
  }
  for (uint64_t& x : v) {
    in >> x;
  }
  return v[7];
}

// Linearly interpolated percentile of an unsorted sample (p in [0, 100]).
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) + static_cast<double>(v[hi]) * frac;
}

template <typename T>
double Median(std::vector<T> v) {
  return Percentile(std::move(v), 50);
}

inline bool WriteAll(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

inline bool ReadAll(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// Line-oriented reader over a pipe fd (the serve child's control channel).
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool Next(std::string* line) {
    for (;;) {
      size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 65536) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      char chunk[65536];
      ssize_t r = ::read(fd_, chunk, sizeof(chunk));
      if (r < 0 && errno == EINTR) {
        continue;
      }
      if (r <= 0) {
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(r));
    }
  }

 private:
  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

// Starts this binary again (/proc/self/exe) with `args`, in a fresh
// process that inherits nothing but the file descriptors in `keep`
// (every other descriptor perfbench opens is close-on-exec). The child
// is killed if this process dies. Returns the pid, or -1.
inline pid_t SpawnSelf(const std::vector<std::string>& args, const std::vector<int>& keep) {
  std::vector<std::string> full = {"perfbench"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    for (int fd : keep) {
      ::fcntl(fd, F_SETFD, 0);
    }
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  return pid;
}

// Reaps a child; true if it exited with status 0.
inline bool WaitChild(pid_t pid) {
  if (pid <= 0) {
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

RunResult RunCheckWorkload(const Args& args);
RunResult RunServeWorkload(const Args& args);
// Child-process entry points (see SpawnSelf); each returns an exit code.
int RunCheckChild(const std::string& workload, uint64_t seed, bool trace, int out_fd);
int RunServeChild(const std::string& workload, uint64_t seed, bool trace, const std::string& store,
                  int cmd_fd, int out_fd);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
