// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (check-dfs-mailboat, check-pct-gc, serve-deliver,
// serve-pickup) for about <s> seconds and prints one JSON record as its
// last line of stdout: correctness, request counts, the end-to-end
// metrics, the per-layer metrics (filled in by --trace 1), and
// annotations. run.py builds this binary and turns the record into the
// benchmark's result line.
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ",") + JsonString(k) + ":" + JsonNumber(v);
    first = false;
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <check-dfs-mailboat|check-pct-gc|serve-deliver|"
               "serve-pickup> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A child that dies mid-conversation must surface as a failed read or
  // write on its pipe, not kill this process.
  ::signal(SIGPIPE, SIG_IGN);
  // Child modes, started by perfbench itself (common.h SpawnSelf):
  //   --child check <workload> <seed> <trace> <out_fd>
  //   --child serve <workload> <seed> <trace> <store> <cmd_fd> <out_fd>
  if (argc >= 3 && std::strcmp(argv[1], "--child") == 0) {
    ::dup2(2, 1);  // the parent's stdout carries only its own result
    const std::string kind = argv[2];
    if (kind == "check" && argc == 7) {
      return perfbench::RunCheckChild(argv[3], std::strtoull(argv[4], nullptr, 10),
                                      std::strcmp(argv[5], "1") == 0, std::atoi(argv[6]));
    }
    if (kind == "serve" && argc == 9) {
      return perfbench::RunServeChild(argv[3], std::strtoull(argv[4], nullptr, 10),
                                      std::strcmp(argv[5], "1") == 0, argv[6], std::atoi(argv[7]),
                                      std::atoi(argv[8]));
    }
    return Usage();
  }

  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) {
    return Usage();
  }

  perfbench::RunResult result;
  if (args.workload == "check-dfs-mailboat" || args.workload == "check-pct-gc") {
    result = perfbench::RunCheckWorkload(args);
  } else if (args.workload == "serve-deliver" || args.workload == "serve-pickup") {
    result = perfbench::RunServeWorkload(args);
  } else {
    return Usage();
  }

  std::string problems = "[";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    problems += (i ? "," : "") + JsonString(result.problems[i]);
  }
  problems += "]";
  std::string tags = "{";
  bool first = true;
  for (const auto& [k, v] : result.tags) {
    tags += (first ? "" : ",") + JsonString(k) + ":" + JsonString(v);
    first = false;
  }
  tags += "}";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"e2e\":%s,\"family\":%s,\"layers\":%s,\"notes\":%s,\"tags\":%s,"
      "\"problems\":%s}\n",
      JsonString(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), JsonMap(result.e2e).c_str(),
      JsonMap(result.family).c_str(), JsonMap(result.layers).c_str(),
      JsonMap(result.notes).c_str(), tags.c_str(), problems.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
