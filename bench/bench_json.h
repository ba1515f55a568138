// Machine-readable benchmark output: the `--json <path>` flag shared by the
// benches. Each bench collects one row per (system, POR on/off) cell and
// upserts them into a single JSON document (conventionally
// BENCH_refine.json) that every bench shares, so EXPERIMENTS.md tables and
// CI regression checks can consume the numbers without scraping the
// human-oriented text tables.
#ifndef PERENNIAL_BENCH_BENCH_JSON_H_
#define PERENNIAL_BENCH_BENCH_JSON_H_

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perennial::benchjson {

struct PorJsonRow {
  std::string system;   // stable slug, e.g. "repl-2writers"
  bool por = false;     // was sleep-set POR enabled for this run?
  uint64_t executions = 0;
  uint64_t deduped = 0;  // histories skipped by fingerprint dedup
  uint64_t pruned = 0;   // runs aborted by an empty sleep-filtered frontier
  uint64_t histories = 0;
  uint64_t violations = 0;
  double ms = 0;
  // Appended after ms so bench_check's fixed-order scan stays valid.
  uint64_t peak_rss = 0;          // process peak RSS after the run (bytes)
  std::string outcome = "complete";  // RunOutcome name; "deadline"/"canceled"/"oom" = partial row
  // Per-request CPU cost (perf rows only; 0 when not measured). The split
  // into user/system time is the profiling headline: the netserv hot path
  // is syscall-dominated, so stime regressions are the ones to watch.
  double cpu_us_per_request = 0;
  uint64_t utime_us = 0;  // process user CPU over the measured window
  uint64_t stime_us = 0;  // process system CPU over the measured window
};

// Process user+system CPU so far, in microseconds. Benches diff two
// readings around a measured window to fill the cpu_us_per_request /
// utime_us / stime_us row fields (in-process harnesses include the load
// generator's threads — fine for before/after comparisons, which is the
// only use).
struct CpuUsage {
  uint64_t utime_us = 0;
  uint64_t stime_us = 0;
};

inline CpuUsage ProcessCpuUsage() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return {};
  }
  auto tv_us = [](const struct timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000 + static_cast<uint64_t>(tv.tv_usec);
  };
  return CpuUsage{tv_us(ru.ru_utime), tv_us(ru.ru_stime)};
}

// Process-wide peak resident set size in bytes (Linux reports KiB). Peak,
// not current: a row's value includes every earlier row, which is fine for
// the question the field answers ("did this sweep fit the budget?").
inline uint64_t PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

// Returns the value following `flag` in argv, or nullptr. When `strip` is
// non-null, every argv entry except the consumed pair is appended to it
// (for benches that forward remaining args to another parser).
inline const char* ParseValueFlag(int argc, char** argv, std::string_view flag,
                                  std::vector<char*>* strip) {
  const char* value = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == flag && i + 1 < argc) {
      value = argv[i + 1];
      ++i;
      continue;
    }
    if (strip != nullptr) {
      strip->push_back(argv[i]);
    }
  }
  return value;
}

// Returns the value following "--json" in argv, or nullptr.
inline const char* ParseJsonPath(int argc, char** argv, std::vector<char*>* strip) {
  return ParseValueFlag(argc, argv, "--json", strip);
}

// Returns the value following "--filter" in argv, or nullptr. Benches treat
// the value as a case-sensitive substring of a row's name or slug and skip
// everything else (handy for iterating on one system without paying for the
// sweep).
inline const char* ParseFilter(int argc, char** argv, std::vector<char*>* strip) {
  return ParseValueFlag(argc, argv, "--filter", strip);
}

// Substring match used by --filter: nullptr/empty matches everything.
inline bool FilterMatches(const char* filter, std::string_view name, std::string_view slug) {
  if (filter == nullptr || *filter == '\0') {
    return true;
  }
  return name.find(filter) != std::string_view::npos ||
         slug.find(filter) != std::string_view::npos;
}

// One row as the single-line object every BENCH document holds. The
// perf-row-only CPU fields are not emitted (bench_check tolerates absent
// keys).
inline std::string RenderPorRow(const PorJsonRow& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"system\": \"%s\", \"por\": %s, \"executions\": %llu, "
                "\"deduped\": %llu, \"pruned\": %llu, \"histories\": %llu, "
                "\"violations\": %llu, \"ms\": %.1f, \"peak_rss\": %llu, "
                "\"outcome\": \"%s\"}",
                r.system.c_str(), r.por ? "true" : "false",
                static_cast<unsigned long long>(r.executions),
                static_cast<unsigned long long>(r.deduped),
                static_cast<unsigned long long>(r.pruned),
                static_cast<unsigned long long>(r.histories),
                static_cast<unsigned long long>(r.violations), r.ms,
                static_cast<unsigned long long>(r.peak_rss), r.outcome.c_str());
  return buf;
}

// The upsert key of a rendered row line: its "system" slug and "por" flag
// (the same system appears once with POR off and once with it on). Empty
// for a structural line.
inline std::string RowKey(std::string_view line) {
  auto value_of = [&](std::string_view field) -> std::string_view {
    size_t at = line.find(field);
    if (at == std::string_view::npos) {
      return {};
    }
    at += field.size();
    return line.substr(at, line.find_first_of("\",}", at) - at);
  };
  std::string_view system = value_of("{\"system\": \"");
  if (system.empty()) {
    return {};
  }
  return std::string(system) + "|" + std::string(value_of("\"por\": "));
}

// Upserts pre-rendered single-line row objects (no trailing comma) into the
// BENCH json document at `path`, keyed on (system, por): an existing row
// with an incoming row's key is replaced in place, every other existing row
// is kept verbatim, and rows with new keys are appended. Benches therefore
// compose in any order without dropping each other's baselines. The
// document is written to a temporary file and renamed over `path`, so a
// failed write leaves the old document intact. `default_bench` names a
// document created from scratch.
inline bool UpsertJsonRows(const std::string& path, const std::vector<std::string>& rendered_rows,
                           const std::string& default_bench) {
  std::map<std::string, size_t> incoming;
  for (size_t i = 0; i < rendered_rows.size(); ++i) {
    incoming[RowKey(rendered_rows[i])] = i;
  }
  std::string bench = default_bench;
  std::vector<std::string> rows;
  std::vector<bool> placed(rendered_rows.size(), false);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    size_t at = line.find("\"bench\": \"");
    if (at != std::string::npos) {
      at += std::strlen("\"bench\": \"");
      bench = line.substr(at, line.find('"', at) - at);
      continue;
    }
    while (!line.empty() && (line.back() == ',' || line.back() == ' ')) {
      line.pop_back();
    }
    const std::string key = RowKey(line);
    if (key.empty()) {
      continue;  // structural line
    }
    line.erase(0, line.find('{'));
    auto it = incoming.find(key);
    if (it != incoming.end()) {
      if (placed[it->second]) {
        continue;  // a duplicate of a row already replaced
      }
      placed[it->second] = true;
      line = rendered_rows[it->second];
    }
    rows.push_back(line);
  }
  for (size_t i = 0; i < rendered_rows.size(); ++i) {
    if (!placed[i] && incoming[RowKey(rendered_rows[i])] == i) {
      rows.push_back(rendered_rows[i]);
    }
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "--json: cannot open %s for writing\n", tmp.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", bench.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    %s%s\n", rows[i].c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool written = std::fclose(f) == 0;
  if (!written || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "--json: cannot replace %s\n", path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// Renders `rows` and upserts them (see UpsertJsonRows).
inline bool UpsertPorJson(const std::string& path, const std::string& bench,
                          const std::vector<PorJsonRow>& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const PorJsonRow& r : rows) {
    rendered.push_back(RenderPorRow(r));
  }
  return UpsertJsonRows(path, rendered, bench);
}

}  // namespace perennial::benchjson

#endif  // PERENNIAL_BENCH_BENCH_JSON_H_
