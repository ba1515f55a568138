#!/usr/bin/env python3
"""The repository benchmark: build the perfbench binary from source, run a workload,
check its answers, and print the result.

Works in the checkout that holds this file, from any directory:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. The last line of stdout is the result record
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
      Exits non-zero on a wrong verdict or a missing acked message.

  python3 perfbench/run.py --steadiness <n> [--sets <k>] [--seconds <s>] [--workload <name>]
      Runs each workload n times (seeds 1..n) in each of k interleaved sets
      untraced, plus once traced, and prints per set and end-to-end metric
      the median, quartiles, min/max and the interquartile spread as a
      share of the median, next to the metric's bound, and the
      traced-vs-untraced overhead; with k > 1 also how much worse each
      set's median is than the first set's.

  python3 perfbench/run.py --selftest
      Determinism self-test: two runs with one seed must give identical
      exact counts (checker executions, steps, spec states; serve corpus
      and request mix), and another seed must change the serve corpus.

The perfbench binary is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) the first time it is needed.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["check-dfs-mailboat", "check-pct-gc", "serve-deliver", "serve-pickup"]
RUN_TIMEOUT_S = 170

# The nine end-to-end numbers each workload family reports, with units.
# check_* / verdict_s exist only for checker workloads, the serve ones only
# for serve workloads; failed_frac is failed / attempted.
FAMILY_METRICS = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("check_cpu_s", "s"),
    ("req_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "frac"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build():
    """Configures and builds perfbench; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("repository sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's JSON record (or raises)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("perfbench printed nothing (exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def fmt(v):
    if v is None:
        return "n/a"
    if v == 0 or abs(v) >= 100:
        return "%.1f" % v
    return "%.4g" % v


def print_report(rec, spec):
    """Human-readable lines (before the result line)."""
    print("workload %s  seed %d  trace %d  correct %s  attempted %d  failed %d" % (
        rec["workload"], rec["seed"], rec["trace"], rec["correct"], rec["attempted"],
        rec["failed"]))
    for name, unit in FAMILY_METRICS:
        print("  %-24s %12s %s" % (name, fmt(rec["family"].get(name)), unit))
    if rec["trace"]:
        print("  per-layer (traced run; its end-to-end numbers above include tracing):")
        for m in spec["per_layer"]:
            print("    %-40s %12s %s" % (m["name"], fmt(rec["layers"].get(m["name"], 0.0)),
                                       m["unit"]))
    notes = " ".join("%s=%s" % (k, fmt(v)) for k, v in sorted(rec["notes"].items()))
    print("  notes: " + notes)
    for p in rec["problems"]:
        print("  PROBLEM: " + p)


def result_line(rec, spec):
    if rec["trace"]:
        metrics = {m["name"]: {"value": float(rec["layers"].get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(rec["e2e"][m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"] if m["name"] in rec["e2e"]}
    return json.dumps({"correct": bool(rec["correct"]), "attempted": int(rec["attempted"]),
                       "failed": int(rec["failed"]), "metrics": metrics})


def cmd_single(args):
    spec = load_spec()
    try:
        binary = build()
        rec = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    except Exception as e:  # noqa: BLE001 - any failure means no result
        log("perfbench: %s" % e)
        return 2
    print_report(rec, spec)
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in rec["e2e"]]
    if not args.trace and missing:
        rec["correct"] = False
        log("perfbench: missing end-to-end metrics %s" % missing)
    print(result_line(rec, spec), flush=True)
    return 0 if rec["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_steadiness(args):
    spec = load_spec()
    binary = build()
    workloads = [args.workload] if args.workload else WORKLOADS
    recs = {(w, k): [] for w in workloads for k in range(args.sets)}
    # Interleaved: each seed runs every set of every workload before the
    # next seed, so a slow host phase falls on all sets alike.
    for seed in range(1, args.steadiness + 1):
        for k in range(args.sets):
            for w in workloads:
                rec = run_binary(binary, w, seed, args.seconds, False)
                if not rec["correct"]:
                    print("%s set %d seed %d: INCORRECT %s" % (w, k + 1, seed, rec["problems"]))
                recs[(w, k)].append(rec)
                log("%s set %d seed %d: %s steal=%d" % (
                    w, k + 1, seed,
                    " ".join("%s=%s" % (m, fmt(v)) for m, v in sorted(rec["e2e"].items())),
                    rec["notes"].get("steal_ticks", 0)))
    worst = 0.0
    for w in workloads:
        traced = run_binary(binary, w, 1, args.seconds, True)
        medians = []
        for k in range(args.sets):
            runs = recs[(w, k)]
            print("== %s set %d: %d untraced runs" % (w, k + 1, len(runs)))
            print("  %-16s %11s %11s %11s %11s %11s %8s %6s %9s" % (
                "metric", "min", "q1", "median", "q3", "max", "iqr/med", "bound", "traced"))
            med = {}
            for m in spec["end_to_end"]:
                vals = [r["e2e"][m["name"]] for r in runs]
                q1, q2, q3 = quartiles(vals)
                med[m["name"]] = q2
                spread = (q3 - q1) / q2 if q2 else float("inf")
                worst = max(worst, spread / m["bound"])
                over = traced["e2e"][m["name"]] / q2 - 1 if q2 else 0
                print("  %-16s %11s %11s %11s %11s %11s %7.1f%% %5.0f%% %+8.1f%%" % (
                    m["name"], fmt(min(vals)), fmt(q1), fmt(q2), fmt(q3), fmt(max(vals)),
                    100 * spread, 100 * m["bound"], 100 * over))
            steal = [r["notes"].get("steal_ticks", 0) for r in runs]
            print("  steal ticks per run: median %s, max %s" % (
                fmt(statistics.median(steal)), fmt(max(steal))))
            medians.append(med)
        for k in range(1, args.sets):
            print("  set %d vs set 1, how much worse each median is:" % (k + 1))
            for m in spec["end_to_end"]:
                a, b = medians[0][m["name"]], medians[k][m["name"]]
                worse = (b / a - 1) if m["better"] == "lower" else (a / b - 1)
                worst = max(worst, worse / m["bound"])
                print("    %-16s %+7.1f%%  (bound %.0f%%)" % (m["name"], 100 * worse,
                                                          100 * m["bound"]))
    print("worst spread or median drift / bound: %.2f" % worst)
    return 0


def cmd_selftest(args):
    binary = build()
    ok = True

    def check(cond, what):
        nonlocal ok
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    for w in ["check-dfs-mailboat", "check-pct-gc"]:
        a = run_binary(binary, w, 7, 1, False)
        b = run_binary(binary, w, 7, 1, False)
        for key in ["executions", "total_steps", "spec_states"]:
            check(a["notes"][key] == b["notes"][key],
                  "%s seed 7: %s %d == %d" % (w, key, a["notes"][key], b["notes"][key]))
        check(a["correct"] and b["correct"], "%s: verdict is the known answer" % w)
    c = run_binary(binary, "check-pct-gc", 8, 1, False)
    check(c["correct"], "check-pct-gc seed 8: verdict is the known answer")
    check(c["notes"]["total_steps"] != a["notes"]["total_steps"],
          "check-pct-gc: seed 8 explores other schedules than seed 7")
    for w in ["serve-deliver", "serve-pickup"]:
        a = run_binary(binary, w, 7, 3, False)
        b = run_binary(binary, w, 7, 3, False)
        c = run_binary(binary, w, 8, 3, False)
        for key in ["corpus_digest", "mix_digest"]:
            check(a["tags"][key] == b["tags"][key], "%s seed 7: same %s twice" % (w, key))
        for key in ["corpus_digest", "mix_digest"]:
            check(a["tags"][key] != c["tags"][key], "%s: seed 8 changes %s" % (w, key))
        check(a["correct"] and b["correct"] and c["correct"],
              "%s: every acked message recovered exactly once" % w)
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, default=0)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    # Everything the benchmark builds and writes (the binary, the serve
    # stores) lives under the checkout, wherever the command was run from.
    os.chdir(ROOT)
    try:
        spec_seconds = load_spec()["run_seconds"]
    except (OSError, ValueError, KeyError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    if args.seconds is None:
        args.seconds = spec_seconds
    if args.selftest:
        return cmd_selftest(args)
    if args.steadiness:
        return cmd_steadiness(args)
    if not args.workload:
        p.error("--workload is required")
    return cmd_single(args)


if __name__ == "__main__":
    sys.exit(main())
