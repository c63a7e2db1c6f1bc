#!/usr/bin/env python3
"""Builds and runs kea_bench, KEA's end-to-end benchmark (see README.md).

Run one workload (the interface BENCHMARK.json names). The first call
builds bench/kea_bench and the KEA libraries from source into .bench_build/;
the last line of stdout is the JSON result:

  python3 bench/kea_bench/run.py --workload round_clean --seed 7 --seconds 12 --trace 0

Record runs (all on one --seed), compare two recordings, or smoke-test every
workload:

  python3 bench/kea_bench/run.py --record runs.json [--runs 5] [--sets 2] [--seed 7]
  python3 bench/kea_bench/run.py --compare parent.json,change.json
  python3 bench/kea_bench/run.py --smoke
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "kea_bench"
WORK = ROOT / ".bench_run"
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then (re)builds; a no-op build takes about a second."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit(f"kea_bench: build step failed: {' '.join(step)}")
    return BUILD / "kea_bench"


def git_sha():
    """The checkout's commit, marked -dirty when it has local changes."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(exe, workload, seed, seconds, trace, extra=(), capture=False):
    """Runs one workload; returns (exit code, stdout or None)."""
    WORK.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK), "--git-sha", git_sha(), *extra]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"kea_bench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    return done.returncode, done.stdout


def run_to_file(exe, workload, seed, seconds, trace, extra=()):
    """Runs one workload and returns its --out document (None on failure)."""
    out = WORK / f"{workload}-{seed}-{trace}.json"
    code, _ = run(exe, workload, seed, seconds, trace,
                  ["--out", str(out), *extra], capture=True)
    if code != 0 or not out.exists():
        log(f"kea_bench: {workload} seed {seed} trace {trace} failed ({code})")
        return None
    with open(out) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def record(args):
    """Runs every workload --runs times per set, alternating the sets. Every
    run uses the one --seed, so the spread of a recording is the host's
    run-to-run noise, not the difference between seeds' workloads."""
    exe = build()
    workloads = [w["name"] for w in spec()["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    sets = [{w: [] for w in workloads} for _ in range(args.sets)]
    for i in range(args.runs):
        for s, runs in enumerate(sets):
            for w in workloads:
                result = run_to_file(exe, w, args.seed, args.seconds, 0)
                if result is None:
                    return 1
                runs[w].append(result)
                log(f"set {s} run {i + 1} {w}: done")
    summary = {}
    for w in workloads:
        summary[w] = {}
        for name in sets[0][w][0]["metrics"]:
            summary[w][name] = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[w]]
                q1, med, q3 = quartiles(values)
                summary[w][name].append({"median": med, "q1": q1, "q3": q3})
    doc = {"host": sets[0][workloads[0]][0]["host"], "seconds": args.seconds,
           "sets": sets, "summary": summary}
    with open(args.record, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    log(f"wrote {args.record}")
    if args.sets == 2:
        return compare_runs(sets[0], sets[1])
    return 0


def pooled(doc):
    """workload -> runs, over every set of a recording."""
    runs = {}
    for s in doc["sets"]:
        for w, rs in s.items():
            runs.setdefault(w, []).extend(rs)
    return runs


def verdict(parent, change, better, bound):
    """better / unchanged / worse / unresolved, by the bound on the medians."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (c_med - p_med) / p_med
    spread = max((q[2] - q[0]) / q[1] for q in map(quartiles, (parent, change)))
    if all(sign * c < sign * p for c in change for p in parent):
        return "better", worse_by, spread
    if spread > bound:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if worse_by < -bound:
        return "better", worse_by, spread
    return "unchanged", worse_by, spread


def failed_frac(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare_runs(parent, change):
    """Prints a verdict per (workload, metric), then the share of failed
    operations and round_digest per seed; returns 1 on a worse metric, more
    failed operations, or a digest mismatch."""
    bad = 0
    print(f"{'workload':14} {'metric':16} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'spread':>7}  verdict")
    for metric in spec()["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        for w in sorted(set(parent) & set(change)):
            p = [r["metrics"][name]["value"] for r in parent[w]]
            c = [r["metrics"][name]["value"] for r in change[w]]
            v, worse_by, spread = verdict(p, c, better, bound)
            bad += v == "worse"
            print(f"{w:14} {name:16} {statistics.median(p):12.5g} "
                  f"{statistics.median(c):12.5g} {worse_by:+9.3f} "
                  f"{spread:7.3f}  {v}")
    for w in sorted(set(parent) & set(change)):
        p, c = failed_frac(parent[w]), failed_frac(change[w])
        if c > p:
            bad += 1
            print(f"{w:14} failed_frac {p:.4g} -> {c:.4g}  worse")
        digests = {}
        for r in parent[w] + change[w]:
            digests.setdefault(r["seed"], set()).add(r["round_digest"])
        for seed, seen in sorted(digests.items()):
            if len(seen) > 1:
                bad += 1
                print(f"{w:14} round_digest seed {seed}: "
                      f"{' != '.join(sorted(seen))}")
    return 1 if bad else 0


def compare(args):
    paths = args.compare.split(",")
    if len(paths) != 2:
        sys.exit("--compare takes PARENT.json,CHANGE.json")
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(pooled(json.load(f)))
    return compare_runs(*runs)


def smoke(_args):
    """Each workload at --scale smoke, untraced and traced: every metric
    prints with its unit, the checks pass, and both passes decide alike."""
    exe = build()
    bench = spec()
    start = time.monotonic()
    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        docs = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc = run_to_file(exe, w, 7, 1, trace, ["--scale", "smoke"])
            if doc is None or not doc["correct"]:
                failures.append(f"{w} trace {trace}: run failed or incorrect")
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in doc["metrics"].items()}
            if got != want:
                failures.append(f"{w} trace {trace}: metrics {got} != {want}")
            docs[trace] = doc
        if len(docs) == 2 and docs[0]["round_digest"] != docs[1]["round_digest"]:
            failures.append(f"{w}: untraced and traced digests differ")
    elapsed = time.monotonic() - start
    if elapsed > 30:
        failures.append(f"smoke took {elapsed:.1f} s (limit 30 s)")
    for failure in failures:
        print("FAIL", failure)
    print(f"smoke {'FAILED' if failures else 'passed'} in {elapsed:.1f} s")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="OUT.json")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--compare", metavar="PARENT.json,CHANGE.json")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.record:
        return record(args)
    if args.smoke:
        return smoke(args)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run(build(), args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills the running
    # build step or kea_bench and waits for it before the exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
