#!/usr/bin/env python3
"""The cmmex end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload exn-run|compile|serve --seed N \
      --seconds S --trace 0|1
      Builds the benchmark (once; later runs rebuild incrementally) and runs
      one workload. The last line of standard output is the result JSON.

  python3 perfbench/run.py --steady WORKLOAD [--runs 10] [--first-seed 1]
      [--seconds S] [--trace 0|1]
      Steadiness mode: runs WORKLOAD once per seed and prints, for each
      metric, the median, the quartiles and the spread against the metric's
      bound in BENCHMARK.json; also compares the medians of the runs on
      even and odd seeds against the bounds (two seeds must agree).

  python3 perfbench/run.py --selfcheck
      A small pass of every workload (seconds each), then the negative
      checks: a corrupted expected value and an injected wrong answer must
      each make every workload fail.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["exn-run", "compile", "serve"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no cmmex sources next to the benchmark (src/CMakeLists.txt "
            "is missing); nothing to build")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            log("cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, os.cpu_count() or 1))
    rc = subprocess.run(["cmake", "--build", out, "-j", jobs],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        log("build failed")
        sys.exit(2)
    return out


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha1:" + h.hexdigest()[:16]


def bench_argv(out, workload, seed, seconds, trace, extra=()):
    return [os.path.join(out, "cmmbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--commit", commit_id(),
            "--run-dir", ".bench_run",
            "--daemon", os.path.join(out, "cmmexd")] + list(extra)


def run_captured(argv):
    """Runs the benchmark binary; returns (exit code, result dict or None)."""
    try:
        r = subprocess.run(argv, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return 124, None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return r.returncode, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    out = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        rc, res = run_captured(bench_argv(out, args.steady, seed, seconds,
                                          args.trace))
        if rc != 0 or not res or not res.get("correct"):
            log("seed %d: run failed (exit %d)" % (seed, rc))
            sys.exit(1)
        runs.append((seed, res))
        log("seed %d done" % seed)
    shares = {r["failed"] / r["attempted"] for _, r in runs}
    ok = len(shares) == 1
    print("workload %s: %d runs, failed share %s" %
          (args.steady, len(runs), sorted(shares)))
    print("%-40s %12s %12s %12s %8s %6s %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "status"))
    for name in bounds:
        vals = [r["metrics"][name]["value"] for _, r in runs]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        status = ""
        if bound is not None:
            even = statistics.median(
                [r["metrics"][name]["value"] for s, r in runs if s % 2 == 0])
            odd = statistics.median(
                [r["metrics"][name]["value"] for s, r in runs if s % 2 == 1])
            seeds_gap = abs(even - odd) / max(abs(even), abs(odd), 1e-300)
            steady_ok = name == "setup_s" or spread <= bound / 3
            seeds_ok = seeds_gap <= bound
            status = "%s seeds-gap %.3f %s" % (
                "steady" if steady_ok else "WIDE", seeds_gap,
                "agree" if seeds_ok else "DISAGREE")
            ok = ok and steady_ok and seeds_ok
        print("%-40s %12.6g %12.6g %12.6g %8.4f %6s %s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else "%.3g" % bound, status))
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run",
                           "steady-%s-trace%d.json" % (args.steady,
                                                       args.trace)), "w") as fh:
        json.dump([{"seed": s, "result": r} for s, r in runs], fh, indent=1)
    sys.exit(0 if ok else 1)


def selfcheck():
    out = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print("%s %s %s" % ("PASS" if passed else "FAIL", name, detail))

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = run_captured(bench_argv(out, w, 1, 1, trace,
                                              ["--small"]))
            names = {m["name"] for m in spec[key]}
            got = set(res["metrics"]) if res else set()
            passed = (rc == 0 and res is not None and res["correct"] and
                      res["attempted"] > 0 and got == names)
            if passed and trace == 0:
                passed = all(res["metrics"][n]["value"] > 0 for n in names)
            report("small %s trace=%d" % (w, trace), passed,
                   "" if passed else "exit %d, missing %s" %
                   (rc, sorted(names - got)))
        for kind in ("expected", "answer"):
            rc, res = run_captured(bench_argv(out, w, 1, 1, 0,
                                              ["--small", "--inject", kind]))
            passed = rc != 0 and res is not None and not res["correct"]
            report("negative %s --inject %s" % (w, kind), passed,
                   "(a corrupted check must fail the run)")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    if args.selfcheck:
        selfcheck()
    if args.steady:
        steady(args)
    if not args.workload:
        ap.error("one of --workload, --steady or --selfcheck is required")
    out = build()
    seconds = args.seconds if args.seconds is not None else 10
    argv = bench_argv(out, args.workload, args.seed, seconds, args.trace)
    try:
        rc = subprocess.run(argv, timeout=RUN_TIMEOUT_S, cwd=ROOT).returncode
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        rc = 124
    sys.exit(rc)


if __name__ == "__main__":
    main()
