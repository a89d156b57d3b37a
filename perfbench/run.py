#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --aa PAIRS
    python3 perfbench/run.py --fig5 --seed N --seconds S

The first form builds perfbench/main.exe with dune and runs one workload;
its last line of output is the JSON result. Its times are reference
times: wall time over the host slowdown that calibration slices
interleaved with the work measure (see perfbench/measure.ml). --aa runs the workload
2 x PAIRS times on the same build, alternating the two sides, and prints
each end-to-end metric's medians and spread: the noise floor a later
comparison has to clear. --fig5 prints the paper's Fig. 5 overhead
(octane-vdc4 over octane-vdc0) with a bootstrap confidence interval.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout (dune-project and lib/ not found)")
    # keep every build output inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def run(args, echo=True):
    """Run main.exe; return its parsed result line."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(r.stdout)
    if r.returncode != 0:
        fail("main.exe exited with %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    return result


def spread(values):
    """(Q3 - Q1) / median, as statistics.quantiles gives the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def aa(opts):
    base = ["--workload", opts.workload, "--seconds", str(opts.seconds), "--trace", "0"]
    sides = {"A": [], "B": []}
    for i in range(opts.aa):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            seed = opts.seed + len(sides["A"]) + len(sides["B"])
            sides[side].append(run(base + ["--seed", str(seed)], echo=False))
    print("A/A on %s: %d runs per side, seeds from %d" % (opts.workload, opts.aa, opts.seed))
    print("%-14s %14s %14s %10s %10s" % ("metric", "median A", "median B", "A-B gap", "spread"))
    for name in sides["A"][0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in sides["A"]]
        b = [r["metrics"][name]["value"] for r in sides["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = abs(ma - mb) / ((ma + mb) / 2) if ma + mb else 0.0
        print("%-14s %14.4f %14.4f %9.2f%% %9.2f%%" % (name, ma, mb, 100 * gap, 100 * spread(a + b)))
    failed = sum(r["failed"] for side in sides.values() for r in side)
    attempted = sum(r["attempted"] for side in sides.values() for r in side)
    print("operations: %d attempted, %d failed" % (attempted, failed))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", type=int, metavar="PAIRS")
    p.add_argument("--fig5", action="store_true")
    opts = p.parse_args()
    if not opts.fig5 and not opts.workload:
        p.error("--workload is required")
    build()
    if opts.fig5:
        sys.exit(subprocess.run([EXE, "--fig5", "--seed", str(opts.seed), "--seconds",
                                 str(opts.seconds)]).returncode)
    if opts.aa:
        aa(opts)
        return
    run(["--workload", opts.workload, "--seed", str(opts.seed), "--seconds",
         str(opts.seconds), "--trace", str(opts.trace)])


if __name__ == "__main__":
    main()
