#!/usr/bin/env python3
"""At-scale verification benchmark: build and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/bench.exe from source (dune, release
profile) and runs the workload for the given measuring time. With
--trace 0 it starts one process per pass, as a user runs one verification
per process, until the time is used up, and reports the median of each
end-to-end metric over the passes. With --trace 1 one process alternates
untraced and traced passes, reports the per-layer metrics and writes its
spans under .bench_out/. The last line printed is the result object
{"correct", "attempted", "failed", "metrics"}.

--self-test runs every workload on a shrunken input set, checks that each
metric named in BENCHMARK.json prints with its unit, and that a planted
wrong expectation is counted as a failure.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["verify", "campaign-grid"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT = ".bench_out"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


@functools.lru_cache(maxsize=None)
def source_digest():
    """Identity of the code under test: a hash of every source file the
    benchmark builds from (a checkout need not be a git repository)."""
    h = hashlib.sha256()
    roots = ["dune-project", "lib", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for d, dirs, names in os.walk(root):
            dirs.sort()
            files.extend(os.path.join(d, n) for n in sorted(names))
    for f in files:
        if f.endswith((".ml", ".mli", ".c", "dune", "dune-project")):
            h.update(f.encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", EXE],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=850,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_exe(workload, seed, seconds, trace, extra=(), echo=True):
    os.makedirs(OUT, exist_ok=True)
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", OUT,
        "--source-digest", source_digest(),
    ] + list(extra)
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE,
        stderr=sys.stderr if echo else subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        if not echo:
            sys.stderr.write(proc.stderr)
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    return result, lines[:-1]


def run_bench(workload, seed, seconds, trace, extra=(), echo=True):
    """One result object for the workload: a traced run as one process,
    an untraced run as one process per pass, with medians over passes
    and operation counts summed."""
    if trace:
        result, lines = run_exe(workload, seed, seconds, 1, extra, echo)
        if echo:
            print("\n".join(lines))
    else:
        result, lines = aggregate(workload, seed, seconds, extra, echo)
    if echo:
        print(json.dumps(result), flush=True)
    return result


def aggregate(workload, seed, seconds, extra, echo):
    deadline = time.monotonic() + seconds
    passes, durations, env = [], [], None
    while True:
        t0 = time.monotonic()
        r, lines = run_exe(workload, seed * 1000 + len(passes), seconds, 0,
                           extra, echo)
        durations.append(time.monotonic() - t0)
        passes.append(r)
        env = env or next((l for l in lines if l.startswith("env ")), None)
        if echo:
            print("\n".join(l for l in lines if l.startswith("pass:")), flush=True)
        # another pass starts only if half of a typical one still fits
        if time.monotonic() + statistics.median(durations) / 2 >= deadline:
            break
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    partial = sum(round(r["attempted"] * (1 - r["metrics"]["final_frac"]["value"]))
                  for r in passes)
    metrics = {}
    for name, m in passes[0]["metrics"].items():
        metrics[name] = {"value": statistics.median(r["metrics"][name]["value"] for r in passes),
                         "unit": m["unit"]}
    metrics["ok_frac"]["value"] = (attempted - failed) / attempted
    metrics["final_frac"]["value"] = (attempted - partial) / attempted
    if echo and env:
        stamp = json.loads(env[len("env "):])
        stamp.update(seed=seed, passes=len(passes))
        print("env " + json.dumps(stamp))
    result = {"correct": all(r["correct"] for r in passes),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, []


def check_metrics(result, specs, where):
    problems = []
    metrics = result["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None:
            problems.append("%s: %s missing" % (where, spec["name"]))
        elif m.get("unit") != spec["unit"]:
            problems.append("%s: %s has unit %r, want %r"
                            % (where, spec["name"], m.get("unit"), spec["unit"]))
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: %s is not a finite number" % (where, spec["name"]))
    names = {s["name"] for s in specs}
    for extra in sorted(set(metrics) - names):
        problems.append("%s: %s is not declared in BENCHMARK.json" % (where, extra))
    return problems


def self_test():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = [w["name"] for w in bench["workloads"]]
    problems = []
    for w in declared:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = "%s trace=%d" % (w, trace)
            r = run_bench(w, 1, 1, trace, ["--shrink"], echo=False)
            problems += check_metrics(r, specs, where)
            if not r["correct"]:
                problems.append("%s: run reported incorrect outputs" % where)
            print("self-test %-28s attempted %4d failed %3d"
                  % (where, r["attempted"], r["failed"]))
    for w in WORKLOADS:
        r = run_bench(w, 1, 1, 0, ["--shrink", "--plant-wrong"], echo=False)
        if r["correct"] or r["failed"] < 1:
            problems.append("%s: a planted wrong expectation went unnoticed" % w)
        else:
            print("self-test %-28s planted expectation caught (%d failed)"
                  % (w + " planted", r["failed"]))
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        fail("--workload is required")
    run_bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
