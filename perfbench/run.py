#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/vbench.exe from source
with dune (build directory .bench_build), runs the workload with the
environment pinned, and prints the result as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}.

Every workload reports every metric of BENCHMARK.json.  With --trace 0
the metrics are the end-to-end ones.  With --trace 1 the workload runs
twice, untraced and then traced; the metrics are the traced run's
per-layer metrics, the one only the untraced run measures (ops_per_s, the
workload's throughput), and "overhead.<metric>", the traced-minus-untraced
difference of every end-to-end metric; the two runs must agree on their
outputs (model digests, verdicts).

Exits non-zero without printing a result when the checkout cannot be
built or a run fails to produce one.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "vbench.exe")
WORKLOADS = ("analyze-mysql", "fuzz-corpus", "serve-mix")
# Pipeline.default_options and the fuzz oracle read the first three; a set
# VIOLET_CACHE_DIR would prime each run's solver cache from the last one.
UNSET = ("VIOLET_JOBS", "VIOLET_FAST_NONDET", "VIOLET_CACHE_DIR", "OCAMLRUNPARAM")
# one invocation must end within 180 s; the build is not counted
RUN_BUDGET_S = 170.0


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune project with lib/ at %s: nothing to build" % ROOT)
    # no shared dune cache: the build reads and writes only the checkout
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled", "./perfbench/vbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def commit_id():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    # not a git checkout: name the sources instead
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, fs in os.walk(path):
            dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
            files += [os.path.join(d, f) for f in sorted(fs)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def run_exe(args, trace, commit, deadline):
    """One vbench run: returns (output lines before the result, the
    single-key JSON lines merged by key, the result object)."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0", "--commit", commit, "--out", os.path.join(ROOT, RUN_DIR),
    ]
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die("workload did not finish within the run budget")
    finally:
        # the workload stops what it starts; this only catches leftovers
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write(out)
        die("workload exited with code %d" % p.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line")
    # single-key JSON lines before the result: env, digests, end_to_end,
    # untraced_layers
    extras = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            extras.update(json.loads(line))
    return lines[:-1], extras, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    deadline = time.time() + RUN_BUDGET_S
    commit = commit_id()
    if not args.trace:
        notes, _, result = run_exe(args, False, commit, deadline)
        for line in notes:
            print(line)
        print(json.dumps(result))
        return
    base_notes, base_extra, base = run_exe(args, False, commit, deadline)
    for line in base_notes:
        print("# untraced " + line)
    notes, extra, traced = run_exe(args, True, commit, deadline)
    for line in notes:
        print(line)
    failed = base["failed"] + traced["failed"]
    correct = base["correct"] and traced["correct"]
    if base_extra.get("digests") != extra.get("digests"):
        print("# FAIL outputs differ between the untraced and the traced run")
        failed += 1
        correct = False
    metrics = dict(traced["metrics"])
    for name, m in base_extra.get("untraced_layers", {}).items():
        metrics[name] = m
        print("# %-40s %14.4f %s" % (name, m["value"], m["unit"]))
    traced_e2e = extra.get("end_to_end", {})
    for name, m in base["metrics"].items():
        if name in traced_e2e:
            v = traced_e2e[name]["value"] - m["value"]
            metrics["overhead." + name] = {"value": v, "unit": m["unit"]}
            print("# %-40s %14.4f %s" % ("overhead." + name, v, m["unit"]))
    print(json.dumps({
        "correct": correct,
        "attempted": base["attempted"] + traced["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
