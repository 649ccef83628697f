#!/usr/bin/env python3
"""Repo benchmark: build perfbench/main.exe from source and run it.

Run from the root of a checkout of the repository:

  python3 perfbench/run.py --workload flip --seed 1 --seconds 20 --trace 0
      one run; the last stdout line is the JSON result
  python3 perfbench/run.py sweep --workloads flip,churn,analyze --seeds 1-10 \
      --out set-a.jsonl
      one untraced run of BENCHMARK.json's run_seconds per (workload, seed);
      full reports appended to --out, then each metric's median and
      quartile spread. With --against PARENT --against-out old.jsonl, the
      checkout PARENT's benchmark runs too, for the same run length, the
      two sides alternating which runs first: a pair of sets to compare
  python3 perfbench/run.py spread set-a.jsonl
      the spread table of a result set
  python3 perfbench/run.py compare set-a.jsonl set-b.jsonl
      per workload and end-to-end metric: old and new median and quartiles,
      flagging moves beyond the bounds in BENCHMARK.json; exits 1 on a
      regression, an unresolved metric, failed output checks in the new
      set, or when the two sets define an op or a run differently

A run whose last line does not carry exactly the metrics and units that
BENCHMARK.json declares fails with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("flip", "churn", "analyze")
# A run takes under a minute; past this it is stuck, not slow.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark and the libraries it links from source."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("no %s next to perfbench/: run from a full checkout" % needed)
    # Release profile: a new warning elsewhere must not stop the benchmark.
    # No shared cache: the build writes only under the checkout's _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die("dune not found on PATH")
    if done.returncode != 0:
        die("build failed (dune exit %d)" % done.returncode)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def disagreements(metrics, trace):
    """How a last line's metrics differ from those BENCHMARK.json declares."""
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in benchmark_spec()[key]}
    got = {name: m.get("unit") for name, m in metrics.items()}
    return (["missing " + n for n in want if n not in got]
            + ["undeclared " + n for n in got if n not in want]
            + ["%s in %s, declared %s" % (n, got[n], want[n])
               for n in want if n in got and got[n] != want[n]])


def run_one(workload, seed, seconds, trace, report=None):
    """One run of main.exe. Its output is passed on only once its last
    line has been checked against BENCHMARK.json."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if report:
        cmd += ["--report", report]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s seed %d ran past %d s" % (workload, seed, RUN_TIMEOUT_S), 1)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return done.returncode
    try:
        last = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
        problems = disagreements(last["metrics"], trace)
    except (ValueError, KeyError, TypeError, AttributeError):
        problems = ["the last line is not a result"]
    if problems:
        sys.stderr.write(done.stdout)
        die("%s seed %d disagrees with BENCHMARK.json: %s" % (
            workload, seed, "; ".join(problems)), 1)
    sys.stdout.write(done.stdout)
    return 0


def load_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q):
    """Quartile distance as a share of the median."""
    q1, med, q3 = q
    return (q3 - q1) / med if med else float("inf")


def by_workload(reports):
    groups = {}
    for r in reports:
        if r["trace"] == 0:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def spread_table(reports):
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    for workload, runs in sorted(by_workload(reports).items()):
        print("%s: %d runs, seeds %s" % (
            workload, len(runs), ",".join(str(r["seed"]) for r in runs)))
        print("  %-20s %14s %14s %8s %7s" % (
            "metric", "median", "unit", "spread", "bound"))
        for name in runs[0]["metrics"]:
            q = quartiles(values(runs, name))
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if spread(q) < bound / 3 else (
                    "WIDE" if spread(q) <= bound else "OVER")
            print("  %-20s %14.6g %14s %8.4f %7s %s" % (
                name, q[1], runs[0]["metrics"][name]["unit"], spread(q),
                "" if bound is None else bound, mark))


def checks(runs):
    """Failed ops and checks over a set, and the seeds of incorrect runs."""
    failed = sum(r["failed"] for r in runs)
    wrong = [r["seed"] for r in runs if not r["correct"]]
    text = "%d of %d failed" % (failed, sum(r["attempted"] for r in runs))
    if wrong:
        text += ", incorrect seeds " + ",".join(map(str, wrong))
    return failed, wrong, text


def judge(m, old, new, qa, qb):
    """The flag for one metric's move, and whether it fails the comparison.
    A spread wider than the bound leaves the move unresolved unless every
    new run beats, or loses to, every old run."""
    lower = m["better"] == "lower"
    worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if not lower:
        worse = -worse
    if max(spread(qa), spread(qb)) > m["bound"]:
        if all((b < a if lower else b > a) for a in old for b in new):
            return "better in every run", False
        if all((b > a if lower else b < a) for a in old for b in new):
            return "REGRESSION (worse in every run)", True
        return "UNRESOLVED (spread %.2f/%.2f > bound %g)" % (
            spread(qa), spread(qb), m["bound"]), True
    if worse > m["bound"]:
        return "REGRESSION (bound %g)" % m["bound"], True
    if -worse > m["bound"]:
        return "better beyond bound", False
    return "", False


def compare(old, new):
    spec = benchmark_spec()
    status = 0
    old_g, new_g = by_workload(old), by_workload(new)
    for workload in sorted(set(old_g) | set(new_g)):
        if workload not in old_g or workload not in new_g:
            print("%s: only in one set" % workload)
            status = 1
            continue
        a, b = old_g[workload], new_g[workload]
        print("%s: %d old runs, %d new runs" % (workload, len(a), len(b)))
        defs = {(r["schema"], r["seconds"], r["op"]) for r in a + b}
        if len(defs) > 1:
            print("  INCOMPARABLE: schema, run length or op definition differs")
            for d in sorted(defs):
                print("    %s, %d s: %s" % d)
            status = 1
            continue
        old_failed, _, old_text = checks(a)
        new_failed, wrong, new_text = checks(b)
        flag = ""
        if wrong or new_failed > old_failed:
            flag = "  FAILED CHECKS"
            status = 1
        print("  checks: old %s; new %s%s" % (old_text, new_text, flag))
        print("  %-20s %-36s %-36s %8s" % (
            "metric", "old median [q1, q3]", "new median [q1, q3]", "change"))
        for m in spec["end_to_end"]:
            name = m["name"]
            ua = a[0]["metrics"][name]
            ub = b[0]["metrics"][name]
            if (ua["unit"], ua["over"]) != (ub["unit"], ub["over"]):
                print("  %-20s INCOMPARABLE: %s per %s vs %s per %s" % (
                    name, ua["unit"], ua["over"], ub["unit"], ub["over"]))
                status = 1
                continue
            va, vb = values(a, name), values(b, name)
            qa, qb = quartiles(va), quartiles(vb)
            flag, fails = judge(m, va, vb, qa, qb)
            if fails:
                status = 1
            print("  %-20s %-36s %-36s %+7.1f%% %s" % (
                name,
                "%.6g [%.6g, %.6g]" % (qa[1], qa[0], qa[2]),
                "%.6g [%.6g, %.6g]" % (qb[1], qb[0], qb[2]),
                100 * ((qb[1] - qa[1]) / qa[1] if qa[1] else 0.0), flag))
    return status


def sweep_run(root, workload, seed, seconds, out):
    """One untraced run of the benchmark of checkout [root], through its
    own run.py; the full report is appended to [out]."""
    report = os.path.join(ROOT, "_build", "perfbench-report.json")
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--report", report]
    code = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL).returncode
    if code != 0:
        die("%s: %s seed %d exited %d" % (root, workload, seed, code), 1)
    with open(report) as f, open(out, "a") as o:
        o.write(f.read())


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            die("usage: run.py compare OLD.jsonl NEW.jsonl")
        return compare(load_set(argv[1]), load_set(argv[2]))
    if argv and argv[0] == "spread":
        if len(argv) != 2:
            die("usage: run.py spread SET.jsonl")
        spread_table(load_set(argv[1]))
        return 0
    if argv and argv[0] == "sweep":
        p = argparse.ArgumentParser(prog="run.py sweep")
        p.add_argument("--workloads", default=",".join(WORKLOADS))
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--out", required=True)
        p.add_argument("--against", metavar="CHECKOUT")
        p.add_argument("--against-out")
        a = p.parse_args(argv[1:])
        if bool(a.against) != bool(a.against_out):
            die("--against and --against-out go together")
        seconds = benchmark_spec()["run_seconds"]
        build()
        sides = [(ROOT, a.out)]
        if a.against:
            sides.append((os.path.abspath(a.against), a.against_out))
        for workload in a.workloads.split(","):
            for i, seed in enumerate(seed_list(a.seeds)):
                # Alternate which side runs first, so that the host's
                # speed drifting over minutes hits both sides alike.
                for root, out in sides if i % 2 == 0 else sides[::-1]:
                    sweep_run(root, workload, seed, seconds, out)
                print("%s seed %d done" % (workload, seed), file=sys.stderr)
        for _, out in sides:
            print(out)
            spread_table(load_set(out))
        return 0
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--report")
    a = p.parse_args(argv)
    build()
    return run_one(a.workload, a.seed, a.seconds, a.trace, report=a.report)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
