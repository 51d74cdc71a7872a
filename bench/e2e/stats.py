#!/usr/bin/env python3
"""Summaries and comparisons of bench/e2e result files (python3 stdlib only).

  stats.py summary DIR                   per-metric median and quartiles
  stats.py compare BENCHMARK.json A B    check set B against set A's medians
  stats.py check-line BENCHMARK.json TRACE   validate a result line on stdin

A result set is a directory of result files written by e2e_bench --out
(one JSON object per run; the *.spans.json span dumps are skipped).
"""
import json
import pathlib
import statistics
import sys

# Results are only comparable when these match (a 1-core run is never
# compared with a 4-core run).
CONTEXT = ("hardware_concurrency", "jobs", "build_type", "smoke")


def load_set(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        runs.append(json.loads(path.read_text()))
    if not runs:
        sys.exit(f"stats.py: no result files in {directory}")
    return runs


def group(runs):
    out = {}
    for r in runs:
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def spread(values):
    """Quartiles and (q3 - q1) / median, as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def context(runs):
    seen = {tuple(r.get(k) for k in CONTEXT) for r in runs}
    return seen.pop() if len(seen) == 1 else None


def summary(directory):
    for (workload, trace), runs in sorted(group(load_set(directory)).items()):
        ctx = context(runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload} trace={int(trace)} runs={len(runs)} failed={failed} "
              f"context={dict(zip(CONTEXT, ctx)) if ctx else 'MIXED'}")
        print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8}  unit")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{rel:8.2%}  {unit}")


def compare(bench_path, dir_a, dir_b):
    bench = json.loads(pathlib.Path(bench_path).read_text())
    a = group(load_set(dir_a))
    b = group(load_set(dir_b))
    ok = True
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        if trace:
            continue  # per-layer metrics carry no bound
        ctx_a, ctx_b = context(a[key]), context(b[key])
        if ctx_a is None or ctx_a != ctx_b:
            print(f"{workload}: context differs ({ctx_a} vs {ctx_b}); "
                  "not comparable")
            ok = False
            continue
        # A run that failed a check or lost units may have skipped work and
        # look faster; its timings prove nothing.
        bad = [(side, r["seed"]) for side, runs in (("A", a[key]), ("B", b[key]))
               for r in runs if not r["correct"] or r["failed"] > 0]
        if bad:
            print(f"{workload}: FAILED runs (set, seed): {bad}")
            ok = False
            continue
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a[key]]
            vb = [r["metrics"][name]["value"] for r in b[key]]
            ma, _, _, sa = spread(va)
            mb, _, _, sb = spread(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= bound else "REGRESSED"
            if verdict == "ok" and max(sa, sb) > bound:
                verdict = "unresolved (spread above bound)"
            ok = ok and verdict != "REGRESSED"
            print(f"{workload:20} {name:12} A={ma:<12.6g} B={mb:<12.6g} "
                  f"worse={worse:+7.2%} bound={bound:.0%} "
                  f"spread A={sa:.2%} B={sb:.2%}  {verdict}")
    missing = sorted(set(a) ^ set(b))
    if missing:
        print(f"only in one set: {missing}")
    return 0 if ok else 1


def check_line(bench_path, trace):
    bench = json.loads(pathlib.Path(bench_path).read_text())
    line = json.loads(sys.stdin.read().strip().splitlines()[-1])
    want = bench["per_layer" if trace == "1" else "end_to_end"]
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if line.get("correct") is not True or line.get("attempted", 0) < 1:
        problems.append("run not correct or nothing attempted")
    got = line.get("metrics", {})
    if set(got) != {m["name"] for m in want}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        if m["name"] in got and got[m["name"]].get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got[m['name']].get('unit')}")
    for p in problems:
        print(f"check-line: {p}")
    return 1 if problems else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "summary":
        summary(argv[1])
        return 0
    if len(argv) == 4 and argv[0] == "compare":
        return compare(*argv[1:])
    if len(argv) == 3 and argv[0] == "check-line":
        return check_line(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
