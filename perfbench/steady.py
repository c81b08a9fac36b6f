"""Steadiness check: run every workload repeatedly and report the spread of
each end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--write-baseline]

Round k runs every workload once with seed first_seed + k; the order of
the workloads alternates between rounds.  Each run lasts run_seconds of
BENCHMARK.json and every workload there is run.  For each workload and
metric it prints the median, the quartiles and the spread
(q3 - q1) / median, the ratio of the medians of the second half of the
rounds over the first half, and whether the spread stays within the
metric's bound.  With --write-baseline the medians and quartiles go
into baseline.json.  Exits nonzero when a spread exceeds its bound, when
the second half is worse than the first by more than the bound, or when
an output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    out = json.loads(last)
    if proc.returncode != 0 or not out.get("correct"):
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {k: v["value"] for k, v in out["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    values = {w: [] for w in names}
    for k in range(args.runs):
        order = names if k % 2 == 0 else names[::-1]
        for w in order:
            m = run_once(w, args.first_seed + k, seconds)
            values[w].append(m)
            print(f"round {k} {w}: " + ", ".join(f"{n}={v:.4g}" for n, v in m.items()),
                  file=sys.stderr, flush=True)
    ok = True
    table = {}
    print(f"\n{'workload':<11}{'metric':<14}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>8}{'bound':>7}{'halves':>8}  verdict")
    for w in names:
        table[w] = {}
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in values[w]]
            q1, med, q3, sp = spread(vals)
            half = len(vals) // 2
            halves = statistics.median(vals[half:]) / statistics.median(vals[:half])
            worse = 1 - halves if m["better"] == "higher" else halves - 1
            held = sp <= m["bound"]
            ok = ok and held and worse <= m["bound"]
            verdict = ("ok" if sp <= m["bound"] / 3 else "within bound") if held \
                else "SPREAD OVER BOUND"
            if worse > m["bound"]:
                verdict += ", HALVES DISAGREE"
            print(f"{w:<11}{m['name']:<14}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}"
                  f"{sp:>8.3f}{m['bound']:>7.2f}{halves:>8.3f}  {verdict}")
            table[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                   "unit": m["unit"], "runs": len(vals)}
    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        with open(path) as fh:
            base = json.load(fh)
        base["seed_commit"] = {
            "end_to_end": table, "run_seconds": seconds, "seeds":
            [args.first_seed, args.first_seed + args.runs - 1],
            "nproc": os.cpu_count(), "python": platform.python_version()}
        with open(path, "w") as fh:
            json.dump(base, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
