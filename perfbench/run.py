"""The gerbelevels benchmark.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Inputs are drawn from --seed and written
before timing starts.  Each pass runs in a fresh interpreter
(perfbench/passrun.py) that imports gerbelevels.cli and drives
`gerbelevels.cli.main` in process, one item after another.  Passes repeat
until --seconds is used up.  Every item's exit code and stdout are checked
(oracle.py).  A human-readable report goes to stderr; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
traced passes with --trace 1.  The exit code is nonzero when an output is
wrong or the program is missing.

Other modes: --workload all (every workload in turn), --smoke (a tiny
subset, one pass of each kind), --record (write expected.json from the
current code after the independent checks pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
PASSRUN = os.path.join(HERE, "passrun.py")
DEADLINE_S = 170.0  # a run must end well inside the 180 s limit
# Median time of passrun.calibrate() on the reference machine (shared
# 2-core x86-64 container, Python 3.11).  A pass's times are divided by the
# mean of the calibrations measured between its items and multiplied by
# this, i.e. reported in seconds at the reference machine's speed.  On the
# reference machine this cut the pass-to-pass spread of the scan pass
# time from 20% to 5.5% (quartile distance over median, 7 passes); a
# per-item calibration did worse (12%) on its 2-4 s item.
CALIB_REF_S = 0.017
# Set-up probes (passes without items) started before every pass.  A run
# has only 4-7 passes and one set-up varies by +-20% within a run, so
# setup_s is the median over the probes and the passes.
SETUP_PROBES = 2
# Tail percentile per workload: the highest of 75/90/95 that leaves at
# least ten pooled samples beyond it in a 35 s run at the seed commit.
# Fixed, so that a faster program (more passes) still reports the same
# percentile.
TAIL_PCT = {"atlas": 95, "scan": 75, "cohomology": 90}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running passes


class Runner:
    """Writes a workload's inputs and runs passes of it in child processes."""

    def __init__(self, workload, items, tag):
        self.workload = workload
        self.dir = os.path.join(WORK, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        rel = os.path.relpath(self.dir, ROOT)
        self.items = []
        for it in items:
            names = set(it["files"])
            for name, content in it["files"].items():
                with open(os.path.join(self.dir, name), "w") as fh:
                    json.dump(content, fh)
            argv = [os.path.join(rel, a) if a in names else a for a in it["argv"]]
            self.items.append(dict(it, argv=argv))
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.start = time.monotonic()

    def run_pass(self, trace, items=None):
        items = self.items if items is None else items
        plan = os.path.join(self.dir, "plan.json")
        result = os.path.join(self.dir, "result.json")
        spans = os.path.join(self.dir, "spans.json")
        with open(plan, "w") as fh:
            json.dump({"items": [{"argv": it["argv"]} for it in items],
                       "trace": trace, "spans": spans}, fh)
        if os.path.exists(result):
            os.remove(result)
        left = DEADLINE_S - (time.monotonic() - self.start)
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, PASSRUN, plan, result],
                                cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError("a pass did not finish before the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        t_done = time.monotonic()
        if proc.returncode != 0 or not os.path.exists(result):
            raise RuntimeError(
                f"pass process failed ({proc.returncode}): {err.decode()[-2000:]}")
        with open(result) as fh:
            res = json.load(fh)
        calib = res["calib"]
        res["scale"] = CALIB_REF_S / statistics.mean(calib)
        start = len(calib) - len(res["results"]) - 1  # calib[start] precedes item 0
        for i, r in enumerate(res["results"]):
            r["time"] = r["wall"] * res["scale"]
            # scaled by the calibrations just before and after the item:
            # steadier for the short items that make the median
            r["near_time"] = r["wall"] * 2 * CALIB_REF_S / (
                calib[start + i] + calib[start + i + 1])
        res["setup_s"] = (res["t_ready"] - t_spawn) * res["scale"]
        res["pass_s"] = sum(r["time"] for r in res["results"])
        res["raw_pass_s"] = sum(r["wall"] for r in res["results"])
        res["elapsed_s"] = t_done - t_spawn
        if trace:
            with open(spans) as fh:
                res["spans"] = json.load(fh)
        return res

    def close(self, keep_spans=None):
        if keep_spans is not None:
            with open(os.path.join(WORK, f"spans-{self.workload}.json"), "w") as fh:
                json.dump(keep_spans, fh)
        shutil.rmtree(self.dir, ignore_errors=True)


def run_workload(workload, seed, seconds, trace, smoke=False):
    items = workloads.draw(workload, seed)
    if smoke:
        items = workloads.smoke_subset(workload, items)
    runner = Runner(workload, items, f"{workload}-{seed}-{os.getpid()}")
    try:
        runner.run_pass(False, items=[])  # compile bytecode; not measured
        runner.start = time.monotonic()
        plain, traced, setups, steps = [], [], [], []
        kinds = [False, True] if trace else [False]
        while True:
            t_step = time.monotonic()
            for _ in range(0 if smoke else SETUP_PROBES):
                setups.append(runner.run_pass(False, items=[])["setup_s"])
            for kind in kinds:
                (traced if kind else plain).append(runner.run_pass(kind))
            setups.append(plain[-1]["setup_s"])
            if smoke:
                break
            steps.append(time.monotonic() - t_step)
            used = time.monotonic() - runner.start
            if used + statistics.median(steps) > seconds:
                break
        problems = check_outputs(runner.items, plain + traced)
        result = summarise(workload, runner.items, plain, traced, setups, problems)
        runner.close(traced[-1]["spans"] if traced else None)
        return result
    except BaseException:
        runner.close()
        raise


def check_outputs(items, passes):
    """One list of problems per item run (empty when the output is right)."""
    expected = oracle.load_expected()
    cache = {}
    problems = []
    for res in passes:
        cross = oracle.pass_problems(items, res["results"])
        for it, r in zip(items, res["results"]):
            key = (it["key"], r["code"], oracle.digest(r["stdout"]))
            if key not in cache:
                cache[key] = oracle.check_item(it, r["code"], r["stdout"], expected)
            problems.append([f"{it['key']}: {p}"
                             for p in cache[key] + cross.get(it["key"], [])])
    return problems


# ---------------------------------------------------------------------------
# metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarise(workload, items, plain, traced, setups, problems):
    walls = [r["time"] for res in plain for r in res["results"]]
    near = [r["near_time"] for res in plain for r in res["results"]]
    rates = [len(res["results"]) / res["pass_s"] for res in plain]
    pct = TAIL_PCT[workload]
    tail = percentile(walls, pct)
    out = {
        "workload": workload,
        "passes": len(plain),
        "items": len(items),
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "problems": sorted({x for p in problems for x in p}),
        "e2e": {
            "items_per_s": statistics.median(rates),
            "item_p50_s": statistics.median(near),
            "item_tail_s": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        },
        "notes": {
            "items_per_s": "q1 %.4g, q3 %.4g over %d passes; uncalibrated %.4g" % (
                quartiles(rates)[0], quartiles(rates)[2], len(rates),
                statistics.median(len(r["results"]) / r["raw_pass_s"] for r in plain)),
            "item_p50_s": f"{len(near)} samples",
            "item_tail_s": "p%d, %d samples beyond" % (
                pct, sum(1 for w in walls if w > tail)),
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": f"median of {len(plain)} passes",
        },
    }
    if traced:
        per = []
        for r in traced:
            m = tracer.layer_metrics(r["spans"], r["trace"])
            per.append({k: v * r["scale"] if k.endswith("_s") else v
                        for k, v in m.items()})
        layer = {k: statistics.median(p[k] for p in per) for k in per[0]}
        layer["trace.overhead_ratio"] = (
            statistics.median(r["pass_s"] for r in traced)
            / statistics.median(r["pass_s"] for r in plain))
        out["layer"] = layer
        last = traced[-1]
        out["modules"] = tracer.module_split(last["spans"])
        out["traced_pass_s"] = last["raw_pass_s"]
        if workload == "atlas":
            out["stages"] = tracer.stage_split(last["spans"])
    return out


def result_line(summary, spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    values = summary["layer"] if trace else summary["e2e"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in group}
    return json.dumps({"correct": summary["failed"] == 0,
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def report(summary, spec, seed, file=sys.stderr):
    w = summary["workload"]
    print(f"\n== {w}  seed {seed}  passes {summary['passes']}  items/pass "
          f"{summary['items']}  nproc {os.cpu_count()}  python "
          f"{platform.python_version()}", file=file)
    print(f"{'end-to-end metric':<22}{'value':>12}  {'unit':<6} notes", file=file)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in summary["e2e"].items():
        print(f"{name:<22}{value:>12.5g}  {units.get(name, ''):<6} "
              f"{summary['notes'][name]}", file=file)
    print(f"{'fail_ratio':<22}{summary['failed'] / summary['attempted']:>12.5g}"
          f"  {'1':<6} {summary['failed']} of {summary['attempted']} items failed",
          file=file)
    for p in summary["problems"][:20]:
        print(f"  FAIL {p}", file=file)
    if "layer" not in summary:
        return
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    targets = load_targets()
    print(f"\n{'per-layer metric':<34}{'value':>12}  {'unit':<6} should move", file=file)
    for m in spec["per_layer"]:
        print(f"{m['name']:<34}{summary['layer'][m['name']]:>12.5g}  "
              f"{units[m['name']]:<6} {targets.get(m['name'], '')}", file=file)
    total = summary["traced_pass_s"]
    print(f"\nself time by module (last traced pass, {total:.3f} s of items,"
          " uncalibrated)",
          file=file)
    for mod, t in sorted(summary["modules"].items(), key=lambda kv: -kv[1]):
        print(f"  {mod:<14}{t:>9.3f} s  {100 * t / total:5.1f}%", file=file)
    if "stages" in summary:
        print("\natlas per-stage split (innermost stage, self time)", file=file)
        for stage, t in sorted(summary["stages"].items(), key=lambda kv: -kv[1]):
            print(f"  {stage:<22}{t:>9.3f} s  {100 * t / total:5.1f}%", file=file)


def load_targets():
    with open(os.path.join(HERE, "baseline.json")) as fh:
        return json.load(fh)["per_layer_targets"]


# ---------------------------------------------------------------------------
# recording the expected outputs


def record():
    """Run every item any seed can draw once, check it independently, and
    write its stdout digest and exit code to expected.json."""
    table = {}
    bad = []
    for w in workloads.WORKLOADS:
        items = workloads.universe(w)
        runner = Runner(w, items, f"record-{w}-{os.getpid()}")
        try:
            runner.start = time.monotonic() + 3600  # no deadline while recording
            res = runner.run_pass(False)
        finally:
            runner.close()
        for it, r in zip(runner.items, res["results"]):
            problems = oracle.check_item(it, r["code"], r["stdout"], None)
            bad += [f"{it['key']}: {p}" for p in problems]
            table[it["key"]] = {"exit": r["code"], "sha256": oracle.digest(r["stdout"])}
        print(f"{w}: {len(items)} items in {res['pass_s']:.1f} s", file=sys.stderr)
    if bad:
        for b in bad:
            print(f"FAIL {b}", file=sys.stderr)
        return 1
    with open(oracle.EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "gerbelevels", "cli.py")):
        print("error: src/gerbelevels not found; run from a gerbelevels checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    spec = load_spec()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines, ok = [], True
    for w in names:
        try:
            summary = run_workload(w, args.seed, args.seconds, bool(args.trace),
                                   smoke=args.smoke)
        except RuntimeError as err:
            print(f"error: {w}: {err}", file=sys.stderr)
            return 1
        report(summary, spec, args.seed)
        ok = ok and summary["failed"] == 0
        lines.append(result_line(summary, spec, bool(args.trace)))
    sys.stderr.flush()
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
