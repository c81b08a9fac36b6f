"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a checkout; they take about 15 seconds.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_metric(workload, trace):
    out, report = _smoke(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in group}
    for m in group:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert m["name"] in report  # the human report names it too
    if not trace:
        assert "fail_ratio" in report


def test_workloads_cover_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(HERE, "baseline.json")) as fh:
        targets = json.load(fh)["per_layer_targets"]
    assert set(targets) == {m["name"] for m in SPEC["per_layer"]}


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.draw(w, 7), workloads.draw(w, 7)
        assert a == b
        keys = {it["key"] for it in workloads.universe(w)}
        assert {it["key"] for it in a} <= keys


def test_every_drawable_item_has_a_recorded_output():
    expected = oracle.load_expected()
    for w in workloads.WORKLOADS:
        for it in workloads.universe(w):
            assert it["key"] in expected, it["key"]


def _certificate():
    items = [it for it in workloads.universe("cohomology")
             if it["key"].startswith("obstruction B 3 Spin Spin")][:1]
    runner = run.Runner("cohomology", items, f"test-{os.getpid()}")
    try:
        res = runner.run_pass(False)
    finally:
        runner.close()
    r = res["results"][0]
    return runner.items[0], r["code"], r["stdout"]


def test_oracle_rejects_a_tampered_certificate():
    item, code, stdout = _certificate()
    expected = oracle.load_expected()
    assert oracle.check_item(item, code, stdout, expected) == []
    payload = json.loads(stdout)
    nontrivial = [k for k, v in payload["c_cocycle"].items() if any(v)]
    assert nontrivial
    payload["c_cocycle"][nontrivial[0]][0] += 1
    tampered = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    # the independent re-verification alone catches it, without the digest
    assert oracle.check_item(item, code, tampered, None)
    assert oracle.check_item(item, code, tampered, expected)


def test_oracle_rejects_a_wrong_closed_form():
    item = {"key": "x", "check": {"kind": "cyclic_point", "n": 4, "m": 0,
                                  "sign": False, "degree": 2}}
    good = '{"degree":2,"invariants":{"free_rank":0,"torsion":[4]},"label":"Z/4"}\n'
    bad = '{"degree":2,"invariants":{"free_rank":0,"torsion":[2]},"label":"Z/2"}\n'
    assert oracle.check_item(item, 0, good, None) == []
    assert oracle.check_item(item, 0, bad, None)


def test_self_times_do_not_exceed_pass_time():
    items = workloads.smoke_subset("atlas", workloads.draw("atlas", 5))
    runner = run.Runner("atlas", items, f"test-trace-{os.getpid()}")
    try:
        res = runner.run_pass(True)
    finally:
        runner.close()
    spans = res["spans"]
    selfs = tracer.self_times(spans)
    assert min(selfs) > -1e-6
    assert sum(tracer.module_split(spans).values()) <= res["raw_pass_s"] + 1e-6
    assert sum(tracer.stage_split(spans).values()) <= res["raw_pass_s"] + 1e-6
    layer = tracer.layer_metrics(spans, res["trace"])
    assert sum(layer[m] for m in tracer.MODULE_SELF) <= res["raw_pass_s"] + 1e-6
    assert layer["rootdata.coords_calls"] > 0 and layer["weyl.elements"] > 0


def test_scan_points_are_counted_from_the_program():
    key = "scan A 2 SL SL --max-denominator 4 --level basic"
    items = [it for it in workloads.universe("scan") if it["key"] == key]
    runner = run.Runner("scan", items, f"test-scan-{os.getpid()}")
    try:
        res = runner.run_pass(True)
    finally:
        runner.close()
    layer = tracer.layer_metrics(res["spans"], res["trace"])
    # rank 2, denominators up to 4: the 16 points of (1/4)Z^2 / Z^2 and
    # the 9 of (1/3)Z^2 / Z^2 share only the origin
    assert layer["obstruction.scan_points"] == 24
    rows = [ln for ln in res["results"][0]["stdout"].splitlines() if "|W_L|=" in ln]
    assert layer["obstruction.scan_reps"] == len(rows) < 24
