"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passrun.py PLAN.json RESULT.json

Imports gerbelevels.cli (the set-up that setup_s measures), then runs
every item of the plan serially through `gerbelevels.cli.main`, in
process, capturing stdout and the exit code.  A short calibration loop
runs START_CALIBRATIONS times before the first item and once after every
item; run.py divides the pass's times by them (see `calibrate`).  With
"trace" set in the plan, the tracer is installed after set-up and its
spans are written to the plan's "spans" path at the end.  Run from the root of a checkout with
src/ on PYTHONPATH.
"""

import sys
import time

CALIB_ROUNDS = 3000
START_CALIBRATIONS = 3  # a pass without items (a set-up probe) still gets a steady scale


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kind of work the program
    does (exact rationals, tuples, dict lookups).  On a shared machine the
    speed available to one process drifts by tens of percent within
    minutes; this loop drifts with it, so item time over calibration time
    measures the program, not the neighbours."""
    from fractions import Fraction

    t0 = time.perf_counter()
    acc = Fraction(0)
    seen: dict = {}
    for i in range(CALIB_ROUNDS):
        x = Fraction(i % 7 + 1, i % 5 + 2)
        acc += x * x
        key = (i % 11, i % 13, i % 3)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    import gerbelevels.cli as cli
    t_ready = time.monotonic()

    import contextlib
    import gc
    import io
    import json
    import resource

    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    calib = [calibrate() for _ in range(START_CALIBRATIONS)]
    for idx, item in enumerate(plan["items"]):
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.item = idx
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(item["argv"])
        except (Exception, SystemExit) as exc:  # a failed item, not a failed pass
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        calib.append(calibrate())
        results.append({"wall": wall, "code": code, "stdout": out.getvalue()})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload = {"t_ready": t_ready, "rss_mb": rss_mb, "results": results,
               "calib": calib}
    if tracer is not None:
        payload["trace"] = tracer.summary()
        with open(plan["spans"], "w") as fh:
            json.dump(tracer.spans(), fh)
    with open(result_path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
