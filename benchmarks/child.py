"""One timed step of the benchmark, in a freshly started interpreter.

    python3 child.py MODE SPEC OUT

MODE is ``setup`` (import the package and load every input once), ``pass``
(run the job list through ``mvwrig.cli.main``), ``trace`` (the same with
the per-layer tracer installed) or ``count`` (the same with the element
accessors counted).  SPEC is the JSON job spec run.py writes; the results
go to OUT as JSON.  Stdout and stderr of each job are captured for the
correctness gate.

The host's speed drifts by tens of percent within a minute, so every mode
also reports its times in reference seconds: each step (the package import
and each input load of a set-up, each job of a pass) is scaled by CAL_REF_S
over the median time of a fixed calibration burst measured just before and
just after it.  The bursts are not part of the timed steps; in a traced
pass they count as harness time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

#: Allowed gap between the layers' summed self time and the traced pass.
SELF_TIME_TOLERANCE = 0.01
#: Duration of one calibration burst on the reference host (2-vCPU VM,
#: CPython 3.11): a span that takes t seconds while a burst takes c seconds
#: counts as t * CAL_REF_S / c reference seconds.
CAL_REF_S = 0.014
CAL_SIZE = 44
#: Each calibration runs at least CAL_MIN_BURSTS bursts, and keeps going
#: for CAL_SHARE of the span it follows, then takes the median burst.
CAL_MIN_BURSTS = 3
CAL_SHARE = 0.1


def burst() -> float:
    """Seconds one fixed burst of table lookups and set inserts takes now.

    Pure Python with no imports, so it leaves the import state that
    ``setup`` times untouched."""
    start = time.perf_counter()
    n = CAL_SIZE
    table = {(x, y): (x + y) % n for x in range(n) for y in range(n)}
    rows = [tuple(x * y % n for y in range(n)) for x in range(n)]
    seen = set()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                seen.add(table[rows[x][y], z])
    return time.perf_counter() - start


def calibrate(span: float = 0.0) -> float:
    """The median burst time right after a span of ``span`` seconds."""
    start = time.perf_counter()
    times = []
    while len(times) < CAL_MIN_BURSTS or time.perf_counter() - start < CAL_SHARE * span:
        times.append(burst())
    return sorted(times)[len(times) // 2]


def to_reference(seconds: float, before: float, after: float) -> float:
    """A span's seconds in reference seconds, from the calibrations around it."""
    return seconds * CAL_REF_S * 2 / (before + after)


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in job["env"]}
    os.environ.update(job["env"])
    exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["argv"])
    except SystemExit as stop:
        rc = stop.code if isinstance(stop.code, int) else 1
    except Exception as error:  # an escape from cli.main is a failed job, not a crash
        rc, exc = 1, type(error).__name__
        err.write(traceback.format_exc())
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"rc": 0 if rc is None else rc, "out": out.getvalue(),
            "err": err.getvalue(), "exc": exc}


def run_calibrated(steps):
    """Run the steps with a calibration before each step and after the
    last: (results, wall seconds, reference seconds of each step)."""
    burst()  # warm-up
    before = calibrate()
    results, seconds, step_ref = [], 0.0, []
    for step in steps:
        start = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - start
        after = calibrate(took)
        seconds += took
        step_ref.append(to_reference(took, before, after))
        before = after
    return results, seconds, step_ref


def _import_package():
    from mvwrig import cli  # noqa: F401  (importing cli loads every layer)


def _load(name):
    from mvwrig import dsl
    text = Path(name).read_text(encoding="utf-8")
    try:
        dsl.elaborate_file(text)
    except Exception:  # reject-mix inputs fail to load; that cost is set-up too
        pass


def setup(spec):
    """Import the package, then load each input: one step each."""
    steps = [_import_package] + [functools.partial(_load, name) for name in spec["files"]]
    _results, seconds, step_ref = run_calibrated(steps)
    return {"seconds": seconds, "step_ref_seconds": step_ref}


def run_pass(spec, mode):
    from mvwrig import cli, suites
    tracer = counter = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    elif mode == "count":
        counter = tracing.ScalarCounter()
        counter.install()

    def step(i, job):
        if tracer:
            tracer.job = i
        return run_job(cli, job)

    try:
        if tracer:
            tracer.open_root()
        results, seconds, step_ref = run_calibrated(
            [functools.partial(step, i, job) for i, job in enumerate(spec["jobs"])])
        if tracer:
            root_seconds = tracer.close_root()
    finally:
        if tracer:
            tracer.uninstall()
        if counter:
            counter.uninstall()
    doc = {"seconds": seconds, "ref_seconds": sum(step_ref), "step_ref_seconds": step_ref,
           "jobs": results,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "leftovers": tracing.leftover_wrappers()}
    if tracer:
        checks = {suite: [name for name, _d, _f in rows] for suite, rows in suites.SUITES.items()}
        doc["layers"] = tracer.metrics(checks)
        covered = sum(tracer.layer_self.values())
        doc["self_time_gap"] = abs(covered - root_seconds) / root_seconds
        doc["self_time_ok"] = doc["self_time_gap"] <= SELF_TIME_TOLERANCE
        names = sorted({s[1] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump({"names": names,
                       "fields": ["id", "name", "start", "end", "parent", "job"],
                       "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]]
                                 for s in sorted(tracer.spans)]}, handle)
    if counter:
        doc["scalar_calls"] = counter.count
    return doc


def main(argv):
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    os.chdir(spec["dir"])
    doc = setup(spec) if mode == "setup" else run_pass(spec, mode)
    Path(out_path).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
