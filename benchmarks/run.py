"""The mvwrig benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload verify-zoo --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Inputs are generated from ``--seed`` into ``.bench_work/``.
``--workload all`` runs the three workloads one after another, each
printing its own summary and JSON line.
Each set-up and each pass runs in a freshly started interpreter, one at a
time (closed loop, one client, one job in flight).

``--trace 0`` loads the inputs SETUP_REPEATS times, then runs passes until
``--seconds`` have passed and at least MIN_PASSES passes are done, and
prints the end-to-end metrics.  ``setup_s`` and ``pass_s`` sum, step by
step, each step's median over the set-ups or passes, in reference seconds,
which the host's speed drift does not move (see child.py); the wall seconds
are printed beside them.
``--trace 1`` runs one plain pass, one traced pass and one counted pass and
prints the per-layer metrics.  Every job of every pass goes through the
correctness gate.  Human-readable lines come first; the last line of
stdout is the JSON result.  Exits 2 without a result when the checkout has
no package source, and 1 when a step fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
MIN_PASSES = 3
#: Every step must end by then, so the whole run ends within 180 s.
DEADLINE_S = 170.0


class StepFailed(Exception):
    pass


def _child(mode, spec_path, deadline):
    out_path = spec_path.with_name(f"{mode}-{time.monotonic_ns()}.json")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    env.pop("MVW_SIZE_BOUND", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepFailed(f"{mode}: out of time")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), mode,
                               str(spec_path), str(out_path)],
                              env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{mode}: out of time") from None
    if proc.returncode != 0:
        raise StepFailed(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def _gate_pass(jobs, doc, expected, tally):
    for job, result in zip(jobs, doc["jobs"]):
        reason = gate.check(job, result, expected)
        tally["attempted"] += 1
        if reason is not None:
            tally["failed"] += 1
            known = job.get("known_defect")
            tally["reasons"].add(f"{job['key']}: {reason}"
                                 + (f" (known defect: {known})" if known else ""))
            if not known:
                tally["correct"] = False
    if doc["leftovers"]:
        tally["correct"] = False
        tally["reasons"].add(f"wrappers left behind: {doc['leftovers']}")


def end_to_end(jobs, spec_path, seconds, deadline, expected, tally):
    setups = [_child("setup", spec_path, deadline) for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        doc = _child("pass", spec_path, deadline)
        _gate_pass(jobs, doc, expected, tally)
        passes.append(doc)
    return e2e_metrics(setups, passes, len(jobs), tally)


def _median_steps(docs):
    """Sum over the steps of each step's median over the docs, so that one
    slow moment moves one step of one set-up or pass only."""
    return sum(statistics.median(times)
               for times in zip(*(d["step_ref_seconds"] for d in docs)))


def _totals(docs):
    return (" ".join(f"{sum(d['step_ref_seconds']):.3f}" for d in docs) + "; wall "
            + " ".join(f"{d['seconds']:.3f}" for d in docs))


def e2e_metrics(setups, passes, njobs, tally):
    """name -> (value, unit), and name -> note, from the set-up and pass
    results of one run."""
    failed_frac = tally["failed"] / tally["attempted"]
    metrics = {
        "setup_s": (_median_steps(setups), "s"),
        "pass_s": (_median_steps(passes), "s"),
        "peak_rss_mb": (statistics.median(d["rss_mb"] for d in passes), "MB"),
        "ops_ok_frac": (1.0 - failed_frac, "frac"),
    }
    notes = {"setup_s": f"step medians over {len(setups)} set-ups; totals {_totals(setups)}",
             "pass_s": f"{njobs} job medians over {len(passes)} passes; totals {_totals(passes)}",
             "peak_rss_mb": f"median of {len(passes)} passes",
             "ops_ok_frac": f"ops_failed_frac {failed_frac:.6f} of "
                            f"ops_attempted {tally['attempted']}"}
    return metrics, notes


def per_layer(jobs, spec_path, deadline, expected, tally):
    plain = _child("pass", spec_path, deadline)
    traced = _child("trace", spec_path, deadline)
    counted = _child("count", spec_path, deadline)
    for doc in (plain, traced, counted):
        _gate_pass(jobs, doc, expected, tally)
    if not traced["self_time_ok"]:
        tally["correct"] = False
        tally["reasons"].add(f"layer self times miss the traced pass by "
                             f"{traced['self_time_gap']:.2%}")
    notes = {"trace.overhead_frac": f"reference seconds: traced pass "
                                    f"{traced['ref_seconds']:.3f}, untraced "
                                    f"{plain['ref_seconds']:.3f}"}
    return layer_metrics(plain, traced, counted), notes


def layer_metrics(plain, traced, counted):
    """name -> (value, unit) from one plain, one traced and one counted pass."""
    metrics = {}
    for name, value in traced["layers"].items():
        unit = "s" if name.endswith("_s") else "count" if name.endswith(
            ("_calls", ".calls", ".commands")) else "ratio"
        metrics[name] = (value, unit)
    metrics["core.scalar_calls"] = (counted["scalar_calls"], "count")
    codes = [r["rc"] for r in traced["jobs"] if not r["exc"]]
    for code in (0, 1, 2):
        metrics[f"cli.exit{code}"] = (codes.count(code), "count")
    metrics["cli.uncaught"] = (sum(1 for r in traced["jobs"] if r["exc"]), "count")
    metrics["trace.overhead_frac"] = (traced["ref_seconds"] / plain["ref_seconds"] - 1.0,
                                      "ratio")
    return metrics


def run_workload(workload, args, expected) -> int:
    """Run one workload and print its summary and JSON result."""
    deadline = time.monotonic() + DEADLINE_S
    files, jobs = workloads.make(workload, args.seed, ROOT / "algebras")
    work_root = ROOT / ".bench_work"
    work = work_root / f"{workload}-{args.seed}-{os.getpid()}"
    workloads.write_inputs(files, work)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({
        "dir": str(work), "files": sorted(files), "jobs": jobs,
        "spans": str(work_root / f"spans-{workload}-{args.seed}.json")}),
        encoding="utf-8")
    tally = {"attempted": 0, "failed": 0, "correct": True, "reasons": set()}
    try:
        if args.trace:
            metrics, notes = per_layer(jobs, spec_path, deadline, expected, tally)
        else:
            metrics, notes = end_to_end(jobs, spec_path, args.seconds, deadline,
                                        expected, tally)
    except StepFailed as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{workload} seed {args.seed}: {len(jobs)} jobs per pass")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6f} {unit}{note}")
    for reason in sorted(tally["reasons"]):
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": tally["correct"], "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvwrig" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mvwrig'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        if run_workload(workload, args, expected):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
