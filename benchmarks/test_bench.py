"""Tests of the benchmark itself: tracer, job lists and correctness gate.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json

import pytest

import child
import gate
import run
import tracer
import workloads

ALGEBRAS = run.ROOT / "algebras"
EXPECTED = json.loads((run.BENCH / "expected.json").read_text(encoding="utf-8"))


def _snapshot():
    """Every function-valued module attribute and every SUITES row."""
    funcs = {(name, attr): value
             for name, mod in tracer.package_modules().items()
             for attr, value in vars(mod).items() if inspect.isfunction(value)}
    suites = importlib.import_module("mvwrig.suites")
    rows = {suite: list(checks) for suite, checks in suites.SUITES.items()}
    rig = importlib.import_module("mvwrig.core").FiniteMvwRig
    accessors = {name: vars(rig)[name] for name in tracer.ACCESSORS}
    return funcs, rows, accessors


def _jobs(workload, tmp_path, monkeypatch, seed=0):
    files, jobs = workloads.make(workload, seed, ALGEBRAS)
    workloads.write_inputs(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    return {job["key"]: job for job in jobs}


def _run(job):
    return child.run_job(importlib.import_module("mvwrig.cli"), job)


def test_tracer_and_counter_leave_no_wrapper(tmp_path, monkeypatch):
    jobs = _jobs("verify-zoo", tmp_path, monkeypatch)
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert hasattr(importlib.import_module("mvwrig.ideals").enumerate_ideals,
                       "__bench_name__")
        assert _run(jobs["verify zoo_Z1.mvw --suite all"])["rc"] == 0
    finally:
        t.uninstall()
    counter = tracer.ScalarCounter()
    counter.install()
    try:
        assert _run(jobs["verify zoo_Z1.mvw --suite all"])["rc"] == 0
    finally:
        counter.uninstall()
    assert counter.count > 0
    assert tracer.leftover_wrappers() == []
    assert _snapshot() == before


def _leaves(value, depth=3):
    """``value`` itself, or the objects inside a dict, list or tuple."""
    if depth and isinstance(value, (dict, list, tuple)):
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _leaves(item, depth - 1)
    else:
        yield value


def test_every_alias_of_a_public_function_is_wrapped():
    originals = {id(fn) for fn in tracer.public_functions().values()}
    suites = importlib.import_module("mvwrig.suites")
    checks = {id(fn) for rows in suites.SUITES.values() for _n, _d, fn in rows}
    t = tracer.Tracer()
    t.install()
    try:
        # a check function is reached only through a table such as SUITES;
        # its own private module attribute is its definition, never called
        missed = [f"{modname}.{attr}"
                  for modname, mod in tracer.package_modules().items()
                  for attr, value in vars(mod).items()
                  if id(value) in originals or any(
                      id(obj) in originals | checks
                      for obj in _leaves(value) if obj is not value)]
        assert missed == []
        assert importlib.import_module("mvwrig.builders").derive.__bench_name__ == "core.derive"
        assert importlib.import_module("mvwrig").build_zn.__bench_name__ == "builders.build_zn"
    finally:
        t.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_always_gives_the_same_job_list(workload):
    first = workloads.make(workload, 11, ALGEBRAS)
    assert workloads.make(workload, 11, ALGEBRAS) == first
    keys = [job["key"] for job in first[1]]
    assert len(keys) == len(set(keys))
    others = [workloads.make(workload, seed, ALGEBRAS) for seed in range(5)]
    assert any(other != first for other in others)


def test_traced_self_times_add_up_to_the_pass(tmp_path, monkeypatch):
    jobs = _jobs("analyze-large", tmp_path, monkeypatch)
    t = tracer.Tracer()
    t.install()
    try:
        t.open_root()
        _run(jobs["ideals m2z1.mvw"])
        _run(jobs["spec z1p4.mvw"])
        _run({"argv": ["verify", "z1p4.mvw", "--suite", "core"], "env": {}})
        total = t.close_root()
    finally:
        t.uninstall()
    assert sum(t.layer_self.values()) == pytest.approx(total, rel=1e-9)
    checks = {s: [n for n, _d, _f in rows]
              for s, rows in importlib.import_module("mvwrig.suites").SUITES.items()}
    layers = t.metrics(checks)
    assert layers["cli.commands"] == 3
    assert layers["spectrum.spec_calls"] == 1
    assert layers["ideals.enumerate_calls"] >= 2
    assert 0 < layers["suites.check.mv-axioms_s"] < layers["suites.core_s"]
    assert layers["suites.ideals_s"] == 0


def test_benchmark_json_lists_every_end_to_end_metric():
    tally = {"attempted": 26, "failed": 4}
    setups = [{"seconds": t, "step_ref_seconds": [t / 2]} for t in (1.0, 0.8, 1.2)]
    passes = [{"seconds": 2.0, "step_ref_seconds": [0.5, 0.5], "rss_mb": 30.0},
              {"seconds": 3.0, "step_ref_seconds": [0.7, 0.1], "rss_mb": 30.0},
              {"seconds": 2.5, "step_ref_seconds": [0.6, 0.3], "rss_mb": 30.0}]
    metrics, notes = run.e2e_metrics(setups, passes, 13, tally)
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in listed["end_to_end"]} == \
        {name: unit for name, (_value, unit) in metrics.items()}
    assert metrics["setup_s"][0] == 0.5
    assert metrics["pass_s"][0] == pytest.approx(0.6 + 0.3)
    assert metrics["ops_ok_frac"][0] == pytest.approx(22 / 26)
    assert "ops_attempted 26" in notes["ops_ok_frac"]


def test_benchmark_json_lists_every_per_layer_metric():
    checks = {s: [n for n, _d, _f in rows]
              for s, rows in importlib.import_module("mvwrig.suites").SUITES.items()}
    traced = {"ref_seconds": 1.0, "jobs": [], "layers": tracer.Tracer().metrics(checks)}
    names = set(run.layer_metrics({"ref_seconds": 1.0}, traced, {"scalar_calls": 0}))
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in listed["per_layer"]} == names
    assert len(checks) == 4 and sum(len(c) for c in checks.values()) == 47


def _flags(job, result, expected):
    return gate.check(job, result, expected) is not None


def test_gate_flags_a_wrong_verify_row(tmp_path, monkeypatch):
    job = _jobs("verify-zoo", tmp_path, monkeypatch)["verify zoo_G1.mvw --suite all"]
    result = _run(job)
    assert not _flags(job, result, EXPECTED)
    wrong = copy.deepcopy(EXPECTED)
    wrong["verify"][job["key"]][5][2] = "FAIL"
    assert _flags(job, result, wrong)
    skipped = copy.deepcopy(EXPECTED)
    skipped["verify"][job["key"]][5][2] = "SKIPPED"
    assert not _flags(job, result, skipped)  # a lifted cap may turn SKIPPED into PASS
    missing = copy.deepcopy(EXPECTED)
    missing["verify"][job["key"]].append(["core", "new-law", "PASS"])
    assert _flags(job, result, missing)
    added = dict(result, out=result["out"] + "[core] new-law PASS\n")
    assert not _flags(job, added, EXPECTED)
    added_failing = dict(result, out=result["out"] + "[core] new-law FAIL  (x)\n")
    assert _flags(job, added_failing, EXPECTED)


def test_gate_flags_a_wrong_digest_or_count(tmp_path, monkeypatch):
    job = _jobs("analyze-large", tmp_path, monkeypatch)["spec z1p4.mvw"]
    result = _run(job)
    assert not _flags(job, result, EXPECTED)
    wrong = copy.deepcopy(EXPECTED)
    wrong["digest"][job["key"]] = gate.digest("something else")
    assert _flags(job, result, wrong)
    miscounted = dict(job, counts=[[workloads.POINTS, 5]])
    assert _flags(miscounted, result, EXPECTED)


def test_gate_flags_a_wrong_reject_expectation(tmp_path, monkeypatch):
    jobs = _jobs("reject-mix", tmp_path, monkeypatch)
    job = jobs["check syntax.mvw"]
    result = _run(job)
    assert not _flags(job, result, EXPECTED)
    assert _flags(dict(job, exit=1), result, EXPECTED)
    assert _flags(dict(job, where=r"^error: 4:1: "), result, EXPECTED)
    escaped = dict(result, exc="KeyError")
    assert gate.check(job, escaped, EXPECTED) == "KeyError escaped cli.main"


def test_reference_seconds_follow_the_calibration():
    ref = child.CAL_REF_S
    assert child.to_reference(2.0, ref, ref) == pytest.approx(2.0)
    assert child.to_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert child.to_reference(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert child.calibrate() > 0


def test_known_defects_are_jobs_of_reject_mix():
    _files, jobs = workloads.make("reject-mix", 0, ALGEBRAS)
    defects = {job["key"] for job in jobs if "known_defect" in job}
    assert defects == set(workloads.KNOWN_DEFECTS)


def test_run_refuses_a_checkout_without_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "reject-mix", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / ".bench_work").exists()
