"""Rewrite expected.json from the program as it is now.

    python3 benchmarks/record_expected.py

Records the ``(suite, check, status)`` rows of every verify-zoo job (every
seeded product included) and the stdout digest of every analyze-large job
the gate compares by digest.  The committed file was recorded at the seed
commit; re-record only in a change that alters the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
import run
import workloads


def _results(workload, seeds):
    """(job, result) for every distinct job the seeds produce."""
    files, jobs = {}, {}
    for seed in seeds:
        f, js = workloads.make(workload, seed, run.ROOT / "algebras")
        files.update(f)
        jobs.update((j["key"], j) for j in js)
    work = run.ROOT / ".bench_work" / f"record-{workload}"
    workloads.write_inputs(files, work)
    spec = work / "spec.json"
    spec.write_text(json.dumps({"dir": str(work), "files": sorted(files),
                                "jobs": list(jobs.values()), "spans": ""}),
                    encoding="utf-8")
    try:
        doc = run._child("pass", spec, time.monotonic() + 600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return zip(jobs.values(), doc["jobs"])


def main() -> int:
    seeds = range(64)  # enough seeds to draw every seeded product
    expected = {"verify": {}, "digest": {}}
    for job, result in _results("verify-zoo", seeds):
        expected["verify"][job["key"]] = gate.verify_rows(result["out"])
    for job, result in _results("analyze-large", [0]):
        if job["gate"] == "digest":
            expected["digest"][job["key"]] = gate.digest(result["out"])
    drawn = {k for k in expected["verify"] if k.startswith("verify seed_product_")}
    if len(drawn) != len(workloads.SEEDED_PRODUCTS):
        print(f"error: seeds drew only {sorted(drawn)}", file=sys.stderr)
        return 1
    (run.BENCH / "expected.json").write_text(_dump(expected), encoding="utf-8")
    return 0


def _dump(expected):
    """Canonical JSON with one line per job."""
    sections = []
    for section, jobs in sorted(expected.items()):
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                          for key, value in sorted(jobs.items()))
        sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
