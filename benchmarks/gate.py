"""The correctness gate: does one job's result match what it must produce?

``check(job, result, expected)`` returns None for a correct result and a
one-line reason otherwise.  Every job must exit with its expected code,
with no exception escaping ``cli.main`` and no traceback in its output.
On top of that:

- ``verify``: the ``(suite, check, status)`` rows equal the ones recorded
  at the seed commit (``expected.json``); the detail text is not compared.
  A check recorded as SKIPPED may now PASS, because lifting a size cap is
  not an error; any other change of status is.  A check added since the
  seed must PASS or be SKIPPED.
- ``digest``: stdout hashes to the digest recorded at the seed commit, and
  the invariant counts in the job hold.
- ``text``: stdout equals the text the job carries (seeded jobs, whose
  expected output follows from the seed).
- ``reject``: the message (stdout and stderr) matches the job's ``where``
  pattern, which names the location of the fault.
"""

from __future__ import annotations

import hashlib
import re

ROW = re.compile(r"^\[(\w+)\] (\S+) ([A-Z]+)\b", re.M)


def verify_rows(stdout: str):
    return [list(m) for m in ROW.findall(stdout)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows_match(want, got):
    got = {(suite, name): status for suite, name, status in got}
    for suite, name, status in want:
        now = got.pop((suite, name), None)
        if now != status and not (status == "SKIPPED" and now == "PASS"):
            return False
    return all(status in ("PASS", "SKIPPED") for status in got.values())


def check(job, result, expected):
    key = job["key"]
    if result["exc"]:
        return f"{result['exc']} escaped cli.main"
    text = result["out"] + result["err"]
    if "Traceback (most recent call last)" in text:
        return "traceback in output"
    if result["rc"] != job["exit"]:
        return f"exit {result['rc']}, expected {job['exit']}"
    gate = job["gate"]
    if gate == "verify":
        if not _rows_match(expected["verify"][key], verify_rows(result["out"])):
            return "verify rows differ from the seed"
    elif gate == "digest":
        if digest(result["out"]) != expected["digest"][key]:
            return "stdout digest differs from the seed"
        for pattern, value in job.get("counts", []):
            found = re.search(pattern, result["out"], re.M)
            if not found or found.group(1) != str(value):
                return f"count {pattern!r} is {found and found.group(1)}, expected {value}"
        if "lines" in job:
            pattern, value = job["lines"]
            found = len(re.findall(pattern, result["out"], re.M))
            if found != value:
                return f"{found} lines match {pattern!r}, expected {value}"
    elif gate == "text":
        if result["out"] != job["text"]:
            return "stdout differs from the expected text"
    elif gate == "reject":
        if not re.search(job["where"], text, re.M):
            return f"message does not match {job['where']!r}"
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return None
