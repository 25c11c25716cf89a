"""The benchmark's workloads: input files and job lists made from a seed.

Each workload is a list of jobs.  A job is one ``mvw`` command line, run
through ``mvwrig.cli.main`` on generated input files, with the outcome the
correctness gate expects.  The seed fixes the job order and draws one extra
structure per workload; the program only ever sees the generated files.

The ladder's largest carriers are scaled down from ROADMAP aim 1 (chain
0..400 to 0..200, Z255 to Z127, G3xG3 to G3xG2, Z1^4 verify to Z1^3) so
that one pass takes seconds, not a minute; see README.md.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("verify-zoo", "analyze-large", "reject-mix")

#: Shipped example files that load; luk3_realprod and luk4_realprod are
#: rejected by the closure check and appear in reject-mix instead.
SHIPPED = ("boolmat2", "gamma110", "luk3", "t3", "trivial", "z1", "z1xz1", "z3")

#: The test zoo (tests/conftest.py) as DSL builder expressions.
ZOO = {
    "Z1": "zn(1)", "Z2": "zn(2)", "Z3": "zn(3)", "Z4": "zn(4)", "Z5": "zn(5)",
    "Z6": "zn(6)",
    "L2": "luk(2)", "L3": "luk(3)", "L4": "luk(4)", "L5": "luk(5)",
    "T2": "trivial(luk(2))", "T3": "trivial(luk(3))", "T4": "trivial(luk(4))",
    "T5": "trivial(luk(5))",
    "G1": "gamma(1, [1])", "G2": "gamma(2, [1, 1])", "G3": "gamma(3, [1, 1, 1])",
    "G110": "gamma(3, [1, 1, 0])", "Z1xZ1": "product(zn(1), zn(1))",
    "M2Z1": "matrix(zn(1), 2)",
    "Z15": "zn(15)", "Z1p3": "product(zn(1), zn(1), zn(1))",
}

TRIVIAL = """algebra Trivial {
  elements: [o]
  zero: o
  neg: [o]
  add: [[o]]
  mul: [[o]]
}
"""

#: Seeded structures are drawn from narrow ranges whose costs differ by a
#: few percent of a pass; a wider draw (products of up to 16 elements cost
#: 0.1 s to 10 s each) would make the seed-to-seed spread of pass_s exceed
#: its bound.  The verify-zoo draw is one 6-element product in either
#: order: Z3xZ1 (8 elements) costs 0.4 s more, 7% of a pass.
SEEDED_PRODUCTS = ((1, 2), (2, 1))
LARGE_CHAIN = 200
SEEDED_CHAIN = (110, 120)      # analyze-large: ideals --json on 0..m
BAD_CHAIN = 160
SEEDED_BAD_CHAIN = (150, 158)  # reject-mix: check on a bad-product 0..m

#: Inputs that make the program fail at the seed commit.  They stay in the
#: job list and count as failed ops until ROADMAP item 5 fixes them.
KNOWN_DEFECTS = {
    "check unbound.mvw": "an unbound formula variable lets a KeyError escape cli.main",
    "verify shipped_z1.mvw --suite all [MVW_SIZE_BOUND=abc]":
        "a non-integer MVW_SIZE_BOUND lets a ValueError escape cli.main",
}


def builder_file(name: str, expr: str) -> str:
    return f"algebra {name} {{\n  builder: {expr}\n}}\n"


def chain_file(name: str, n: int, mul: str) -> str:
    return (f"algebra {name} {{\n  elements: 0..{n}\n  zero: 0\n"
            f"  neg(x) = {n} - x\n  add(x, y) = min({n}, x + y)\n"
            f"  mul(x, y) = {mul}\n}}\n")


def _job(argv, gate, exit_code=0, env=None, **extra):
    key = " ".join(argv)
    if env:
        key += " [" + " ".join(f"{k}={v}" for k, v in sorted(env.items())) + "]"
    job = {"key": key, "argv": list(argv), "env": dict(env or {}),
           "exit": exit_code, "gate": gate}
    job.update(extra)
    if key in KNOWN_DEFECTS:
        job["known_defect"] = KNOWN_DEFECTS[key]
    return job


def _shipped(algebras: Path, name: str) -> tuple[str, str]:
    return f"shipped_{name}.mvw", (algebras / f"{name}.mvw").read_text(encoding="utf-8")


def _verify_zoo(rng, algebras):
    files = dict(_shipped(algebras, n) for n in SHIPPED)
    files["zoo_Trivial.mvw"] = TRIVIAL
    for name, expr in ZOO.items():
        files[f"zoo_{name}.mvw"] = builder_file(name, expr)
    a, b = rng.choice(SEEDED_PRODUCTS)
    files[f"seed_product_{a}_{b}.mvw"] = builder_file(
        f"Z{a}xZ{b}", f"product(zn({a}), zn({b}))")
    jobs = [_job(["verify", f, "--suite", "all"], "verify") for f in sorted(files)]
    return files, jobs


IDEALS = r"^(\d+) ideals$"
POINTS = r"^  (\d+) prime ideal point\(s\)$"
OPENS = r"^  (\d+) open set\(s\)$"
PFILTERS = r"^  (\d+) P-filter\(s\)$"
PRINCIPALS = r"^  F_\S+ = "
VERDICT = r"^result: (PASS)$"


def _analyze_large(rng):
    n = LARGE_CHAIN
    m = rng.randint(*SEEDED_CHAIN)
    files = {
        f"chain{n}.mvw": chain_file(f"Chain{n}", n, f"min({n}, x * y)"),
        "z127.mvw": builder_file("Z127", "zn(127)"),
        "g3xg2.mvw": builder_file("G3xG2", "product(gamma(3, [1, 1, 1]), gamma(2, [1, 1]))"),
        "z63.mvw": builder_file("Z63", "zn(63)"),
        "z1p4.mvw": builder_file("Z1p4", "product(zn(1), zn(1), zn(1), zn(1))"),
        "m2z1.mvw": builder_file("M2Z1", "matrix(zn(1), 2)"),
        f"seed_chain{m}.mvw": chain_file(f"Chain{m}", m, f"min({m}, x * y)"),
    }
    # A chain with truncated sum and product is Z_m: its ideals are {0} and
    # the whole carrier, so the expected --json text follows from m alone.
    seeded_text = json.dumps({"ideals": [[0], list(range(m + 1))]}, indent=2) + "\n"
    jobs = [
        _job(["ideals", f"chain{n}.mvw"], "digest", counts=[[IDEALS, 2]]),
        _job(["check", "z127.mvw"], "digest", counts=[[VERDICT, "PASS"]]),
        _job(["ideals", "g3xg2.mvw"], "digest", counts=[[IDEALS, 32]]),
        _job(["spec", "g3xg2.mvw"], "digest",
             counts=[[POINTS, 5], [OPENS, 32]]),
        _job(["ideals", "--prime", "z63.mvw"], "digest", counts=[[IDEALS, 1]]),
        _job(["spec", "z63.mvw"], "digest", counts=[[POINTS, 1], [OPENS, 2]]),
        _job(["filters", "z63.mvw"], "digest", lines=[PRINCIPALS, 64]),
        _job(["spec", "z1p4.mvw"], "digest", counts=[[POINTS, 4], [OPENS, 16]]),
        _job(["filters", "--frame", "z1p4.mvw"], "digest", counts=[[PFILTERS, 16]]),
        _job(["ideals", "m2z1.mvw"], "digest", counts=[[IDEALS, 2]]),
        _job(["ideals", "--json", f"seed_chain{m}.mvw"], "text", text=seeded_text),
    ]
    return files, jobs


def _witnesses(axiom, count):
    return rf"^  {axiom} FAIL  \[{count} counterexamples: \(\d+, \d+\)"


def _reject_mix(rng, algebras):
    n = BAD_CHAIN
    m = rng.randint(*SEEDED_BAD_CHAIN)
    variant, mul = rng.choice((("sum", f"min({m}, x + y)"), ("max", "max(x, y)")))
    files = dict(_shipped(algebras, name) for name in ("luk3", "luk4_realprod", "z1", "z3"))
    files.update({
        f"bad_sum{n}.mvw": chain_file("BadSum", n, f"min({n}, x + y)"),
        f"bad_max{n}.mvw": chain_file("BadMax", n, "max(x, y)"),
        f"seed_bad_{variant}{m}.mvw": chain_file("SeedBad", m, mul),
        "real_product.mvw": chain_file("RealProduct", 100, "x * y"),
        "add_max.mvw": ("algebra AddMax {\n  elements: 0..5\n  zero: 0\n"
                        "  neg(x) = 5 - x\n  add(x, y) = max(x, y)\n"
                        "  mul(x, y) = min(x, y)\n}\n"),
        "syntax.mvw": "algebra Syntax {\n  elements: 0..3\n  zero 0\n  neg(x) = 3 - x\n}\n",
        "oversize.mvw": builder_file("Oversize", "product(zn(64), zn(64))"),
        "m2z1.mvw": builder_file("M2Z1", "matrix(zn(1), 2)"),
        "unbound.mvw": ("algebra Unbound {\n  elements: 0..3\n  zero: 0\n"
                        "  neg(x) = 3 - y\n  add(x, y) = min(3, x + y)\n}\n"),
    })
    # ``where`` is the located part of the message: a line:column, a witness
    # tuple, an offending value, or the structure and property at fault.
    # The zero law x*0 = 0 = 0*x fails for every x != 0 in a bad chain: 2n.
    jobs = [
        _job(["check", f"bad_sum{n}.mvw"], "reject", 1, where=_witnesses("MVW-iii", 2 * n)),
        _job(["check", f"bad_max{n}.mvw"], "reject", 1, where=_witnesses("MVW-iii", 2 * n)),
        _job(["check", f"seed_bad_{variant}{m}.mvw"], "reject", 1,
             where=_witnesses("MVW-iii", 2 * m)),
        _job(["check", "real_product.mvw"], "reject", 2,
             where=r"^error: mul\(2, 51\) = 102 is not in the carrier$"),
        _job(["check", "add_max.mvw"], "reject", 1,
             where=r"^  MV\d FAIL  \[\d+ counterexamples: \(\d+, \d+"),
        _job(["check", "syntax.mvw"], "reject", 2, where=r"^error: 3:8: .*expected ':'"),
        _job(["check", "oversize.mvw"], "reject", 2,
             where=r"^error: .*4225 elements \(bound 4096\)"),
        _job(["spec", "m2z1.mvw"], "reject", 2, where=r"^error: M2Z1 is not commutative$"),
        _job(["spec", "shipped_luk3.mvw"], "reject", 2,
             where=r"^error: spectrum needs a product$"),
        _job(["quotient", "shipped_z3.mvw", "--ideal", "0,2"], "reject", 2,
             where=r"\{0, 2\} is not an ideal \(downward fails at \(1, 2\)\)"),
        _job(["verify", "shipped_luk4_realprod.mvw"], "reject", 2,
             where=r"^error: mul\(1/3, 1/3\) = 1/9 is not in the carrier$"),
        _job(["check", "unbound.mvw"], "reject", 2, where=r"^error: \d+:\d+: .*\by\b"),
        _job(["verify", "shipped_z1.mvw", "--suite", "all"], "reject", 2,
             env={"MVW_SIZE_BOUND": "abc"}, where=r"^error: .*MVW_SIZE_BOUND"),
    ]
    return files, jobs


def make(workload: str, seed: int, algebras: Path):
    """(files, jobs) for one workload: file name -> text, and the job list in
    the order the seed fixes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-zoo":
        files, jobs = _verify_zoo(rng, algebras)
    elif workload == "analyze-large":
        files, jobs = _analyze_large(rng)
    elif workload == "reject-mix":
        files, jobs = _reject_mix(rng, algebras)
    else:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    rng.shuffle(jobs)
    return files, jobs


def write_inputs(files: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
