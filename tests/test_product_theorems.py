"""The two structure theorems that prove a product without scanning it.

A product equal to the meet or the join (``core`` docstring, paragraph
(4)) gets the report of ``core.scan_mvw``, counts and witnesses alike, and
so does every structure one cell away from one, whether the cell breaks
the identity row that ``check_mvw`` tests before it compares the whole
table (row u for the meet, row 0 for the join) or lies elsewhere.  A direct product is
proved by its checked factors (``builders`` docstring): it passes when
they do, and a failing factor fails with the same text as a check of the
whole product."""

import contextlib
import copy
import io
import random

import numpy as np
import pytest

from mvwrig import builders, cli, core, dsl
from mvwrig.errors import AxiomViolation

from conftest import LADDER, ZOO
from test_core import _mvw_reports


def _chain(m, op):
    """The Łukasiewicz chain 0..m with ``min`` or ``max`` as its product."""
    x = np.arange(m + 1)
    add = np.minimum(m, np.add.outer(x, x))
    return core.derive(m - x, add, getattr(np, op + "imum").outer(x, x), name=f"{op}{m}")


def _with_product(rig, mul, name):
    return core.derive(rig.neg_table, rig.add_table, mul, names=rig.carrier.names, name=name)


def _matches_the_scan(rig):
    report = core.check_mvw(rig)
    assert report.failures == core.scan_mvw(rig).failures, rig.name
    return report


#: every zoo and ladder MV reduct with a chain decomposition
REDUCTS = {**{name: lambda rig=rig: rig for name, rig in ZOO.items()}, **LADDER}


@pytest.mark.parametrize("name", sorted(REDUCTS))
@pytest.mark.parametrize("table", ["meet_table", "join_table"])
def test_a_lattice_product_is_proved_without_a_scan(name, table, monkeypatch):
    base = REDUCTS[name]()
    assert core.chain_decomposition(base) is not None
    rig = _with_product(base, getattr(base, table), f"{name}/{table}")
    calls = _mvw_reports(monkeypatch)
    report = core.check_mvw(rig)
    assert calls == [([], [])]
    assert report.failures == core.scan_mvw(rig).failures
    # the zero law holds for the meet and fails at (a, 0) and (0, a) for the join
    zero_law = 0 if table == "meet_table" else 2 * (rig.size - 1)
    assert report.failures["MVW-iii"][0] == zero_law
    assert report.failed_axioms() == (["MVW-iii"] if zero_law else [])


@pytest.mark.parametrize("op", ["min", "max"])
def test_min_and_max_chains_match_the_scan(op, monkeypatch):
    calls = _mvw_reports(monkeypatch)
    for m in range(41):
        report = _matches_the_scan(_chain(m, op))
        assert report.failures["MVW-iii"][0] == (2 * m if op == "max" else 0)
    # one report a chain from the theorem, one from the scan
    assert calls[::2] == [([], [])] * 41


def _corruptions(op, m):
    """Every structure one product cell away from the chain, with the row
    of its cell."""
    base = _chain(m, op)
    n = base.size
    for x in range(n):
        for y in range(n):
            for v in range(n):
                if v != base.mul_table[x, y]:
                    mul = base.mul_table.copy()
                    mul[x, y] = v
                    yield x, _with_product(base, mul, f"{op}{m}[{x},{y}]={v}")


def _lattice_compares(rig, table_builds):
    """The report of ``check_mvw``, checked against the scan, and the
    lattice tables it compared the product with: the row pre-test lets
    through the meet when row u is the identity and the join when row 0 is,
    and only those compares build the tables."""
    table_builds.clear()
    report = core.check_mvw(rig)
    compared = {"join_table", "meet_table"} & set(table_builds)
    assert report.failures == core.scan_mvw(rig).failures, rig.name
    return report, compared


@pytest.mark.parametrize("op, m", [("min", 4), ("max", 4), ("min", 7), ("max", 7)])
def test_every_one_cell_corruption_of_a_chain_matches_the_scan(op, m, table_builds):
    # row u of min and row 0 of max are the identity, and no other row is:
    # a cell off that row keeps the pre-test passing, and the full compare
    # must refuse the product
    identity_row = m if op == "min" else 0
    compared_tables = {"join_table", "meet_table"} if op == "min" else {"join_table"}
    failing = compared = total = 0
    for x, rig in _corruptions(op, m):
        report, tables = _lattice_compares(rig, table_builds)
        assert tables == (compared_tables if x != identity_row else set()), rig.name
        failing += not report.passed
        compared += bool(tables)
        total += 1
    assert total == (m + 1) ** 2 * m
    assert compared == m * (m + 1) * m
    # a corruption still passes only where it keeps the product an MVW-rig
    assert failing > total // 2


@pytest.mark.parametrize("name", sorted(REDUCTS))
@pytest.mark.parametrize("table", ["meet_table", "join_table"])
def test_a_lattice_product_changed_off_its_identity_row_is_refused(name, table, table_builds):
    # the pre-test passes, since row u of the meet and row 0 of the join
    # are the identity and stay so, and the full compare must refuse
    base = REDUCTS[name]()
    n = base.size
    lattice = getattr(base, table)
    identity_row = base.u if table == "meet_table" else 0
    rows = [x for x in range(n) if x != identity_row]
    rng = random.Random(f"{name}/{table}")
    for _ in range(8 if rows else 0):
        x, y = rng.choice(rows), rng.randrange(n)
        mul = lattice.copy()
        mul[x, y] = rng.choice([v for v in range(n) if v != lattice[x, y]])
        rig = _with_product(base, mul, f"{name}/{table}[{x},{y}]={mul[x, y]}")
        assert (mul[identity_row] == np.arange(n)).all()
        _report, tables = _lattice_compares(rig, table_builds)
        assert table in tables, rig.name


@pytest.mark.parametrize("table", ["meet_table", "join_table"])
def test_a_lattice_product_without_a_chain_decomposition_is_scanned(table):
    # add = max is no MV sum: MV6 fails, so the lattice identities need not
    # hold for its derived meet and join, and they do not
    x = np.arange(6)
    base = core.derive(5 - x, np.maximum.outer(x, x), name="AddMax")
    assert core.chain_decomposition(base) is None
    rig = _with_product(base, getattr(base, table), f"AddMax/{table}")
    report = _matches_the_scan(rig)
    assert report.failures["MVW-iv"][0] == (192 if table == "meet_table" else 184)


# -- direct products -------------------------------------------------------------

def _scans_pass(rig):
    """Whether the exhaustive scans pass ``rig``'s own tables; unlike the
    checks, they read no report the structure keeps or inherited."""
    return core.scan_mv(rig).passed and (rig.mul_table is None or core.scan_mvw(rig).passed)


@pytest.mark.parametrize("left", sorted(ZOO))
def test_every_product_of_two_zoo_factors_passes(left):
    for right in sorted(ZOO):
        product = builders.direct_product([ZOO[left], ZOO[right]])
        assert core.check_all(product).passed and _scans_pass(product), product.name


@pytest.mark.parametrize("k", range(1, 6))
def test_every_power_of_z1_passes(k):
    product = builders.direct_product([builders.build_zn(1)] * k)
    assert product.size == 2 ** k
    assert core.check_all(product).passed and _scans_pass(product)


def _logged(report_log):
    """The report log by structure name, and cleared."""
    entries = [(rig.name, report, how) for rig, report, how in report_log]
    report_log.clear()
    return entries


def test_a_product_checks_each_distinct_factor_once(report_log):
    # each distinct factor builds its reports once; the product builds none
    z1, z2 = builders.build_zn(1, check=False), builders.build_zn(2, check=False)
    product = builders.direct_product([z1, z2, z1, z1])
    assert _logged(report_log) == [
        ("Z1", "check_mv", "built"), ("Z2", "check_mv", "built"),
        ("Z1xZ2xZ1xZ1", "check_mv", "inherited"),
        ("Z1", "check_mvw", "built"), ("Z2", "check_mvw", "built"),
        ("Z1xZ2xZ1xZ1", "check_mvw", "inherited")]
    assert builders.direct_product([z1, z2], check=False).same_tables(
        builders.direct_product([z1, z2]))
    assert _logged(report_log) == [("Z1xZ2", "check_mv", "inherited"),
                                   ("Z1xZ2", "check_mvw", "inherited")] * 2
    assert product.size == 24


def _corrupt(n, table, x, y, v):
    """Zn with one cell of its sum or its product changed, unchecked."""
    rig = builders.build_zn(n)
    tables = {"add": rig.add_table.copy(), "mul": rig.mul_table.copy()}
    tables[table][x, y] = v
    return core.derive(rig.neg_table, tables["add"], tables["mul"],
                       names=rig.carrier.names, name=rig.name)


#: one corrupted cell of a factor, and the text of the whole product's check
LIBRARY_FAILURES = [
    (("mul", 2, 2, 1, 0), "Z2xZ1: axioms failed: MVW-ii, MVW-iv, MVW-v", False),
    (("mul", 2, 2, 1, 0), "Z1xZ2: axioms failed: MVW-ii, MVW-iv, MVW-v", True),
    (("mul", 3, 2, 2, 1), "Z1xZ3: axioms failed: MVW-iv, MVW-v", True),
    (("add", 3, 0, 0, 1), "Z1xZ3: axioms failed: MV1, MV3, MV6", True),
]


@pytest.mark.parametrize("cell, message, bad_last", LIBRARY_FAILURES)
def test_a_failing_factor_fails_the_product_with_its_own_report(cell, message, bad_last):
    table, n, x, y, v = cell
    factors = [_corrupt(n, table, x, y, v), builders.build_zn(1)]
    if bad_last:
        factors.reverse()
    with pytest.raises(AxiomViolation) as failure:
        builders.direct_product(factors)
    assert str(failure.value) == message
    unchecked = builders.direct_product(factors, check=False)
    expected = core.check_mv(unchecked)
    if expected.passed:
        expected = core.check_mvw(unchecked)
    assert failure.value.report.failures == expected.failures


def test_a_product_free_factor_drops_a_failing_product():
    # the product of the factors has no product table, so nothing fails
    factors = [_corrupt(2, "mul", 2, 1, 0), builders.build_luk_mv(2)]
    product = builders.direct_product(factors)
    assert product.mul_table is None and core.check_mv(product).passed


#: the output of a load whose nested factor zn(n) has one corrupted cell
MVW_FAILURES = {
    ("mul", 2, 2, 1, 0): ("FAIL: Z2: axioms failed: MVW-ii, MVW-iv, MVW-v\n"
                          "  MVW-ii witnesses: (2, 1, 2)\n"
                          "  MVW-iv witnesses: (2, 1, 1)\n"
                          "  MVW-v witnesses: (1, 1, 2), (2, 2, 1)\n"),
    ("add", 3, 0, 0, 1): ("FAIL: Z3: axioms failed: MV1, MV3, MV6\n"
                          "  MV1 witnesses: (0, 0, 1), (0, 0, 2), (1, 0, 0), (2, 0, 0)\n"
                          "  MV3 witnesses: (0,)\n"
                          "  MV6 witnesses: (0, 3), (3, 0)\n"),
}


@pytest.mark.parametrize("cell", sorted(MVW_FAILURES))
@pytest.mark.parametrize("expr", ["product(zn(1), zn({n}))", "product(zn({n}), zn(1), zn({n}))",
                                  "product(product(zn(1), zn({n})), zn(1))"])
def test_mvw_names_the_failing_factor(cell, expr, monkeypatch, tmp_path):
    table, n, x, y, v = cell
    bad = _corrupt(n, table, x, y, v)
    build_zn = builders.build_zn
    monkeypatch.setattr(builders, "build_zn",
                        lambda m, check=True: bad if m == n else build_zn(m, check=check))
    path = tmp_path / "p.mvw"
    path.write_text(f"algebra P {{\n  builder: {expr.format(n=n)}\n}}\n", encoding="utf-8")
    for command in ("check", "verify", "ideals"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path)])
        assert (code, out.getvalue(), err.getvalue()) == (1, MVW_FAILURES[cell], "")


def _recording(monkeypatch, module, name):
    """Wrap ``module.<name>``; returns the positional arguments of each call."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or original(*a, **k))
    return calls


def test_equal_nested_calls_are_built_and_checked_once(monkeypatch, report_log):
    built = _recording(monkeypatch, builders, "build_zn")
    [rig] = dsl.elaborate_file("algebra P { builder: product(zn(1), zn(1), zn(1), zn(1)) }")
    assert rig.size == 16 and core.check_all(rig).passed
    assert [a[0] for a in built] == [1]
    assert _logged(report_log) == [("Z1", "check_mv", "built"), ("P", "check_mv", "inherited"),
                                   ("Z1", "check_mvw", "built"), ("P", "check_mvw", "inherited")]
    built.clear()
    # the inner product inherits its factors' reports, and builds none
    [rig] = dsl.elaborate_file(
        "algebra Q { builder: product(product(zn(1), zn(2)), zn(2), product(zn(1), zn(2))) }")
    assert rig.size == 108 and core.check_all(rig).passed
    assert [a[0] for a in built] == [1, 2]
    assert _logged(report_log) == [
        ("Z1", "check_mv", "built"), ("Z2", "check_mv", "built"),
        ("Z1xZ2", "check_mv", "inherited"),
        ("Z1", "check_mvw", "built"), ("Z2", "check_mvw", "built"),
        ("Z1xZ2", "check_mvw", "inherited"),
        ("Q", "check_mv", "inherited"), ("Q", "check_mvw", "inherited")]


def _check_output(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("expr, source", [("sub(zn(63), [1])", "Z63"),
                                          ("product(zn(1), zn(1), zn(1))", "Z1")])
def test_mvw_check_builds_each_report_once(expr, source, monkeypatch, report_log, tmp_path):
    # the nested zn(n) builds its two reports once, and the whole-carrier
    # sub or the product inherits both: nothing scans or certifies it
    path = tmp_path / "p.mvw"
    path.write_text(f"algebra P {{ builder: {expr} }}\n", encoding="utf-8")
    mvw_reports = _recording(monkeypatch, core, "_mvw_report")
    scans = [_recording(monkeypatch, core, name) for name in ("scan_mv", "scan_mvw")]
    code, out, err = _check_output(path)
    assert (code, err) == (0, "") and out.endswith("result: PASS\n")
    assert sorted((rig.name, report, how) for rig, report, how in report_log) == [
        ("P", "check_mv", "inherited"), ("P", "check_mvw", "inherited"),
        (source, "check_mv", "built"), (source, "check_mvw", "built")]
    [result] = {rig for rig, _, how in report_log if how == "inherited"}
    assert [a[0].name for a in mvw_reports] == [source] and scans == [[], []]
    assert not [key for key in result._memo if key[0] is core.chain_decomposition.__wrapped__]
    # the same text as a check of a copy, which keeps no report
    elaborate_file = dsl.elaborate_file
    monkeypatch.setattr(dsl, "elaborate_file", lambda text, check=True: [
        copy.copy(rig) for rig in elaborate_file(text, check=check)])
    assert _check_output(path) == (code, out, err)
    # the second load built its own source, and the copy its own report
    assert [a[0].name for a in mvw_reports] == [source, source, "P"]


#: ``mvw check`` loads unchecked, so a named factor T that fails the axioms
#: is not proved, and a nested call built on it is checked in full
UNCHECKED_NAMED_FACTOR = {
    "product(product(T, zn(1)), zn(1))": (
        "FAIL: TxZ1: axioms failed: MVW-ii, MVW-v\n"
        "  MVW-ii witnesses: (4, 4, 6), (4, 4, 7), (4, 5, 6), (4, 5, 7), (4, 6, 6)\n"
        "  MVW-v witnesses: (6, 2, 6), (6, 2, 7), (6, 3, 6), (6, 3, 7), (6, 4, 6)\n"),
    "product(sub(T, [1]), zn(1))": (
        "FAIL: T|sub: axioms failed: MVW-ii, MVW-v\n"
        "  MVW-ii witnesses: (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2)\n"
        "  MVW-v witnesses: (3, 1, 3), (3, 2, 3)\n"),
    "product(zn(1), product(zn(1), T))": (
        "FAIL: Z1xT: axioms failed: MVW-ii, MVW-v\n"
        "  MVW-ii witnesses: (2, 2, 3), (2, 2, 7), (2, 3, 3), (2, 3, 7), (2, 6, 3)\n"
        "  MVW-v witnesses: (3, 1, 3), (3, 1, 7), (3, 2, 3), (3, 2, 7), (3, 5, 3)\n"),
}


@pytest.mark.parametrize("expr", sorted(UNCHECKED_NAMED_FACTOR))
def test_a_nested_call_on_an_unchecked_name_is_checked(expr, tmp_path):
    path = tmp_path / "p.mvw"
    path.write_text("algebra T { elements: 0..3 zero: 0 neg: [3, 2, 1, 0] "
                    "add(x,y) = min(3, x + y) "
                    "mul: [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 2]] }\n"
                    f"algebra P {{ builder: {expr} }}\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (1, UNCHECKED_NAMED_FACTOR[expr], "")
