"""The derived tables of a structure are built on first read
(``core.FiniteMvwRig``): a command builds only the tables it reads, each
at most once, every table built so is read-only, and a shallow copy shares
the tables built before it and builds the rest from its own tables."""

import contextlib
import copy
import io

import numpy as np
import pytest

from mvwrig import cli, core

from conftest import LADDER, LAZY, ZOO


def _chain(m, mul):
    return (f"algebra C {{\n  elements: 0..{m}\n  zero: 0\n  neg(x) = {m} - x\n"
            f"  add(x, y) = min({m}, x + y)\n  mul(x, y) = {mul}\n}}\n")


def _check(tmp_path, text):
    path = tmp_path / "a.mvw"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", str(path)])
    return code, out.getvalue()


#: a one-structure file, the exit code of ``mvw check`` and the lattice
#: tables it builds: ``check_mvw`` compares the product with ``meet_table``
#: only when row u is the identity, and with ``join_table`` only when row 0
#: is, and ``meet_table`` is read off ``join_table``; no check builds
#: ``times_table``, since the row certificate reads b (.) c = 0 as b <= neg c
CHECKS = {
    "Z63": ("algebra Z63 { builder: zn(63) }", 0, set()),
    "Z127": ("algebra Z127 { builder: zn(127) }", 0, set()),
    "chain": (_chain(100, "min(100, x * y)"), 0, set()),
    "min": (_chain(60, "min(x, y)"), 0, {"join_table", "meet_table"}),
    "max": (_chain(60, "max(x, y)"), 1, {"join_table"}),
    "sum": (_chain(60, "min(60, x + y)"), 1, {"join_table"}),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_builds_only_the_tables_it_reads(name, tmp_path, table_builds):
    text, code, lattice = CHECKS[name]
    assert _check(tmp_path, text)[0] == code
    assert len(table_builds) == len(set(table_builds))
    assert {"join_table", "meet_table"} & set(table_builds) == lattice
    assert not {"times_table", "unit", "product_below_meet"} & set(table_builds)


@pytest.mark.parametrize("name", sorted(ZOO) + sorted(LADDER))
def test_every_lazily_built_table_is_read_only(name, table_builds):
    base = ZOO[name] if name in ZOO else LADDER[name]()
    expected = {attr: getattr(base, attr) for attr in LAZY}
    table_builds.clear()
    rig = core.derive(base.neg_table, base.add_table, base.mul_table, name=name)
    assert table_builds == []
    for table in ("times_table", "join_table", "meet_table"):
        value = getattr(rig, table)
        assert value.flags.writeable is False, table
        with pytest.raises(ValueError):
            value[0, 0] = 0
        np.testing.assert_array_equal(value, expected[table])
    for flag in ("commutative", "unit", "product_below_meet"):
        assert getattr(rig, flag) == expected[flag], flag
    assert sorted(table_builds) == sorted(LAZY)
    # a second read is the kept value
    assert rig.join_table is rig.join_table and len(table_builds) == len(LAZY)


def test_a_copy_shares_the_tables_built_before_it(table_builds):
    base = ZOO["Z3"]
    rig = core.derive(base.neg_table, base.add_table, base.mul_table, name="Z3")
    join = rig.join_table
    twin = copy.copy(rig)
    assert twin.join_table is join and table_builds == ["join_table"]
    # the rest is built from the copy's own tables: a swapped product is no
    # longer commutative, and a swapped sum gives another strong product
    mul, add = rig.mul_table.copy(), rig.add_table.copy()
    mul[1, 2] = 0
    add[1, 1] = 1
    twin.mul_table, twin.add_table = mul, add
    assert twin.commutative is False and rig.commutative is True
    assert not np.array_equal(twin.times_table, rig.times_table)
    # both read the shared join, and each keeps its own meet
    assert twin.meet_table is not rig.meet_table
    np.testing.assert_array_equal(twin.meet_table, rig.meet_table)
    assert sorted(table_builds) == sorted(["join_table"] + ["commutative", "times_table",
                                                            "meet_table"] * 2)
