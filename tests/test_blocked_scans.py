"""The blocked law kernels of ``core`` and ``suites`` against the earlier
per-element scans and checks in ``scalar_oracles``: the same counts, first
witnesses and FAIL details, whatever the block size."""

import itertools

import numpy as np
import pytest

from mvwrig import builders, core, suites
from mvwrig.errors import OrderNotAntisymmetric

import scalar_oracles as oracle
from conftest import LADDER, ZOO

#: each blocked suite check and its per-element reference
CHECKS = [
    (suites._check_order_lattice, oracle.order_lattice, False),
    (suites._check_residuation, oracle.residuation, False),
    (suites._check_monus_superadditive, oracle.monus_superadditive, False),
    (suites._check_product_monotone, oracle.product_monotone, True),
    (suites._check_product_join_bound, oracle.product_join_bound, True),
    (suites._check_product_meet_bound, oracle.product_meet_bound, True),
    (suites._check_power_join_bound, oracle.power_join_bound, True),
    (suites._check_power_meet_bound, oracle.power_meet_bound, True),
    (suites._check_unit_unique, oracle.unit_unique, True),
]

CORRUPTED_BASES = {
    "Z3": lambda: builders.build_zn(3),
    "Z4": lambda: builders.build_zn(4),
    "Z1xZ1": lambda: builders.direct_product([builders.build_zn(1)] * 2),
    "Z2xZ1": lambda: builders.direct_product([builders.build_zn(2), builders.build_zn(1)]),
}


def _corruptions(base):
    """Every single-cell corruption of the sum table and of the product
    table that still derives an antisymmetric order."""
    n = base.size
    out = []
    for which in ("add", "mul"):
        for x in range(n):
            for y in range(n):
                for value in range(n):
                    tables = {"add": base.add_table.copy(), "mul": base.mul_table.copy()}
                    if tables[which][x, y] == value:
                        continue
                    tables[which][x, y] = value
                    try:
                        out.append(core.derive(base.neg_table, tables["add"], tables["mul"],
                                               name=f"{base.name}/{which}[{x},{y}]={value}"))
                    except OrderNotAntisymmetric:
                        pass
    return out


CORRUPTED = {name: _corruptions(build()) for name, build in CORRUPTED_BASES.items()}
CORPUS = {"zoo": list(ZOO.values()), "ladder": [LADDER[k]() for k in sorted(LADDER)],
          **CORRUPTED}


def _compare(rig):
    """Assert that every blocked kernel gives its reference's answer on one
    structure; returns how many comparisons were made."""
    n = rig.size
    add, mul = rig.add_table, rig.mul_table
    pairs = [(core.scan_mv(rig).failures["MV1"],
              oracle.scan_per_element(n, oracle.associativity(add)))]
    if mul is not None:
        report = core.scan_mvw(rig).failures
        some = list(range(n - 1, -1, -2))[::-1]     # every other row, the last included
        pairs += [
            (report["MVW-ii"], oracle.scan_per_element(n, oracle.associativity(mul))),
            ((report["MVW-iv"], report["MVW-v"]), oracle.scan_distributive(rig, range(n))),
            (core._scan_per_element(n, core._associativity(mul), some),
             oracle.scan_per_element(n, oracle.associativity(mul), some)),
            (core._scan_distributive(rig, some), oracle.scan_distributive(rig, some)),
            (rig.unit, oracle.unit(mul)),
        ]
    for check, reference, needs_product in CHECKS:
        if mul is not None or not needs_product:
            pairs.append((check(rig), reference(rig)))
    for new, old in pairs:
        assert new == old, rig.name
    return len(pairs)


def test_corruptions_cover_both_tables_and_fail_the_laws():
    for name, rigs in CORRUPTED.items():
        assert sum("/add" in r.name for r in rigs) >= 10, name
        assert sum("/mul" in r.name for r in rigs) >= 40, name
        assert sum(not r.commutative for r in rigs) >= 10, name
    details = [check(r) for rigs in CORRUPTED.values() for r in rigs
               for check, _, _ in CHECKS]
    assert sum(d is not None for d in details) >= 500
    failing_mv1 = sum(core.scan_mv(r).failures["MV1"][0] > 0
                      for rigs in CORRUPTED.values() for r in rigs)
    assert failing_mv1 >= 50


@pytest.mark.parametrize("part", sorted(CORPUS))
def test_blocked_kernels_match_the_per_element_references(part):
    assert sum(_compare(rig) for rig in CORPUS[part]) >= len(CORPUS[part]) * 2


@pytest.mark.parametrize("rows", ["one", "two", "partial"])
@pytest.mark.parametrize("part", sorted(CORRUPTED))
def test_block_size_does_not_change_a_report(part, rows, monkeypatch):
    # one row a block, two rows, and n - 1 rows, which leaves a last block
    # of one row both over the n elements and over the n^2 pairs
    for rig in CORRUPTED[part]:
        n = rig.size
        per_block = {"one": 1, "two": 2, "partial": n - 1}[rows]
        monkeypatch.setattr(core, "_BLOCK_CELLS", per_block * n * n)
        _compare(rig)


def test_a_budget_below_one_row_still_scans_one_row_a_block(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
    for rig in CORRUPTED["Z2xZ1"][::7]:
        _compare(rig)


@pytest.mark.parametrize("count, cells", [(0, 16), (1, 16), (5, 16), (4, 4096), (33, 33 ** 2),
                                          (17, 1 << 16), (1000, 1)])
def test_blocks_walk_whole_rows_in_order_within_the_budget(count, cells):
    blocks = list(core._blocks(count, cells))
    assert [i for b in blocks for i in range(count)[b]] == list(range(count))
    for b in blocks:
        assert b.step is None and b.stop > b.start
        assert (b.stop - b.start) * cells <= core._BLOCK_CELLS or b.stop - b.start == 1
    # every block but the last is full
    assert len({b.stop - b.start for b in blocks[:-1]}) <= 1
    if blocks:
        assert blocks[0].stop - blocks[0].start >= blocks[-1].stop - blocks[-1].start


def test_the_cube_is_one_block_up_to_32_elements_and_a_row_a_block_past_128():
    # a per-element scan blocks the n elements in rows of n^2 cells
    assert [len(list(core._blocks(n, n * n))) for n in (1, 16, 32)] == [1, 1, 1]
    assert len(list(core._blocks(33, 33 * 33))) == 2
    for n in (129, 161, 182, 256, 1024):
        assert len(list(core._blocks(n, n * n))) == n


def test_a_last_block_of_one_row_is_scanned(monkeypatch):
    # a chain whose product breaks the zero at its top row and column:
    # associativity fails in the last row too, alone in its block
    n = 9
    idx = np.arange(n + 1)
    mul = np.minimum(idx[:, None], idx[None, :])
    rig = core.derive(n - idx, np.minimum(n, idx[:, None] + idx[None, :]), mul)
    bad = mul.copy()
    bad[n, 0] = bad[0, n] = 1
    broken = core.derive(rig.neg_table, rig.add_table, bad)
    expected = oracle.scan_per_element(n + 1, oracle.associativity(bad))
    assert oracle.associativity(bad)(n).any()
    monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * (n + 1) ** 2)   # blocks of 3, 3, 3, 1
    assert core.scan_mvw(broken).failures["MVW-ii"] == expected
    _compare(broken)


def _row_and_column_corruptions(base):
    """Two-cell corruptions of the product, at (a, y) and (z, a) with
    y != z: the row a*_ and the column _*a then change at different cells,
    so the order in which a law reads the two maps of a shows."""
    n = base.size
    for a, y, z, value in itertools.product(range(n), repeat=4):
        mul = base.mul_table.copy()
        mul[a, y] = mul[z, a] = value
        if y != z and (mul != base.mul_table).any():
            yield core.derive(base.neg_table, base.add_table, mul)


@pytest.mark.parametrize("base", ["Z3", "Z2xZ1"])
def test_a_row_and_a_column_failing_at_one_index_keep_the_laws_order(base):
    for rig in _row_and_column_corruptions(CORRUPTED_BASES[base]()):
        for check, reference, _ in CHECKS:
            if check.__name__.startswith("_check_product"):
                assert check(rig) == reference(rig), rig.name


#: synthetic (outer, side, y, z) failure cells over 5 outer indices, two
#: sides and 4 x 4 cells, and the first failure the engine must name: the
#: element-by-element loop's order is outer index, then side, then (y, z)
ENGINE_CASES = {
    "side 0 before an earlier cell of side 1": ([(2, 1, 0, 0), (2, 0, 3, 1)], (2, 0, 3, 1)),
    "an earlier outer index before an earlier cell": ([(4, 0, 0, 0), (1, 1, 3, 3)], (1, 1, 3, 3)),
    "alone in a last block of one row": ([(4, 1, 2, 0)], (4, 1, 2, 0)),
    "no failure": ([], None),
}


@pytest.mark.parametrize("rows", [1, 2, 4, 5])
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_the_engine_names_the_first_failure_in_loop_order(case, rows, monkeypatch):
    cells, first = ENGINE_CASES[case]
    cube = np.zeros((5, 2, 4, 4), dtype=bool)
    for cell in cells:
        cube[cell] = True
    monkeypatch.setattr(core, "_BLOCK_CELLS", rows * 4 * 4)
    blocks = []

    def sides(block):
        blocks.append(block)
        return [cube[block, 0], cube[block, 1]]
    assert suites._first_cell(5, 4, sides, lambda *cell: cell) == first
    if first is None or first[0] == 4:
        # every block is scanned; below 5 rows a block, the last has one row
        assert [i for b in blocks for i in range(5)[b]] == list(range(5))
        assert rows == 5 or blocks[-1] == slice(4, 5)
