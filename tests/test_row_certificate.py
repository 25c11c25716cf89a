"""The row certificate of ``core._certified_rows``, which reads a group of
maps laid out as columns, against the map-by-map reference in
``scalar_oracles``: the same verdict for every map, rows and columns, and
for the generator maps, whatever the pair blocks and the map groups; and a
certified report that builds no scan kernel."""

import copy
import functools
import itertools

import numpy as np
import pytest

from mvwrig import builders, core

import scalar_oracles as oracle
from conftest import LADDER, ZOO
from test_blocked_scans import CORRUPTED
from test_core import CERTIFIED_BASES, _one_cell_corruptions


def _chain(m, product):
    """The chain 0..m with truncated sum, and ``max`` or the truncated sum
    as its product."""
    x = np.arange(m + 1)
    add = np.minimum(m, np.add.outer(x, x))
    mul = np.maximum.outer(x, x) if product == "max" else add
    return core.derive(m - x, add, mul, name=f"{product}{m}")


GAMMAS = [(k, u) for k in range(1, 5) for u in itertools.product((0, 1), repeat=k)]

#: built on first use, so a broken builder fails its own tests
BUILDS = {
    **{name: lambda rig=rig: rig for name, rig in ZOO.items() if rig.mul_table is not None},
    **LADDER,
    "M2(Z2)": lambda: builders.build_matrix_rig(builders.build_zn(2), 2),
    "M3(Z1)": lambda: builders.build_matrix_rig(builders.build_zn(1), 3),
    **{f"G{k}_{''.join(map(str, u))}": lambda k=k, u=u: builders.gamma_zk(k, u) for k, u in GAMMAS},
    **{f"{product}{m}": lambda m=m, product=product: _chain(m, product)
       for product in ("max", "sum") for m in (3, 7, 20)},
}


@functools.cache
def _structure(name):
    return BUILDS[name]()


#: the structures of at most 32 elements, small enough for one-pair blocks
#: of one map each
SMALL = [name for name in sorted(BUILDS) if name not in ("M2(Z2)", "M3(Z1)")]


@functools.cache
def _corrupted():
    """The single-cell corruptions of the product: every one on four small
    bases, and forty random ones on each certified base."""
    rigs = [r for part in sorted(CORRUPTED) for r in CORRUPTED[part] if "/mul" in r.name]
    rng = np.random.default_rng(20261019)
    for name in sorted(CERTIFIED_BASES):
        rigs += _one_cell_corruptions(CERTIFIED_BASES[name](), 40, rng)
    return rigs


def _map_sets(rig):
    """Every row a*_ and every column _*a, and those of the generators."""
    mul = rig.mul_table
    gens = core._generators(mul)
    return {"rows": mul, "columns": mul.T,
            "generator rows": mul[gens], "generator columns": mul.T[gens]}


def _compare(rig):
    """Assert that every map set gets the reference's verdicts; returns how
    many maps fail the row theorem."""
    dec = core.chain_decomposition(rig)
    failing = 0
    for kind, maps in _map_sets(rig).items():
        got = core._certified_rows(rig, dec, maps)
        ref = oracle.certified_rows(rig, dec, maps)
        assert got.dtype == bool and got.shape == (len(maps),), (rig.name, kind)
        assert np.array_equal(got, ref), (rig.name, kind)
        failing += int(np.count_nonzero(~ref))
    return failing


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_verdicts_match_the_map_by_map_reference(name):
    rig = _structure(name)
    failing = _compare(rig)
    # the max and sum chains have every row monotone and subadditive, as
    # every MVW-rig has: only their zero law fails
    assert failing == 0


def test_verdicts_match_on_single_cell_corruptions():
    failing = [_compare(rig) for rig in _corrupted()]
    assert len(failing) >= 500
    assert sum(f > 0 for f in failing) >= 250


BUDGETS = [(pairs, group) for pairs in (1, 2, 7) for group in (1, 3)]


@pytest.mark.parametrize("pairs, group", BUDGETS,
                         ids=[f"pairs{p}-maps{g}" for p, g in BUDGETS])
def test_block_sizes_do_not_change_a_verdict(pairs, group, monkeypatch):
    # one, two and seven pairs a block, and one and three maps a group:
    # seven pairs and three maps leave a last, shorter block and group
    rigs = [_structure(name) for name in SMALL] + _corrupted()[::5]
    monkeypatch.setattr(core, "_pairs_per_block", lambda n, width: pairs)
    failing = 0
    for rig in rigs:
        monkeypatch.setattr(core, "_BLOCK_CELLS", group * rig.size)
        failing += _compare(rig)
    assert failing >= 100


@pytest.mark.parametrize("build", [
    pytest.param(lambda: builders.direct_product([builders.build_zn(1)] * 4), id="Z1^4"),
    pytest.param(lambda: builders.build_zn(127), id="Z127"),
])
def test_a_certified_report_builds_no_scan_kernel(build, monkeypatch):
    # a copy keeps no report, so its own is built
    rig = copy.copy(build())

    def refuse(op):
        raise AssertionError("a certified report built the associativity kernel")
    monkeypatch.setattr(core, "_associativity", refuse)
    report = core.check_mvw(rig)
    assert report.passed
    assert all(report.failures[axiom] == (0, ()) for axiom in core.MVW_AXIOMS)
