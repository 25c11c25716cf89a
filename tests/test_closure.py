"""The frontier closure ``core._close``, behind both
``builders.subalgebra_closure`` and ``core._generators`` (whose generators
``test_core`` checks): each pair read at most once a side per operation,
and the same members, embedding, names and tables as the pair-by-pair
reference in ``scalar_oracles`` on every seed, with the same IndexError
for an element out of range."""

import functools
import random

import numpy as np
import pytest

from mvwrig import builders, core

import scalar_oracles as oracle
from conftest import LADDER, ZOO

BUILDS = {
    **{name: lambda rig=rig: rig for name, rig in ZOO.items()},
    **LADDER,
    "M2(Z2)": lambda: builders.build_matrix_rig(builders.build_zn(2), 2),
}


@functools.cache
def _structure(name):
    return BUILDS[name]()


def _ops(rig):
    return (rig.add_table,) if rig.mul_table is None else (rig.add_table, rig.mul_table)


def _ref_members(rig, fresh):
    return set(oracle.subalgebra_closure(rig, fresh)[1])


@pytest.mark.parametrize("name", ["Z1xZ1", "L5", "M2(Z1)", "M2(Z2)", "Z1^4", "G3xG2"])
def test_each_pair_is_read_at_most_once_a_side(name, monkeypatch):
    # a pair joins the reads in the round its later element joins the
    # members, so each operation reads at most m^2 cells a side for m
    # members; a frontier that kept old members would read on and on
    rig = _structure(name)
    n = rig.size
    expected = [_ref_members(rig, [x]) for x in range(n)]
    cells, budget = [], [0]
    grid = core._grid

    def counted(table, rows, cols):
        cells.append(len(rows) * len(cols))
        assert sum(cells) <= budget[0], "a pair was read twice"
        return grid(table, rows, cols)
    monkeypatch.setattr(core, "_grid", counted)
    for x in range(n):
        budget[0] = 2 * len(_ops(rig)) * len(expected[x]) ** 2
        cells.clear()
        members = core._close(np.zeros(n, dtype=bool), [0, x], (rig.neg_table,), _ops(rig))
        assert set(np.flatnonzero(members).tolist()) == expected[x], x
    if rig.mul_table is not None:
        budget[0] = 2 * n * n
        cells.clear()
        core._generators(rig.mul_table)


def _outcome(closure, rig, seed):
    try:
        sub, embedding = closure(rig, seed)
    except IndexError as exc:
        return IndexError, str(exc)
    return embedding, sub.name, sub.carrier, sub


def _assert_same(rig, seed):
    got = _outcome(builders.subalgebra_closure, rig, seed)
    ref = _outcome(oracle.subalgebra_closure, rig, seed)
    assert got[:3] == ref[:3], (rig.name, seed)
    if got[0] is not IndexError:
        assert got[3].same_tables(ref[3]), (rig.name, seed)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_closure_matches_the_pair_by_pair_reference(name):
    # every single element, none, 0 alone, the top without 0, everything,
    # and elements out of range, first or after one in range
    rig = _structure(name)
    n = rig.size
    seeds = [{x} for x in range(n)] + [set(), [0], [rig.u], [n - 1, 1 % n], range(n),
                                       [n], [-1], [0, n + 3], [1 % n, -2]]
    for seed in seeds:
        _assert_same(rig, seed)


def test_closure_matches_on_seeded_seed_sets():
    rng = random.Random(20261020)
    names = sorted(BUILDS)
    proper = 0
    for _ in range(200):
        rig = _structure(rng.choice(names))
        seed = rng.sample(range(rig.size), rng.randint(1, min(3, rig.size)))
        _assert_same(rig, seed)
        proper += len(_ref_members(rig, seed)) < rig.size
    # the seeds reach proper subalgebras as well as the whole carrier
    assert 40 <= proper <= 160


def test_an_element_out_of_range_is_an_index_error():
    z3 = ZOO["Z3"]
    for seed in ([4], [-1], [1, 7]):
        with pytest.raises(IndexError, match="out of range 0..3"):
            builders.subalgebra_closure(z3, seed)
