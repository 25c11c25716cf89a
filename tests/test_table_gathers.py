"""The ``take`` gathers of the library paths against the broadcast-indexing
reads and cell-by-cell builders they replaced (``scalar_oracles``): the same
tables to the byte, dtype included, the same names and reports, and the
same verdicts and witnesses on every single-cell corruption."""

import copy
import functools
import itertools

import numpy as np
import pytest

from mvwrig import builders, core, frames, ideals

import scalar_oracles as oracle
from conftest import LADDER, ZOO
from test_blocked_scans import CORRUPTED, CORRUPTED_BASES

DERIVED = ("monus", "times", "leq", "join", "meet")
TABLES = ("neg", "add", "mul") + DERIVED


def _bytes(table):
    return None if table is None else (table.dtype.str, table.shape, table.tobytes())


def _assert_same_structure(rig, ref):
    assert rig.carrier == ref.carrier and rig.name == ref.name
    for t in TABLES:
        assert _bytes(getattr(rig, f"{t}_table")) == _bytes(getattr(ref, f"{t}_table")), t
    assert (rig.u, rig.unit, rig.commutative, rig.product_below_meet) == \
        (ref.u, ref.unit, ref.commutative, ref.product_below_meet)
    assert core.check_all(rig).failures == core.check_all(ref).failures


def _from_cells(neg, add, mul, names, name):
    return core.derive(neg, add, mul, names=names, name=name)


MATRICES = {
    "M2(Z1)": (lambda: builders.build_zn(1), 2),
    "M2(Z2)": (lambda: builders.build_zn(2), 2),
    "M2(G2)": (lambda: builders.gamma_zk(2, (1, 1)), 2),
    "M3(Z1)": (lambda: builders.build_zn(1), 3),
}
GAMMAS = [(k, u) for k in range(1, 5) for u in itertools.product((0, 1), repeat=k)]


#: built on first use, so a broken builder fails its own tests
BUILDS = {
    **{name: lambda rig=rig: rig for name, rig in ZOO.items()},
    **LADDER,
    **{name: lambda base=base, n=n: builders.build_matrix_rig(base(), n)
       for name, (base, n) in MATRICES.items()},
    **{f"G{k}_{''.join(map(str, u))}": lambda k=k, u=u: builders.gamma_zk(k, u) for k, u in GAMMAS},
}


@functools.cache
def _structure(name):
    return BUILDS[name]()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_derived_tables_match_the_broadcast_formulas(name):
    rig = _structure(name)
    tables, below = oracle.init_tables(rig.neg_table, rig.add_table, rig.mul_table)
    for t in DERIVED:
        assert _bytes(getattr(rig, f"{t}_table")) == _bytes(tables[t]), t
    assert rig.product_below_meet == below


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_block_size_does_not_change_a_derived_table(rows, monkeypatch):
    # one, two and seven index rows a block; seven leave a last, shorter
    # block on the 32 and 256 elements of G3xG2 and M2(G2)
    for name in ("M2(G2)", "G3xG2", "Z6", "T5"):
        rig = _structure(name)
        monkeypatch.setattr(core, "_BLOCK_CELLS", rows * rig.size)
        _assert_same_structure(core.derive(rig.neg_table, rig.add_table, rig.mul_table,
                                           names=rig.carrier.names, name=rig.name), rig)


@pytest.mark.parametrize("k, u", GAMMAS, ids=[f"G{k}_{''.join(map(str, u))}" for k, u in GAMMAS])
def test_gamma_matches_the_cell_by_cell_build(k, u):
    _assert_same_structure(builders.gamma_zk(k, u), _from_cells(*oracle.gamma_zk(k, u)))


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_matrix_rig_matches_the_cell_by_cell_build(name):
    base, n = MATRICES[name]
    base = base()
    rig = builders.build_matrix_rig(base, n)
    ref = _from_cells(*oracle.matrix_rig(base, n))
    _assert_same_structure(rig, ref)
    assert core.check_mvw(rig).failures == core.check_mvw(ref).failures


def test_matrix_product_blocks_cover_every_row(monkeypatch):
    # M2(Z2) has 81 elements: blocks of 10 rows leave a last block of one
    base = builders.build_zn(2)
    monkeypatch.setattr(core, "_BLOCK_CELLS", 10 * 81)
    rig = builders.build_matrix_rig(base, 2, check=False)
    assert _bytes(rig.mul_table) == _bytes(_from_cells(*oracle.matrix_rig(base, 2)).mul_table)


PRINCIPAL = [name for name in sorted(ZOO) if ZOO[name].mul_table is not None] \
    + sorted(LADDER) + ["M2(Z2)"]


@pytest.mark.parametrize("rows", [None, 1, 2, 7])
def test_principal_certificate_matches_the_broadcast_read(rows, monkeypatch):
    # the default blocks, and one, two and seven index rows a block
    verdicts = []
    for name in PRINCIPAL:
        rig = _structure(name)
        if rows is not None:
            monkeypatch.setattr(core, "_BLOCK_CELLS", rows * rig.size)
        prin = frames.principal_table(copy.copy(rig))
        assert prin.certified == oracle.principal_certified(rig, prin), name
        verdicts.append(prin.certified)
    # M2(Z1) and M2(Z2) are not commutative, and their certificates fail
    assert verdicts.count(False) >= 2 and verdicts.count(True) >= 15


@pytest.mark.parametrize("name", sorted(ZOO) + ["Z1^10"])
def test_classes_match_where_down_neg_e_is_zero(name):
    # Z1^10: 1024 ideals over 10 atoms
    rig = ZOO[name] if name in ZOO else builders.direct_product([builders.build_zn(1)] * 10)
    masks, tops = ideals._ideal_masks(rig), ideals._tops(rig)
    # the whole carrier is down u, and down neg u = {0} holds no atom for
    # the prime clauses
    assert rig.neg_table[tops[-1]] == 0
    classes = [(c.prime, c.mv_prime, c.maximal) for _, c in ideals._classified(rig)]
    assert classes == oracle.classified(rig, masks, tops)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_restrict_to_the_zero(name):
    rig = ZOO[name]
    if rig.size > 1:
        # the negation of 0 is the first value outside {0}
        with pytest.raises(ValueError, match=f"subset not closed: element {rig.u} escapes"):
            core.restrict(rig, {0})
        return
    sub, embedding = core.restrict(rig, {0})
    assert embedding == (0,)
    for t in TABLES:
        if t == "mul" and rig.mul_table is None:
            assert sub.mul_table is None
            continue
        shape = (1,) if t == "neg" else (1, 1)
        expected = np.ones(shape, dtype=bool) if t == "leq" else np.zeros(shape, dtype=np.int32)
        assert _bytes(getattr(sub, f"{t}_table")) == _bytes(expected), t


def _partitions(n):
    """Every set partition of range(n) as restricted growth strings."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(top + 2):
            yield from grow(prefix + [c], max(top, c))
    yield from grow([0], 0)


def _maps(rng, source, target):
    """Six random maps that fix 0, and the identity between equal sizes."""
    maps = [(0, *rng.integers(0, target.size, source.size - 1).tolist()) for _ in range(6)]
    return maps + [tuple(range(source.size))] * (source.size == target.size)


@pytest.mark.parametrize("part", sorted(CORRUPTED))
def test_verdicts_match_on_single_cell_corruptions(part):
    rng = np.random.default_rng(len(part))
    base = CORRUPTED_BASES[part]()
    rigs = CORRUPTED[part]
    n = base.size
    subsets = [set(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    partitions = list(_partitions(n))
    failing = {"ideal": 0, "filter": 0, "congruence": 0, "hom": 0, "light": 0}
    for i, rig in enumerate(rigs):
        mul = rig.mul_table
        for g in range(n):
            verdict = core._light_test(mul, [g])
            assert verdict == oracle.light_test(mul, [g]), (rig.name, g)
            failing["light"] += not verdict
        for s in subsets:
            got = ideals._ideal_check(rig, s)
            assert got == oracle.ideal_check(rig, s), (rig.name, s)
            failing["ideal"] += not got[0]
            got = frames.is_filter(rig, s)
            assert got == oracle.is_filter(rig, s), (rig.name, s)
            failing["filter"] += not got[0]
        # a third of the partitions on each structure, every partition on
        # some three in a row
        for labels in partitions[i % 3::3]:
            got = ideals._congruence_check(rig, labels)
            assert got == oracle.congruence_check(rig, labels), (rig.name, labels)
            failing["congruence"] += not got[0]
        for source, target in ((rig, base), (base, rig), (rig, rig)):
            for m in _maps(rng, source, target):
                got = ideals.check_homomorphism(ideals.Homomorphism(source, target, m))
                assert got == oracle.check_homomorphism(source, target, m), (rig.name, m)
                failing["hom"] += not got[0]
    # the corruptions reach the failing branch of every clause
    assert min(failing.values()) >= 10, failing


def test_image_of_an_onto_map_is_its_target():
    z1xz1, z1 = ZOO["Z1xZ1"], ZOO["Z1"]
    onto = ideals.Homomorphism(z1xz1, z1, (0, 0, 1, 1))
    assert ideals.check_homomorphism(onto)[0]
    img, embedding = ideals.image(onto)
    assert img is z1 and embedding == (0, 1)
    # not onto: the image is restricted
    into = ideals.Homomorphism(z1, z1xz1, (0, 3))
    assert ideals.check_homomorphism(into)[0]
    img, embedding = ideals.image(into)
    assert img is not z1xz1 and img.size == 2 and embedding == (0, 3)
    assert img.name == "Z1xZ1|sub"


def test_image_of_an_onto_mv_map_is_the_mv_reduct():
    l2, z1 = ZOO["L2"], ZOO["Z1"]
    f = ideals.Homomorphism(l2, z1, (0, 1))
    img, embedding = ideals.image(f)
    assert img is ideals._mv_reduct(z1) and img.mv_only and embedding == (0, 1)
