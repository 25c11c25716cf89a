"""The product-axiom kernels that read value classes: Light's test of
``core._light_test`` against the two-gather reference in ``scalar_oracles``,
and the chain certificate of ``core._chain_certified_rows`` against
``core._certified_rows``; what each reads; and a ``mvw check`` that never
imports ``numpy.ma``."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvwrig import builders, core, dsl

import scalar_oracles as oracle
from conftest import LADDER, ZOO

#: the structures whose products Light's test is compared on
LIGHT_BASES = {
    **{name: lambda rig=rig: rig for name, rig in ZOO.items() if rig.mul_table is not None},
    **LADDER,
    "M2(Z2)": lambda: builders.build_matrix_rig(builders.build_zn(2), 2),
}


@functools.cache
def _base(name):
    return LIGHT_BASES[name]()


def _unit_cells(mul):
    """The cells of the unit's row and column, off the unit, or none."""
    n = len(mul)
    units = [s for s in range(n) if (mul[s] == np.arange(n)).all()
             and (mul[:, s] == np.arange(n)).all()]
    return [(x, u) for u in units for x in range(n) if x != u] + \
        [(u, y) for u in units for y in range(n) if y != u]


def _corrupted_products(mul, rng, count, symmetric):
    """``count`` single-cell corruptions of ``mul`` (a cell and, when
    ``symmetric``, its mirror), and then one of every cell of the unit's
    row and column, which leave one of the two the identity."""
    n = len(mul)
    cells = [tuple(rng.integers(n, size=2)) for _ in range(count)]
    if not symmetric:
        cells += _unit_cells(mul)
    out = []
    for x, y in cells:
        bad = mul.copy()
        bad[x, y] = (bad[x, y] + rng.integers(1, n)) % n if n > 1 else 0
        if symmetric:
            bad[y, x] = bad[x, y]
        out.append(bad)
    return out


def _subsets(n, rng, count):
    """Random generator subsets, each in ascending order, and the whole
    carrier."""
    subsets = [sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
               for _ in range(count)]
    return subsets + [list(range(n))]


def _compare_light(mul, rng):
    """Assert the reference's verdict on random generator subsets and on
    each element alone; returns how many elements are not good."""
    commutative = bool((mul == mul.T).all())
    for gens in _subsets(len(mul), rng, 4):
        assert core._light_test(mul, gens, commutative) == oracle.light_test_by_gathers(mul, gens)
    good = [oracle.light_test_by_gathers(mul, [g]) for g in range(len(mul))]
    assert [core._light_test(mul, [g], commutative) for g in range(len(mul))] == good
    return good.count(False)


@pytest.mark.parametrize("name", sorted(LIGHT_BASES))
def test_light_verdicts_match_on_single_cell_corruptions(name):
    mul = _base(name).mul_table
    rng = np.random.default_rng(sorted(LIGHT_BASES).index(name))
    products = [mul] + _corrupted_products(mul, rng, 30, symmetric=False)
    bad = [_compare_light(table, rng) for table in products]
    assert bad[0] == 0
    if len(mul) > 3:
        assert sum(b > 0 for b in bad) >= 10


@pytest.mark.parametrize("name", sorted(n for n in LIGHT_BASES if _base(n).commutative))
def test_light_verdicts_match_on_symmetric_corruptions(name):
    # the table stays symmetric, so condition (ii) is skipped
    mul = _base(name).mul_table
    rng = np.random.default_rng(100 + sorted(LIGHT_BASES).index(name))
    products = _corrupted_products(mul, rng, 30, symmetric=True)
    assert all((table == table.T).all() for table in products)
    bad = [_compare_light(table, rng) for table in products]
    if len(mul) > 2:
        assert sum(b > 0 for b in bad) >= 10


def test_a_row_identity_alone_does_not_make_a_generator_good():
    # Z5 with 2*1 = 2 changed to 1: row 1 is still the identity and column
    # 1 is not, and 1 is no longer good: (2*1)*2 = 1*2 = 2, 2*(1*2) = 2*2 = 4;
    # in the transposed table the column is the identity and the row not
    mul = builders.build_zn(5).mul_table.copy()
    mul[2, 1] = 1
    assert (mul[1] == np.arange(6)).all() and not (mul[:, 1] == np.arange(6)).all()
    for table in (mul, mul.T.copy()):
        assert not oracle.light_test_by_gathers(table, [1])
        assert not core._light_test(table, [1])


def _rows_read(monkeypatch):
    """Wrap ``core._rows_agree``; returns the number of rows each call
    compares."""
    reads = []
    original = core._rows_agree

    def counted(table, heads, cells, index):
        reads.append(len(cells))
        return original(table, heads, cells, index)
    monkeypatch.setattr(core, "_rows_agree", counted)
    return reads


def _classes(values):
    return len(set(values.tolist()))


@pytest.mark.parametrize("build", [pytest.param(lambda name=name: _base(name), id=name)
                                   for name in sorted(LIGHT_BASES)] + [
    pytest.param(lambda: builders.build_zn(63), id="Z63"),
    pytest.param(lambda: builders.build_matrix_rig(builders.build_zn(1), 3), id="M3(Z1)")])
def test_light_reads_one_row_per_value_class(build, monkeypatch):
    # per generator that is not the unit: one row per value of x*g, and on a
    # non-commutative table one column per value of g*y, or n rows where
    # those are more than n
    rig = build()
    mul, n = rig.mul_table, rig.size
    gens = core._generators(mul)
    expected = 0
    for g in gens:
        column, row = _classes(mul[:, g]), _classes(mul[g])
        if (mul[g] == np.arange(n)).all() and (mul[:, g] == np.arange(n)).all():
            continue
        expected += column if rig.commutative else min(column + row, n)
    reads = _rows_read(monkeypatch)
    assert core._light_test(mul, gens, rig.commutative)
    assert len(reads) == (1 if rig.commutative else 2)
    assert sum(reads) == expected
    assert expected < len(gens) * n or n < 4


def test_light_reads_nothing_for_the_unit(monkeypatch):
    mul = builders.build_zn(15).mul_table
    reads = _rows_read(monkeypatch)
    assert core._light_test(mul, [1], True) and core._light_test(mul, [1])
    assert sum(reads) == 0


# -- the chain certificate --------------------------------------------------------

def _formula_chain(m, mul):
    """The chain 0..m of a formula file with product ``mul``, unchecked."""
    [rig] = dsl.elaborate_file(
        f"algebra C {{\n  elements: 0..{m}\n  zero: 0\n  neg(x) = {m} - x\n"
        f"  add(x, y) = min({m}, x + y)\n  mul(x, y) = {mul}\n}}\n", check=False)
    return rig


FORMULAS = {"times": "min({m}, x * y)", "sum": "min({m}, x + y)", "max": "max(x, y)",
            "min": "min(x, y)", "left": "x"}


def _permuted_chain(m, seed):
    """Z_m with its nonzero elements renumbered at random, so that phi is
    no identity."""
    base = builders.build_zn(m)
    perm = np.concatenate([[0], np.random.default_rng(seed).permutation(np.arange(1, m + 1))])
    inv = np.argsort(perm)
    grid = np.ix_(perm, perm)
    return core.derive(inv[base.neg_table[perm]], inv[base.add_table[grid]],
                       inv[base.mul_table[grid]], name=f"Z{m}~")


CHAINS = {
    **{name: lambda rig=rig: rig for name, rig in ZOO.items()
       if rig.mul_table is not None and len(core.chain_decomposition(rig).atoms) == 1},
    **{f"{kind}{m}": lambda kind=kind, m=m: _formula_chain(m, FORMULAS[kind].format(m=m))
       for kind in FORMULAS for m in (1, 2, 5, 16, 40)},
    "Z9~": lambda: _permuted_chain(9, 1), "Z30~": lambda: _permuted_chain(30, 2),
}


@functools.cache
def _chain(name):
    return CHAINS[name]()


def _random_maps(rig, rng, count):
    """Random maps and random monotone ones (sorted in chain coordinates,
    some with few levels), and the identity, in element coordinates."""
    n = rig.size
    phi = core.chain_decomposition(rig).phi
    pos = np.argsort(phi)
    monotone = np.sort(rng.integers(0, n, size=(count, n)), axis=1)
    coarse = np.sort(rng.choice(rng.integers(0, n, size=3), size=(count, n)), axis=1)
    near = np.tile(np.arange(n), (count, 1))
    near[np.arange(count), rng.integers(0, n, size=count)] = rng.integers(0, n, size=count)
    near.sort(axis=1)
    chain = np.vstack([monotone, coarse, near, np.arange(n)[None, :]])
    return np.vstack([rng.integers(0, n, size=(count, n)),
                      phi.take(chain.take(pos, axis=1))]).astype(np.int32)


def _compare_chain(rig, maps):
    """Assert ``_certified_rows``'s verdict; returns how many maps fail."""
    dec = core.chain_decomposition(rig)
    got = core._chain_certified_rows(rig, dec, maps)
    ref = core._certified_rows(rig, dec, maps)
    assert got.dtype == bool and got.shape == (len(maps),)
    assert np.array_equal(got, ref), rig.name
    return int(np.count_nonzero(~ref))


def _map_sets(rig, rng):
    mul = rig.mul_table
    n = rig.size
    corrupted = []
    for _ in range(20):
        bad = mul.copy()
        bad[tuple(rng.integers(n, size=2))] = rng.integers(n)
        corrupted.append(bad)
    return [mul, mul.T, *corrupted, *(c.T for c in corrupted), _random_maps(rig, rng, 30)]


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_certificate_matches_the_row_certificate(name):
    rig = _chain(name)
    assert len(core.chain_decomposition(rig).atoms) == 1
    rng = np.random.default_rng(sorted(CHAINS).index(name))
    failing = [_compare_chain(rig, maps) for maps in _map_sets(rig, rng)]
    # every row and column of the formula chains passes; random maps fail
    assert failing[:2] == [0, 0]
    if rig.size > 3:
        assert failing[-1] > 0


def _ref_pair_count(rig, maps):
    """How many pairs of levels the certificate reads, counted map by map:
    for each map that does not decrease in chain coordinates and is no
    identity, the pairs v <= w of its levels with lo_v + lo_w <= m."""
    phi = core.chain_decomposition(rig).phi
    pos = np.argsort(phi)
    m = rig.size - 1
    total = 0
    for f in maps:
        F = pos[f[phi]].tolist()
        if F != sorted(F) or F == list(range(m + 1)):
            continue
        lows = [k for k in range(m + 1) if k == 0 or F[k] != F[k - 1]]
        total += sum(1 for i, a in enumerate(lows) for b in lows[i:] if a + b <= m)
    return total


@pytest.mark.parametrize("name", ["times40", "Z30~", "max16", "left5"])
def test_chain_certificate_reads_the_pairs_of_levels(name, monkeypatch):
    rig = _chain(name)
    read = []
    pairs = core._level_pairs
    monkeypatch.setattr(core, "_level_pairs",
                        lambda *a: (read.append(len(p[0])) or p for p in pairs(*a)))
    for maps in _map_sets(rig, np.random.default_rng(5)):
        read.clear()
        core._chain_certified_rows(rig, core.chain_decomposition(rig), maps)
        assert sum(read) == _ref_pair_count(rig, maps)


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_chain_block_sizes_do_not_change_a_verdict(cells, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(cells)
    failing = sum(_compare_chain(_chain(name), maps) for name in ("times16", "Z9~", "sum5")
                  for maps in _map_sets(_chain(name), rng))
    assert failing >= 20


def test_identity_maps_read_no_pairs(monkeypatch):
    # no pairs means no block: a broken block budget is never read
    rig = _chain("times40")
    monkeypatch.setattr(core, "_BLOCK_CELLS", None)
    maps = np.tile(np.arange(rig.size, dtype=np.int32), (3, 1))
    assert core._chain_certified_rows(rig, core.chain_decomposition(rig), maps).all()


@pytest.mark.parametrize("name", ["Z5", "times40", "left16", "Z9~"])
def test_check_mvw_takes_the_chain_certificate_on_a_chain(name, monkeypatch):
    # the product is no lattice operation, so a certificate runs, and it is
    # the chain one
    rig = core.derive(*(getattr(_chain(name), t) for t in ("neg_table", "add_table", "mul_table")))
    calls = []
    chain = core._chain_certified_rows
    monkeypatch.setattr(core, "_chain_certified_rows",
                        lambda *a: calls.append(len(a[2])) or chain(*a))
    monkeypatch.setattr(core, "_certified_rows", None)
    assert core.check_mvw(rig).failures == core.scan_mvw(rig).failures
    assert calls


# -- a check imports no numpy.ma ---------------------------------------------------

@pytest.mark.parametrize("text", [
    "algebra C {\n  elements: 0..40\n  zero: 0\n  neg(x) = 40 - x\n"
    "  add(x, y) = min(40, x + y)\n  mul(x, y) = min(40, x * y)\n}\n",
    "algebra Z63 {\n  builder: zn(63)\n}\n"], ids=["formula-chain", "Z63"])
def test_a_check_leaves_numpy_ma_unimported(text, tmp_path):
    # np.unique imports numpy.ma on its first call, about 11 ms a process
    path = tmp_path / "a.mvw"
    path.write_text(text, encoding="utf-8")
    script = (
        "import contextlib, io, sys\n"
        "from mvwrig import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['check', {str(path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(core.__file__).resolve().parents[1])
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": env_path}, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0 False\n"), done.stderr


# -- restrict on the whole carrier ------------------------------------------------

def test_restrict_to_the_whole_carrier_shares_the_parent_tables():
    rig = builders.build_zn(15)
    sub, embedding = core.restrict(rig, range(rig.size))
    assert sub is not rig and sub.name == "Z15|sub" and rig.name == "Z15"
    assert embedding == tuple(range(rig.size)) and sub.carrier == rig.carrier
    for table in ("neg_table", "add_table", "mul_table", "monus_table", "leq_table"):
        assert getattr(sub, table) is getattr(rig, table)
    assert not sub._memo
    with pytest.raises(IndexError):
        core.restrict(rig, [*range(rig.size), rig.size])
