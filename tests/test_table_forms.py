"""The table forms of the law suites' calls under test.

``ideals.generated_ideals``, ``frames.pfilters_generated`` and
``frames.finite_subcovers`` answer a whole seed table at once, and the
one-seed functions are one-row calls of them.  The references are the
earlier one-seed bodies in ``scalar_oracles``: every row of every table
must give the object, the subfamily or the exception the reference gives
for that seed, whatever the order of a generator list and its duplicates.
The law checks that read these answers must ask one table per structure
and no seed on its own.  Also here: ``FiniteMvwRig.commutative`` on
blocks of strips against the full compare, the congruence labels of an
ideal against their ``np.unique`` reference, and the partition oracle's
negation filter.
"""

import copy
import itertools
import random

import numpy as np
import pytest

from mvwrig import builders, core, frames, ideals, suites
from mvwrig.errors import EmptySeed, GateNotMet, MvwError

import scalar_oracles
from conftest import LADDER, ZOO

RIGS = dict(ZOO, **{k: build() for k, build in LADDER.items()},
            **{"M2(Z2)": builders.build_matrix_rig(builders.build_zn(2), 2)})
#: a commutative product of more than 3 x 5 cells, for the strips
Z15 = builders.build_zn(15)
ALL = [pytest.param(r, id=k) for k, r in RIGS.items()]
PRODUCTS = [pytest.param(r, id=k) for k, r in RIGS.items() if r.mul_table is not None]


def _seed_table(rig):
    """Every subset up to the subset cap; past it, the empty seed, every
    singleton and pair, 100 seeded random subsets and the carrier."""
    if rig.size <= suites.SUBSET_SIZE_LIMIT:
        return suites._seeds(rig.size)
    rng = random.Random(rig.size)
    seeds = [s for k in range(3) for s in itertools.combinations(rig.elements(), k)]
    seeds += [tuple(sorted(rng.sample(rig.elements(), rng.randrange(3, rig.size))))
              for _ in range(100)]
    seeds.append(tuple(rig.elements()))
    return seeds, core._member_rows(rig.size, seeds)


def _generator_lists(rig):
    """Lists in any order, duplicates included: every list of at most three
    elements on carriers of at most four, and 150 seeded random lists on
    every carrier."""
    lists = []
    if rig.size <= 4:
        lists = [list(g) for k in range(4) for g in itertools.product(rig.elements(), repeat=k)]
    rng = random.Random(f"lists {rig.size}")
    lists += [[rng.randrange(rig.size) for _ in range(rng.randrange(1, min(rig.size, 8) + 3))]
              for _ in range(150)]
    return lists


def _ranks(lists, n):
    """ranks[i, g]: the position of g in list i without its repeats, or -1."""
    ranks = np.full((len(lists), n), -1)
    for i, gens in enumerate(lists):
        gens = list(dict.fromkeys(gens))
        ranks[i, gens] = np.arange(len(gens))
    return ranks


def _outcome(call, *args):
    """A call's result, or the type and text of the workbench error it raises."""
    try:
        return call(*args)
    except MvwError as exc:
        return type(exc), str(exc)


# -- each table form against the one-seed reference ------------------------------

@pytest.mark.parametrize("rig", ALL)
def test_generated_ideals_match_the_per_seed_reference(rig):
    seeds, table = _seed_table(rig)
    listed = ideals._ideal_list(rig)
    for seed, j in zip(seeds, ideals.generated_ideals(rig, table).tolist()):
        expect = scalar_oracles.generated_ideal(rig, seed)
        assert listed[j] is expect, seed
        assert ideals.generated_ideal(rig, seed) is expect, seed
    # the reference folds in the seed's order, the table in ascending order
    for gens in _generator_lists(rig):
        assert ideals.generated_ideal(rig, gens) is scalar_oracles.generated_ideal(rig, gens)


@pytest.mark.parametrize("rig", PRODUCTS)
def test_pfilters_generated_match_the_per_seed_reference(rig):
    seeds, table = _seed_table(rig)
    fr = frames.frame(rig)
    with pytest.raises(EmptySeed, match="seed must be too"):
        frames.pfilters_generated(rig, table)
    for seed, j in zip(seeds[1:], frames.pfilters_generated(rig, table[1:]).tolist()):
        expect = scalar_oracles.pfilter_generated(rig, seed).members
        assert fr.pfilters[j] is expect, seed
        assert frames.pfilter_generated(rig, seed).members is expect, seed
    for gens in _generator_lists(rig) + [[]]:
        got = _outcome(frames.pfilter_generated, rig, gens)
        expect = _outcome(scalar_oracles.pfilter_generated, rig, gens)
        assert getattr(got, "members", got) == getattr(expect, "members", expect), gens


def _table_answer(cov, i, gens):
    """Row i of ``finite_subcovers`` as ``finite_subcover`` gives it."""
    fault = cov.fault(i)
    if fault is not None:
        return type(fault), str(fault)
    return [g for g in dict.fromkeys(gens) if cov.members[i, g]]


@pytest.mark.parametrize("rig", PRODUCTS)
def test_finite_subcovers_match_the_per_seed_reference(rig):
    seeds, table = _seed_table(rig)
    cov = frames.finite_subcovers(rig, suites._ranks(table))
    for i, seed in enumerate(seeds):
        expect = _outcome(scalar_oracles.finite_subcover, rig, list(seed))
        assert _table_answer(cov, i, seed) == expect, seed
        assert _outcome(frames.finite_subcover, rig, list(seed)) == expect, seed
    # refused, answered and not sound rows are exclusive; a refused row
    # keeps no subfamily
    assert not (cov.refused & cov.unsound).any()
    assert not cov.members[cov.refused].any()


@pytest.mark.parametrize("rig", PRODUCTS)
def test_finite_subcover_matches_on_unsorted_and_duplicated_lists(rig):
    # the first (frontier position, generator rank) pair that reaches a
    # product is its parent, so the order of a list picks its subfamily
    lists = _generator_lists(rig)
    cov = frames.finite_subcovers(rig, _ranks(lists, rig.size))
    for i, gens in enumerate(lists):
        expect = _outcome(scalar_oracles.finite_subcover, rig, gens)
        assert _outcome(frames.finite_subcover, rig, gens) == expect, gens
        assert _table_answer(cov, i, gens) == expect, gens


def test_finite_subcover_order_picks_the_subfamily():
    # in G3 any two of the atoms 1, 2 and 4 multiply to 0: the pair of the
    # first two generators reaches 0 first, and is read back in list order
    rig = ZOO["G3"]
    for gens in itertools.permutations([1, 2, 4]):
        assert frames.finite_subcover(rig, list(gens)) == list(gens[:2]), gens
    assert frames.finite_subcover(rig, [4, 4, 2, 1, 2]) == [4, 2]
    # in Z1 x Z1, 1 . 2 = 0 and the top 3 is never needed
    assert frames.finite_subcover(ZOO["Z1xZ1"], [3, 1, 2]) == [1, 2]
    assert frames.finite_subcover(ZOO["Z1xZ1"], [2, 2, 3, 1]) == [2, 1]


def test_finite_subcover_keeps_its_errors():
    z3, lukasiewicz = ZOO["Z3"], ZOO["L3"]
    assert _outcome(frames.finite_subcover, z3, [3, 3]) == _outcome(
        scalar_oracles.finite_subcover, z3, [3, 3])
    assert _outcome(frames.finite_subcover, z3, [])[0] is frames.NotACover
    with pytest.raises(GateNotMet):
        frames.finite_subcover(lukasiewicz, [1])
    with pytest.raises(IndexError, match="element index 9 out of range"):
        frames.finite_subcover(z3, [1, 9])
    # bottom == top: every list, the empty one too, has the empty subcover
    t3 = ZOO["T3"]
    fr = frames.frame(t3)
    assert fr.bottom == fr.top
    lists = _generator_lists(t3) + [[]]
    cov = frames.finite_subcovers(t3, _ranks(lists, t3.size))
    assert not (cov.members.any() or cov.refused.any() or cov.unsound.any())


# -- the checks ask one table per structure ----------------------------------------

#: check name -> the structures it runs on past its gates
TABLE_CHECKS = {
    "generated-least": ["Z1xZ1", "Z3", "G3", "T3", "L4"],
    "radical-order": ["Z1xZ1", "Z3", "T3", "Z1^4", "G3xG2"],
    "compactness": ["Z1xZ1", "Z3", "Z2", "G3"],
    "pfilter-generated-least": ["Z1xZ1", "Z3", "T3", "G3"],
    "frame-covers": ["Z1xZ1", "Z3", "T3", "G3"],
}
CHECKS = {name: fn for checks in suites.SUITES.values() for name, _desc, fn in checks}
PER_SEED = ((ideals, "generated_ideal"), (frames, "pfilter_generated"),
            (frames, "finite_subcover"))
TABLES = ((ideals, "generated_ideals"), (frames, "pfilters_generated"),
          (frames, "finite_subcovers"))


@pytest.mark.parametrize("check, name", [(c, k) for c, names in TABLE_CHECKS.items()
                                         for k in names])
def test_checks_ask_one_table_and_no_seed(check, name, monkeypatch):
    rig = RIGS[name]
    asked = []
    for module, attr in PER_SEED + TABLES:
        def counted(*args, call=getattr(module, attr), attr=attr):
            asked.append(attr)
            return call(*args)
        monkeypatch.setattr(module, attr, counted)
    assert CHECKS[check](rig) is None
    assert len(asked) == 1 and asked[0] in {attr for _, attr in TABLES}, asked


def test_seed_tables_are_kept_per_structure():
    # built once per structure and read-only; a copy, with a memo of its
    # own, builds its own, so nothing carries over between structures
    rig = RIGS["Z3"]
    seeds, table = suites._seed_table(rig, 1)
    assert suites._seed_table(rig, 1)[1] is table and not table.flags.writeable
    assert (seeds, table.tolist()) == (tuple(suites._seeds(rig.size, 1)[0]),
                                       suites._seeds(rig.size, 1)[1].tolist())
    assert suites._seed_table(copy.copy(rig), 1)[1] is not table


# -- the commutativity flag on strips ------------------------------------------------

def _edges(n, step):
    """The first and last row of every block of ``step`` rows."""
    return sorted({e for lo in range(0, n, step) for e in (lo, min(lo + step, n) - 1)})


@pytest.mark.parametrize("base, step", [("Z15", 3), ("Z15", 5), ("M2(Z1)", 3), ("Z6", 2)])
def test_commutative_matches_the_full_compare(base, step, monkeypatch):
    # blocks of `step` rows; every single-cell change at a block edge, made
    # once on its own and once with its mirror cell
    rig = Z15 if base == "Z15" else RIGS[base]
    n = rig.size
    monkeypatch.setattr(core, "_BLOCK_CELLS", step * n)
    assert len(list(core._blocks(n, n))) > 1
    edges = _edges(n, step)
    seen = set()
    for i, j in itertools.product(edges, range(n)):
        for mirror in (False, True):
            mul = rig.mul_table.copy()
            mul[i, j] = (mul[i, j] + 1) % n
            if mirror:
                mul[j, i] = mul[i, j]
            flag = core.derive(rig.neg_table, rig.add_table, mul).commutative
            assert flag is bool((mul == mul.T).all()), (i, j, mirror)
            seen.add(flag)
    assert core.derive(rig.neg_table, rig.add_table, rig.mul_table).commutative is \
        bool((rig.mul_table == rig.mul_table.T).all())
    assert seen == ({False} if base == "M2(Z1)" else {True, False})


# -- the congruence of an ideal and the partition oracle --------------------------

def _relabelled(rig, seed):
    """The structure with its nonzero elements renumbered at random: the
    classes of an ideal are then no longer listed in the order of their
    greatest elements."""
    rng = random.Random(seed)
    perm = np.array([0] + rng.sample(range(1, rig.size), rig.size - 1))
    back = np.argsort(perm)
    tables = [None if t is None else perm[t[np.ix_(back, back)]]
              for t in (rig.add_table, rig.mul_table)]
    return core.derive(perm[rig.neg_table[back]], *tables)


@pytest.mark.parametrize("rig", ALL + [pytest.param(_relabelled(RIGS[k], k), id=f"{k}-relabelled")
                                       for k in ("Z1^4", "G3xG2", "Z2xZ3", "M2(Z1)")])
def test_congruence_labels_match_the_unique_reference(rig):
    for ideal in ideals.enumerate_ideals(rig):
        assert ideals.congruence_from_ideal(rig, ideal).class_of == \
            scalar_oracles.congruence_labels(rig, ideal), ideal.display()


@pytest.mark.parametrize("name", ["T3", "T4", "Z3", "L4"])
def test_partition_oracle_refuses_a_partition_only_the_negation_breaks(name):
    # {0} and the rest: sums and products of the rest stay in the rest, but
    # 1 ~ u while neg 1 = u - 1 and neg u = 0 do not
    rig = RIGS[name]
    class_of = [0] + [1] * (rig.size - 1)
    rows = scalar_oracles.rows(rig)
    without_negation = rows._replace(neg=tuple(range(rig.size)))
    assert scalar_oracles.compatible(without_negation, class_of)
    assert not scalar_oracles.compatible(rows, class_of)
    assert not suites._congruence_rows(rig, np.array([class_of], dtype=np.int8))[0]
    classes = suites._partitions(rig.size)
    held = suites._congruence_rows(rig, classes)
    assert held.tolist() == [scalar_oracles.compatible(rows, row) for row in classes.tolist()]
