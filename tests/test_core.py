import copy
import itertools

import numpy as np
import pytest

from mvwrig import builders, core, ideals
from mvwrig.errors import GateNotMet, OrderNotAntisymmetric

from conftest import LADDER, ZOO, zoo_items

Z3_NEG = [3, 2, 1, 0]
Z3_ADD = [[min(3, x + y) for y in range(4)] for x in range(4)]
Z3_MUL = [[min(3, x * y) for y in range(4)] for x in range(4)]


@pytest.fixture
def z3():
    return core.derive(Z3_NEG, Z3_ADD, Z3_MUL, name="Z3")


def test_derive_z3_order_is_usual(z3):
    for x in range(4):
        for y in range(4):
            assert z3.leq(x, y) == (x <= y)


def test_derive_monus_by_hand(z3):
    # monus(2, 1) evaluated by direct table lookups: neg(add(neg(2), 1))
    assert Z3_NEG[Z3_ADD[Z3_NEG[2]][1]] == 1
    assert z3.monus(2, 1) == 1


def test_derive_times_mv(z3):
    assert z3.times_mv(2, 2) == Z3_NEG[Z3_ADD[Z3_NEG[2]][Z3_NEG[2]]] == 1


def test_derive_trivial():
    rig = core.derive([0], [[0]], [[0]])
    assert rig.u == 0
    assert rig.size == 1
    assert core.check_mv(rig).passed


def test_derive_rejects_non_antisymmetric_order():
    with pytest.raises(OrderNotAntisymmetric) as exc:
        core.derive([3, 3, 1, 0], Z3_ADD, Z3_MUL)
    x, y = exc.value.witness
    assert x != y


def test_derive_validates_tables():
    with pytest.raises(ValueError):
        core.derive([4, 2, 1, 0], Z3_ADD, Z3_MUL)
    with pytest.raises(ValueError):
        core.derive([3, 2, 1], Z3_ADD, Z3_MUL)


def test_derive_copies_its_tables():
    neg = np.array(Z3_NEG, dtype=np.int32)
    neg.setflags(write=False)
    rig = core.derive(neg, Z3_ADD, Z3_MUL)
    assert not np.shares_memory(rig.neg_table, neg)
    neg.setflags(write=True)
    neg[0] = 0
    assert rig.neg(0) == 3


def test_check_mv_passes_on_z3(z3):
    report = core.check_mv(z3)
    assert report.passed
    assert report.failed_axioms() == []


def test_check_mv_corrupted_neg_fails_mv5():
    # one corrupted entry (neg(1) = 1): the order stays antisymmetric, so
    # derivation succeeds and the axiom scan must pin the damage on MV5
    rig = core.derive([3, 1, 1, 0], Z3_ADD, Z3_MUL)
    report = core.check_mv(rig)
    assert not report.passed
    assert report.status("MV5") == "FAIL"
    assert (2,) in report.witnesses("MV5")


def test_mutate_and_check_every_neg_entry():
    # mutating any single negation entry is always caught, either at
    # derivation or by the axiom scan
    for pos in range(4):
        for val in range(4):
            if val == Z3_NEG[pos]:
                continue
            neg = list(Z3_NEG)
            neg[pos] = val
            try:
                rig = core.derive(neg, Z3_ADD, Z3_MUL)
            except OrderNotAntisymmetric:
                continue
            assert not core.check_mv(rig).passed


def test_check_mvw_passes_on_z3(z3):
    assert core.check_mvw(z3).passed


def test_check_mvw_needs_product():
    mv = builders.build_luk_mv(3)
    with pytest.raises(GateNotMet):
        core.check_mvw(mv)


def test_check_mvw_trivial_product_lift():
    t3 = builders.lift_trivial_product(builders.build_luk_mv(3))
    assert core.check_mvw(t3).passed


def test_check_mvw_catches_zero_absorption():
    mul = [row[:] for row in Z3_MUL]
    mul[0][1] = 1
    rig = core.derive(Z3_NEG, Z3_ADD, mul)
    report = core.check_mvw(rig)
    assert report.status("MVW-iii") == "FAIL"
    assert (0, 1) in report.witnesses("MVW-iii")


def test_structural_flags_z3(z3):
    assert z3.mv_only is False
    assert z3.commutative is True
    assert z3.unit == 1
    assert z3.product_below_meet is False
    assert z3.mul(2, 2) == 3 and z3.meet(2, 2) == 2  # the witness
    assert z3.u == 3


def test_structural_flags_trivial_lift():
    t3 = builders.lift_trivial_product(builders.build_luk_mv(3))
    assert t3.commutative is True
    assert t3.unit is None
    assert t3.product_below_meet is True


def test_structural_flags_one_element():
    rig = core.derive([0], [[0]], [[0]])
    assert rig.unit == 0
    assert rig.commutative and rig.product_below_meet
    mv = core.derive([0], [[0]])
    assert mv.mv_only and mv.commutative is mv.unit is mv.product_below_meet is None


def test_shallow_copy_shares_no_kept_object():
    # a copy whose sum table is swapped decomposes its own tables
    rig = builders.build_zn(3)
    dec = core.chain_decomposition(rig)
    twin = copy.copy(rig)
    assert rig._memo and not twin._memo
    add = rig.add_table.copy()
    add[1, 1] = 3
    twin.add_table = add
    assert core.chain_decomposition(twin) is None
    assert core.chain_decomposition(rig) is dec
    assert dec.phi.flags.writeable is False


def test_set_name_drops_the_kept_objects():
    # a quotient's name embeds its parent's, so renaming rebuilds it
    rig = builders.build_zn(3)
    zero = ideals.Ideal(rig, frozenset({0}))
    assert ideals.quotient(rig, zero).rig.name == "Z3/{0}"
    rig.set_name("W")
    assert ideals.quotient(rig, zero).rig.name == "W/{0}"


def test_set_name_keeps_the_reports():
    # the axiom reports and the other objects that read no name stay, the
    # same objects; a quotient, which embeds the name, is rebuilt
    rig = builders.build_zn(3)
    kept = (core.check_mv(rig), core.check_mvw(rig), core.chain_decomposition(rig))
    zero = ideals.Ideal(rig, frozenset({0}))
    quotient = ideals.quotient(rig, zero)
    rig.set_name("W")
    assert all(new is old for new, old in zip(
        (core.check_mv(rig), core.check_mvw(rig), core.chain_decomposition(rig)), kept))
    assert ideals.quotient(rig, zero) is not quotient


def test_a_kept_report_is_immutable():
    report = core.check_mv(builders.build_zn(3))
    with pytest.raises(TypeError):
        report.failures["MV1"] = (1, ((0, 0, 0),))
    with pytest.raises(AttributeError):
        report.axioms = ()


@pytest.mark.parametrize("build", [lambda: builders.build_zn(3),
                                   lambda: builders.direct_product([builders.build_zn(1)] * 2)],
                         ids=["Z3", "Z1xZ1"])
def test_a_copy_with_a_swapped_table_inherits_no_report(build):
    # a built and an inherited report alike stay with the structure; a copy
    # whose product breaks the zero law builds its own, failing one
    rig = build()
    passed = core.check_mvw(rig)
    assert passed.passed
    twin = copy.copy(rig)
    mul = rig.mul_table.copy()
    mul[1, 0] = 1
    twin.mul_table = mul
    report = core.check_mvw(twin)
    assert "MVW-iii" in report.failed_axioms()
    assert report.failures == core.scan_mvw(twin).failures
    assert core.check_mvw(rig) is passed


def test_power(z3):
    assert z3.power(2, 2) == 3
    assert z3.power(2, 1) == 2
    for n in range(1, 5):
        assert z3.power(0, n) == 0
    with pytest.raises(ValueError):
        z3.power(2, 0)


def test_power_trivial_product():
    t3 = builders.lift_trivial_product(builders.build_luk_mv(3))
    assert t3.power(1, 2) == 0


def test_accessors(z3):
    assert z3.join(1, 2) == 2
    assert z3.meet(1, 2) == 1
    for x in range(4):
        assert z3.meet(x, 0) == 0
        assert z3.join(x, 3) == 3
    with pytest.raises(IndexError):
        z3.join(1, 4)
    with pytest.raises(IndexError):
        z3.neg(-1)


def test_same_tables(z3):
    other = core.derive(Z3_NEG, Z3_ADD, Z3_MUL, name="other")
    assert z3.same_tables(other)
    assert not z3.same_tables(builders.build_zn(2))


def test_restrict_closed_subset(z3):
    sub, embedding = core.restrict(z3, {0, 3})
    assert embedding == (0, 3)
    assert sub.size == 2
    assert sub.u == 1
    with pytest.raises(ValueError):
        core.restrict(z3, {0, 1})  # 1 + 1 = 2 escapes
    with pytest.raises(ValueError):
        core.restrict(z3, {1, 3})  # missing zero


@pytest.mark.parametrize("rig", zoo_items())
def test_zoo_passes_axioms(rig):
    # the product Z1xZ1 inherited its reports; the scans read its tables
    assert core.check_mv(rig).passed and core.scan_mv(rig).passed
    if rig.mul_table is not None:
        assert core.check_mvw(rig).passed and core.scan_mvw(rig).passed


@pytest.mark.parametrize("rig", zoo_items())
def test_join_meet_agree_with_order(rig):
    # the derived join/meet tables are genuine least upper/greatest lower
    # bounds of the derived order
    leq = rig.leq_table
    for x in range(rig.size):
        for y in range(rig.size):
            j, m = rig.join(x, y), rig.meet(x, y)
            assert leq[x, j] and leq[y, j]
            assert leq[m, x] and leq[m, y]
            for z in range(rig.size):
                if leq[x, z] and leq[y, z]:
                    assert leq[j, z]
                if leq[z, x] and leq[z, y]:
                    assert leq[z, m]


# -- the scans against the 2-D fancy-indexing scans they replaced ------------------

def _ref_scan_per_element(n, row_failures):
    total = 0
    samples = []
    for x in range(n):
        bad = np.argwhere(row_failures(x))
        total += len(bad)
        for y, z in bad[:core.MAX_WITNESSES]:
            if len(samples) < core.MAX_WITNESSES:
                samples.append((x, int(y), int(z)))
    return total, tuple(samples)


def _ref_check_mv(rig):
    n = rig.size
    neg, add = rig.neg_table, rig.add_table
    idx = np.arange(n)
    join = rig.join_table
    return core.AxiomReport(core.MV_AXIOMS, {
        "closure": core._recorded([]),
        "MV1": _ref_scan_per_element(n, lambda x: add[x][add] != add[add[x]]),
        "MV2": core._recorded(np.argwhere(add != add.T)),
        "MV3": core._recorded([(int(x),) for x in np.flatnonzero(add[:, 0] != idx)]),
        "MV4": core._recorded([(int(x),) for x in np.flatnonzero(add[:, rig.u] != rig.u)]),
        "MV5": core._recorded([(int(x),) for x in np.flatnonzero(neg[neg] != idx)]),
        "MV6": core._recorded(np.argwhere(join != join.T)),
    })


def _ref_check_mvw(rig):
    n = rig.size
    mul, add, monus, leqb = rig.mul_table, rig.add_table, rig.monus_table, rig.leq_table
    zero_bad = [(int(a), 0) for a in np.flatnonzero(mul[:, 0] != 0)]
    zero_bad += [(0, int(a)) for a in np.flatnonzero(mul[0, :] != 0)]

    def subdist(x):
        out = np.zeros((n, n), dtype=bool)
        for vec in (mul[x], mul[:, x]):
            out |= ~leqb[vec[add], add[np.ix_(vec, vec)]]
        return out

    def superdist(x):
        out = np.zeros((n, n), dtype=bool)
        for vec in (mul[x], mul[:, x]):
            out |= ~leqb[monus[np.ix_(vec, vec)], vec[monus]]
        return out

    return core.AxiomReport(core.MVW_AXIOMS, {
        "MVW-ii": _ref_scan_per_element(n, lambda x: mul[x][mul] != mul[mul[x]]),
        "MVW-iii": core._recorded(zero_bad),
        "MVW-iv": _ref_scan_per_element(n, subdist),
        "MVW-v": _ref_scan_per_element(n, superdist),
    })


def _assert_same(report, ref):
    assert (report.axioms, report.failures) == (ref.axioms, ref.failures)


def assert_scans_match_reference(rig):
    """The certified checks and the exhaustive scans both give the
    reference reports, counts and first witnesses alike, and so do the
    reports the structure keeps or inherited.  The checks run on a copy,
    which keeps no report, so they read its tables."""
    fresh = copy.copy(rig)
    ref = _ref_check_mv(rig)
    _assert_same(core.check_mv(fresh), ref)
    _assert_same(core.scan_mv(rig), ref)
    if rig.mul_table is not None:
        ref_mvw = _ref_check_mvw(rig)
        _assert_same(core.check_mvw(fresh), ref_mvw)
        _assert_same(core.scan_mvw(rig), ref_mvw)
        ref = ref.merged_with(ref_mvw)
    _assert_same(core.check_all(fresh), ref)
    _assert_same(core.check_all(rig), ref)


def _chain(n, mul):
    idx = np.arange(n + 1)
    return core.derive(n - idx, np.minimum(n, idx[:, None] + idx[None, :]), mul(idx, n),
                       name=f"chain{n}")


@pytest.mark.parametrize("rig", zoo_items())
def test_scans_match_reference_on_zoo(rig):
    assert_scans_match_reference(rig)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_scans_match_reference_on_ladder(name):
    assert_scans_match_reference(LADDER[name]())


@pytest.mark.parametrize("n", range(41))
def test_scans_match_reference_on_bad_chains(n):
    assert_scans_match_reference(_chain(n, lambda i, n: np.minimum(n, i[:, None] + i[None, :])))
    assert_scans_match_reference(_chain(n, lambda i, n: np.maximum(i[:, None], i[None, :])))


@pytest.mark.parametrize("name", ["Z3", "L4", "Z1xZ1"])
def test_scans_match_reference_on_random_products(name):
    base = ZOO[name]
    n = base.size
    rng = np.random.default_rng(20261018)
    good = base.mul_table if base.mul_table is not None else np.zeros((n, n), dtype=int)
    for trial in range(40):
        mul = rng.integers(0, n, size=(n, n))
        if trial % 4 == 1:
            mul = np.minimum(mul, mul.T)            # commutative
        elif trial % 4 == 2:
            mul = good.copy()                       # one wrong entry: the left
            mul[rng.integers(n), rng.integers(n)] = rng.integers(n)  # and right laws part
        elif trial % 4 == 3:
            mul = np.where(rng.random((n, n)) < 0.8, good, mul)
        rig = core.derive(base.neg_table, base.add_table, mul, name=f"{name}/{trial}")
        assert_scans_match_reference(rig)
        assert rig.commutative == bool((mul == mul.T).all())


def test_scans_match_reference_on_broken_sums():
    # MV failures: a sum that is max on a chain, and one-entry corruptions
    rng = np.random.default_rng(5)
    idx = np.arange(6)
    rigs = [core.derive(5 - idx, np.maximum(idx[:, None], idx[None, :]),
                        np.minimum(idx[:, None], idx[None, :]))]
    for name in ("Z3", "L4", "Z1xZ1", "G3"):
        base = ZOO[name]
        n = base.size
        for _ in range(30):
            add = base.add_table.copy()
            add[rng.integers(n), rng.integers(n)] = rng.integers(n)
            try:
                rigs.append(core.derive(base.neg_table, add, base.mul_table))
            except OrderNotAntisymmetric:
                continue
    assert len(rigs) > 30
    for rig in rigs:
        assert_scans_match_reference(rig)


# -- the structure-theorem certificates --------------------------------------------

def _genuine_bases():
    """MVW-rigs of at most 12 elements: chains Z_m with the truncated
    product, products of them, and chains with the zero product."""
    zn = [builders.build_zn(m) for m in range(1, 12)]
    prods = [builders.direct_product([zn[i - 1] for i in shape])
             for shape in ((1, 1), (1, 2), (2, 2), (1, 3), (1, 4), (1, 5), (2, 3),
                           (1, 1, 1), (1, 1, 2))]
    lifted = [builders.lift_trivial_product(builders.build_luk_mv(k)) for k in (3, 6, 12)]
    return zn + prods + lifted


def _seeded_structures(count_per_base=30, seed=20261018):
    """Perturbed genuine products, random 0-absorbing tables, corrupted sums
    and non-commutative products over the genuine bases, all derivable."""
    rng = np.random.default_rng(seed)
    out = []
    for base in _genuine_bases():
        n = base.size
        good = base.mul_table
        for trial in range(count_per_base):
            add, mul = base.add_table, good.copy()
            kind = trial % 5
            if kind == 0:                       # perturbed genuine product
                for _ in range(rng.integers(1, 3)):
                    mul[rng.integers(n), rng.integers(n)] = rng.integers(n)
            elif kind == 1:                     # commutative perturbation
                x, y = rng.integers(n, size=2)
                mul[x, y] = mul[y, x] = rng.integers(n)
            elif kind == 2:                     # random 0-absorbing, rows sorted
                mul = rng.integers(0, n, size=(n, n))
                if trial % 2:
                    mul = np.sort(mul, axis=1)
                mul[0, :] = mul[:, 0] = 0
            elif kind == 3:                     # corrupted sum
                add = add.copy()
                add[rng.integers(n), rng.integers(n)] = rng.integers(n)
            else:                               # non-commutative
                x, y = rng.choice(n, size=2, replace=False) if n > 1 else (0, 0)
                mul[x, y] = rng.integers(n)
            try:
                out.append(core.derive(base.neg_table, add, mul,
                                       name=f"{base.name}/{trial}"))
            except OrderNotAntisymmetric:
                continue
    return out


SEEDED = _seeded_structures()


def test_seeded_corpus_is_large_and_mixed():
    assert len(SEEDED) >= 500
    assert max(r.size for r in SEEDED) <= 12
    reports = [core.check_all(r) for r in SEEDED]
    assert sum(r.passed for r in reports) >= 50
    assert sum(not r.passed for r in reports) >= 300
    assert sum(r.commutative is False for r in SEEDED) >= 100
    assert sum(core.chain_decomposition(r) is None for r in SEEDED) >= 50


@pytest.mark.parametrize("part", range(10))
def test_checks_match_reference_on_seeded_structures(part):
    for rig in SEEDED[part::10]:
        assert_scans_match_reference(rig)


def _add_max(n):
    # max is a lawful sum only on the two-element chain
    idx = np.arange(n + 1)
    return core.derive(n - idx, np.maximum(idx[:, None], idx[None, :]),
                       np.minimum(idx[:, None], idx[None, :]))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_decomposition_refuses_max_as_sum(n):
    assert core.chain_decomposition(_add_max(n)) is None
    assert not core.scan_mv(_add_max(n)).passed


@pytest.mark.parametrize("rig", zoo_items() + [
    pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)])
def test_decomposition_accepts_every_zoo_member(rig):
    dec = core.chain_decomposition(rig)
    assert dec is not None
    assert len(dec.atoms) == len(dec.lengths)
    assert int(np.prod([m + 1 for m in dec.lengths])) == rig.size
    assert sorted(dec.phi.tolist()) == list(range(rig.size))
    for e in dec.atoms:
        assert int(rig.leq_table[:, e].sum()) == 2


@pytest.mark.parametrize("base", ["L3", "L4", "Z1xZ1", "G110"])
def test_decomposition_needs_the_zero_at_element_0(base):
    # every relabeling of a genuine MV-algebra that moves its zero off
    # element 0 fails MV3; the decomposition refuses each one that derives
    base = ZOO[base]
    n = base.size
    tried = 0
    for perm in itertools.permutations(range(n)):
        if perm[0] == 0:
            continue
        p = np.array(perm)
        neg = np.empty(n, dtype=int)
        add = np.empty((n, n), dtype=int)
        neg[p] = p[base.neg_table]
        add[np.ix_(p, p)] = p[base.add_table]
        try:
            rig = core.derive(neg, add)
        except OrderNotAntisymmetric:
            continue
        tried += 1
        assert core.chain_decomposition(rig) is None
        assert core.scan_mv(rig).status("MV3") == "FAIL"
    assert tried > 0


def test_decomposition_of_known_shapes():
    assert core.chain_decomposition(builders.build_zn(6)).lengths == (6,)
    assert core.chain_decomposition(ZOO["G3"]).lengths == (1, 1, 1)
    z2xz3 = core.chain_decomposition(LADDER["Z2xZ3"]())
    assert sorted(z2xz3.lengths) == [2, 3]
    assert core.chain_decomposition(ZOO["trivial"]).lengths == ()


def _scanned_rows(monkeypatch):
    """Wrap the distributive-law row scan; returns the list of scanned rows
    of each call."""
    calls = []
    original = core._scan_distributive

    def wrapped(rig, rows):
        calls.append(list(rows))
        return original(rig, rows)
    monkeypatch.setattr(core, "_scan_distributive", wrapped)
    return calls


@pytest.mark.parametrize("rig", zoo_items(lambda r: r.mul_table is not None) + [
    pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)])
def test_every_mvw_rig_clears_every_row(rig, monkeypatch):
    # a copy keeps no report, so its own is built
    calls = _scanned_rows(monkeypatch)
    assert core.check_mvw(copy.copy(rig)).passed
    assert calls == [[]]


def test_partly_certified_rows_match_reference(monkeypatch):
    # Z6 with one row changed: a*_ for a = 3 is no longer monotone, and
    # the column _*4 sees the change too; every other row stays cleared
    z6 = builders.build_zn(6)
    mul = z6.mul_table.copy()
    mul[3, 4] = 5
    rig = core.derive(z6.neg_table, z6.add_table, mul)
    calls = _scanned_rows(monkeypatch)
    report = core.check_mvw(rig)
    assert calls == [[3, 4]]
    assert not report.passed
    _assert_same(report, _ref_check_mvw(rig))
    assert report.failures["MVW-v"][0] > 0


def test_column_maps_are_certified_too(monkeypatch):
    # structures whose rows a*_ all clear but some column _*a does not:
    # only the column pass sends those a to the scan
    cases = []
    for rig in SEEDED:
        dec = core.chain_decomposition(rig)
        if dec is None or rig.commutative:
            continue
        cols = core._certified_rows(rig, dec, rig.mul_table.T)
        if core._certified_rows(rig, dec, rig.mul_table).all() and not cols.all():
            cases.append((rig, np.flatnonzero(~cols).tolist()))
    assert len(cases) >= 5
    calls = _scanned_rows(monkeypatch)
    for rig, uncleared in cases:
        _assert_same(core.check_mvw(copy.copy(rig)), _ref_check_mvw(rig))
        assert calls.pop() == uncleared


# -- the generating-set certificate ----------------------------------------------

def _ref_closure(mul, gens):
    """The closure of ``gens`` under the product, pair by pair."""
    rows = mul.tolist()
    members = set(gens)
    while True:
        grown = members | {rows[x][y] for x in members for y in members}
        if grown == members:
            return members
        members = grown


def _ref_irreducibles(mul):
    rows = mul.tolist()
    n = len(rows)
    reducible = {rows[x][y] for x in range(n) for y in range(n)
                 if rows[x][y] not in (x, y)}
    return set(range(n)) - reducible


def _ref_good(mul, g):
    """Whether (x*g)*y = x*(g*y) for all x, y, cell by cell."""
    rows = mul.tolist()
    n = len(rows)
    return all(rows[rows[x][g]][y] == rows[x][rows[g][y]] for x in range(n) for y in range(n))


def _random_tables(count=200, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=(n, n)).astype(np.int32)
            for n in rng.integers(1, 13, size=count)]


@pytest.mark.parametrize("tables", [pytest.param([r.mul_table], id=k) for k, r in ZOO.items()
                                    if r.mul_table is not None]
                         + [pytest.param([LADDER[k]().mul_table], id=k) for k in sorted(LADDER)]
                         + [pytest.param([r.mul_table for r in SEEDED], id="seeded"),
                            pytest.param(_random_tables(), id="random")])
def test_generators_generate_and_hold_every_irreducible(tables):
    for table in tables:
        gens = core._generators(table)
        assert len(set(gens)) == len(gens)
        assert _ref_irreducibles(table) <= set(gens)
        assert _ref_closure(table, gens) == set(range(len(table)))


def test_generators_complete_what_the_irreducibles_miss():
    # M2(Z1) and M2(Z2) have one irreducible element each; the rest of
    # their generators, 5 and 10, are added one at a time, each the least
    # element still missing
    for mul, shortfall in ((ZOO["M2(Z1)"].mul_table, 5),
                           (builders.build_matrix_rig(builders.build_zn(2), 2).mul_table, 10)):
        gens = core._generators(mul)
        irreducible = sorted(_ref_irreducibles(mul))
        assert gens[:len(irreducible)] == irreducible
        for k in range(len(irreducible), len(gens)):
            missing = set(range(len(mul))) - _ref_closure(mul, gens[:k])
            assert gens[k] == min(missing)
        assert len(gens) == len(irreducible) + shortfall


def _mvw_reports(monkeypatch):
    """Wrap the report builder; returns the (distributive rows,
    associativity rows) of each call."""
    calls = []
    original = core._mvw_report

    def wrapped(rig, distributive_rows, associativity_rows):
        calls.append((list(distributive_rows), list(associativity_rows)))
        return original(rig, distributive_rows, associativity_rows)
    monkeypatch.setattr(core, "_mvw_report", wrapped)
    return calls


CERTIFIED_BASES = {
    "Z1^3": lambda: builders.direct_product([builders.build_zn(1)] * 3),
    "Z15": lambda: builders.build_zn(15),
    "G3xG2": LADDER["G3xG2"],
    "M2(Z1)": lambda: ZOO["M2(Z1)"],
}


@pytest.mark.parametrize("rig", zoo_items(lambda r: r.mul_table is not None) + [
    pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)] + [
    pytest.param(CERTIFIED_BASES[k](), id=k) for k in sorted(CERTIFIED_BASES)])
def test_every_mvw_rig_is_certified_on_its_generators(rig, monkeypatch):
    # nothing is scanned unless the product is no lattice operation and the
    # generators are the whole carrier
    gens = core._generators(rig.mul_table)
    calls = _mvw_reports(monkeypatch)
    assert core.check_mvw(copy.copy(rig)).passed
    if _is_lattice_product(rig):
        assert calls == [([], [])]
    elif len(gens) < rig.size:
        assert core._light_test(rig.mul_table, gens)
        assert calls == [([], [])]
    else:
        assert calls == [([], list(range(rig.size)))]


def _is_lattice_product(rig):
    return any(np.array_equal(rig.mul_table, t) for t in (rig.meet_table, rig.join_table))


@pytest.mark.parametrize("m", [1, 4, 15])
def test_left_projection_takes_the_all_generators_fallback(m, monkeypatch):
    # x*y = x is neither the meet nor the join, and no element is a product
    # of two others, so the generators are the whole carrier: every row goes
    # to the row theorem and clears, associativity is scanned on every row,
    # and only the zero law fails
    base = builders.build_zn(m)
    n = base.size
    rig = core.derive(base.neg_table, base.add_table, np.repeat(np.arange(n), n).reshape(n, n))
    assert not _is_lattice_product(rig)
    assert core._generators(rig.mul_table) == list(range(n))
    calls = _mvw_reports(monkeypatch)
    report = core.check_mvw(rig)
    assert calls == [([], list(range(n)))]
    assert report.failed_axioms() == ["MVW-iii"]
    assert report.failures == core.scan_mvw(rig).failures


def _one_cell_corruptions(base, count, rng):
    n = base.size
    out = []
    for _ in range(count):
        mul = base.mul_table.copy()
        x, y = rng.integers(n, size=2)
        mul[x, y] = (mul[x, y] + rng.integers(1, n)) % n
        out.append(core.derive(base.neg_table, base.add_table, mul,
                               name=f"{base.name}[{x},{y}]"))
    return out


@pytest.mark.parametrize("name", sorted(CERTIFIED_BASES))
def test_one_cell_corruptions_fail_light_and_match_reference(name):
    base = CERTIFIED_BASES[name]()
    rigs = _one_cell_corruptions(base, 40, np.random.default_rng(sorted(CERTIFIED_BASES).index(name)))
    broken = 0
    for rig in rigs:
        mul = rig.mul_table
        ref = _ref_check_mvw(rig)
        _assert_same(core.check_mvw(rig), ref)
        gens = core._generators(mul)
        assert len(gens) < rig.size
        good = [_ref_good(mul, g) for g in gens]
        assert [core._light_test(mul, [g]) for g in gens] == good
        if ref.failures["MVW-ii"][0]:
            broken += 1
            assert not all(good)
            assert not core._light_test(mul, gens)
    assert broken >= 35


def test_generator_rows_count_only_after_light(monkeypatch):
    # corruptions whose generator rows and columns all clear the row
    # theorem while a distributive law fails elsewhere: associativity fails,
    # so the generator rows prove nothing and every row is certified
    rng = np.random.default_rng(20261018)
    cases = []
    for name in sorted(CERTIFIED_BASES):
        for rig in _one_cell_corruptions(CERTIFIED_BASES[name](), 40, rng):
            mul = rig.mul_table
            gens = core._generators(mul)
            dec = core.chain_decomposition(rig)
            ref = _ref_check_mvw(rig)
            if core._certified_rows(rig, dec, mul[gens]).all() \
                    and core._certified_rows(rig, dec, mul.T[gens]).all() \
                    and ref.failures["MVW-iv"][0] + ref.failures["MVW-v"][0]:
                cases.append((rig, ref))
    assert len(cases) >= 20
    calls = _mvw_reports(monkeypatch)
    for rig, ref in cases:
        _assert_same(core.check_mvw(rig), ref)
        assert calls.pop()[1] == list(range(rig.size))


def _idempotent_maps(n, count, rng):
    """Maps f with f(f(x)) = f(x): each element goes to a fixed point."""
    out = []
    for _ in range(count):
        fixed = np.flatnonzero(rng.random(n) < 0.5)
        fixed = fixed if fixed.size else np.array([0])
        f = rng.choice(fixed, size=n)
        f[fixed] = fixed
        out.append(f)
    return out


def test_one_sided_associative_products_match_reference(monkeypatch):
    # x*y = f(x) and x*y = f(y) are associative for idempotent f; the first
    # has constant rows and the columns f, the second the reverse, so only
    # the column pass sees the first one's distributive failures.  Light's
    # test proves associativity there, so no row is scanned for it
    rng = np.random.default_rng(3)
    column_only = 0
    calls = _mvw_reports(monkeypatch)
    for base in _genuine_bases():
        n = base.size
        for f in _idempotent_maps(n, 6, rng):
            for mul in (np.repeat(f[:, None], n, axis=1), np.repeat(f[None, :], n, axis=0)):
                rig = core.derive(base.neg_table, base.add_table, mul)
                ref = _ref_check_mvw(rig)
                assert ref.failures["MVW-ii"][0] == 0
                _assert_same(core.check_mvw(rig), ref)
                gens = core._generators(mul)
                dec = core.chain_decomposition(rig)
                if len(gens) < n and not rig.commutative \
                        and core._certified_rows(rig, dec, mul[gens]).all() \
                        and ref.failures["MVW-iv"][0] + ref.failures["MVW-v"][0]:
                    column_only += 1
                    assert calls[-1][1] == []
    assert column_only >= 10


# -- restrict against the element-by-element route ------------------------------

def _ref_restrict(rig, subset):
    """The induced structure's tables by looking up each parent value, one
    pair at a time; a KeyError names the first value that escapes."""
    members = sorted(set(subset))
    if not members or members[0] != 0:
        raise ValueError("subset must contain the zero element")
    back = {p: i for i, p in enumerate(members)}
    try:
        neg = [back[rig.neg(p)] for p in members]
        add = [[back[rig.add(p, q)] for q in members] for p in members]
        mul = None
        if rig.mul_table is not None:
            mul = [[back[rig.mul(p, q)] for q in members] for p in members]
    except KeyError as exc:
        raise ValueError(f"subset not closed: element {exc.args[0]} escapes") from exc
    names = tuple(rig.element_name(p) for p in members)
    return core.derive(neg, add, mul, names=names, name=f"{rig.name}|sub"), tuple(members)


def _outcome(restrict, rig, subset):
    try:
        sub, embedding = restrict(rig, subset)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    return sub.carrier, sub.name, embedding, sub.neg_table.tolist(), \
        sub.add_table.tolist(), None if sub.mul_table is None else sub.mul_table.tolist()


_G3 = builders.gamma_zk(3, (1, 1, 1))
RESTRICT_RIGS = [pytest.param(r, id=k) for k, r in ZOO.items()] + \
    [pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)] + \
    [pytest.param(builders.direct_product([_G3, _G3]), id="G3xG3")]


@pytest.mark.parametrize("rig", RESTRICT_RIGS)
def test_restrict_matches_reference(rig):
    rng = np.random.default_rng(rig.size)
    n = rig.size
    subsets = [set(range(n)), {0}, {0, rig.u}, {1}, set(), {0, n}, {0, rig.u, n + 3},
               {0, -1}]
    for _ in range(10):
        seed = rng.choice(n, size=min(n, 2), replace=False).tolist()
        subsets.append(set(builders.subalgebra_closure(rig, seed)[1]))
        subsets.append({0} | set(rng.choice(n, size=rng.integers(1, n + 1)).tolist()))
    for subset in subsets:
        assert _outcome(core.restrict, rig, subset) == _outcome(_ref_restrict, rig, subset), \
            sorted(subset)


# -- kept families of sets --------------------------------------------------------

def reference_canonical(table):
    """The distinct sets a boolean table's rows hold, sorted by size and
    then by sorted members, and the position of each row's set among them."""
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in table]
    distinct = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    return distinct, [distinct.index(s) for s in sets]


def _seeded_tables():
    """Seeded random boolean tables with repeated rows and many sets of one
    size, widths on and off a multiple of 8, and the empty shapes."""
    rng = np.random.default_rng(19)
    tables = {"no rows": np.zeros((0, 5), dtype=bool),
              "width 0": np.zeros((4, 0), dtype=bool),
              "no rows, width 0": np.zeros((0, 0), dtype=bool)}
    for k, n, density in [(1, 3, 0.5), (12, 4, 0.5), (40, 5, 0.4), (60, 9, 0.5),
                          (80, 16, 0.2), (50, 20, 0.8)]:
        rows = rng.random((k, n)) < density
        tables[f"{k}x{n}"] = np.vstack([rows, rows[rng.integers(0, k, size=k // 2 + 1)]])
    return tables


SEEDED_TABLES = _seeded_tables()


def test_seeded_tables_repeat_rows_and_sizes():
    # without repeats and ties of size the mutations below would pass
    for name in ("12x4", "40x5", "60x9"):
        table = SEEDED_TABLES[name]
        distinct, _ = reference_canonical(table)
        assert len(distinct) < len(table)
        assert len({len(s) for s in distinct}) < len(distinct)


@pytest.mark.parametrize("name", SEEDED_TABLES)
def test_canonical_rows_match_the_frozenset_sort(name):
    table = SEEDED_TABLES[name]
    rows, position = core._canonical_rows(table)
    distinct, expected = reference_canonical(table)
    assert rows.shape == (len(distinct), table.shape[1])
    assert [core._members(row) for row in rows] == distinct
    assert position.tolist() == expected
    assert (rows[position] == table).all()
    assert not rows.flags.writeable


@pytest.mark.parametrize("name", SEEDED_TABLES)
def test_canonical_order_sorts_distinct_rows(name):
    distinct, _ = reference_canonical(SEEDED_TABLES[name])
    rows = core._member_rows(SEEDED_TABLES[name].shape[1], [sorted(s) for s in distinct])
    shuffled = np.random.default_rng(len(rows)).permutation(len(rows))
    order = core._canonical_order(rows[shuffled])
    assert shuffled[order].tolist() == list(range(len(rows)))


def test_canonical_rows_by_hand():
    sets = [{1}, {0, 2}, {0}, {0, 1}, set(), {0}, {2}]
    rows, position = core._canonical_rows(core._member_rows(3, sets))
    assert [sorted(core._members(row)) for row in rows] == [[], [0], [1], [2], [0, 1], [0, 2]]
    assert position.tolist() == [2, 5, 1, 4, 0, 1, 3]


def test_member_rows_round_trip():
    sets = [(), (0, 3), (2,), (0, 1, 2, 3)]
    table = core._member_rows(4, sets)
    assert table.dtype == bool and table.shape == (4, 4)
    assert [core._members(row) for row in table] == [frozenset(s) for s in sets]
    assert core._member_rows(0, []).shape == (0, 0)


def test_read_only_skips_none_and_returns_the_first():
    a, b = np.zeros(3), np.ones(2)
    assert core._read_only(a, None, b) is a
    assert not a.flags.writeable and not b.flags.writeable
