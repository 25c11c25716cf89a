import numpy as np
import pytest

from mvwrig import builders, core
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
    flags = core.structural_flags(z3)
    assert flags["commutative"] is True
    assert flags["unit"] == 1
    assert flags["product_below_meet"] is False
    assert z3.mul(2, 2) == 3 and z3.meet(2, 2) == 2  # the witness
    assert flags["u"] == 3


def test_structural_flags_trivial_lift():
    t3 = builders.lift_trivial_product(builders.build_luk_mv(3))
    flags = core.structural_flags(t3)
    assert flags["commutative"] is True
    assert flags["unit"] is None
    assert flags["product_below_meet"] is True


def test_structural_flags_one_element():
    rig = core.derive([0], [[0]], [[0]])
    flags = core.structural_flags(rig)
    assert flags["unit"] == 0
    assert flags["commutative"] and flags["product_below_meet"]


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
    assert core.check_mv(rig).passed
    if rig.mul_table is not None:
        assert core.check_mvw(rig).passed


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
    return total, samples


def _ref_check_mv(rig):
    n = rig.size
    neg, add = rig.neg_table, rig.add_table
    idx = np.arange(n)
    report = core.AxiomReport(axioms=core.MV_AXIOMS)
    report.record("closure", [])
    report.failures["MV1"] = _ref_scan_per_element(n, lambda x: add[x][add] != add[add[x]])
    report.record("MV2", np.argwhere(add != add.T))
    report.record("MV3", [(int(x),) for x in np.flatnonzero(add[:, 0] != idx)])
    report.record("MV4", [(int(x),) for x in np.flatnonzero(add[:, rig.u] != rig.u)])
    report.record("MV5", [(int(x),) for x in np.flatnonzero(neg[neg] != idx)])
    join = rig.join_table
    report.record("MV6", np.argwhere(join != join.T))
    return report


def _ref_check_mvw(rig):
    n = rig.size
    mul, add, monus, leqb = rig.mul_table, rig.add_table, rig.monus_table, rig.leq_table
    report = core.AxiomReport(axioms=core.MVW_AXIOMS)
    report.failures["MVW-ii"] = _ref_scan_per_element(n, lambda x: mul[x][mul] != mul[mul[x]])
    zero_bad = [(int(a), 0) for a in np.flatnonzero(mul[:, 0] != 0)]
    zero_bad += [(0, int(a)) for a in np.flatnonzero(mul[0, :] != 0)]
    report.record("MVW-iii", zero_bad)

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

    report.failures["MVW-iv"] = _ref_scan_per_element(n, subdist)
    report.failures["MVW-v"] = _ref_scan_per_element(n, superdist)
    return report


def assert_scans_match_reference(rig):
    report = core.check_mv(rig)
    ref = _ref_check_mv(rig)
    assert (report.axioms, report.failures) == (ref.axioms, ref.failures)
    if rig.mul_table is not None:
        report = core.check_mvw(rig)
        ref = _ref_check_mvw(rig)
        assert (report.axioms, report.failures) == (ref.axioms, ref.failures)


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
