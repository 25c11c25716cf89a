import copy
from fractions import Fraction

import pytest

from mvwrig import builders, core, ideals
from mvwrig.errors import ClosureViolation, InvalidUnit, SizeBound


def test_zn_formulas_match():
    z3 = builders.build_zn(3)
    assert z3.add(2, 2) == 3
    assert z3.neg(1) == 2
    assert z3.mul(2, 2) == 3
    assert z3.u == 3


def test_zn_unit_element():
    assert builders.build_zn(1).unit == builders.build_zn(1).u == 1
    z3 = builders.build_zn(3)
    assert z3.unit == 1 and z3.unit != z3.u


def test_zn_product_dominates_factors():
    # for a, b >= 1 the product is greater than or equal to both
    for n in range(1, 7):
        zn = builders.build_zn(n)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                assert zn.leq(zn.join(a, b), zn.mul(a, b))


def test_zn_rejects_zero():
    with pytest.raises(ValueError):
        builders.build_zn(0)


def test_luk_carrier_is_exact():
    l4 = builders.build_luk_mv(4)
    assert l4.carrier.names == ("0", "1/3", "2/3", "1")
    assert l4.mv_only
    assert core.check_mv(l4).passed


def test_luk_real_product_closure_witness():
    with pytest.raises(ClosureViolation) as exc:
        builders.attach_real_product(3)
    assert exc.value.inputs == (Fraction(1, 2), Fraction(1, 2))
    assert exc.value.value == Fraction(1, 4)

    with pytest.raises(ClosureViolation) as exc:
        builders.attach_real_product(4)
    assert exc.value.inputs == (Fraction(1, 3), Fraction(1, 3))
    assert exc.value.value == Fraction(1, 9)


def test_luk2_real_product_closes_to_boolean():
    l2 = builders.attach_real_product(2)
    assert l2.same_tables(builders.build_zn(1))


def test_zn_isomorphic_to_luk_chain():
    # index-for-index, x -> x/n is a bijective homomorphism of the
    # underlying MV-algebras
    for n in range(1, 6):
        zn = builders.build_zn(n)
        luk = builders.build_luk_mv(n + 1)
        f = ideals.Homomorphism(zn, luk, tuple(range(zn.size)))
        ok, witness = ideals.check_homomorphism(f)
        assert ok, witness
        assert sorted(f.mapping) == list(range(luk.size))


def test_trivial_product_lift():
    t3 = builders.lift_trivial_product(builders.build_luk_mv(3))
    assert all(t3.mul(x, y) == 0 for x in range(3) for y in range(3))
    assert core.check_mvw(t3).passed
    assert t3.power(1, 2) == 0
    t4 = builders.lift_trivial_product(builders.build_luk_mv(4))
    assert core.check_mvw(t4).passed


def test_matrix_rig_over_boolean():
    rig = builders.build_matrix_rig(builders.build_zn(1), 2)
    assert rig.size == 16
    assert core.check_mvw(rig).passed
    assert core.check_mv(rig).passed
    # the top element is the all-ones matrix
    assert rig.element_name(rig.u) == "[[1,1],[1,1]]"
    assert not rig.commutative


def test_matrix_rig_over_trivial_base():
    rig = builders.build_matrix_rig(builders.build_trivial(), 3)
    assert rig.size == 1
    assert core.check_mvw(rig).passed


def test_matrix_rig_size_bound():
    with pytest.raises(SizeBound):
        builders.build_matrix_rig(builders.build_zn(15), 2)


def test_direct_product_boolean_square():
    z1 = builders.build_zn(1)
    p = builders.direct_product([z1, z1])
    assert p.size == 4
    assert p.element_name(p.u) == "(1,1)"
    # (0,1).(1,0) = (0,0)
    assert p.mul(1, 2) == 0
    assert core.check_mvw(p).passed and core.scan_mvw(copy.copy(p)).passed


def test_direct_product_absorbs_trivial_factor():
    z3 = builders.build_zn(3)
    p = builders.direct_product([z3, builders.build_trivial()])
    assert p.same_tables(z3)


def _pairwise_product(rigs):
    """The product derived factor by factor, each intermediate structure
    built in full: the fold ``direct_product`` replaces."""
    acc = rigs[0]
    for r in rigs[1:]:
        sa, sb = acc.size, r.size

        def combine(ta, tb):
            return (ta[:, None, :, None] * sb + tb[None, :, None, :]).reshape(sa * sb, sa * sb)

        mul = None
        if acc.mul_table is not None and r.mul_table is not None:
            mul = combine(acc.mul_table, r.mul_table)
        acc = core.derive((acc.neg_table[:, None] * sb + r.neg_table[None, :]).reshape(sa * sb),
                          combine(acc.add_table, r.add_table), mul,
                          names=tuple(f"({acc.element_name(i)},{r.element_name(j)})"
                                      for i in range(sa) for j in range(sb)),
                          name=f"{acc.name}x{r.name}")
    return acc


@pytest.mark.parametrize("factors", [
    lambda: [builders.build_zn(1)] * 5,
    lambda: [builders.build_zn(2), builders.build_luk_mv(3), builders.build_zn(1)],
    lambda: [builders.build_luk_mv(3), builders.build_luk_mv(2)],
    lambda: [builders.build_zn(3), builders.build_trivial(), builders.gamma_zk(2, (1, 1))],
    lambda: [builders.build_matrix_rig(builders.build_zn(1), 2), builders.build_zn(1)],
])
def test_direct_product_derives_once(factors, monkeypatch):
    factors = factors()
    expect = _pairwise_product(factors)
    calls = []
    original = builders.derive

    def counted(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return original(*args, **kwargs)

    monkeypatch.setattr(builders, "derive", counted)
    p = builders.direct_product(factors)
    assert calls == [expect.name]
    assert p.name == expect.name and p.carrier.names == expect.carrier.names
    assert p.same_tables(expect)


def test_direct_product_of_one_factor_derives_nothing(monkeypatch):
    z3 = builders.build_zn(3)
    monkeypatch.setattr(builders, "derive", None)
    assert builders.direct_product([z3]) is z3


def test_direct_product_needs_factor():
    with pytest.raises(ValueError):
        builders.direct_product([])


def test_direct_product_size_bound():
    with pytest.raises(SizeBound):
        builders.direct_product([builders.build_zn(99), builders.build_zn(99)])


def test_gamma_matches_boolean_square():
    g = builders.gamma_zk(2, (1, 1))
    p = builders.direct_product([builders.build_zn(1), builders.build_zn(1)])
    assert g.same_tables(p)


def test_gamma_trivial():
    g = builders.gamma_zk(1, (0,))
    assert g.size == 1


def test_gamma_frozen_coordinate():
    g = builders.gamma_zk(3, (1, 1, 0))
    assert g.size == 4
    assert all(name.endswith(",0)") for name in g.carrier.names)


def test_gamma_invalid_unit():
    with pytest.raises(InvalidUnit):
        builders.gamma_zk(2, (1, 2))


def test_gamma_sum_against_integer_arithmetic():
    # the sum table must match (x + y) truncated at u, recomputed from
    # plain integer vectors
    import itertools
    for k, u in ((1, (1,)), (2, (1, 1)), (3, (1, 1, 0))):
        g = builders.gamma_zk(k, u)
        elems = list(itertools.product(*[range(c + 1) for c in u]))
        index = {e: i for i, e in enumerate(elems)}
        for e in elems:
            for f in elems:
                expect = tuple(min(a + b, c) for a, b, c in zip(e, f, u))
                assert g.add(index[e], index[f]) == index[expect]
                assert g.mul(index[e], index[f]) == index[tuple(a * b for a, b in zip(e, f))]


def test_subalgebra_closure_of_top():
    z3 = builders.build_zn(3)
    sub, embedding = builders.subalgebra_closure(z3, {3})
    assert embedding == (0, 3)
    f = ideals.Homomorphism(sub, z3, embedding)
    ok, witness = ideals.check_homomorphism(f)
    assert ok, witness


def test_subalgebra_closure_of_empty_seed():
    z3 = builders.build_zn(3)
    sub, embedding = builders.subalgebra_closure(z3, set())
    assert embedding == (0, 3)  # closure of {} is {0, u} since u.u = u


def test_subalgebra_closure_generates_everything():
    z3 = builders.build_zn(3)
    sub, embedding = builders.subalgebra_closure(z3, {1})
    assert embedding == (0, 1, 2, 3)
