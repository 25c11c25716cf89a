import copy
import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvwrig import builders, core, dsl, ideals
from mvwrig.errors import (
    GateNotMet,
    NotACongruence,
    NotAHomomorphism,
    NotCommutative,
    Trivial,
)

import scalar_oracles
from conftest import LADDER, ZOO, mv_ideals, zoo_items


def enumerate_homomorphisms(a, b, limit=10 ** 6):
    """All homomorphisms a -> b by exhaustive search over the b^(a-1) maps
    that send 0 to 0 (desk scale)."""
    total = b.size ** max(a.size - 1, 0)
    assert total <= limit, f"{total} candidate maps exceed limit {limit}"
    maps = (ideals.Homomorphism(a, b, (0,) + rest)
            for rest in itertools.product(range(b.size), repeat=a.size - 1))
    return [f for f in maps if ideals.check_homomorphism(f)[0]]


# -- the earlier routes, kept as references --------------------------------------
#
# The library reads the ideal lattice off kept index tables over the
# idempotents of the listed ideals (the ``ideals`` docstring).  These are the
# routes it replaced: the prime and MV-prime clauses scanned over the whole
# carrier, maximality from the containment of the masks, and a generated
# ideal or a product ideal as the least listed mask holding a seed.

def member_mask(rig, members):
    mask = np.zeros(rig.size, dtype=bool)
    mask[list(members)] = True
    return mask


def least_containing(masks, seed):
    """The members of the first listed mask holding the seed, a boolean
    mask: the least one, since the masks run smallest first and are closed
    under intersection."""
    return frozenset(np.flatnonzero(masks[masks[:, seed].all(axis=1).argmax()]).tolist())


def prime_clause(mask, table):
    """No value table[a, b] with both a and b outside lies inside."""
    out = ~mask
    return not (mask[table] & out[:, None] & out[None, :]).any()


def classify_ideal(rig, ideal):
    """The raw clauses on the whole carrier; the whole carrier satisfies the
    prime and maximal clauses vacuously."""
    masks = ideals._ideal_masks(rig)
    mask = member_mask(rig, ideal.members)
    prime = rig.mul_table is None or prime_clause(mask, rig.mul_table)
    # maximal: no proper ideal lies strictly above
    strictly_above = masks[:, mask].all(axis=1) & (masks & ~mask).any(axis=1)
    maximal = not (strictly_above & ~masks.all(axis=1)).any()
    return ideals.IdealClass(prime=prime, mv_prime=prime_clause(mask, rig.meet_table),
                             maximal=maximal, proper=ideal.proper)


def reference_generated(rig, seed):
    return least_containing(ideals._ideal_masks(rig), member_mask(rig, seed))


def reference_product(rig, i, j):
    seed = np.zeros(rig.size, dtype=bool)
    seed[rig.mul_table[np.ix_(member_mask(rig, i.members), member_mask(rig, j.members))]] = True
    return least_containing(ideals._ideal_masks(rig), seed)


@pytest.fixture
def z3():
    return ZOO["Z3"]


@pytest.fixture
def square(
):
    return ZOO["Z1xZ1"]


@pytest.fixture
def t3():
    return ZOO["T3"]


def test_is_ideal_examples(z3, square):
    assert ideals.is_ideal(z3, {0}) == (True, None)
    ok, witness = ideals.is_ideal(z3, {0, 1})
    assert not ok and witness == ("sum", (1, 1))
    assert ideals.is_ideal(z3, set(range(4)))[0]
    ok, witness = ideals.is_ideal(z3, {1})
    assert not ok and witness[0] == "zero"


def test_is_mv_ideal_does_not_need_absorption():
    l3 = ZOO["L3"]
    assert ideals.is_mv_ideal(l3, {0})[0]
    ok, witness = ideals.is_mv_ideal(l3, {0, 1})
    assert not ok and witness == ("sum", (1, 1))


# -- kept verdicts ------------------------------------------------------------------

def _verdicts(rig, build):
    """The verdicts a structure keeps from one build, by its argument."""
    return {key[1]: value for key, value in rig._memo.items() if key[0] is build.__wrapped__}


def test_equal_size_sets_keep_their_own_ideal_verdicts():
    rig = copy.copy(ZOO["Z1xZ1"])
    assert ideals.is_ideal(rig, {0, 1}) == (True, None)
    assert ideals.is_ideal(rig, {0, 3}) == (False, ("downward", (1, 3)))
    assert _verdicts(rig, ideals._ideal_verdict) == {
        frozenset({0, 1}): (True, None), frozenset({0, 3}): (False, ("downward", (1, 3)))}


def test_a_list_and_a_frozenset_share_one_verdict():
    rig = copy.copy(ZOO["Z1xZ1"])
    first = ideals.is_ideal(rig, [1, 0, 1])
    assert ideals.is_ideal(rig, frozenset({0, 1})) is first
    assert len(_verdicts(rig, ideals._ideal_verdict)) == 1
    # the labels of a congruence may be any hashables
    first = ideals.is_congruence(rig, ["a", "a", "b", "b"])
    assert first == (True, None)
    assert ideals.is_congruence(rig, ("a", "a", "b", "b")) is first
    assert len(_verdicts(rig, ideals._congruence_verdict)) == 1


def test_an_mv_ideal_verdict_is_kept_on_the_reduct():
    rig = copy.copy(ZOO["T3"])
    verdict = ideals.is_mv_ideal(rig, {0, 1})
    assert ideals.is_mv_ideal(rig, [0, 1]) is verdict
    assert _verdicts(ideals._mv_reduct(rig), ideals._ideal_verdict) == {frozenset({0, 1}): verdict}
    assert not _verdicts(rig, ideals._ideal_verdict)


def test_a_copy_with_a_corrupted_table_recomputes_its_verdicts():
    rig = copy.copy(ZOO["Z1xZ1"])
    assert ideals.is_ideal(rig, {0, 1}) == (True, None)
    assert ideals.is_congruence(rig, (0, 0, 1, 1)) == (True, None)
    twin = copy.copy(rig)
    mul = rig.mul_table.copy()
    mul[1, 2] = mul[2, 1] = 3       # 1.2 leaves {0, 1}, and 0.2 and 1.2 part classes
    twin.mul_table = mul
    assert ideals.is_ideal(twin, {0, 1}) == (False, ("absorb", (1, 2)))
    assert ideals.is_congruence(twin, (0, 0, 1, 1)) == (False, ("mul", (0, 1, 2)))
    assert ideals.is_ideal(rig, {0, 1}) == (True, None)
    assert ideals.is_congruence(rig, (0, 0, 1, 1)) == (True, None)


def test_a_verdict_that_raises_keeps_nothing():
    rig = copy.copy(ZOO["Z1xZ1"])
    for _ in range(2):
        with pytest.raises(IndexError):
            ideals.is_ideal(rig, {0, 7})
    assert not _verdicts(rig, ideals._ideal_verdict)


def test_generated_ideal_examples(z3, t3):
    assert ideals.generated_ideal(z3, {1}).sorted_members() == (0, 1, 2, 3)
    assert ideals.generated_ideal(z3, set()).sorted_members() == (0,)
    assert ideals.generated_ideal(t3, {1}).sorted_members() == (0, 1, 2)


def test_generated_ideal_noncommutative_fallback():
    m = ZOO["M2(Z1)"]
    rows = scalar_oracles.rows(m)
    for k in (1, 2):
        for seed in itertools.combinations(range(m.size), k):
            gen = ideals.generated_ideal(m, seed)
            ok, witness = ideals.is_ideal(m, gen.members)
            assert ok, (seed, witness)
            assert gen.members == frozenset(scalar_oracles.generated_fixpoint(rows, seed)), seed


def test_enumerate_ideals_counts(z3, square):
    assert [i.sorted_members() for i in ideals.enumerate_ideals(z3)] == \
        [(0,), (0, 1, 2, 3)]
    assert [i.sorted_members() for i in ideals.enumerate_ideals(square)] == \
        [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    triv = ZOO["trivial"]
    assert [i.sorted_members() for i in ideals.enumerate_ideals(triv)] == [(0,)]


@pytest.mark.parametrize("rig", zoo_items(lambda r: r.size <= 10))
def test_enumerate_matches_brute_force(rig):
    brute = set()
    for k in range(rig.size + 1):
        for cand in itertools.combinations(range(rig.size), k):
            if ideals.is_ideal(rig, set(cand))[0]:
                brute.add(frozenset(cand))
    assert brute == {i.members for i in ideals.enumerate_ideals(rig)}


def test_classify_examples(z3, square, t3):
    cls = classify_ideal(z3, ideals.Ideal(z3, frozenset({0})))
    assert cls.prime and cls.maximal and cls.proper
    cls = classify_ideal(square, ideals.Ideal(square, frozenset({0})))
    assert not cls.prime  # (0,1).(1,0) = (0,0)
    cls = classify_ideal(t3, ideals.Ideal(t3, frozenset({0})))
    assert not cls.prime and cls.maximal
    # the whole carrier satisfies the raw clauses vacuously but is improper
    full = ideals.Ideal(z3, frozenset(range(4)))
    cls = classify_ideal(z3, full)
    assert cls.prime and not cls.proper


def test_nilradical(z3, t3):
    assert ideals.nilradical(z3).sorted_members() == (0,)
    assert ideals.nilradical(t3).sorted_members() == (0, 1, 2)
    triv = ZOO["trivial"]
    assert ideals.nilradical(triv).sorted_members() == (0,)


def test_nilradical_gates():
    with pytest.raises(NotCommutative):
        ideals.nilradical(ZOO["M2(Z1)"])
    with pytest.raises(GateNotMet):
        ideals.nilradical(ZOO["L3"])


def test_is_nilpotent(t3, z3):
    assert all(ideals.is_nilpotent(t3, x) for x in range(3))
    assert [x for x in range(4) if ideals.is_nilpotent(z3, x)] == [0]
    # the kept walk of the powers against the n-step search, on the
    # reference structures and all their quotients
    for rig in (p.values[0] for p in REFERENCE_RIGS):
        if rig.mul_table is None:
            with pytest.raises(GateNotMet):
                ideals.is_nilpotent(rig, 0)
            continue
        with pytest.raises(IndexError):
            ideals.is_nilpotent(rig, rig.size)
        for q in [rig] + [ideals.quotient(rig, i).rig for i in ideals.enumerate_ideals(rig)]:
            assert [ideals.is_nilpotent(q, x) for x in q.elements()] == \
                [scalar_oracles.is_nilpotent(q, x) for x in q.elements()], q.name


def test_radical_examples(z3, t3):
    zero = ideals.Ideal(z3, frozenset({0}))
    assert ideals.radical(z3, zero).sorted_members() == (0,)
    zero_t = ideals.Ideal(t3, frozenset({0}))
    # no proper primes exist, so the empty intersection is everything
    assert ideals.radical(t3, zero_t).sorted_members() == (0, 1, 2)
    full = ideals.Ideal(z3, frozenset(range(4)))
    assert ideals.radical(z3, full).sorted_members() == (0, 1, 2, 3)


def test_ideal_product(square):
    i1 = ideals.Ideal(square, frozenset({0, 1}))
    i2 = ideals.Ideal(square, frozenset({0, 2}))
    assert ideals.ideal_product(square, i1, i2).sorted_members() == (0,)
    assert ideals.ideal_product(square, i1, i1).members == i1.members


def test_congruence_from_ideal_identity(z3):
    cong = ideals.congruence_from_ideal(z3, ideals.Ideal(z3, frozenset({0})))
    assert cong.class_of == (0, 1, 2, 3)


def test_congruence_from_full_ideal(z3):
    cong = ideals.congruence_from_ideal(z3, ideals.Ideal(z3, frozenset(range(4))))
    assert cong.class_of == (0, 0, 0, 0)


def test_congruence_roundtrip_t3(t3):
    full = ideals.Ideal(t3, frozenset(range(3)))
    cong = ideals.congruence_from_ideal(t3, full)
    assert len(set(cong.class_of)) == 1
    assert ideals.ideal_from_congruence(t3, cong).members == full.members


def test_bad_partition_rejected(z3):
    with pytest.raises(NotACongruence) as exc:
        ideals.ideal_from_congruence(z3, (0, 0, 1, 1))
    assert exc.value.clause in ("neg", "add", "mul")


def test_quotient_examples(z3, square):
    q = ideals.quotient(z3, ideals.Ideal(z3, frozenset({0})))
    assert q.rig.same_tables(z3)
    q = ideals.quotient(z3, ideals.Ideal(z3, frozenset(range(4))))
    assert q.rig.size == 1
    q = ideals.quotient(square, ideals.Ideal(square, frozenset({0, 1})))
    assert q.rig.same_tables(ZOO["Z1"])
    assert q.projection == (0, 0, 1, 1)


def test_check_homomorphism_examples(z3, square):
    z1 = ZOO["Z1"]
    proj = ideals.Homomorphism(square, z1, (0, 0, 1, 1))
    assert ideals.check_homomorphism(proj) == (True, None)
    assert ideals.kernel(proj).sorted_members() == (0, 1)
    ident = ideals.Homomorphism(z3, z3, (0, 1, 2, 3))
    assert ideals.kernel(ident).sorted_members() == (0,)
    swap = ideals.Homomorphism(z3, z3, (0, 2, 1, 3))
    ok, witness = ideals.check_homomorphism(swap)
    assert not ok and witness == ("add", (1, 1))
    with pytest.raises(NotAHomomorphism):
        ideals.verify_homomorphism(swap)


def test_image_is_substructure(z3):
    f = ideals.Homomorphism(z3, z3, (0, 1, 2, 3))
    img, embedding = ideals.image(f)
    assert img.same_tables(z3)
    inc = ideals.Homomorphism(ZOO["G1"], z3, (0, 3))
    ok, _ = ideals.check_homomorphism(inc)
    assert ok
    img, embedding = ideals.image(inc)
    assert embedding == (0, 3)


def test_mixed_homomorphism_kernel_and_image():
    # a homomorphism of the underlying MV-algebras from a product-free
    # chain into a structure with a product: the image lands in the
    # target's MV-reduct and the kernel is only required to be an MV-ideal
    l2 = ZOO["L2"]
    z3 = ZOO["Z3"]
    f = ideals.Homomorphism(l2, z3, (0, 3))
    ok, witness = ideals.check_homomorphism(f)
    assert ok, witness
    assert ideals.kernel(f).sorted_members() == (0,)
    img, embedding = ideals.image(f)
    assert img.mv_only and embedding == (0, 3)
    fi = ideals.first_iso(f)
    assert fi.image_rig.size == 2


def test_enumerate_homomorphisms_pairs():
    z1 = ZOO["Z1"]
    square = ZOO["Z1xZ1"]
    homs = enumerate_homomorphisms(square, z1)
    # two coordinate projections, the zero map is not one (u must map to u)
    maps = {h.mapping for h in homs}
    assert (0, 0, 1, 1) in maps and (0, 1, 0, 1) in maps
    for h in homs:
        assert h.mapping[square.u] == z1.u


def test_first_iso_cases(z3, square):
    z1 = ZOO["Z1"]
    fi = ideals.first_iso(ideals.Homomorphism(square, z1, (0, 0, 1, 1)))
    assert fi.quot.rig.size == 2 and fi.image_rig.size == 2
    fi = ideals.first_iso(ideals.Homomorphism(z3, z3, (0, 1, 2, 3)))
    assert fi.quot.rig.same_tables(z3)
    triv = ZOO["trivial"]
    fi = ideals.first_iso(ideals.Homomorphism(z3, triv, (0, 0, 0, 0)))
    assert fi.quot.rig.size == 1


def test_first_iso_takes_the_quotient_by_its_kernel(square):
    # the quotient by the kernel is the one kept on the source for that
    # ideal; a map from another structure gets that structure's own
    copy = core.derive(square.neg_table, square.add_table, square.mul_table)
    for ideal in ideals.enumerate_ideals(square):
        q = ideals.quotient(square, ideal)
        fi = ideals.first_iso(ideals.Homomorphism(square, q.rig, q.projection))
        assert fi.quot is q
        other = ideals.first_iso(ideals.Homomorphism(copy, q.rig, q.projection))
        assert other.quot is ideals.quotient(copy, ideals.Ideal(copy, ideal.members))
        assert other.quot.parent is copy
        assert other.iso.mapping == fi.iso.mapping
        assert other.image_embedding == fi.image_embedding


def test_ideal_correspondence_cases(square):
    i1 = ideals.Ideal(square, frozenset({0, 1}))
    pairs = ideals.ideal_correspondence(square, i1)
    assert len(pairs) == 2
    zero = ideals.Ideal(square, frozenset({0}))
    pairs = ideals.ideal_correspondence(square, zero)
    assert len(pairs) == len(ideals.enumerate_ideals(square))
    full = ideals.Ideal(square, frozenset(range(4)))
    assert len(ideals.ideal_correspondence(square, full)) == 1


def test_chang_embedding_square(square):
    ch = ideals.chang_embedding(square)
    assert [p.sorted_members() for p in ch.primes] == [(0, 1), (0, 2)]
    assert all(q.rig.size == 2 for q in ch.quotients)
    assert len(set(ch.mapping)) == square.size


def test_chang_embedding_chain_is_identity():
    l3 = ZOO["L3"]
    ch = ideals.chang_embedding(l3)
    assert [p.sorted_members() for p in ch.primes] == [(0,)]
    assert ch.mapping == (0, 1, 2)
    z3 = ZOO["Z3"]
    ch = ideals.chang_embedding(z3)
    assert ch.mapping == (0, 1, 2, 3)


def test_chang_embedding_trivial_rejected():
    with pytest.raises(Trivial):
        ideals.chang_embedding(ZOO["trivial"])


def test_maximal_ideals_examples(z3, square, t3):
    assert [m.sorted_members() for m in ideals.maximal_ideals(z3)] == [(0,)]
    assert [m.sorted_members() for m in ideals.maximal_ideals(square)] == \
        [(0, 1), (0, 2)]
    assert [m.sorted_members() for m in ideals.maximal_ideals(t3)] == [(0,)]
    with pytest.raises(Trivial):
        ideals.maximal_ideals(ZOO["trivial"])


def test_preimage_of_prime_is_prime():
    # checked across every homomorphism between small example pairs
    small = [r for r in ZOO.values() if r.size <= 4 and r.mul_table is not None]
    for a in small:
        for b in small:
            for f in enumerate_homomorphisms(a, b):
                for p in ideals.prime_ideals(b):
                    pre = frozenset(x for x in a.elements()
                                    if f.mapping[x] in p.members)
                    if len(pre) == a.size:
                        continue
                    cls = classify_ideal(a, ideals.Ideal(a, pre))
                    assert ideals.is_ideal(a, pre)[0]
                    assert cls.prime, (a.name, b.name, f.mapping, sorted(p.members))


# -- cross-check against the closure route ------------------------------------

def closure_ideals(rig):
    """Every ideal, smallest first, by a search over the scalar closure
    oracle: adding generators one at a time reaches every ideal."""
    rows = scalar_oracles.rows(rig)
    zero = frozenset({0})
    found, frontier = {zero}, [zero]
    while frontier:
        base = frontier.pop()
        for a in rig.elements():
            if a not in base:
                bigger = frozenset(scalar_oracles.generated_fixpoint(rows, base | {a}))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def assert_matches_closure(rig, max_seed=2):
    assert [i.members for i in ideals.enumerate_ideals(rig)] == closure_ideals(rig)
    rows = scalar_oracles.rows(rig)
    for k in range(max_seed + 1):
        for seed in itertools.combinations(range(rig.size), k):
            assert ideals.generated_ideal(rig, seed).members == \
                frozenset(scalar_oracles.generated_fixpoint(rows, seed)), (rig.name, seed)


@pytest.mark.parametrize("rig", zoo_items())
def test_ideals_match_closure_on_zoo(rig):
    assert_matches_closure(rig)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ideals_match_closure_on_products(name):
    assert_matches_closure(LADDER[name]())


FACTORS = (
    [builders.build_zn(n) for n in (1, 2, 3)]
    + [builders.gamma_zk(k, u) for k, u in ((1, (1,)), (2, (1, 1)), (2, (1, 0)))]
    + [builders.lift_trivial_product(builders.build_luk_mv(n)) for n in (2, 3, 4)])


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(st.lists(st.sampled_from(FACTORS), min_size=2, max_size=3))
def test_ideals_match_closure_on_products_and_quotients(factors):
    size = 1
    for f in factors:
        size *= f.size
    assume(size <= 16)
    rig = builders.direct_product(factors)
    assert_matches_closure(rig, max_seed=1)
    for ideal in ideals.enumerate_ideals(rig):
        assert_matches_closure(ideals.quotient(rig, ideal).rig, max_seed=1)


# -- cross-check against the scalar definitions --------------------------------
#
# The library tests membership and radicals with boolean masks over the
# operation tables; these loops are the definitions, element by element,
# visiting members in ascending order as the library's witnesses do.

def scalar_is_mv_ideal(rig, members):
    s = sorted(set(members))
    if 0 not in s:
        return False, ("zero", (0,))
    for b in s:
        for a in rig.elements():
            if rig.leq(a, b) and a not in s:
                return False, ("downward", (a, b))
    for a in s:
        for b in s:
            if rig.add(a, b) not in s:
                return False, ("sum", (a, b))
    return True, None


def scalar_is_ideal(rig, members):
    ok, witness = scalar_is_mv_ideal(rig, members)
    if not ok:
        return ok, witness
    if rig.mul_table is not None:
        s = sorted(set(members))
        for a in s:
            for b in rig.elements():
                if rig.mul(a, b) not in s or rig.mul(b, a) not in s:
                    return False, ("absorb", (a, b))
    return True, None


def scalar_radical(rig, members):
    out = set()
    for x in rig.elements():
        acc = x
        for _ in range(rig.size + 1):
            if acc in members:
                out.add(x)
                break
            acc = rig.mul(acc, x)
    return frozenset(out)


def candidate_subsets(rig):
    """Every subset of a carrier of at most 8 elements; otherwise every
    subset of at most 2 elements and every ideal with one element added
    or removed."""
    if rig.size <= 8:
        return [frozenset(c) for k in range(rig.size + 1)
                for c in itertools.combinations(range(rig.size), k)]
    out = {frozenset(c) for k in range(3)
           for c in itertools.combinations(range(rig.size), k)}
    for ideal in mv_ideals(rig):
        out.add(ideal.members)
        out.update(ideal.members ^ {x} for x in rig.elements())
    return sorted(out, key=lambda s: (len(s), sorted(s)))


REFERENCE_RIGS = [pytest.param(r, id=k) for k, r in ZOO.items()] + \
    [pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)]


@pytest.mark.parametrize("rig", REFERENCE_RIGS)
def test_membership_and_radicals_match_scalar_definitions(rig):
    commutative = rig.mul_table is not None and rig.commutative
    for s in candidate_subsets(rig):
        assert ideals.is_mv_ideal(rig, s) == scalar_is_mv_ideal(rig, s), sorted(s)
        assert ideals.is_ideal(rig, s) == scalar_is_ideal(rig, s), sorted(s)
        if commutative:
            assert ideals.radical(rig, ideals.Ideal(rig, s)).members == \
                scalar_radical(rig, s), sorted(s)
    if commutative:
        assert ideals.nilradical(rig) == ideals.radical(rig, ideals.Ideal(rig, frozenset({0})))


@pytest.mark.parametrize("rig", REFERENCE_RIGS)
def test_classification_matches_set_definitions(rig):
    listed = [i.members for i in ideals.enumerate_ideals(rig)]
    full = frozenset(rig.elements())
    for ideal, cls in ideals.classified_ideals(rig):
        assert cls == classify_ideal(rig, ideal)
        assert cls.maximal == (not any(ideal.members < j < full for j in listed))
        assert cls.proper == (ideal.members != full)
    if rig.size == 1:
        return
    out = [i for i in mv_ideals(rig) if i.proper and all(
        rig.meet(a, b) not in i.members
        for a in rig.elements() for b in rig.elements()
        if a not in i.members and b not in i.members)]
    assert ideals.chang_embedding(rig).primes == out


# -- cross-check of the gathers against the scalar definitions -----------------
#
# Congruences, homomorphisms and quotients are whole-table gathers in the
# library; these loops are the definitions, element by element, with the
# clause order the library's witnesses follow.

def scalar_is_congruence(rig, class_of):
    if len(class_of) != rig.size:
        return False, ("shape", (len(class_of),))
    buckets = {}
    for x, c in enumerate(class_of):
        buckets.setdefault(c, []).append(x)
    for cls in buckets.values():
        base = cls[0]
        for x in cls[1:]:
            if class_of[rig.neg(base)] != class_of[rig.neg(x)]:
                return False, ("neg", (base, x))
            for y in rig.elements():
                if class_of[rig.add(base, y)] != class_of[rig.add(x, y)]:
                    return False, ("add", (base, x, y))
                if class_of[rig.add(y, base)] != class_of[rig.add(y, x)]:
                    return False, ("add", (y, base, x))
                if rig.mul_table is not None:
                    if class_of[rig.mul(base, y)] != class_of[rig.mul(x, y)]:
                        return False, ("mul", (base, x, y))
                    if class_of[rig.mul(y, base)] != class_of[rig.mul(y, x)]:
                        return False, ("mul", (y, base, x))
    return True, None


def scalar_check_homomorphism(f):
    a, b, m = f.source, f.target, f.mapping
    if len(m) != a.size or any(not 0 <= v < b.size for v in m):
        return False, ("total", ())
    if m[0] != 0:
        return False, ("zero", (0,))
    for x in a.elements():
        if m[a.neg(x)] != b.neg(m[x]):
            return False, ("neg", (x,))
        for y in a.elements():
            if m[a.add(x, y)] != b.add(m[x], m[y]):
                return False, ("add", (x, y))
    if a.mul_table is not None and b.mul_table is not None:
        for x in a.elements():
            for y in a.elements():
                if m[a.mul(x, y)] != b.mul(m[x], m[y]):
                    return False, ("mul", (x, y))
    return True, None


def scalar_ideal_classes(rig, members):
    """x ~ y iff (x - y) + (y - x) lies in the ideal; each unassigned x in
    ascending order opens the next class with everything related to it, so
    classes are numbered by their least elements."""
    class_of = [-1] * rig.size
    nxt = 0
    for x in rig.elements():
        if class_of[x] < 0:
            for y in rig.elements():
                if rig.add(rig.monus(x, y), rig.monus(y, x)) in members:
                    class_of[y] = nxt
            nxt += 1
    return tuple(class_of)


def scalar_quotient(rig, members):
    """(projection, reps, neg, add, mul, names, name) of the quotient, one
    class representative at a time."""
    proj = scalar_ideal_classes(rig, members)
    reps = sorted({c: x for x, c in reversed(list(enumerate(proj)))}.values())
    neg = [proj[rig.neg(r)] for r in reps]
    add = [[proj[rig.add(r, s)] for s in reps] for r in reps]
    mul = None
    if rig.mul_table is not None:
        mul = [[proj[rig.mul(r, s)] for s in reps] for r in reps]
    names = tuple("[" + rig.element_name(r) + "]" for r in reps)
    return (proj, tuple(reps), neg, add, mul, names,
            f"{rig.name}/{ideals.format_subset(rig, members)}")


def mv_reduct(rig):
    return core.derive(rig.neg_table, rig.add_table, None,
                       names=rig.carrier.names, name=rig.name)


G3 = builders.gamma_zk(3, (1, 1, 1))
GATHER_RIGS = REFERENCE_RIGS + [
    pytest.param(builders.direct_product([G3, G3]), id="G3xG3")]


@pytest.mark.parametrize("rig", GATHER_RIGS)
def test_congruence_gather_matches_scalar(rig):
    rng = random.Random(rig.size)
    n = rig.size
    candidates = [tuple(range(n - 1))]
    for ideal in ideals.enumerate_ideals(rig):
        assert ideals.congruence_from_ideal(rig, ideal).class_of == \
            scalar_ideal_classes(rig, ideal.members)
    # the congruence of an MV-ideal need not respect the product
    for ideal in mv_ideals(rig):
        true = scalar_ideal_classes(rig, ideal.members)
        candidates += [true, tuple(f"c{c}" for c in reversed(true))]
        for _ in range(4):
            changed = list(true)
            changed[rng.randrange(n)] = rng.randrange(max(true) + 2)
            candidates.append(tuple(changed))
    for _ in range(30):
        k = rng.randint(1, n)
        candidates.append(tuple(rng.randrange(k) for _ in range(n)))
    for class_of in candidates:
        assert ideals.is_congruence(rig, class_of) == scalar_is_congruence(rig, class_of), \
            class_of


@pytest.mark.parametrize("rig", GATHER_RIGS)
def test_homomorphism_gather_matches_scalar(rig):
    rng = random.Random(rig.size + 1)
    n = rig.size
    ident = tuple(range(n))
    mv = mv_reduct(rig)
    zero_product = builders.lift_trivial_product(mv)
    maps = [ideals.Homomorphism(rig, rig, ident),
            ideals.Homomorphism(rig, mv, ident), ideals.Homomorphism(mv, rig, ident),
            # MV-homomorphisms that break the product clause
            ideals.Homomorphism(rig, zero_product, ident),
            ideals.Homomorphism(zero_product, rig, ident),
            ideals.Homomorphism(rig, rig, ident[:-1]),
            ideals.Homomorphism(rig, rig, ident[:-1] + (n,)),
            ideals.Homomorphism(rig, rig, (rig.u,) + ident[1:])]
    if n > 1:
        maps.append(ideals.Homomorphism(rig, rig, ident[:-1] + (-1,)))
        ch = ideals.chang_embedding(rig)
        maps.append(ideals.Homomorphism(rig, ch.product, ch.mapping))
    for ideal in ideals.enumerate_ideals(rig):
        q = ideals.quotient(rig, ideal)
        maps.append(ideals.Homomorphism(rig, q.rig, q.projection))
        for _ in range(3):
            changed = list(q.projection)
            changed[rng.randrange(n)] = rng.randrange(q.rig.size)
            maps.append(ideals.Homomorphism(rig, q.rig, tuple(changed)))
        maps.append(ideals.Homomorphism(
            rig, q.rig, (0,) + tuple(rng.randrange(q.rig.size) for _ in range(n - 1))))
    for target in rng.sample(list(ZOO.values()), 4):
        maps.append(ideals.Homomorphism(
            rig, target, (0,) + tuple(rng.randrange(target.size) for _ in range(n - 1))))
    for f in maps:
        assert ideals.check_homomorphism(f) == scalar_check_homomorphism(f), f.mapping


def assert_quotient_matches(q, ref):
    proj, reps, neg, add, mul, names, name = ref
    assert (q.projection, q.reps, q.rig.carrier.names, q.rig.name) == \
        (proj, reps, names, name)
    assert q.rig.same_tables(core.derive(neg, add, mul))


@pytest.mark.parametrize("rig", GATHER_RIGS)
def test_quotient_gather_matches_scalar(rig):
    for ideal in ideals.enumerate_ideals(rig):
        q = ideals.quotient(rig, ideal)
        assert_quotient_matches(q, scalar_quotient(rig, ideal.members))
        assert core.check_all(q.rig).passed
    mv = mv_reduct(rig)
    for ideal in mv_ideals(rig):
        q = ideals.mv_quotient(rig, ideal)
        assert_quotient_matches(q, scalar_quotient(mv, ideal.members))
        assert core.check_mv(q.rig).passed


def test_quotient_and_congruence_reject_non_ideals(z3, square):
    with pytest.raises(ValueError, match=r"not an ideal: \('sum', \(1, 1\)\)"):
        ideals.quotient(z3, ideals.Ideal(z3, frozenset({0, 1})))
    with pytest.raises(ValueError, match=r"not an MV-ideal: \('downward', \(1, 3\)\)"):
        ideals.mv_quotient(square, ideals.Ideal(square, frozenset({0, 3})))


# -- the kept index tables against the earlier routes ---------------------------
#
# Classification, generated ideals, product ideals, congruences and the
# Chang primes are read off tables kept per structure; each must equal the
# reference route at the top of this file.  Past a few dozen ideals the
# pairs and seeds are a seeded sample, since each reference answer scans
# the whole carrier.

def z1_power(k):
    return builders.direct_product([builders.build_zn(1)] * k)


def half_product():
    """Z1xZ1 with the commutative product x.y = (0, x1 ^ y1), the first
    coordinate most significant: its ideals form the chain {0} < {0, (0,1)}
    < A, against four MV-ideals, and it has no unit."""
    square = ZOO["Z1xZ1"]
    first = np.arange(4) >> 1
    return core.derive(square.neg_table, square.add_table, first[:, None] & first[None, :],
                       names=square.carrier.names, name="Z1xZ1*")


#: Z1xZ1 with the top listed second, so the lattice top of the whole
#: carrier, u at index 1, is not its largest index
RELABELLED = dsl.elaborate_file("""algebra Relabelled {
  elements: [o, u, p, q]
  zero: o
  neg: [u, o, q, p]
  add: [[o, u, p, q], [u, u, u, u], [p, u, p, u], [q, u, u, q]]
  mul: [[o, o, o, o], [o, u, p, q], [o, p, p, o], [o, q, o, q]]
}""")[0]


def relabelled(rig, seed):
    """``rig`` renumbered by a seeded permutation that fixes the zero: the
    element least by index in a class need not be x ^ neg e, its least by
    order."""
    p = np.concatenate([[0], np.random.default_rng(seed).permutation(np.arange(1, rig.size))])

    def moved(table):
        out = np.empty_like(table)
        out[np.ix_(p, p) if table.ndim == 2 else p] = p[table]
        return out

    names = np.empty(rig.size, dtype=object)
    names[p] = rig.carrier.names
    return core.derive(moved(rig.neg_table), moved(rig.add_table), moved(rig.mul_table),
                       names=tuple(names), name=f"{rig.name}~{seed}")


Z1_Z2_Z1 = builders.direct_product([builders.build_zn(1), builders.build_zn(2), builders.build_zn(1)])

LATTICE_RIGS = REFERENCE_RIGS + [pytest.param(z1_power(k), id=f"Z1^{k}") for k in range(5, 9)] + [
    pytest.param(builders.build_matrix_rig(builders.build_zn(2), 2), id="M2(Z2)"),
    pytest.param(half_product(), id="Z1xZ1*"),
    pytest.param(RELABELLED, id="relabelled"),
    pytest.param(relabelled(Z1_Z2_Z1, 5), id="Z1xZ2xZ1~5")]


def sample(items, rng, limit):
    items = list(items)
    return items if len(items) <= limit else rng.sample(items, limit)


@pytest.mark.parametrize("rig", LATTICE_RIGS)
def test_kept_classification_matches_the_clause_scans(rig):
    classified = ideals.classified_ideals(rig)
    assert [i for i, _ in classified] == ideals.enumerate_ideals(rig)
    for ideal, cls in classified:
        assert cls == classify_ideal(rig, ideal), ideal.sorted_members()


@pytest.mark.parametrize("rig", LATTICE_RIGS)
def test_join_fold_and_product_gather_match_the_mask_routes(rig):
    rng = random.Random(rig.size)
    listed = ideals.enumerate_ideals(rig)
    join = ideals._lattice_table(rig, "add")
    for a, b in sample(itertools.product(range(len(listed)), repeat=2), rng, 400):
        i, j = listed[a], listed[b]
        assert listed[join[a, b]].members == reference_generated(rig, i.members | j.members)
        if rig.mul_table is not None:
            product = ideals.ideal_product(rig, i, j)
            assert product is listed[listed.index(product)]
            assert product.members == reference_product(rig, i, j), (a, b)
    seeds = [()] + [(x,) for x in rig.elements()] + sample(
        itertools.combinations(rig.elements(), 2), rng, 200) + sample(
        itertools.combinations(rig.elements(), 3), rng, 100)
    for seed in seeds:
        gen = ideals.generated_ideal(rig, seed)
        assert gen is listed[listed.index(gen)]
        assert gen.members == reference_generated(rig, seed), seed


def reference_congruence(rig, members):
    """The class labels of the gather the library ran on every call."""
    related = member_mask(rig, members)[rig.add_table[rig.monus_table, rig.monus_table.T]]
    least = related.argmax(axis=1)
    return tuple((np.cumsum(least == np.arange(rig.size)) - 1)[least].tolist())


@pytest.mark.parametrize("rig", LATTICE_RIGS)
def test_kept_congruences_match_the_gather(rig):
    for ideal in ideals.enumerate_ideals(rig):
        cong = ideals.congruence_from_ideal(rig, ideal)
        assert ideals.congruence_from_ideal(rig, ideals.Ideal(rig, ideal.members)) is cong
        assert cong.class_of == reference_congruence(rig, ideal.members)
        assert ideals.quotient(rig, ideal).projection == cong.class_of
        if rig.size <= 16:
            assert cong.class_of == scalar_ideal_classes(rig, ideal.members)
        above = [j for j in ideals.enumerate_ideals(rig) if ideal.members <= j.members]
        assert [j for j, _ in ideals.ideal_correspondence(rig, ideal)] == above
    # the MV-ideals, through the MV-reduct, which has an idempotent of its own
    # for each: down e need not absorb the product
    mv = ideals._mv_reduct(rig)
    for ideal in mv_ideals(rig):
        cong = ideals.congruence_from_ideal(mv, ideals.Ideal(mv, ideal.members))
        assert cong.class_of == reference_congruence(rig, ideal.members)
        assert ideals.mv_quotient(rig, ideal).projection == cong.class_of


@pytest.mark.parametrize("rig", [p for p in LATTICE_RIGS if p.values[0].size > 1])
def test_chang_primes_match_the_meet_clause(rig):
    out = [i for i in mv_ideals(rig)
           if i.proper and prime_clause(member_mask(rig, i.members), rig.meet_table)]
    assert ideals.chang_embedding(rig).primes == out


def test_restricted_prime_clause_reads_both_product_orders():
    # a monotone product on Z1xZ1 that is not associative: (1,0).(0,1) = 0
    # but (0,1).(1,0) = (0,1), and no square is 0, so {0} fails the prime
    # clause only at a pair whose first element is listed after its second;
    # the restriction to the nonzero part of down neg e needs monotone rows
    # and columns only
    square = ZOO["Z1xZ1"]
    rig = core.derive(square.neg_table, square.add_table,
                      [[0, 0, 0, 0], [0, 1, 1, 1], [0, 0, 2, 2], [0, 1, 3, 3]])
    assert core.check_all(rig).failed_axioms() == ["MVW-ii"]
    classified = ideals.classified_ideals(rig)
    assert [(i.sorted_members(), cls.prime) for i, cls in classified] == \
        [((0,), False), ((0, 1), True), ((0, 1, 2, 3), True)]
    for ideal, cls in classified:
        assert cls == classify_ideal(rig, ideal)


def test_kept_tables_read_lattice_tops():
    # the top of the whole carrier is u, index 1: joins, products and the
    # classes of the relabelled Z1xZ1 are those of Z1xZ1, relabelled
    rig, square = RELABELLED, ZOO["Z1xZ1"]
    assert ideals._tops(rig).tolist() == [0, 2, 3, 1]
    assert ideals.generated_ideal(rig, [1]).sorted_members() == (0, 1, 2, 3)
    assert ideals.generated_ideal(rig, [2, 3]).sorted_members() == (0, 1, 2, 3)
    p, q = ideals.enumerate_ideals(rig)[1:3]
    assert ideals.ideal_product(rig, p, q).sorted_members() == (0,)
    assert [cls for _, cls in ideals.classified_ideals(rig)] == \
        [cls for _, cls in ideals.classified_ideals(square)]
    for table in ("add", "mul"):
        assert (ideals._lattice_table(rig, table) == ideals._lattice_table(square, table)).all()


# -- the radical walk and the product positions against their earlier bodies ---

def reference_radical(rig, members):
    """The radical by all n power steps, the walk before its early stop."""
    mask = member_mask(rig, members)
    idx = np.arange(rig.size)
    acc, rad = idx, mask.copy()
    for _ in range(rig.size):
        acc = rig.mul_table[acc, idx]
        rad |= mask[acc]
    return frozenset(np.flatnonzero(rad).tolist())


@pytest.mark.parametrize("rig", [p for p in LATTICE_RIGS if p.values[0].mul_table is not None
                                 and p.values[0].commutative] + [
    pytest.param(builders.build_zn(9), id="Z9")])
def test_radical_stop_matches_the_full_walk(rig):
    # the listed ideals, and each {0, x}; in Z9 no square is 8 but 2^3 is,
    # so the radical of {0, 8} grows after a step that adds nothing
    sets = [i.members for i in ideals.enumerate_ideals(rig)] + [
        frozenset({0, x}) for x in rig.elements()]
    for members in sets:
        assert ideals.radical(rig, ideals.Ideal(rig, members)).members == \
            reference_radical(rig, members), sorted(members)


@pytest.mark.parametrize("rig", [p for p in LATTICE_RIGS if p.values[0].mul_table is not None])
def test_ideal_product_reads_the_listed_positions(rig):
    # the earlier body located each ideal by a gather of least[x] over its
    # members; every pair of listed ideals gives the same product
    listed = ideals.enumerate_ideals(rig)
    gathered = [int(ideals._least(rig)[list(i.members)].max()) for i in listed]
    assert gathered == list(range(len(listed)))
    table = ideals._lattice_table(rig, "mul")
    for a, i in enumerate(listed):
        for b, j in enumerate(listed):
            assert ideals.ideal_product(rig, i, j) is listed[table[gathered[a], gathered[b]]]
    # an Ideal built from the members, not taken from the list, is found too
    whole = listed[-1]
    copy = ideals.Ideal(rig, frozenset(whole.members))
    assert ideals.ideal_product(rig, copy, copy) is ideals.ideal_product(rig, whole, whole)
