import copy
import dataclasses
import random

import numpy as np
import pytest

from mvwrig import builders, core, frames, ideals, spectrum, suites
from mvwrig.errors import GateNotMet, MvwError, NotCommutative, SizeBound

from conftest import LADDER, ZOO


@pytest.fixture
def sz3():
    return spectrum.spec(ZOO["Z3"])


@pytest.fixture
def ssq():
    return spectrum.spec(ZOO["Z1xZ1"])


def test_spec_z3_single_point(sz3):
    assert [sorted(p) for p in sz3.points] == [[0]]
    assert [sorted(o) for o in sz3.opens] == [[], [0]]
    assert not sz3.unit_gated


def test_spec_square_two_points(ssq):
    assert [sorted(p) for p in ssq.points] == [[0, 1], [0, 2]]
    assert len(ssq.opens) == 4
    assert sorted(ssq.base[1]) == [0]
    assert sorted(ssq.base[2]) == [1]
    assert ssq.base[0] == ssq.all_points
    assert ssq.base[3] == frozenset()


def test_spec_t3_empty_and_gated():
    st = spectrum.spec(ZOO["T3"])
    assert st.points == ()
    assert st.unit_gated
    assert st.warnings


def test_spec_gates():
    with pytest.raises(NotCommutative):
        spectrum.spec(ZOO["M2(Z1)"])
    with pytest.raises(GateNotMet):
        spectrum.spec(ZOO["L3"])


def test_basic_open(ssq):
    assert spectrum.basic_open(ssq, 0) == ssq.all_points
    assert spectrum.basic_open(ssq, ssq.rig.u) == frozenset()
    assert sorted(spectrum.basic_open(ssq, 1)) == [0]


def test_t0(sz3, ssq):
    assert spectrum.is_t0(sz3)
    assert spectrum.is_t0(ssq)


def reference_is_t0(space):
    pts = range(len(space.points))
    return all(any((p in o) != (q in o) for o in space.opens)
               for p in pts for q in pts if p < q)


def _point_matrix(space):
    """[a, i]: bit i of word a, read one bit at a time; column i is point i."""
    p = len(space.points)
    return np.array([[w >> i & 1 for i in range(p)] for w in space.words.tolist()],
                    dtype=bool).reshape(len(space.words), p)


def _with_point(space, column):
    """A copy of a space with one more point, given as its column of the
    points matrix: the bit past the last point of each word.  The opens
    are the distinct words."""
    p = len(space.points)
    words = space.words | (column.astype(np.uint64) << np.uint64(p))
    return dataclasses.replace(
        space, points=space.points + (frozenset(np.flatnonzero(column).tolist()),),
        words=words,
        opens=tuple({frozenset(i for i in range(p + 1) if w >> i & 1) for w in words.tolist()}))


@pytest.mark.parametrize("rig", [
    pytest.param(r, id=k) for k, r in ZOO.items() if r.mul_table is not None and r.commutative
] + [pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)])
def test_t0_matches_the_pairwise_scan(rig):
    # the points as masks over the carrier against the earlier scan of every
    # pair of points over the opens: on each spectrum, on a copy with its
    # last point listed twice, which no open tells apart, and on a copy
    # with a point strictly inside the last one, which an open does
    space = spectrum.spec(rig)
    assert spectrum.is_t0(space) == reference_is_t0(space) is True
    if space.points:
        last = _point_matrix(space)[:, -1]
        twin = _with_point(space, last)
        assert spectrum.is_t0(twin) == reference_is_t0(twin) is False
        if last.sum() > 1:
            inner = last.copy()
            inner[np.flatnonzero(last)[-1]] = False
            smaller = _with_point(space, inner)
            assert spectrum.is_t0(smaller) == reference_is_t0(smaller) is True


def test_irreducible(sz3, ssq):
    assert spectrum.is_irreducible(sz3)
    assert not spectrum.is_irreducible(ssq)
    # witness: the two nonempty basic opens are disjoint
    assert ssq.base[1] & ssq.base[2] == frozenset()
    st = spectrum.spec(ZOO["T3"])
    assert not spectrum.is_irreducible(st)


def test_point_closure(ssq, sz3):
    assert spectrum.point_closure(ssq, 0) == frozenset({0})
    assert spectrum.point_closure(ssq, 1) == frozenset({1})
    assert spectrum.point_closure(sz3, 0) == frozenset({0})
    assert spectrum.set_closure(ssq, set()) == frozenset()
    assert spectrum.set_closure(ssq, {0, 1}) == frozenset({0, 1})


def test_spec_map_projection(ssq):
    z1 = ZOO["Z1"]
    square = ZOO["Z1xZ1"]
    f = ideals.Homomorphism(square, z1, (0, 0, 1, 1))
    phi = spectrum.spec_map(f)
    assert phi.target is ssq
    # the single point of Spec(Z1) pulls back to the kernel {(0,0),(0,1)}
    assert len(phi.mapping) == 1
    assert sorted(ssq.points[phi.mapping[0]]) == [0, 1]


def test_spec_map_identity(sz3):
    z3 = ZOO["Z3"]
    f = ideals.Homomorphism(z3, z3, tuple(range(4)))
    phi = spectrum.spec_map(f)
    assert phi.source is phi.target is sz3
    assert phi.mapping == (0,)


def test_spec_map_subalgebra_inclusion(sz3):
    z3 = ZOO["Z3"]
    sub, embedding = builders.subalgebra_closure(z3, {3})
    f = ideals.Homomorphism(sub, z3, embedding)
    phi = spectrum.spec_map(f)
    assert phi.source is sz3
    assert phi.mapping == (0,)


def test_radical_order_check(sz3, ssq):
    def order(space, a, b):
        # V(a) inside V(b) iff the radical of <b> is inside the radical of <a>
        rig = space.rig
        rad_a, rad_b = (ideals.radical(rig, ideals.generated_ideal(rig, {x})).members
                        for x in (a, b))
        by_opens = spectrum.basic_open(space, a) <= spectrum.basic_open(space, b)
        assert by_opens == (rad_b <= rad_a), (rig.name, a, b)
        return by_opens

    # V(b) is always contained in V(0)
    for b in range(4):
        assert order(sz3, b, 0)
    assert order(sz3, 2, 2)
    assert not order(ssq, 1, 2)
    assert not order(ssq, 2, 1)


def _rows(sets, width):
    """The sets of elements below ``width`` as rows of a boolean matrix."""
    rows = np.zeros((len(sets), width), dtype=bool)
    for i, s in enumerate(sets):
        rows[i, sorted(s)] = True
    return rows


def test_covering_edges_transitive_reduction():
    sets = [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({3})]
    edges = spectrum.covering_edges(_rows(sets, 4))
    assert (0, 1) in edges and (1, 2) in edges
    assert (0, 2) not in edges  # transitively implied
    assert (0, 3) in edges


# -- covering edges against their triple loop -----------------------------------
#
# ``covering_edges`` reads the transitive reduction off one float32 product
# of the strict-inclusion matrix.  This is the earlier body, a loop over
# every triple of sets.

def reference_covering_edges(sets):
    edges = []
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            if i != j and s < t:
                if not any(k != i and k != j and s < sets[k] < t
                           for k in range(len(sets))):
                    edges.append((i, j))
    return edges


@pytest.mark.parametrize("seed", range(40))
def test_covering_edges_match_the_triple_loop_on_random_families(seed):
    # small universes make duplicates and empty sets common; seed 0 draws
    # the empty family
    rng = random.Random(seed)
    universe = range(rng.randrange(1, 7))
    sets = [frozenset(x for x in universe if rng.random() < 0.5)
            for _ in range(seed % 13)]
    rows = _rows(sets, len(universe))
    assert spectrum.covering_edges(rows) == reference_covering_edges(sets), sets


@pytest.mark.parametrize("rig", [pytest.param(r, id=k) for k, r in ZOO.items()
                                 if r.mul_table is not None])
def test_covering_edges_match_the_triple_loop_on_the_zoo(rig):
    # the frame and the spectrum pass the rows they keep
    fr = frames.frame(rig)
    families = [(fr.masks, list(fr.pfilters))]
    if rig.commutative:
        space = spectrum.spec(rig)
        families += [(_point_matrix(space).T, list(space.points)),
                     (_rows(space.opens, len(space.points)), list(space.opens))]
    for rows, sets in families:
        assert rows.tolist() == _rows(sets, rows.shape[1]).tolist()
        assert spectrum.covering_edges(rows) == reference_covering_edges(sets)


def test_export_dot(sz3, ssq):
    dot = spectrum.export_dot(sz3)
    assert 'p0 [label="{0}"]' in dot
    assert "->" not in dot
    dot = spectrum.export_dot(ssq)
    assert dot.count("label=") == 2
    empty = spectrum.spec(ZOO["T3"])
    assert spectrum.export_dot(empty).count("label=") == 0


def test_export_json(ssq):
    doc = spectrum.export_json_doc(ssq)
    assert doc["points"] == [[0, 1], [0, 2]]
    assert doc["base"]["0"] == [0, 1]
    assert doc["base"]["3"] == []
    assert [sorted(o) for o in doc["opens"]] == [[], [0], [1], [0, 1]]


def test_spec_map_rejects_non_homomorphism():
    z3 = ZOO["Z3"]
    from mvwrig.errors import NotAHomomorphism
    with pytest.raises(NotAHomomorphism):
        spectrum.spec_map(ideals.Homomorphism(z3, z3, (0, 2, 1, 3)))


def union_closure(sets):
    """Every union of the given sets, the empty union included."""
    opens = {frozenset()} | set(sets)
    while True:
        fresh = {u | v for u in opens for v in opens} - opens
        if not fresh:
            return opens
        opens |= fresh


@pytest.mark.parametrize("rig", [
    pytest.param(r, id=k) for k, r in ZOO.items() if r.mul_table is not None and r.commutative
] + [pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)] + [
    pytest.param(builders.build_zn(63), id="Z63"),
    pytest.param(builders.direct_product([builders.gamma_zk(3, (1, 1, 1))] * 2), id="G3xG3"),
])
def test_opens_are_the_basic_opens(rig):
    space = spectrum.spec(rig)
    assert set(space.opens) == set(space.base.values())
    assert set(space.opens) == union_closure(space.base.values())


def test_spec_gates_run_before_the_size_bound(monkeypatch):
    # the gates come first and the enumeration bound next, on every call,
    # so a space kept on the structure is refused past a lowered bound
    rig = builders.build_zn(3)
    space = spectrum.spec(rig)
    monkeypatch.setenv("MVW_SIZE_BOUND", "3")
    with pytest.raises(NotCommutative, match=r"^M2\(Z1\) is not commutative$"):
        spectrum.spec(ZOO["M2(Z1)"])
    with pytest.raises(GateNotMet, match="^spectrum needs a product$"):
        spectrum.spec(ZOO["L3"])
    for read in (spectrum.spec, ideals.classified_ideals, ideals.enumerate_ideals):
        with pytest.raises(SizeBound, match="^carrier of 4 exceeds enumeration bound 3$"):
            read(rig)
    monkeypatch.delenv("MVW_SIZE_BOUND")
    assert spectrum.spec(rig) is space


@pytest.mark.parametrize("rig", [
    pytest.param(r, id=k) for k, r in ZOO.items() if r.mul_table is not None and r.commutative
] + [pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)])
def test_spec_reads_the_given_primes(rig):
    # the points are the proper primes ideals.prime_ideals gives; the space
    # is built once per structure and cannot be changed by a reader
    space = spectrum.spec(rig)
    assert space.points == tuple(sorted((p.members for p in ideals.prime_ideals(rig)),
                                        key=lambda s: (len(s), sorted(s))))
    assert spectrum.spec(rig) is space
    assert space.warnings == ((f"{rig.name} has no unitary element; unit-gated theorems "
                               f"are skipped",) if rig.unit is None else ())
    with pytest.raises(TypeError):
        space.base[0] = frozenset()


# -- the base laws against their scalar loops -----------------------------------
#
# ``spec`` checks V(a) ^ V(b) = V(a + b), then V(a) u V(b) = V(ab), with one
# kernel that gathers the words, one per element, over ``core._blocks`` of
# rows.  These are the earlier bodies, loops over all pairs.

def reference_intersection_law(rig, base):
    for a in rig.elements():
        for b in rig.elements():
            if base[a] & base[b] != base[rig.add(a, b)]:
                return f"V({a}) and V({b}) break the intersection law"


def reference_union_law(rig, base):
    for a in rig.elements():
        for b in rig.elements():
            if base[a] | base[b] != base[rig.mul(a, b)]:
                return f"V({a}) and V({b}) break the union law"


# selected by the prime ideals, not by ``spec``, so a defect in ``spec``
# fails the tests below instead of the collection of this file
BASE_LAW_RIGS = [
    pytest.param(r, id=k) for k, r in ZOO.items()
    if r.mul_table is not None and r.commutative and ideals.prime_ideals(r)
] + [pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)]


def test_base_law_structures_are_the_commutative_zoo_with_points_and_the_ladder():
    assert [p.id for p in BASE_LAW_RIGS] == [
        "Z1xZ1", "G1", "G2", "G3", "G110", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6",
        "G3xG2", "Z1^4", "Z2xZ3"]
    for p in BASE_LAW_RIGS:
        assert spectrum.spec(p.values[0]).points


# a whole space per block, the default budget, and one row per block
BLOCK_BUDGETS = [1 << 20, core._BLOCK_CELLS, 1]


def _corrupted_specs(rig, field, reference, monkeypatch):
    """Twenty copies of the structure, each with one cell of ``field``
    moved: the message ``spec`` raises on each, None when it passes,
    against the scalar loop's, and the last copy that failed.  Each
    shallow copy keeps no spectrum, and is given the primes of the
    structure it copies."""
    primes = ideals.prime_ideals(rig)
    base = spectrum.spec(rig).base
    monkeypatch.setattr(ideals, "prime_ideals", lambda r: primes)
    rng = random.Random(rig.size)
    outcomes, failed = [], None
    for _ in range(20):
        table = getattr(rig, field).copy()
        a, b = rng.randrange(rig.size), rng.randrange(rig.size)
        table[a, b] = (table[a, b] + rng.randrange(1, rig.size)) % rig.size
        fake = copy.copy(rig)
        setattr(fake, field, table)
        try:
            spectrum.spec(fake)
            got = None
        except MvwError as exc:
            got = str(exc)
            failed = fake
        outcomes.append((got, reference(fake, base), (a, b)))
    return outcomes, failed


@pytest.mark.parametrize("block", BLOCK_BUDGETS)
@pytest.mark.parametrize("rig", BASE_LAW_RIGS)
def test_intersection_law_matches_scalar_loop(rig, block, monkeypatch):
    # the intersection law runs first, so a corrupted sum keeps its witness
    monkeypatch.setattr(core, "_BLOCK_CELLS", block)
    outcomes, _ = _corrupted_specs(rig, "add_table", reference_intersection_law, monkeypatch)
    for got, expect, cell in outcomes:
        assert got == expect, cell
    assert any(got for got, _, _ in outcomes)


@pytest.mark.parametrize("block", BLOCK_BUDGETS)
@pytest.mark.parametrize("rig", BASE_LAW_RIGS)
def test_union_law_matches_scalar_loop(rig, block, monkeypatch):
    # a corrupted product leaves the intersection law intact; the union law
    # is checked by ``spec`` alone, so ``theta-iso`` reports its message
    monkeypatch.setattr(core, "_BLOCK_CELLS", block)
    outcomes, failed = _corrupted_specs(rig, "mul_table", reference_union_law, monkeypatch)
    for got, expect, cell in outcomes:
        assert got == expect, cell
    assert failed is not None
    if rig.unit is not None:
        # the frame of the intact structure, so the space is what fails
        fr = frames.frame(rig)
        original = frames.frame
        monkeypatch.setattr(frames, "frame", lambda r: fr if r is failed else original(r))
        monkeypatch.setitem(suites.SUITES, "locale",
                            [c for c in suites.SUITES["locale"] if c[0] == "theta-iso"])
        [result] = suites.run_suite(failed, "locale")
        with pytest.raises(MvwError) as exc:
            spectrum.spec(failed)
        assert (result.status, result.detail) == ("FAIL", str(exc.value))
        assert str(exc.value).endswith("break the union law")


# -- the words: one per element, bit i set iff point i holds it -----------------

COMMUTATIVE_RIGS = [
    pytest.param(r, id=k) for k, r in ZOO.items() if r.mul_table is not None and r.commutative
] + [pytest.param(LADDER[k](), id=k) for k in sorted(LADDER)]


@pytest.mark.parametrize("rig", COMMUTATIVE_RIGS)
def test_words_are_the_basic_opens(rig):
    space = spectrum.spec(rig)
    assert space.words.dtype == np.uint64 and space.words.shape == (rig.size,)
    assert not space.words.flags.writeable
    for a in rig.elements():
        for i in range(len(space.points)):
            assert bool(int(space.words[a]) >> i & 1) == (i in space.base[a]), (a, i)
        assert int(space.words[a]) >> len(space.points) == 0


@pytest.mark.parametrize("rig", COMMUTATIVE_RIGS + [
    pytest.param(builders.direct_product([builders.build_zn(1)] * 10), id="Z1^10")])
def test_a_spectrum_has_at_most_log2_n_points(rig):
    # each prime is meet-irreducible in the ideal lattice, a distributive
    # lattice of at most log2 n atoms of the idempotents (module docstring)
    assert 2 ** len(spectrum.spec(rig).points) <= rig.size


def test_spec_refuses_more_than_63_points(monkeypatch):
    # no MVW-rig has that many primes; the prime {0} of Z1 listed 63 times
    # still fits one word, 64 times it would not
    for count in (63, 64):
        rig = builders.build_zn(1)
        monkeypatch.setattr(ideals, "prime_ideals",
                            lambda r: [ideals.Ideal(r, frozenset({0}))] * count)
        if count == 63:
            assert spectrum.spec(rig).words.tolist() == [(1 << 63) - 1, 0]
        else:
            with pytest.raises(MvwError, match="^Z1 has 64 proper primes; "
                                               "a spectrum keeps at most 63 points$"):
                spectrum.spec(rig)


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_point_closure_checks_the_point_index(ssq, i):
    with pytest.raises(IndexError, match=rf"^point index {i} out of range 0..1$"):
        spectrum.point_closure(ssq, i)


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_specialization_downset_checks_the_point_index(ssq, i):
    with pytest.raises(IndexError, match=rf"^point index {i} out of range 0..1$"):
        spectrum.specialization_downset(ssq, i)


@pytest.mark.parametrize("i", [-1, 2])
def test_set_closure_checks_every_point_index(ssq, i):
    with pytest.raises(IndexError, match=rf"^point index {i} out of range 0..1$"):
        spectrum.set_closure(ssq, {0, i})


@pytest.mark.parametrize("a", [-1, 4, 9])
def test_v_of_set_checks_every_element_index(ssq, a):
    assert spectrum.v_of_set(ssq, {1}) == frozenset({0})
    with pytest.raises(IndexError, match=rf"^element index {a} out of range 0..3$"):
        spectrum.v_of_set(ssq, {1, a})


@pytest.mark.parametrize("rig", COMMUTATIVE_RIGS)
def test_projections_are_homeomorphisms_onto_v_of_the_ideal(rig, monkeypatch):
    # Spec(A/I) -> Spec(A) is a bijection onto V(I) carrying the opens of
    # Spec(A/I) onto the traces O ^ V(I); a copy of Spec(A/I) with its last
    # point listed twice passes every other clause of ``spec_map``, and the
    # homeomorphism clause, which runs on every surjection, refuses it
    space = spectrum.spec(rig)
    original = spectrum.spec
    for ideal in ideals.enumerate_ideals(rig):
        q = ideals.quotient(rig, ideal)
        f = ideals.Homomorphism(rig, q.rig, q.projection)
        phi = spectrum.spec_map(f)
        sub = frozenset(i for i, p in enumerate(space.points) if ideal.members <= p)
        assert sorted(phi.mapping) == sorted(sub), ideal.display()
        assert {frozenset(phi.mapping[j] for j in o) for o in phi.source.opens} == \
            {o & sub for o in space.opens}, ideal.display()
        if phi.source.points:
            twin = _with_point(phi.source, _point_matrix(phi.source)[:, -1])
            monkeypatch.setattr(spectrum, "spec", lambda r: twin if r is q.rig else original(r))
            with pytest.raises(MvwError, match="^surjective map does not induce a homeomorphism$"):
                spectrum.spec_map(f)
            monkeypatch.setattr(spectrum, "spec", original)
