import copy
import dataclasses
import itertools
import random

import numpy as np
import pytest

from mvwrig import builders, core, frames, spectrum, suites
from mvwrig.errors import EmptySeed, GateNotMet, MvwError, NotACover, SizeBound

import scalar_oracles
from conftest import LADDER, ZOO


def _members(row):
    return frozenset(np.flatnonzero(row).tolist())


def _closed(rig, seed):
    """The closure of a seed: a route to F_a and to generated P-filters
    that reads neither the principal table nor the frame."""
    return frames._closure(rig, np.isin(np.arange(rig.size), list(seed)))


def _principal(rig, a):
    return _members(_closed(rig, [a]))


@pytest.fixture
def z3():
    return ZOO["Z3"]


@pytest.fixture
def square():
    return ZOO["Z1xZ1"]


def test_dotsum_closure(z3):
    assert sorted(frames.dotsum_closure(z3, 1)) == [0, 1, 2, 3]
    assert sorted(frames.dotsum_closure(z3, 0)) == [0]
    assert sorted(frames.dotsum_closure(z3, 3)) == [0, 3]


def test_is_filter_vs_pfilter(z3):
    assert frames.is_filter(z3, {2, 3}) == (True, None)
    ok, witness = frames.is_pfilter(z3, {2, 3})
    assert not ok
    # 1+1 = 2 is a dotted sum of 1 that lies in the set, yet 1 does not
    assert witness == ("dotted-sum", (1, 2))
    assert frames.is_pfilter(z3, {1, 2, 3}) == (True, None)
    assert frames.is_pfilter(z3, set(range(4)))[0]
    assert not frames.is_filter(z3, set())[0]


def test_pfilter_needs_product():
    with pytest.raises(GateNotMet):
        frames.dotsum_closure(ZOO["L3"], 1)


def test_pfilter_generated(z3):
    assert frames.pfilter_generated(z3, {3}).sorted_members() == (1, 2, 3)
    assert frames.pfilter_generated(z3, {1}).sorted_members() == (1, 2, 3)
    assert frames.pfilter_generated(z3, {0}).sorted_members() == (0, 1, 2, 3)
    with pytest.raises(EmptySeed):
        frames.pfilter_generated(z3, set())


def test_pfilter_formula_agrees_on_commutative(z3, square):
    for rig in (z3, square, ZOO["T3"]):
        seeds, table = suites._seeds(rig.size, 1)
        for seed, row in zip(seeds, suites._pfilter_formula(rig, table, suites._dotted_sums(rig))):
            assert _members(row) == frames.pfilter_generated(rig, seed).members, seed


def test_principal_pfilters(z3):
    assert frames.principal_pfilter(z3, 0).sorted_members() == (0, 1, 2, 3)
    assert frames.principal_pfilter(z3, 3).sorted_members() == (1, 2, 3)
    assert frames.principal_pfilter(z3, 1).sorted_members() == (1, 2, 3)


def test_meet_and_join(z3):
    fr = frames.frame(z3)
    f1, f3 = (fr.index_of(_principal(z3, a)) for a in (1, 3))
    # F_1 meet F_3 = F_{1 v 3} = F_3 and F_1 join F_3 = F_{1.3} = F_3
    assert fr.pfilters[fr.meet_table[f1, f3]] == _principal(z3, z3.join(1, 3))
    assert fr.pfilters[fr.join_table[f1, f3]] == _principal(z3, z3.mul(1, 3))
    assert fr.meet_table[f1, fr.top] == f1


def test_frame_z3_is_two_chain(z3):
    fr = frames.frame(z3)
    assert [sorted(f) for f in fr.pfilters] == [[1, 2, 3], [0, 1, 2, 3]]
    assert fr.bottom == 0 and fr.top == 1
    assert fr.hasse_edges() == [(0, 1)]


def test_frame_trivial():
    fr = frames.frame(ZOO["trivial"])
    assert [sorted(f) for f in fr.pfilters] == [[0]]
    assert fr.bottom == fr.top == 0


def test_frame_square_matches_opens(square):
    fr = frames.frame(square)
    assert len(fr.pfilters) == 4
    space = spectrum.spec(square)
    assert len(space.opens) == len(fr.pfilters)


def test_frame_t3_collapses():
    # every element of the trivial-product chain squares to zero, so the
    # only P-filter is the whole carrier
    fr = frames.frame(ZOO["T3"])
    assert [sorted(f) for f in fr.pfilters] == [[0, 1, 2]]


def test_pfilter_decomposition_everywhere(z3, square):
    for rig in (z3, square, ZOO["T3"], ZOO["G110"]):
        fr = frames.frame(rig)
        prin = {a: _principal(rig, a) for a in rig.elements()}
        for f in fr.pfilters:
            assert set().union(*(prin[a] for a in f)) == set(f)


def test_theta_z3(z3):
    tm = frames.theta(z3)
    mapping = {tuple(sorted(o)): sorted(tm.frame.pfilters[i])
               for o, i in zip(tm.space.opens, tm.open_to_filter)}
    assert mapping[()] == [1, 2, 3]       # empty open -> F_u
    assert mapping[(0,)] == [0, 1, 2, 3]  # whole spectrum -> F_0


def test_theta_square(square):
    tm = frames.theta(square)
    assert len(tm.space.opens) == len(tm.frame.pfilters) == 4
    assert sorted(tm.open_to_filter) == [0, 1, 2, 3]


def test_theta_trivial():
    tm = frames.theta(ZOO["trivial"])
    assert len(tm.space.opens) == len(tm.frame.pfilters) == 1


def test_theta_gates():
    with pytest.raises(GateNotMet):
        frames.theta(ZOO["T3"])  # no unit


def test_finite_subcover_examples(z3, square):
    assert frames.finite_subcover(z3, [0]) == [0]
    assert frames.finite_subcover(square, [1, 2]) == [1, 2]
    with pytest.raises(NotACover):
        frames.finite_subcover(z3, [3])
    with pytest.raises(NotACover):
        frames.finite_subcover(z3, [])


def test_finite_subcover_zero_squaring_structure():
    # in the trivial-product chain the bottom P-filter is already the whole
    # carrier, so even the empty subfamily covers
    t3 = ZOO["T3"]
    assert frames.finite_subcover(t3, [1]) == []
    assert frames.finite_subcover(t3, []) == []


def test_finite_subcover_is_sound_for_all_basic_covers(square):
    fr = frames.frame(square)
    prin = {a: _principal(square, a) for a in square.elements()}
    full = frozenset(square.elements())
    for k in range(1, 5):
        for gens in itertools.combinations(range(4), k):
            join = fr.join_of(fr.index_of(prin[g]) for g in gens)
            if fr.pfilters[join] != full:
                with pytest.raises(NotACover):
                    frames.finite_subcover(square, list(gens))
                continue
            sub = frames.finite_subcover(square, list(gens))
            back = fr.join_of(fr.index_of(prin[g]) for g in sub) if sub else fr.bottom
            assert fr.pfilters[back] == full


def test_export_json_doc(square):
    fr = frames.frame(square)
    doc = frames.export_json_doc(fr)
    assert doc["pfilters"][0] == [3]
    assert doc["pfilters"][-1] == [0, 1, 2, 3]
    assert sorted(doc["hasse"]) == [[0, 1], [0, 2], [1, 3], [2, 3]]


# -- cross-check against the scalar definitions --------------------------------
#
# The library tests the P-filter clauses, generates P-filters and builds the
# frame with boolean masks over the operation tables, reading the dotted-sum
# clause off the largest dotted sum of each element.  These loops are the
# definitions, element by element over the tables as Python lists, visiting
# members in ascending order as the library's witnesses do; the frame
# reference scans every upward-closed subset.

FRAME_LADDER = dict(LADDER, **{
    "Z1^3": lambda: builders.direct_product([builders.build_zn(1)] * 3),
    "M2(Z2)": lambda: builders.build_matrix_rig(builders.build_zn(2), 2),
})
REFERENCE_RIGS = [pytest.param(r, id=k) for k, r in ZOO.items() if r.mul_table is not None] + \
    [pytest.param(FRAME_LADDER[k](), id=k) for k in sorted(FRAME_LADDER)]


class Scalar:
    """The scalar definitions on one structure."""

    def __init__(self, rig):
        self.n = rig.size
        self.leq = rig.leq_table.tolist()
        self.add = rig.add_table.tolist()
        self.mul = rig.mul_table.tolist()
        self.dotsums = [self._dotsums(x) for x in range(self.n)]
        self.up = [{b for b in range(self.n) if self.leq[a][b]} for a in range(self.n)]

    def _dotsums(self, x):
        out = {self.mul[b][x] for b in range(self.n)}
        frontier = set(out)
        while frontier:
            fresh = set()
            for p in frontier:
                for q in out:
                    for r in (self.add[p][q], self.add[q][p]):
                        if r not in out:
                            fresh.add(r)
            out |= fresh
            frontier = fresh
        return frozenset(out)

    def is_filter(self, members):
        s = set(members)
        if not s:
            return False, ("nonempty", ())
        for a in sorted(s):
            for b in range(self.n):
                if self.leq[a][b] and b not in s:
                    return False, ("upward", (a, b))
        for a in sorted(s):
            for b in sorted(s):
                if self.mul[a][b] not in s:
                    return False, ("product", (a, b))
        return True, None

    def is_pfilter(self, members):
        ok, witness = self.is_filter(members)
        if not ok:
            return ok, witness
        s = set(members)
        for x in range(self.n):
            hit = self.dotsums[x] & s
            if x not in s and hit:
                return False, ("dotted-sum", (x, min(hit)))
        return True, None

    def generated(self, seed):
        members = set(seed)
        while True:
            fresh = set()
            for a in members:
                fresh.update(self.up[a])
                fresh.update(self.mul[a][b] for b in members)
            fresh.update(x for x in range(self.n) if self.dotsums[x] & members)
            fresh -= members
            if not fresh:
                return frozenset(members)
            members |= fresh

    def upsets(self):
        principal = {frozenset(b for b in range(self.n) if self.leq[a][b])
                     for a in range(self.n)}
        out = {frozenset()} | principal
        frontier = set(out)
        while frontier:
            fresh = {u | p for u in frontier for p in principal} - out
            out |= fresh
            frontier = fresh
        return out

    def all_pfilters(self):
        found = [u for u in self.upsets() if u and self.is_pfilter(u)[0]]
        return sorted(found, key=lambda s: (len(s), sorted(s)))


def candidates(rig, limit):
    """Every subset of a carrier of at most 8 elements; otherwise every
    subset of at most ``limit`` elements and every P-filter with one
    element added or removed."""
    if rig.size <= 8:
        return [frozenset(c) for k in range(rig.size + 1)
                for c in itertools.combinations(range(rig.size), k)]
    out = {frozenset(c) for k in range(limit + 1)
           for c in itertools.combinations(range(rig.size), k)}
    for f in frames.frame(rig).pfilters:
        out.update(f ^ {x} for x in rig.elements())
    return sorted(out, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("rig", REFERENCE_RIGS)
def test_membership_matches_scalar_definitions(rig):
    ref = Scalar(rig)
    tops = frames._dotsum_tops(rig)
    for x in rig.elements():
        assert frames.dotsum_closure(rig, x) == ref.dotsums[x]
        assert tops[x] == max(ref.dotsums[x])
    for s in candidates(rig, 2):
        assert frames.is_filter(rig, s) == ref.is_filter(s), sorted(s)
        assert frames.is_pfilter(rig, s) == ref.is_pfilter(s), sorted(s)


@pytest.mark.parametrize("rig", REFERENCE_RIGS)
def test_generated_pfilters_match_scalar_closure(rig):
    # seeds of size 2 on the 81-element M2(Z2) would cost seconds
    ref = Scalar(rig)
    for seed in candidates(rig, 2 if rig.size <= 32 else 1):
        if seed:
            assert frames.pfilter_generated(rig, seed).members == ref.generated(seed), \
                sorted(seed)


@pytest.mark.parametrize("rig", [p for p in REFERENCE_RIGS if p.id != "M2(Z2)"])
def test_frame_matches_upset_scan(rig):
    ref = Scalar(rig)
    filters = ref.all_pfilters()
    fr = frames.frame(rig)
    assert list(fr.pfilters) == filters
    index = {f: i for i, f in enumerate(filters)}
    for i, f in enumerate(filters):
        for j, g in enumerate(filters):
            assert fr.join_table[i][j] == index[ref.generated(f | g)]
            assert fr.meet_table[i][j] == index[f & g]


def test_frame_tables_are_read_only(zoo):
    # one frame is shared by every check on a structure
    fr = frames.frame(zoo["Z3"])
    for table in (fr.join_table, fr.meet_table, fr.masks):
        with pytest.raises(ValueError):
            table[0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fr.top = 0


def test_frame_cap_is_checked_on_every_call(monkeypatch):
    # the frame is built once; each call reads the cap and checks it first
    rig = builders.build_zn(3)
    fr = frames.frame(rig)
    monkeypatch.setattr(frames, "DEFAULT_FRAME_BOUND", 3)
    with pytest.raises(SizeBound, match="^carrier of 4 exceeds frame bound 3$"):
        frames.frame(rig)
    monkeypatch.setattr(frames, "DEFAULT_FRAME_BOUND", 4)
    assert frames.frame(rig) is fr


def test_frame_and_theta_honour_mvw_size_bound(monkeypatch):
    # the one variable caps the frame for library calls too, over the default
    rig = builders.build_zn(3)
    fr = frames.frame(rig)
    monkeypatch.setenv("MVW_SIZE_BOUND", "3")
    for call in (frames.frame, frames.theta):
        with pytest.raises(SizeBound, match="^carrier of 4 exceeds frame bound 3$"):
            call(rig)
    monkeypatch.setattr(frames, "DEFAULT_FRAME_BOUND", 3)
    monkeypatch.setenv("MVW_SIZE_BOUND", "4")
    assert frames.frame(rig) is fr
    assert frames.theta(rig).frame is fr
    monkeypatch.setenv("MVW_SIZE_BOUND", "0")
    with pytest.raises(SizeBound, match="^MVW_SIZE_BOUND=0 is not a positive integer$"):
        frames.frame(rig)


def test_generated_pfilters_and_covers_honour_the_frame_cap(monkeypatch):
    # both read the frame, so both meet its cap, the default or the
    # variable, on every call, before the kept frame is read
    rig = builders.build_zn(3)
    frames.frame(rig)
    calls = (lambda: frames.pfilter_generated(rig, [1]),
             lambda: frames.finite_subcover(rig, [0]))
    for name, value in (("DEFAULT_FRAME_BOUND", 3), ("MVW_SIZE_BOUND", "3")):
        with monkeypatch.context() as patch:
            if name == "MVW_SIZE_BOUND":
                patch.setenv(name, value)
            else:
                patch.setattr(frames, name, value)
            for call in calls:
                with pytest.raises(SizeBound, match="^carrier of 4 exceeds frame bound 3$"):
                    call()
    assert frames.pfilter_generated(rig, [1]).sorted_members() == (1, 2, 3)
    assert frames.finite_subcover(rig, [0]) == [0]


# -- binary-law verification against the subset scans ---------------------------
#
# ``_verify_theta`` proves the open-to-filter map well defined from the
# bottom and pairwise laws, and ``finite_subcover`` answers every cover
# question with one read of the frame.  These are the earlier bodies: the
# scan of every element subset as a presentation of an open, and the
# subcover that asks ``pfilter_generated``.

def reference_theta_map(rig, space, fr, principal_idx):
    """Each open goes to the join of the principal filters of every element
    whose basic open lies inside it."""
    return tuple(fr.join_of(principal_idx[a] for a in rig.elements() if space.base[a] <= u)
                 for u in space.opens)


def reference_verify_theta(rig, tm, principal_idx):
    space, fr = tm.space, tm.frame
    open_index = {o: i for i, o in enumerate(space.opens)}
    for rset in itertools.chain.from_iterable(
            itertools.combinations(range(rig.size), k) for k in range(rig.size + 1)):
        u = frozenset().union(*(space.base[a] for a in rset)) if rset else frozenset()
        expect = tm.open_to_filter[open_index[u]]
        if fr.join_of(principal_idx[a] for a in rset) != expect:
            raise MvwError(f"open map depends on the presentation {rset}")
    if sorted(set(tm.open_to_filter)) != list(range(len(fr.pfilters))):
        raise MvwError("open map is not a bijection onto the P-filters")
    for i, u in enumerate(space.opens):
        for j, w in enumerate(space.opens):
            fu, fw = tm.open_to_filter[i], tm.open_to_filter[j]
            if tm.open_to_filter[open_index[u | w]] != fr.join_table[fu][fw]:
                raise MvwError("open map does not preserve joins")
            if tm.open_to_filter[open_index[u & w]] != fr.meet_table[fu][fw]:
                raise MvwError("open map does not preserve meets")
            if (u <= w) != (fr.pfilters[fu] <= fr.pfilters[fw]):
                raise MvwError("open map does not preserve order")


def reference_finite_subcover(rig, generators):
    gens = [rig._check(g) for g in generators]
    if _closed(rig, [rig.u]).all():
        return []
    parent = {}
    frontier = []
    for g in gens:
        if g not in parent:
            parent[g] = (None, g)
            frontier.append(g)
    found = 0 in parent
    while frontier and not found:
        fresh = []
        for v in frontier:
            for g in gens:
                w = rig.mul(v, g)
                if w not in parent:
                    parent[w] = (v, g)
                    fresh.append(w)
                    if w == 0:
                        found = True
        frontier = fresh
    if 0 not in parent:
        if not gens or frames.pfilter_generated(rig, set(gens)).members != \
                frozenset(rig.elements()):
            raise NotACover("the principal filters of the generators have a proper join")
        return list(dict.fromkeys(gens))
    used = set()
    node = 0
    while node is not None:
        prev, g = parent[node]
        used.add(g)
        node = prev
    sub = [g for g in dict.fromkeys(gens) if g in used]
    if frames.pfilter_generated(rig, set(sub)).members != frozenset(rig.elements()):
        raise MvwError("extracted subfamily does not cover")
    return sub


def _theta_ready(rig):
    return (rig.mul_table is not None and rig.commutative and rig.unit is not None
            and rig.size <= suites.SUBSET_SIZE_LIMIT)


THETA_RIGS = [p for p in REFERENCE_RIGS if _theta_ready(p.values[0])]


@pytest.mark.parametrize("rig", THETA_RIGS)
def test_theta_binary_verification_matches_subset_scan(rig):
    space, fr = spectrum.spec(rig), frames.frame(rig)
    tm = frames._theta_map(rig)
    assert tm.space is space
    old_idx = {a: fr.index_of(_principal(rig, a)) for a in rig.elements()}
    assert fr.principal.tolist() == [old_idx[a] for a in rig.elements()]
    assert tm.open_to_filter == reference_theta_map(rig, space, fr, old_idx)
    frames._verify_theta(rig, tm, fr.principal)
    reference_verify_theta(rig, tm, old_idx)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rig", [p for p in THETA_RIGS
                                 if len(frames.frame(p.values[0]).pfilters) > 1])
def test_theta_corruptions_fail_both_verifications(rig, seed):
    rng = random.Random(seed)
    fr = frames.frame(rig)
    tm = frames._theta_map(rig)
    idx = fr.principal.tolist()
    k = len(fr.pfilters)

    def both_raise(tm, idx):
        with pytest.raises(MvwError):
            frames._verify_theta(rig, tm, idx)
        with pytest.raises(MvwError):
            reference_verify_theta(rig, tm, dict(enumerate(idx)))

    for table in ("join_table", "meet_table"):
        cells = getattr(fr, table).copy()
        i, j = rng.randrange(k), rng.randrange(k)
        cells[i, j] = (cells[i, j] + rng.randrange(1, k)) % k
        both_raise(dataclasses.replace(tm, frame=dataclasses.replace(fr, **{table: cells})), idx)

    mapping = list(tm.open_to_filter)
    i, j = rng.sample(range(len(mapping)), 2)
    mapping[i], mapping[j] = mapping[j], mapping[i]
    both_raise(dataclasses.replace(tm, open_to_filter=tuple(mapping)), idx)

    wrong = list(idx)
    a = rng.randrange(rig.size)
    wrong[a] = (wrong[a] + rng.randrange(1, k)) % k
    both_raise(tm, wrong)


@pytest.mark.parametrize("rig", [p for p in THETA_RIGS
                                 if len(frames.frame(p.values[0]).pfilters) > 1])
def test_theta_fails_on_a_corrupted_points_matrix_or_open_index(rig, monkeypatch):
    # theta reads the spectrum's kept words, bit p of word a set iff point p
    # holds a, and its open index; a copy of the space with any one bit of
    # a word flipped, or any one label changed, is refused
    space = spectrum.spec(rig)
    copies = []
    for a in rig.elements():
        for p in range(len(space.points)):
            words = space.words.copy()
            words[a] ^= np.uint64(1 << p)
            copies.append(dataclasses.replace(space, words=words))
        for o in range(len(space.opens)):
            if o != space.open_of[a]:
                open_of = space.open_of.copy()
                open_of[a] = o
                copies.append(dataclasses.replace(space, open_of=open_of))
    original = spectrum.spec
    for bad in copies:
        monkeypatch.setattr(spectrum, "spec", lambda r: bad if r is rig else original(r))
        with pytest.raises(MvwError):
            frames.theta(rig)
    monkeypatch.setattr(spectrum, "spec", original)
    assert frames.theta(rig).space is space


def test_theta_refuses_relabelled_opens(square, monkeypatch):
    # opens 1 and 2 of Z1xZ1, {0} and {1}, swap labels: every gather over
    # open_of stays consistent, so only tying each label to word a of the
    # space catches it; unchecked, theta sends the open {0} = V(1)
    # to the filter {2, 3} = F_2 instead of F_1 = {1, 3}
    space = spectrum.spec(square)
    assert space.opens[1:3] == (frozenset({0}), frozenset({1}))
    relabelled = dataclasses.replace(space, open_of=np.array([0, 2, 1, 3])[space.open_of])
    original = spectrum.spec
    monkeypatch.setattr(spectrum, "spec", lambda r: relabelled if r is square else original(r))
    with pytest.raises(MvwError, match=r"^open 2 is not V\(1\) at \(1,\)$"):
        frames.theta(square)


def _generator_sets(rig):
    """Every element subset of a carrier of at most SUBSET_SIZE_LIMIT
    elements; on larger ones (M2(Z1), with 2^16 subsets, each costing the
    reference two verified ``pfilter_generated`` calls) those of at most 3
    elements and their complements."""
    if rig.size <= suites.SUBSET_SIZE_LIMIT:
        return [c for k in range(rig.size + 1) for c in itertools.combinations(rig.elements(), k)]
    small = [c for k in range(4) for c in itertools.combinations(rig.elements(), k)]
    return small + [tuple(sorted(set(rig.elements()) - set(c))) for c in small]


SUBCOVER_RIGS = [pytest.param(r, id=k) for k, r in ZOO.items() if r.mul_table is not None] + \
    [pytest.param(FRAME_LADDER["Z1^3"](), id="Z1^3")]


@pytest.mark.parametrize("rig", SUBCOVER_RIGS)
def test_finite_subcover_matches_reference(rig, monkeypatch):
    calls = []
    original = frames.pfilter_generated

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(frames, "pfilter_generated", counted)
    for gens in _generator_sets(rig):
        try:
            expect = reference_finite_subcover(rig, list(gens))
        except MvwError as exc:
            expect = type(exc)
        before = len(calls)
        try:
            got = frames.finite_subcover(rig, list(gens))
        except MvwError as exc:
            got = type(exc)
        assert got == expect, gens
        assert len(calls) == before, "finite_subcover asked pfilter_generated"


# -- the dotted-sum oracle against its gather body ------------------------------
#
# ``_pfilter_formula`` closes every seed row under products at once and reads
# the dotted sums of each element off one table.  The references are the
# per-seed body in ``scalar_oracles``, which reads the up-set of the product
# closure once, and the earlier body below, one ``np.ix_`` gather of the
# order per element.

def reference_pfilter_by_formula(rig, seed, dotsums):
    prods = set(seed)
    while True:
        grown = prods | set(rig.mul_table[np.ix_(sorted(prods), sorted(prods))].flat)
        if grown == prods:
            break
        prods = grown
    return frozenset(x for x in rig.elements()
                     if rig.leq_table[np.ix_(sorted(prods), sorted(dotsums[x]))].any())


@pytest.mark.parametrize("rig", [p for p in REFERENCE_RIGS
                                 if p.values[0].size <= suites.SUBSET_SIZE_LIMIT])
def test_pfilter_formula_matches_gather_body(rig):
    dotsums = {x: frames.dotsum_closure(rig, x) for x in rig.elements()}
    seeds, table = suites._seeds(rig.size, 1)
    for seed, row in zip(seeds, suites._pfilter_formula(rig, table, suites._dotted_sums(rig))):
        assert _members(row) == reference_pfilter_by_formula(rig, seed, dotsums) == \
            scalar_oracles.pfilter_by_formula(rig, seed, dotsums), seed


@pytest.mark.parametrize("rig", [p for p in REFERENCE_RIGS
                                 if p.values[0].size <= suites.BRUTE_PFILTER_LIMIT])
def test_pfilter_definition_on_every_subset(rig):
    # ``pfilters-complete`` reads the definition off its seed table, not
    # ``is_pfilter``; both must agree with the scalar clauses everywhere
    ref = Scalar(rig)
    seeds, table = suites._seeds(rig.size)
    for seed, held in zip(seeds, suites._pfilter_rows(rig, table, suites._dotted_sums(rig))):
        assert held == frames.is_pfilter(rig, seed)[0] == ref.is_pfilter(seed)[0], seed


# -- the principal table against closures ---------------------------------------
#
# ``principal_table`` closes each distinct seed row once, verifies each
# distinct F_a and certifies that a lies in F_ab for every pair; the frame is
# listed from the table, and generated P-filters, cover questions and
# ``principal_pfilter`` read the frame or the table.  The references are the
# closures of {a} and of the seeds, the seed rows' definition element by
# element, and the earlier frame, the k x n closure of the principal filters
# under binary join.

TABLE_RIGS = REFERENCE_RIGS + [
    pytest.param(builders.direct_product([builders.build_zn(1)] * 5), id="Z1^5")]


def _covers(rig, seed):
    try:
        frames.finite_subcover(rig, list(seed))
    except NotACover:
        return False
    return True


@pytest.mark.parametrize("rig", TABLE_RIGS)
def test_seed_rows_lie_between_a_and_its_closure(rig):
    # row a holds x exactly when a^k <= s(x) for some k >= 1, s(x) the
    # largest dotted sum of x; it holds a and lies inside F_a, and on a
    # commutative product it is F_a itself
    seeds = frames._seed_rows(rig)
    mul, leq = rig.mul_table.tolist(), rig.leq_table.tolist()
    tops = [max(frames.dotsum_closure(rig, x)) for x in rig.elements()]
    differ = []
    for a in rig.elements():
        powers, p = {a}, a
        for _ in range(rig.size):
            p = mul[p][a]
            powers.add(p)
        assert seeds[a].tolist() == [any(leq[q][tops[x]] for q in powers)
                                     for x in rig.elements()], a
        closed = _closed(rig, [a])
        assert seeds[a, a] and not (seeds[a] & ~closed).any(), a
        if (seeds[a] != closed).any():
            differ.append(a)
    # on M2(Z1) and M2(Z2) some seed rows still need the closure
    assert bool(differ) == (not rig.commutative), differ


@pytest.mark.parametrize("rig", TABLE_RIGS)
def test_table_route_matches_closure_on_small_seeds(rig):
    # generated P-filters and cover questions read the frame listed from the
    # table; each answer equals the closure of the seed
    prin = frames.principal_table(rig)
    # every commutative product is certified; M2(Z1) and M2(Z2) are not
    assert prin.certified == rig.commutative
    for seed in itertools.chain(itertools.combinations(rig.elements(), 1),
                                itertools.permutations(rig.elements(), 2)):
        closed = _closed(rig, seed)
        assert frames.pfilter_generated(rig, seed).members == core._members(closed), seed
        assert _covers(rig, seed) == closed.all(), seed
    for a in rig.elements():
        assert prin.masks[prin.index[a]].tolist() == _closed(rig, [a]).tolist()
        assert prin.pfilters[prin.index[a]] == _principal(rig, a)
        # the single-element route reads the table's own member set
        assert frames.principal_pfilter(rig, a).members is prin.pfilters[prin.index[a]]


def least_listed(fr, seed):
    """The index of the first listed frame filter holding the seed: the
    least one, the route generated P-filters and covers took before the
    join table was folded."""
    return int(fr.masks[:, list(seed)].all(axis=1).argmax())


@pytest.mark.parametrize("rig", TABLE_RIGS)
def test_join_fold_matches_the_least_listed_filter(rig):
    # the fold returns the frame's own member set
    fr = frames.frame(rig)
    for seed in itertools.chain(itertools.combinations(rig.elements(), 1),
                                itertools.permutations(rig.elements(), 2)):
        assert frames.pfilter_generated(rig, seed).members is fr.pfilters[least_listed(fr, seed)]
        assert _covers(rig, seed) == (least_listed(fr, seed) == fr.top), seed


def reference_frame(rig):
    """The earlier frame: every P-filter as the closure of the n principal
    filters under binary join, then, over the inclusion order, the least
    upper bound and the greatest lower bound of every pair."""
    principal = [frames._closure(rig, e) for e in np.eye(rig.size, dtype=bool)]
    found = {}
    todo = list(principal)
    while todo:
        mask = todo.pop()
        key = core._members(mask)
        if key not in found:
            found[key] = mask
            todo.extend(frames._closure(rig, mask | p) for p in principal)
    filters = sorted(found, key=lambda s: (len(s), sorted(s)))
    k = len(filters)
    join = [[min(m for m in range(k) if f | g <= filters[m]) for g in filters]
            for f in filters]
    meet = [[max(m for m in range(k) if filters[m] <= f & g) for g in filters]
            for f in filters]
    return filters, join, meet


FRAME_RIGS = [p for p in TABLE_RIGS if p.id != "M2(Z2)"] + [
    pytest.param(FRAME_LADDER["M2(Z2)"](), id="M2(Z2)")]


@pytest.mark.parametrize("rig", FRAME_RIGS)
def test_frame_matches_join_closure(rig):
    filters, join, meet = reference_frame(rig)
    fr = frames.frame(rig)
    assert list(fr.pfilters) == filters
    assert fr.masks.tolist() == [[x in f for x in rig.elements()] for f in filters]
    assert fr.join_table.tolist() == join
    assert fr.meet_table.tolist() == meet
    assert fr.pfilters[fr.bottom] == filters[0]
    assert fr.pfilters[fr.top] == frozenset(rig.elements())


@pytest.mark.parametrize("rig", [p for p in TABLE_RIGS if p.values[0].commutative])
def test_uncertified_table_matches_fallback(rig, monkeypatch):
    # a copy whose table is forced to be uncertified answers by closures and
    # the join closure; every answer equals the certified reads
    twin = copy.copy(rig)
    forced = dataclasses.replace(frames.principal_table(rig), rig=twin, certified=False)
    table = frames.principal_table
    monkeypatch.setattr(frames, "principal_table", lambda r: forced if r is twin else table(r))
    fr, fallback = frames.frame(rig), frames.frame(twin)
    for field in ("pfilters", "bottom", "top"):
        assert getattr(fr, field) == getattr(fallback, field)
    for field in ("masks", "join_table", "meet_table"):
        assert (getattr(fr, field) == getattr(fallback, field)).all()
    for gens in itertools.chain(itertools.combinations(rig.elements(), 2),
                                itertools.combinations(rig.elements(), 3)):
        assert frames.pfilter_generated(twin, gens).members == \
            frames.pfilter_generated(rig, gens).members
        try:
            expect = frames.finite_subcover(rig, list(gens))
        except NotACover:
            expect = NotACover
        try:
            got = frames.finite_subcover(twin, list(gens))
        except NotACover:
            got = NotACover
        assert got == expect, gens


def test_frame_fallback_closes_a_partial_table_under_join(monkeypatch):
    # an uncertified table of F_u and the coatoms' rows alone: the join
    # closure must rebuild all eight P-filters of Z1^3
    rig = builders.direct_product([builders.build_zn(1)] * 3)
    full, table = frames.frame(rig), frames.principal_table(rig)
    coatoms = [a for a in rig.elements() if rig.leq_table[a].sum() == 2]
    rows = table.masks[table.index[[rig.u, *coatoms]]]
    twin = copy.copy(rig)
    partial = dataclasses.replace(table, rig=twin, certified=False, masks=rows,
                                  pfilters=tuple(core._members(r) for r in rows))
    original = frames.principal_table
    monkeypatch.setattr(frames, "principal_table",
                        lambda r: partial if r is twin else original(r))
    fr = frames.frame(twin)
    assert len(coatoms) == 3 and len(fr.pfilters) == 8
    for field in ("pfilters", "bottom", "top"):
        assert getattr(fr, field) == getattr(full, field)
    for field in ("masks", "join_table", "meet_table"):
        assert (getattr(fr, field) == getattr(full, field)).all()


@pytest.mark.parametrize("rig", TABLE_RIGS)
def test_principal_table_verifies_each_distinct_row_once(rig, monkeypatch):
    # a shallow copy starts with no table, so its one build is counted; the
    # second call reads the kept table.  Each distinct seed row is closed
    # once, in canonical order, and the closure is the only verification:
    # the build calls no ``is_pfilter``
    rig = copy.copy(rig)
    verified, closed = [], []
    closure = frames._closure

    def counted_closure(r, mask):
        closed.append(mask.tobytes())
        return closure(r, mask)

    monkeypatch.setattr(frames, "is_pfilter", lambda r, members: verified.append(members))
    monkeypatch.setattr(frames, "_closure", counted_closure)
    prin = frames.principal_table(rig)
    assert frames.principal_table(rig) is prin
    assert verified == []
    assert sorted(closed) == sorted({row.tobytes() for row in frames._seed_rows(rig)})


@pytest.mark.parametrize("rig", TABLE_RIGS)
def test_every_closure_is_the_scalar_pfilter_of_its_seed(rig, monkeypatch):
    # the fixpoint of the closure is the only proof that a row is a
    # P-filter.  Every closure the principal table and the frame make (the
    # seed rows, and on M2(Z1) and M2(Z2) the join closures of the fallback)
    # holds its seed, passes ``is_pfilter`` and is the scalar generated
    # P-filter; so is every row F_a, which holds a
    rig, ref = copy.copy(rig), Scalar(rig)
    closures = []
    closure = frames._closure

    def recorded(r, mask):
        out = closure(r, mask)
        closures.append((core._members(mask), core._members(out)))
        return out

    monkeypatch.setattr(frames, "_closure", recorded)
    prin = frames.principal_table(rig)
    table_closures = len(closures)
    fr = frames.frame(rig)
    # only the uncertified table of a noncommutative product falls back
    assert (len(closures) > table_closures) == (not prin.certified) == (not rig.commutative)
    for seed, members in set(closures):
        assert seed <= members, sorted(seed)
        assert frames.is_pfilter(rig, members) == (True, None), sorted(seed)
        assert members == ref.generated(seed), sorted(seed)
    for a in rig.elements():
        members = prin.pfilters[prin.index[a]]
        assert a in members and members == ref.generated({a}), a
        assert frames.is_pfilter(rig, members) == (True, None), a
    assert set(prin.pfilters) <= set(fr.pfilters)
