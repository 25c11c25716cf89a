"""P-filters and their frame.

A filter is a nonempty upward-closed, product-closed subset; a P-filter
additionally swallows x whenever some finite dotted sum b1.x + .. + bm.x
belongs to it.  The dotted sums of x form a finite set closed under the
sum, so they have a largest element: the stable multiple of the sum of
all multiples b.x.  A P-filter is upward closed, so the dotted-sum clause
becomes one lookup of that largest sum, and membership tests and
generation are boolean masks over the operation tables.

The collection of all P-filters, ordered by inclusion, is a frame: meets
are intersections, joins are generated P-filters, and binary meets
distribute over arbitrary (here: finite) joins.  Every P-filter F is the
join of the principal filters F_a of its members, with or without a
commutative product, so the frame is the closure of the n principal
filters under binary join; no subset scan is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ideals, spectrum
from .core import FiniteMvwRig
from .errors import (
    EmptySeed,
    GateNotMet,
    MvwError,
    NotACover,
    NotCommutative,
    SizeBound,
)

#: Carrier cap for the frame: it bounds the k x k join and meet tables and
#: the 2^n presentation scan that verifies theta.
DEFAULT_FRAME_BOUND = 16


@dataclass(frozen=True)
class PFilter:
    rig: FiniteMvwRig
    members: frozenset

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def display(self) -> str:
        return ideals.format_subset(self.rig, self.members)


def _require_product(rig):
    if rig.mul_table is None:
        raise GateNotMet("P-filters need a product")


def _members(mask) -> frozenset:
    return frozenset(np.flatnonzero(mask).tolist())


def dotsum_closure(rig: FiniteMvwRig, x: int) -> frozenset:
    """All finite sums b1.x + .. + bm.x: the sum closure of the multiples
    of x.  Exact in a finite carrier."""
    _require_product(rig)
    sums = set(rig.mul_table[:, rig._check(x)].tolist())
    while True:
        idx = sorted(sums)
        grown = sums | set(rig.add_table[np.ix_(idx, idx)].ravel().tolist())
        if grown == sums:
            return frozenset(sums)
        sums = grown


def _dotsum_tops(rig):
    """The largest dotted sum of every element, as one vector: the stable
    multiple (t = t + t until it stops changing) of the sum of all
    multiples b.x.  The dotted sums of x are closed under the sum, so that
    stable multiple is one of them and lies above all of them.  A summand
    counted twice leaves the stable multiple unchanged, so the rows are
    summed by folding in half, an odd middle row meeting itself."""
    add = rig.add_table
    t = rig.mul_table
    while len(t) > 1:
        half = (len(t) + 1) // 2
        t = add[t[:half], t[-half:]]
    t = t[0]
    while True:
        doubled = add[t, t]
        if (doubled == t).all():
            return t
        t = doubled


def is_filter(rig: FiniteMvwRig, members):
    """Check nonemptiness, upward closure and product closure, in that order.

    Returns (ok, witness); the witness names the violated clause and its
    first violating pair, taking members in ascending order.
    """
    _require_product(rig)
    mask = ideals._member_mask(rig, members)
    if not mask.any():
        return False, ("nonempty", ())
    inside = np.flatnonzero(mask)
    pair = ideals._first_pair(rig.leq_table[inside] & ~mask, inside, rig.elements())
    if pair is not None:
        return False, ("upward", pair)
    pair = ideals._first_pair(~mask[rig.mul_table[np.ix_(inside, inside)]], inside, inside)
    if pair is not None:
        return False, ("product", pair)
    return True, None


def is_pfilter(rig: FiniteMvwRig, members):
    """Filter clauses plus the dotted-sum clause.  A filter is upward
    closed, so x has a dotted sum inside exactly when its largest one is
    inside; the witness pairs the first such x with its least dotted sum
    inside."""
    ok, witness = is_filter(rig, members)
    if not ok:
        return ok, witness
    mask = ideals._member_mask(rig, members)
    bad = np.flatnonzero(~mask & mask[_dotsum_tops(rig)])
    if bad.size:
        x = int(bad[0])
        return False, ("dotted-sum", (x, min(dotsum_closure(rig, x) & _members(mask))))
    return True, None


def _closure(rig, mask, tops):
    """Least P-filter containing a mask: add the up-set, every product of
    members and every element whose largest dotted sum is inside, until
    nothing changes.  Each step adds only elements that any P-filter
    containing the current set must hold, so the fixpoint is least; at the
    fixpoint the set is upward closed, so the dotted-sum test is exact."""
    while True:
        inside = np.flatnonzero(mask)
        grown = mask | rig.leq_table[inside].any(axis=0) | mask[tops]
        grown[rig.mul_table[np.ix_(inside, inside)]] = True
        if (grown == mask).all():
            return mask
        mask = grown


def pfilter_generated(rig: FiniteMvwRig, seed) -> PFilter:
    """Least P-filter containing the seed, by forced closure on masks.
    Works for noncommutative products too; the result is verified against
    every P-filter clause."""
    _require_product(rig)
    seed = {rig._check(a) for a in seed}
    if not seed:
        raise EmptySeed("P-filters are nonempty; seed must be too")
    mask = _closure(rig, ideals._member_mask(rig, seed), _dotsum_tops(rig))
    pf = PFilter(rig, _members(mask))
    ok, witness = is_pfilter(rig, pf.members)
    if not ok:
        raise MvwError(f"generated set fails a P-filter clause: {witness}")
    return pf


def principal_pfilter(rig: FiniteMvwRig, a: int) -> PFilter:
    """The least P-filter containing a single element."""
    return pfilter_generated(rig, {a})


def pfilter_meet(f: PFilter, g: PFilter) -> PFilter:
    if f.rig is not g.rig:
        raise ValueError("filters live on different structures")
    meet = PFilter(f.rig, f.members & g.members)
    ok, witness = is_pfilter(f.rig, meet.members)
    if not ok:
        raise MvwError(f"intersection fails a P-filter clause: {witness}")
    return meet


def pfilter_join(f: PFilter, g: PFilter) -> PFilter:
    if f.rig is not g.rig:
        raise ValueError("filters live on different structures")
    return pfilter_generated(f.rig, f.members | g.members)


def all_pfilters(rig: FiniteMvwRig, bound: int = DEFAULT_FRAME_BOUND):
    """Every P-filter, canonically sorted: the closure of the principal
    filters under binary join.  A P-filter F is the union of the F_a for a
    in F, hence their join, so nothing else can occur."""
    _require_product(rig)
    if rig.size > bound:
        raise SizeBound(f"carrier of {rig.size} exceeds frame bound {bound}")
    tops = _dotsum_tops(rig)
    principal = [_closure(rig, e, tops) for e in np.eye(rig.size, dtype=bool)]
    found = {}
    todo = list(principal)
    while todo:
        mask = todo.pop()
        key = _members(mask)
        if key not in found:
            found[key] = mask
            todo.extend(_closure(rig, mask | p, tops) for p in principal)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@dataclass
class FrameLA:
    rig: FiniteMvwRig
    pfilters: tuple          # frozensets, canonically sorted
    join_table: tuple        # index x index -> index
    meet_table: tuple
    bottom: int              # principal filter of the top element
    top: int                 # the whole carrier

    def index_of(self, members) -> int:
        return self.pfilters.index(frozenset(members))

    def join_of(self, indices) -> int:
        acc = self.bottom
        for i in indices:
            acc = self.join_table[acc][i]
        return acc

    def leq(self, i: int, j: int) -> bool:
        return self.pfilters[i] <= self.pfilters[j]

    def hasse_edges(self):
        return spectrum.covering_edges(list(self.pfilters))


def frame(rig: FiniteMvwRig, bound: int = DEFAULT_FRAME_BOUND) -> FrameLA:
    """The frame of all P-filters with materialized join and meet tables;
    binary-meet distributivity over joins of principal filters is verified
    by the locale law suite."""
    filters = all_pfilters(rig, bound=bound)
    index = {s: i for i, s in enumerate(filters)}
    masks = [ideals._member_mask(rig, s) for s in filters]
    tops = _dotsum_tops(rig)
    k = len(filters)
    join = [[0] * k for _ in range(k)]
    meet = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            joined = _members(_closure(rig, masks[i] | masks[j], tops))
            join[i][j] = join[j][i] = index[joined]
            inter = filters[i] & filters[j]
            if inter not in index:
                raise MvwError("intersection of P-filters is not a P-filter")
            meet[i][j] = meet[j][i] = index[inter]
    return FrameLA(rig=rig, pfilters=tuple(filters),
                   join_table=tuple(tuple(r) for r in join),
                   meet_table=tuple(tuple(r) for r in meet),
                   bottom=index[principal_pfilter(rig, rig.u).members],
                   top=index[frozenset(rig.elements())])


@dataclass
class ThetaMap:
    space: spectrum.SpecSpace
    frame: FrameLA
    open_to_filter: tuple    # open index -> frame index


def theta(rig: FiniteMvwRig, space=None, fr=None, verify=True) -> ThetaMap:
    """The lattice isomorphism from the open sets of the spectrum to the
    frame of P-filters, sending a basic open to the principal P-filter of
    its element and unions to joins."""
    if rig.mul_table is None or rig.unit is None:
        raise GateNotMet("the open-to-filter map needs a product and a unit")
    if not rig.commutative:
        raise NotCommutative(f"{rig.name} is not commutative")
    space = space if space is not None else spectrum.spec(rig)
    fr = fr if fr is not None else frame(rig)
    principal_idx = {a: fr.index_of(principal_pfilter(rig, a).members)
                     for a in rig.elements()}

    mapping = []
    for u in space.opens:
        family = [a for a in rig.elements() if space.base[a] <= u]
        mapping.append(fr.join_of(principal_idx[a] for a in family))
    tm = ThetaMap(space=space, frame=fr, open_to_filter=tuple(mapping))
    if verify:
        _verify_theta(rig, tm, principal_idx)
    return tm


def _verify_theta(rig, tm, principal_idx):
    space, fr = tm.space, tm.frame
    open_index = {o: i for i, o in enumerate(space.opens)}

    # well defined: every way of presenting an open as a union of basic
    # opens yields the same join (exhaustive over element subsets)
    import itertools
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
            if (u <= w) != fr.leq(fu, fw):
                raise MvwError("open map does not preserve order")


def finite_subcover(rig: FiniteMvwRig, generators):
    """Given elements whose principal P-filters join to the whole carrier,
    return a finite (here: small) subfamily that already joins to it.

    The witness is a product of finitely many generators equal to 0; the
    subfamily is read off the product.  Raises NotACover when the join is
    proper.  Soundness is asserted; minimality is not.
    """
    _require_product(rig)
    gens = [rig._check(g) for g in generators]
    # the empty join is the principal filter of the top element; if that is
    # already everything, the empty subfamily is a sound subcover
    if principal_pfilter(rig, rig.u).members == frozenset(rig.elements()):
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
        if not gens or pfilter_generated(rig, set(gens)).members != frozenset(rig.elements()):
            raise NotACover("the principal filters of the generators have a proper join")
        # commutative structures always yield a zero product here; without
        # commutativity the witness may be unavailable, and the (finite)
        # input family itself is a sound answer
        return list(dict.fromkeys(gens))
    used = set()
    node = 0
    while node is not None:
        prev, g = parent[node]
        used.add(g)
        node = prev
    sub = [g for g in dict.fromkeys(gens) if g in used]
    if pfilter_generated(rig, set(sub)).members != frozenset(rig.elements()):
        raise MvwError("extracted subfamily does not cover")
    return sub


def export_json_doc(fr: FrameLA) -> dict:
    return {
        "pfilters": [sorted(s) for s in fr.pfilters],
        "hasse": [list(e) for e in sorted(fr.hasse_edges())],
    }
