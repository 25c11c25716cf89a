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
commutative product, so the frame lies in the closure of the n principal
filters under binary join; no subset scan is involved.

Each structure has one principal table (``principal_table``): the n rows
F_a, each distinct row closed once and never re-checked.  Let s(x) be the
largest dotted sum of x.  A P-filter holding a holds every power a^k, every
element above a^k, and so every x with a^k <= s(x).  So the seed row
{x : a^k <= s(x) for some k >= 1} lies inside F_a, and it holds a, since
a.a is a dotted sum of a; F_a is the closure of its seed row.  The
closure stops only when its steps, the upward, product and dotted-sum
clauses of a P-filter, add nothing, and the row holds a, so the fixpoint
is the proof that F_a is a P-filter.  All n seed rows come from one walk
over the powers (``core._powers``), and the closure runs once per
distinct seed row, in the canonical order ``core`` keeps every family of
sets in.  On a commutative product the seed row is F_a itself, the
dotted-sum description of a generated P-filter, so the closure stops
after one round.  The table, the dotted-sum vector and the frame are
built once per structure and kept on it (``core.per_structure``);
``principal_pfilter`` reads its row.  The table's certificate is that a
lies in F_ab for every ordered pair (a, b); then every P-filter is
principal, and the one a seed generates is F_(prod seed) for its members
multiplied in any order:

- F_a is the least P-filter holding a and F_ab a P-filter, so F_a lies in
  F_ab exactly when a does.  F_b always lies in F_ab: ab = a.b is a dotted
  sum of b, so the P-filter F_ab swallows b.
- So F_ab is a P-filter holding a and b, and F_a v F_b lies inside it; and
  F_a v F_b holds a and b, hence ab, hence F_ab.  So F_a v F_b = F_ab.
- By induction on the number of seed elements, the join of the F_s for s
  in a seed S is F_p, p the product of S in any order; for a P-filter F
  that join is F itself.  Neither commutativity nor associativity is used.

On a commutative product a lies in F_ba by the second step, so every
P-filter is principal.  On the noncommutative M2(Z1) and M2(Z2) the
certificate fails (ab need not be a dotted sum of a), and the frame is the
closure of the principal filters under binary join.  Either way the frame
lists every P-filter in canonical order, smallest first and the carrier
last, with intersections for meets, so a generated P-filter and a cover
question are a fold of its join table over the principal filters of the
seed, as for ideals.  Each is answered for a whole table of seeds at once
(``pfilters_generated``, ``finite_subcovers``), one gather per column
whatever the number of seeds, and the one-seed functions are one-row
calls; the search for a zero product behind a subcover runs over every
generator list together, one level at a time, and picks the same
subfamily as the search of each list on its own.

Every law about the frame is checked on pairs or triples.  In a finite
lattice binary distributivity gives distributivity over every finite
join, by induction on the size of the join.  For the open-to-filter map
theta, V(u) = {} and V(a) u V(b) = V(ab), both verified by
``spectrum.spec``, give, by induction on |R|, that the union of the V(a)
for a in R is V(prod R), and F_u = bottom and
F_a v F_b = F_ab give that the join of the F_a is F_(prod R); so theta is
well defined once V(a) = V(b) implies F_a = F_b.  The exponential scans
over element subsets and filter families survive only as oracles in the
locale law suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import builders, core, ideals, spectrum
from .core import FiniteMvwRig
from .errors import (
    EmptySeed,
    GateNotMet,
    MvwError,
    NotACover,
    NotCommutative,
    SizeBound,
)

#: Carrier cap for the frame when MVW_SIZE_BOUND is unset.  Building and
#: verifying the frame costs polynomial time in the carrier size n and the
#: number k of P-filters (the principal table, k x k join and meet tables,
#: pairwise laws, and k^3 distributivity, the slowest locale check at the cap).
DEFAULT_FRAME_BOUND = 1024


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


def dotsum_closure(rig: FiniteMvwRig, x: int) -> frozenset:
    """All finite sums b1.x + .. + bm.x: the sum closure of the multiples
    of x.  Exact in a finite carrier."""
    _require_product(rig)
    sums = set(rig.mul_table[:, rig._check(x)].tolist())
    while True:
        idx = np.array(sorted(sums))
        grown = sums | set(core._grid(rig.add_table, idx, idx).ravel().tolist())
        if grown == sums:
            return frozenset(sums)
        sums = grown


@core.per_structure
def _dotsum_tops(rig):
    """The largest dotted sum of every element, as one read-only vector:
    the stable multiple (t = t + t until it stops changing) of the sum of
    all multiples b.x.  The dotted sums of x are closed under the sum, so that
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
            return core._read_only(t)
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
    pair = ideals._first_pair(rig.leq_table.take(inside, axis=0) & ~mask, inside, rig.elements())
    if pair is not None:
        return False, ("upward", pair)
    pair = ideals._first_pair(~mask[core._grid(rig.mul_table, inside, inside)], inside, inside)
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
        return False, ("dotted-sum", (x, min(dotsum_closure(rig, x) & core._members(mask))))
    return True, None


def _closure(rig, mask):
    """Least P-filter containing a mask: add the up-set, every product of
    members and every element whose largest dotted sum is inside, until
    nothing changes.  Each step adds only elements that any P-filter
    containing the current set must hold, so the fixpoint is least; at the
    fixpoint the set is upward closed, so the dotted-sum test is exact."""
    leq, mul, tops = rig.leq_table, rig.mul_table, _dotsum_tops(rig)
    inside = mask.nonzero()[0]
    while True:
        grown = leq.take(inside, axis=0).any(axis=0)
        grown[core._grid(mul, inside, inside)] = True
        grown |= mask[tops]
        grown |= mask
        # the set only grows, so an equal count means nothing changed
        nxt = grown.nonzero()[0]
        if nxt.size == inside.size:
            return mask
        mask, inside = grown, nxt


@dataclass(frozen=True)
class PrincipalTable:
    """The principal P-filters of one structure (module docstring)."""
    rig: FiniteMvwRig
    pfilters: tuple          # the distinct F_a as frozensets, canonically sorted
    masks: np.ndarray        # k x n read-only membership rows, in that order
    index: np.ndarray        # element a -> position of F_a in pfilters
    certified: bool          # a lies in F_ab for all a, b


def _seed_rows(rig):
    """Row a holds every x with a^k <= s(x) for some k >= 1, s(x) the
    largest dotted sum of x: a subset of F_a that holds a (module
    docstring), read off one walk over the powers."""
    below_top = rig.leq_table.take(_dotsum_tops(rig), axis=1)    # [y, x]: y <= s(x)
    rows = np.zeros((rig.size, rig.size), dtype=bool)
    for power in core._powers(rig):
        rows |= below_top.take(power, axis=0)
    return rows


@core.per_structure
def principal_table(rig: FiniteMvwRig) -> PrincipalTable:
    """The n principal P-filters F_a, built once per structure: the closure
    of each distinct seed row, which is its own P-filter proof (module
    docstring), and the certificate one n^2 gather."""
    _require_product(rig)
    seeds, seed_of = core._canonical_rows(_seed_rows(rig))
    masks, closed_of = core._canonical_rows([_closure(rig, row) for row in seeds])
    index = core._read_only(closed_of[seed_of])
    pfilters = tuple(core._members(row) for row in masks)
    # a lies in F_ab: the row of F_x for every x, read at (ab, a)
    certified = core._read_at(masks.take(index, axis=0), rig.mul_table,
                              np.arange(rig.size)[:, None]).all()
    return PrincipalTable(rig=rig, pfilters=pfilters, masks=masks, index=index,
                          certified=bool(certified))


def pfilters_generated(rig: FiniteMvwRig, rows):
    """The frame index of the least P-filter holding each row of a boolean
    seed table: the join of the F_a for a in the row, folded over the
    frame's join table, whose cap it honours once per call.  Works for
    noncommutative products too."""
    _require_product(rig)
    if not rows.any(axis=1).all():
        raise EmptySeed("P-filters are nonempty; seed must be too")
    fr = frame(rig)
    return core._fold(fr.join_table, fr.bottom, np.where(rows, fr.principal, -1))


def pfilter_generated(rig: FiniteMvwRig, seed) -> PFilter:
    """Least P-filter containing the seed, a one-row ``pfilters_generated``."""
    _require_product(rig)
    index = pfilters_generated(rig, ideals._member_mask(rig, seed)[None])[0]
    return PFilter(rig, frame(rig).pfilters[index])


def principal_pfilter(rig: FiniteMvwRig, a: int) -> PFilter:
    """The least P-filter containing a single element: its row of the
    principal table, without the frame or its cap."""
    _require_product(rig)
    a = rig._check(a)
    prin = principal_table(rig)
    return PFilter(rig, prin.pfilters[prin.index[a]])


@dataclass(frozen=True)
class FrameLA:
    rig: FiniteMvwRig
    pfilters: tuple          # frozensets, canonically sorted
    masks: np.ndarray        # k x n read-only membership rows, one per P-filter
    join_table: np.ndarray   # k x k read-only ints: index x index -> index
    meet_table: np.ndarray
    bottom: int              # principal filter of the top element
    top: int                 # the whole carrier
    principal: np.ndarray    # read-only: element a -> index of F_a

    def index_of(self, members) -> int:
        return self.pfilters.index(frozenset(members))

    def join_of(self, indices) -> int:
        acc = self.bottom
        for i in indices:
            acc = self.join_table[acc, i]
        return int(acc)

    def hasse_edges(self):
        return spectrum.covering_edges(self.masks)


def frame(rig: FiniteMvwRig) -> FrameLA:
    """The frame of all P-filters with materialized join and meet tables.
    The carrier cap, MVW_SIZE_BOUND when it is set and DEFAULT_FRAME_BOUND
    otherwise, is checked on every call; the frame is built once per
    structure."""
    _require_product(rig)
    env = builders._env_size_bound()
    bound = DEFAULT_FRAME_BOUND if env is None else env
    if rig.size > bound:
        raise SizeBound(f"carrier of {rig.size} exceeds frame bound {bound}")
    return _frame(rig)


@core.per_structure
def _frame(rig):
    """Every P-filter is listed: with a certified principal table, its
    distinct rows; otherwise the closure of the principal filters under
    binary join, since a P-filter F is the union of the F_a for a in F,
    hence their join.  So the join of two P-filters, the one they generate,
    is the least listed filter above both, and their meet is the greatest
    listed filter below both, which must be their intersection.
    Distributivity is verified by the locale law suite."""
    prin = principal_table(rig)
    if prin.certified:
        filters, masks = prin.pfilters, prin.masks
    else:
        found = {}
        todo = list(prin.masks)
        while todo:
            mask = todo.pop()
            key = mask.tobytes()
            if key not in found:
                found[key] = mask
                todo.extend(_closure(rig, mask | p) for p in prin.masks)
        masks = core._canonical_rows(list(found.values()))[0]
        filters = tuple(core._members(row) for row in masks)
    inside = spectrum._inclusion(masks)
    # below[j, k - 1 - l]: filter l lies inside filter j
    below = np.ascontiguousarray(inside.T[:, ::-1])
    k = len(filters)
    join = np.empty((k, k), dtype=np.int64)
    meet = np.empty((k, k), dtype=np.int64)
    for i in range(k):
        # smaller filters come first, so the least upper bound is the first
        # upper bound and the greatest lower bound the last lower bound
        join[i] = (inside[i] & inside).argmax(axis=1)
        meet[i] = k - 1 - (below[i] & below).argmax(axis=1)
        if (masks[meet[i]] != (masks[i] & masks)).any():
            raise MvwError("intersection of P-filters is not a P-filter")
    # F_a lies inside every P-filter holding a, so it is the first listed one
    principal = masks.argmax(axis=0)
    core._read_only(join, meet, principal)
    # the carrier is the only set of n elements, so it is listed last
    return FrameLA(rig=rig, pfilters=filters, masks=masks, join_table=join,
                   meet_table=meet, bottom=int(principal[rig.u]), top=k - 1,
                   principal=principal)


@dataclass
class ThetaMap:
    space: spectrum.SpecSpace
    frame: FrameLA
    open_to_filter: tuple    # open index -> frame index


def theta(rig: FiniteMvwRig) -> ThetaMap:
    """The lattice isomorphism from the open sets of the spectrum to the
    frame of P-filters, sending a basic open V(a) to the principal
    P-filter F_a; the basic opens are all the opens, and unions go to
    joins."""
    tm = _theta_map(rig)
    _verify_theta(rig, tm, tm.frame.principal)
    return tm


def _theta_map(rig):
    """The open-to-filter map, not yet verified."""
    if rig.mul_table is None or rig.unit is None:
        raise GateNotMet("the open-to-filter map needs a product and a unit")
    if not rig.commutative:
        raise NotCommutative(f"{rig.name} is not commutative")
    # past both caps, the frame's is the one reported
    fr = frame(rig)
    space = spectrum.spec(rig)
    mapping = np.zeros(len(space.opens), dtype=np.int64)
    mapping[space.open_of] = fr.principal
    return ThetaMap(space=space, frame=fr, open_to_filter=tuple(mapping.tolist()))


def _first(bad):
    return tuple(int(i) for i in np.argwhere(bad)[0])


def principal_law_failure(table, prin, op):
    """The first pair (a, b) in row-major order where the frame table does
    not send (F_a, F_b) to F_(a op b), or None; ``prin`` maps each element
    to the index of F_a, as ``FrameLA.principal`` does."""
    bad = core._grid(table, prin, prin) != prin[op]
    return _first(bad) if bad.any() else None


def _verify_theta(rig, tm, principal_idx):
    """Prove theta a well-defined lattice isomorphism by binary laws, in
    O(n^2 + k^2) for n elements and k P-filters.  ``spectrum.spec`` has
    verified V(u) = {} and both base laws, and the frame's bottom is F_u,
    the first P-filter holding u.  By the module docstring F_a v F_b = F_ab
    then settles every presentation of an open as a union of basic opens;
    the open labelled ``open_of[a]`` must be V(a), and the open-to-filter
    map must send it to F_a and be a bijection that preserves joins, meets
    and the order."""
    space, fr = tm.space, tm.frame
    prin = np.asarray(principal_idx)
    mapping = np.asarray(tm.open_to_filter)
    words, open_of, mul = space.words, space.open_of, rig.mul_table
    pair = principal_law_failure(fr.join_table, prin, mul)
    if pair is not None:
        a, b = pair
        raise MvwError(f"F_{a} v F_{b} is not F_ab at ({a}, {b})")
    bad = mapping[open_of] != prin
    if bad.any():
        a = int(np.flatnonzero(bad)[0])
        raise MvwError(f"open map depends on the presentation ({a},)")
    bad = np.flatnonzero(spectrum._open_words(space)[open_of] != words)
    if bad.size:
        raise MvwError(f"open {open_of[bad[0]]} is not V({bad[0]}) at ({bad[0]},)")

    if sorted(set(tm.open_to_filter)) != list(range(len(fr.pfilters))):
        raise MvwError("open map is not a bijection onto the P-filters")
    # one element per open: by V(a) u V(b) = V(ab) and V(a) ^ V(b) = V(a + b),
    # both verified by ``spectrum.spec``, the union of two opens is the open
    # of a product of their elements and the intersection that of a sum
    reps = np.zeros(len(mapping), dtype=np.int64)
    reps[open_of] = np.arange(rig.size)
    if (mapping[open_of[core._grid(mul, reps, reps)]]
            != core._grid(fr.join_table, mapping, mapping)).any():
        raise MvwError("open map does not preserve joins")
    if (mapping[open_of[core._grid(rig.add_table, reps, reps)]]
            != core._grid(fr.meet_table, mapping, mapping)).any():
        raise MvwError("open map does not preserve meets")
    if (spectrum._word_inclusion(words.take(reps))
            != core._grid(spectrum._inclusion(fr.masks), mapping, mapping)).any():
        raise MvwError("open map does not preserve order")


class Subcovers(NamedTuple):
    """The answers of ``finite_subcovers``, one row per generator list."""
    members: np.ndarray      # [i, g]: generator g is in the subfamily of list i
    refused: np.ndarray      # [i]: the join of list i is proper
    unsound: np.ndarray      # [i]: the subfamily extracted from list i does not cover

    def fault(self, i):
        """What ``finite_subcover`` raises for list i, or None."""
        if self.refused[i]:
            return NotACover("the principal filters of the generators have a proper join")
        if self.unsound[i]:
            return MvwError("extracted subfamily does not cover")
        return None


def finite_subcovers(rig: FiniteMvwRig, ranks) -> Subcovers:
    """``finite_subcover`` for many generator lists at once: ranks[i, g] is
    the position of g in list i, or -1 when g is not in it.

    A breadth-first search over the products of every list together, one
    level at a time: each newly reached product keeps the first (frontier
    position, generator rank) pair that reaches it, as the search of one
    list in order does, and a list stops once it reaches 0.  The numpy
    calls per level do not depend on the number of lists.  The frame's cap
    is checked once per call.
    """
    _require_product(rig)
    fr = frame(rig)
    m, n = ranks.shape
    held = ranks >= 0
    # by_rank[i, r]: the generator of rank r in list i; past the list's
    # end, its first generator, whose products the rank-0 pairs reach first
    count = held.sum(axis=1)
    valid = np.arange(count.max(initial=0)) < count[:, None]
    by_rank = np.argsort(np.where(held, ranks, n), axis=1)[:, :valid.shape[1]]
    by_rank = np.where(valid, by_rank, by_rank[:, :1])
    # flat cells i·n + x of list i and element x: reached, and the frontier
    # node and generator that first reached x (-1 and x for a generator)
    reached = held.ravel().copy()
    parent = np.full(m * n, -1)
    via = np.arange(m * n) % n
    rows, pos = np.nonzero(valid)
    nodes = by_rank[rows, pos]
    mul = rig.mul_table
    while True:
        live = ~reached[rows * n]          # the list has not reached 0
        rows, nodes = rows[live], nodes[live]
        if not rows.size:
            break
        gens = by_rank[rows]
        # the products of the frontier, in (list, position, rank) order
        cells = ((rows * n)[:, None] + mul[nodes[:, None], gens]).ravel()
        fresh = (~reached[cells]).nonzero()[0]
        cells = cells[fresh]
        order = np.arange(len(cells))
        first = np.full(m * n, len(cells))
        np.minimum.at(first, cells, order)
        wins = first[cells] == order
        cells, fresh = cells[wins], fresh[wins]
        reached[cells] = True
        parent[cells] = nodes[fresh // gens.shape[1]]
        via[cells] = gens.ravel()[fresh]
        rows, nodes = np.divmod(cells, n)
    # the subfamily: the generators on the path from 0 back to a generator
    found = reached[np.arange(m) * n]
    used = np.zeros((m, n), dtype=bool)
    rows = found.nonzero()[0]
    node = np.zeros(len(rows), dtype=np.int64)
    while rows.size:
        at = rows * n + node
        used[rows, via[at]] = True
        node = parent[at]
        rows, node = rows[node >= 0], node[node >= 0]
    # without a zero product (only without commutativity) the list itself
    # is a sound answer when it covers
    members = np.where(found[:, None], used, held)
    kept = valid & members[np.arange(m)[:, None], by_rank]
    covers = core._fold(fr.join_table, fr.bottom, np.where(kept, fr.principal[by_rank], -1)) \
        == fr.top
    refused = ~found & ~covers
    # the empty join is the frame's bottom, F_u; if that is already
    # everything, the empty subfamily is a sound subcover of every list
    members[refused | (fr.bottom == fr.top)] = False
    return Subcovers(members, refused, found & ~covers)


def finite_subcover(rig: FiniteMvwRig, generators):
    """Given elements whose principal P-filters join to the whole carrier,
    return a finite (here: small) subfamily that already joins to it.

    The witness is a product of finitely many generators equal to 0; the
    subfamily is read off the product.  Raises NotACover when the join is
    proper.  Soundness is asserted; minimality is not.  The join of the
    principal filters of a family is the P-filter the family generates,
    so each cover question is a fold of the frame's join table, whose cap
    it honours.  A one-row ``finite_subcovers``.
    """
    _require_product(rig)
    gens = list(dict.fromkeys(rig._check(g) for g in generators))
    ranks = np.full((1, rig.size), -1)
    ranks[0, gens] = np.arange(len(gens))
    cov = finite_subcovers(rig, ranks)
    fault = cov.fault(0)
    if fault is not None:
        raise fault
    return [g for g in gens if cov.members[0, g]]


def export_json_doc(fr: FrameLA) -> dict:
    return {
        "pfilters": [sorted(s) for s in fr.pfilters],
        "hasse": [list(e) for e in sorted(fr.hasse_edges())],
    }
