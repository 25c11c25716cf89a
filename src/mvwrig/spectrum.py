"""The prime spectrum with the co-Zariski topology.

Points are the proper prime ideals; the basic open attached to an element
a collects the points containing a.  A prime contains a product exactly
when it contains a factor, so V(a) u V(b) = V(ab) and the basic opens are
all the opens.  The space is finite, so the open lattice is materialized
outright and every topological statement becomes a finite assertion.  The
space is built once per structure and kept on it (``core.per_structure``),
together with its boolean points matrix, whose row a is V(a), and the
index of each element's open; ``spec`` verifies both base laws by blocked
gathers over the matrix, and ``frames.theta`` reads the verified space.  The
points keep the listed ideals' canonical order, and the opens are the
distinct rows of the points matrix in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import core, ideals
from .core import FiniteMvwRig
from .errors import GateNotMet, MvwError, NotCommutative


@dataclass(frozen=True)
class SpecSpace:
    rig: FiniteMvwRig
    points: tuple            # frozensets of carrier indices, canonically sorted
    base: MappingProxyType   # element -> frozenset of point indices, read-only
    opens: tuple             # the distinct base sets, canonically sorted
    holds: np.ndarray        # n x len(points) read-only booleans: row a is V(a)
    open_of: np.ndarray      # element a -> index of V(a) in opens, read-only
    unit_gated: bool = False # no unit: unit-dependent theorems are skipped
    warnings: tuple = ()

    @property
    def all_points(self):
        return frozenset(range(len(self.points)))

    def point_display(self, i: int) -> str:
        return ideals.format_subset(self.rig, self.points[i])


def spec(rig: FiniteMvwRig) -> SpecSpace:
    """Enumerate the proper primes, materialize the basic opens, which
    form the whole open lattice, and verify the intersection law, then
    the union law they rest on.  The gates and the enumeration bound are
    checked on every call; the space is built once per structure."""
    if rig.mul_table is None:
        raise GateNotMet("spectrum needs a product")
    if not rig.commutative:
        raise NotCommutative(f"{rig.name} is not commutative")
    ideals._check_bound(rig)
    return _spec(rig)


@core.per_structure
def _spec(rig):
    # the ideals, and so the primes, are listed in canonical order
    points = tuple(p.members for p in ideals.prime_ideals(rig))
    holds = np.ascontiguousarray(core._member_rows(rig.size, points).T)
    open_rows, open_of = core._canonical_rows(holds)
    core._read_only(holds, open_of)
    opens = tuple(core._members(row) for row in open_rows)
    base = {a: opens[o] for a, o in enumerate(open_of.tolist())}
    warnings = ()
    if rig.unit is None:
        warnings = (f"{rig.name} has no unitary element; unit-gated theorems are skipped",)
    space = SpecSpace(rig=rig, points=points, base=MappingProxyType(base), opens=opens,
                      holds=holds, open_of=open_of, unit_gated=rig.unit is None,
                      warnings=warnings)

    all_pts = space.all_points
    if base[0] != all_pts:
        raise MvwError("V(0) is not the whole spectrum")
    if base[rig.u] != frozenset():
        raise MvwError("V(u) is not empty")
    for table, combine, law in ((rig.add_table, np.logical_and, "intersection"),
                                (rig.mul_table, np.logical_or, "union")):
        pair = _base_law_failure(table, holds, combine)
        if pair is not None:
            a, b = pair
            raise MvwError(f"V({a}) and V({b}) break the {law} law")
    return space


def _base_law_failure(table, holds, combine):
    """The first pair (a, b) in row-major order with
    combine(V(a), V(b)) != V(table[a, b]), or None.  Row a of the boolean
    points matrix ``holds`` is V(a); the rows a go in ``core._blocks`` of
    n x points cells each (at least one, for a space with no points)."""
    n, points = holds.shape
    for block in core._blocks(n, max(1, n * points)):
        bad = (combine(holds[block, None, :], holds[None, :, :])
               != holds.take(table[block], axis=0)).any(axis=2)
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return block.start + int(a), int(b)
    return None


def basic_open(space: SpecSpace, a: int):
    return space.base[space.rig._check(a)]


def v_of_set(space: SpecSpace, members):
    """Points containing a whole subset (the open attached to an ideal)."""
    ms = frozenset(members)
    return frozenset(i for i, p in enumerate(space.points) if ms <= p)


def is_t0(space: SpecSpace) -> bool:
    """Some open tells every two points apart: no two columns of the points
    matrix, whose rows are the opens, are equal."""
    inside = _inclusion(space.holds.T)
    return int((inside & inside.T).sum()) == len(space.points)


def is_irreducible(space: SpecSpace) -> bool:
    """Nonempty, and every two nonempty opens meet."""
    if not space.points:
        return False
    nonempty = [o for o in space.opens if o]
    return all(u & v for u in nonempty for v in nonempty)


def set_closure(space: SpecSpace, subset):
    """Smallest closed superset, computed from the materialized opens."""
    subset = frozenset(subset)
    cl = set(space.all_points)
    for o in space.opens:
        closed = space.all_points - o
        if subset <= closed:
            cl &= closed
    return frozenset(cl)


def point_closure(space: SpecSpace, i: int):
    return set_closure(space, {i})


def specialization_downset(space: SpecSpace, i: int):
    """{Q : Q contained in P} for the point P; equals the closure of P."""
    p = space.points[i]
    return frozenset(j for j, q in enumerate(space.points) if q <= p)


@dataclass
class SpecMap:
    hom: ideals.Homomorphism
    source: SpecSpace        # Spec of the codomain rig
    target: SpecSpace        # Spec of the domain rig
    mapping: tuple           # point index of source -> point index of target


def spec_map(f: ideals.Homomorphism) -> SpecMap:
    """The continuous preimage map from Spec of the codomain to Spec of the
    domain, with each of its stated properties checked whenever its
    hypothesis holds."""
    ideals.verify_homomorphism(f)
    a, b = f.source, f.target
    sa, sb = spec(a), spec(b)
    target_index = {p: i for i, p in enumerate(sa.points)}

    mapping = []
    for q in sb.points:
        pre = frozenset(x for x in a.elements() if f.mapping[x] in q)
        if pre not in target_index:
            raise MvwError(f"preimage {sorted(pre)} is not a proper prime")
        mapping.append(target_index[pre])
    mapping = tuple(mapping)
    phi = SpecMap(hom=f, source=sb, target=sa, mapping=mapping)

    opens_b = set(sb.opens)
    for x in a.elements():
        pre_open = frozenset(i for i in range(len(sb.points))
                             if mapping[i] in sa.base[x])
        if pre_open not in opens_b:
            raise MvwError(f"preimage of V({x}) is not open")

    for ideal in ideals.enumerate_ideals(a):
        lhs = frozenset(i for i in range(len(sb.points))
                        if mapping[i] in v_of_set(sa, ideal.members))
        rhs = v_of_set(sb, {f.mapping[x] for x in ideal.members})
        if lhs != rhs:
            raise MvwError(f"preimage law fails for ideal {ideal.display()}")

    injective = len(set(f.mapping)) == a.size
    if injective:
        back = {f.mapping[x]: x for x in a.elements()}
        for bel in set(f.mapping):
            img = frozenset(mapping[i] for i in sb.base[bel])
            if img != sa.base[back[bel]]:
                raise MvwError(f"image law fails at element {bel}")
        if frozenset(mapping) != sa.all_points:
            raise MvwError("image of the spectrum map misses a prime")

    bijective = injective and len(set(f.mapping)) == b.size
    if bijective:
        ker = ideals.kernel(f)
        sub = v_of_set(sa, ker.members)
        if frozenset(mapping) != sub or len(set(mapping)) != len(mapping):
            raise MvwError("bijective map does not induce a homeomorphism")
        sub_opens = {o & sub for o in sa.opens}
        img_opens = {frozenset(mapping[i] for i in o) for o in sb.opens}
        if sub_opens != img_opens:
            raise MvwError("open sets do not correspond under the induced map")
    return phi


def _inclusion(masks):
    """inside[i, j]: row i of the boolean masks lies inside row j.  The
    counts of row i's members outside row j are at most n, exact in
    float32 for any carrier below 2^24, so the product runs in BLAS."""
    m = masks.astype(np.float32)
    return m @ (1 - m).T == 0


def covering_edges(rows):
    """Transitive reduction of strict containment among the sets given as
    the rows of a boolean matrix: the pairs (i, j), in row-major order,
    with set i strictly inside set j and no listed set strictly between.
    The product of the strict-inclusion matrix with itself counts the sets
    between, exact in float32."""
    inside = _inclusion(rows)
    strict = (inside & ~inside.T).astype(np.float32)
    return [(int(i), int(j)) for i, j in np.argwhere((strict > 0) & (strict @ strict == 0))]


def export_dot(space: SpecSpace) -> str:
    """The specialization order as a DOT digraph (edges are covering pairs
    of containment)."""
    lines = ["digraph spec {", "  rankdir=BT;"]
    for i in range(len(space.points)):
        lines.append(f'  p{i} [label="{space.point_display(i)}"];')
    for i, j in covering_edges(space.holds.T):
        lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json_doc(space: SpecSpace) -> dict:
    return {
        "points": [sorted(p) for p in space.points],
        "base": {str(a): sorted(space.base[a]) for a in space.rig.elements()},
        "opens": [sorted(o) for o in space.opens],
    }
