"""The prime spectrum with the co-Zariski topology.

Points are the proper prime ideals; the basic open attached to an element
a collects the points containing a.  A prime contains a product exactly
when it contains a factor, so V(a) u V(b) = V(ab) and the basic opens are
all the opens.  The space is finite, so the open lattice is materialized
outright and every topological statement becomes a finite assertion.  The
space is built once per structure (``core.per_structure``).  The points
keep the listed ideals' canonical order, the opens are the distinct V(a)
in canonical order, ``open_of[a]`` indexes V(a) among them, and
``words[a]`` is V(a) as one uint64 whose bit i is point i.  Only this
module packs or unpacks words, and every topological reader here is a
word operation.
One word is enough: a proper prime is meet-irreducible among the ideals
(a in I - P and b in J - P give ab in I ^ J - P), a distributive lattice
of idempotents of length at most log2 n, so a space has p <= log2 n
points, 12 at the 4096-element size cap; ``spec`` refuses p > 63.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import core, ideals
from .core import FiniteMvwRig
from .errors import GateNotMet, MvwError, NotCommutative

_BITS = np.arange(64, dtype=np.uint64)


@dataclass(frozen=True)
class SpecSpace:
    rig: FiniteMvwRig
    points: tuple            # frozensets of carrier indices, canonically sorted
    base: MappingProxyType   # element -> frozenset of point indices, read-only
    opens: tuple             # the distinct base sets, canonically sorted
    words: np.ndarray        # element a -> V(a) as uint64 bits, read-only
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
@core.reads_name
def _spec(rig):
    # the ideals, and so the primes, are listed in canonical order
    points = tuple(p.members for p in ideals.prime_ideals(rig))
    if len(points) > 63:
        raise MvwError(f"{rig.name} has {len(points)} proper primes; "
                       f"a spectrum keeps at most 63 points")
    holds = core._member_rows(rig.size, points).T
    open_rows, open_of = core._canonical_rows(holds)
    words = core._read_only(_pack(holds), open_of)
    opens = tuple(core._members(row) for row in open_rows)
    base = {a: opens[o] for a, o in enumerate(open_of.tolist())}
    warnings = ()
    if rig.unit is None:
        warnings = (f"{rig.name} has no unitary element; unit-gated theorems are skipped",)
    space = SpecSpace(rig=rig, points=points, base=MappingProxyType(base), opens=opens,
                      words=words, open_of=open_of, unit_gated=rig.unit is None,
                      warnings=warnings)

    if words[0] != (1 << len(points)) - 1:
        raise MvwError("V(0) is not the whole spectrum")
    if words[rig.u]:
        raise MvwError("V(u) is not empty")
    for table, combine, law in ((rig.add_table, np.bitwise_and, "intersection"),
                                (rig.mul_table, np.bitwise_or, "union")):
        failure = core._first_cell(
            rig.size, rig.size,
            lambda block: [combine(words[block, None], words) != words.take(table[block])],
            lambda a, _, b: f"V({a}) and V({b}) break the {law} law")
        if failure is not None:
            raise MvwError(failure)
    return space


def _pack(rows):
    """One word per boolean row, bit i its column i."""
    return np.bitwise_or.reduce(rows.astype(np.uint64) << _BITS[:rows.shape[1]], axis=1)


def _point_rows(space):
    """[i, x]: bit i of words[x]; row i is point i as a mask over the carrier."""
    return (space.words >> _BITS[:len(space.points), None] & 1).astype(bool)


def _moved(words, src, dst):
    """Each word with bit src[j] carried to bit dst[j], for every j, and no
    other bit set."""
    return np.bitwise_or.reduce((words[:, None] >> src & 1) << dst, axis=1)


def _open_words(space):
    """One word per listed open, packed from its set of points."""
    return _pack(core._member_rows(len(space.points), space.opens))


def _check_point(space, i):
    if not 0 <= i < len(space.points):
        raise IndexError(f"point index {i} out of range 0..{len(space.points) - 1}")
    return i


def basic_open(space: SpecSpace, a: int):
    return space.base[space.rig._check(a)]


def v_of_set(space: SpecSpace, members):
    """Points containing a whole subset (the open attached to an ideal):
    the AND of the members' words, from V(0), the whole space."""
    words = space.words.take([space.rig._check(a) for a in members])
    return core._members(np.bitwise_and.reduce(words, initial=space.words[0]) >> _BITS & 1)


def is_t0(space: SpecSpace) -> bool:
    """Some open tells every two points apart: no two points are equal as
    masks over the carrier."""
    inside = core._inclusion(_point_rows(space))
    return int((inside & inside.T).sum()) == len(space.points)


def is_irreducible(space: SpecSpace) -> bool:
    """Nonempty, and every two nonempty opens meet.  The opens are closed
    under intersection (the law ``spec`` verifies), so that is some point
    lying in every nonempty open."""
    words = space.words
    return bool(np.bitwise_and.reduce(words[words != 0], initial=words[0]))


def set_closure(space: SpecSpace, subset):
    """Smallest closed superset: the points outside every open that misses
    the subset."""
    bits = _BITS[[_check_point(space, i) for i in subset]]
    words = space.words
    misses = words[(words & np.bitwise_or.reduce(np.uint64(1) << bits, initial=0)) == 0]
    return core._members((words[0] & ~np.bitwise_or.reduce(misses, initial=0)) >> _BITS & 1)


def point_closure(space: SpecSpace, i: int):
    return set_closure(space, (i,))


def specialization_downset(space: SpecSpace, i: int):
    """{Q : Q contained in P} for the point P; equals the closure of P."""
    rows = _point_rows(space)
    return core._members(core._inclusion(rows, rows[[_check_point(space, i)]])[:, 0])


@dataclass
class SpecMap:
    hom: ideals.Homomorphism
    source: SpecSpace        # Spec of the codomain rig
    target: SpecSpace        # Spec of the domain rig
    mapping: tuple           # point index of source -> point index of target


def spec_map(f: ideals.Homomorphism) -> SpecMap:
    """The continuous preimage map from Spec of the codomain to Spec of the
    domain, with each of its stated properties checked whenever its
    hypothesis holds: a surjection is a homeomorphism onto V(ker f)."""
    ideals.verify_homomorphism(f)
    a, b = f.source, f.target
    sa, sb = spec(a), spec(b)
    # pre[x] is V(f(x)) in Spec b; row j of pre_rows is the preimage of point j
    pre = sb.words.take(f.mapping)
    pre_rows = _point_rows(sb).take(f.mapping, axis=1)
    same = (pre_rows[:, None] == _point_rows(sa)).all(axis=2)
    missed = core._first(~same.any(axis=1))
    if missed is not None:
        raise MvwError(f"preimage {np.flatnonzero(pre_rows[missed]).tolist()} "
                       f"is not a proper prime")
    # each preimage is one point of Spec a; Spec b has none when Spec a has none
    mapping = (same.argmax(axis=1) if sa.points else np.zeros(0)).astype(np.uint64)
    phi = SpecMap(hom=f, source=sb, target=sa, mapping=tuple(mapping.tolist()))
    own = _BITS[:len(sb.points)]

    # phi^-1(V(x)) = V(f(x)) for every x.  The right side is a basic open,
    # and moving bits commutes with the AND over an ideal's members, so the
    # preimage of V(I) is V(f(I)) for every ideal I
    bad = core._first(_moved(sa.words, mapping, own) != pre)
    if bad is not None:
        raise MvwError(f"preimage law fails at element {bad[0]}")

    image = np.bitwise_or.reduce(np.uint64(1) << mapping, initial=0)
    if len(set(f.mapping)) == a.size:
        bad = core._first(_moved(pre, own, mapping) != sa.words)
        if bad is not None:
            raise MvwError(f"image law fails at element {bad[0]}")
        if image != sa.words[0]:
            raise MvwError("image of the spectrum map misses a prime")
    if len(set(f.mapping)) == b.size:
        sub = np.bitwise_and.reduce(sa.words.take(ideals.kernel(f).sorted_members()))
        if image != sub or len(set(phi.mapping)) != len(mapping):
            raise MvwError("surjective map does not induce a homeomorphism")
        if set((sa.words & sub).tolist()) != set(_moved(sb.words, own, mapping).tolist()):
            raise MvwError("open sets do not correspond under the induced map")
    return phi


def covering_edges(rows):
    """Transitive reduction of strict containment among the sets given as
    the rows of a boolean matrix: the pairs (i, j), in row-major order,
    with set i strictly inside set j and no listed set strictly between,
    read off the strict-inclusion matrix and its boolean square."""
    inside = core._inclusion(rows)
    strict = inside & ~inside.T
    return [(int(i), int(j)) for i, j in np.argwhere(strict & ~core._hits(strict, strict))]


def export_dot(space: SpecSpace) -> str:
    """The specialization order as a DOT digraph (edges are covering pairs
    of containment)."""
    lines = ["digraph spec {", "  rankdir=BT;"]
    for i in range(len(space.points)):
        lines.append(f'  p{i} [label="{space.point_display(i)}"];')
    for i, j in covering_edges(_point_rows(space)):
        lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json_doc(space: SpecSpace) -> dict:
    return {
        "points": [sorted(p) for p in space.points],
        "base": {str(a): sorted(space.base[a]) for a in space.rig.elements()},
        "opens": [sorted(o) for o in space.opens],
    }
