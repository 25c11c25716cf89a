"""Ideal theory: membership, generation, enumeration, classification,
radicals, congruences, quotients, homomorphisms and the subdirect
embedding into chains.

All answers are exact and read off the operation tables.  Every ideal is
the down-set of an idempotent e (e + e = e, a Boolean element), which
splits A as (down e) x (down neg e), so x is congruent to x ^ neg e modulo
down e (Cignoli, D'Ottaviano and Mundici, Algebraic Foundations of
Many-valued Reasoning, ch. 1 and 3).  The ideal lattice is read off the
idempotents of the listed ideals and least[x], the first listed one holding x:
- down e v down f is least[e + f] and their product ideal least[ef], as the
  rows and columns of a product are monotone: two k x k gathers, and a
  generated ideal is a fold of the join table from the zero ideal;
- down e is prime iff no a, b in (down neg e) minus {0}, in either order,
  have ab <= e (MV-prime: the meet).  If a table is monotone in each
  argument, as the product (``core``, paragraph 2) and the meet are, such
  a, b exist iff some atoms p <= a, q <= b have pq <= e: every nonzero
  element lies above an atom, and pq <= pb <= ab.  So both clauses read the
  pairs of atoms under neg e, k r^2 cells for k ideals and r atoms.  For
  the meet, distinct atoms meet in 0, so down e is MV-prime iff at most one
  atom lies under neg e;
- the ideals above down e are those holding e, so maximality and the ideal
  correspondence are gathers; its congruence keys each x by meet[x, neg e].
Each object is kept on the structure by ``core.per_structure`` (these
tables, the ideals and their classes, the nilpotents, the MV-reduct and,
per ideal, one congruence and one quotient), built and verified once by
its defining clauses; theorems about the result, such as the axioms of a
quotient, are re-checked by the law suites in ``suites``, not on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import builders, core
from .core import FiniteMvwRig
from .errors import (
    GateNotMet,
    MvwError,
    NotACongruence,
    NotAHomomorphism,
    NotCommutative,
    SizeBound,
    Trivial,
)


@dataclass(frozen=True)
class Ideal:
    rig: FiniteMvwRig
    members: frozenset

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @property
    def proper(self) -> bool:
        return len(self.members) < self.rig.size

    def display(self) -> str:
        return format_subset(self.rig, self.members)


def format_subset(rig: FiniteMvwRig, members) -> str:
    names = rig.carrier.names
    return "{" + ", ".join(names[a] for a in sorted(members)) + "}"


# -- membership tests ------------------------------------------------------

def _member_mask(rig, members):
    mask = np.zeros(rig.size, dtype=bool)
    mask[[rig._check(a) for a in members]] = True
    return mask


def _first_pair(bad, rows, cols):
    """(rows[i], cols[j]) for the first true bad[i, j] in row-major order,
    or None when there is none."""
    if not bad.any():
        return None
    i, j = np.unravel_index(int(bad.argmax()), bad.shape)
    return int(rows[i]), int(cols[j])


@core.per_structure
@core.reads_name
def _mv_reduct(rig):
    """The structure without its product, derived once."""
    return rig if rig.mul_table is None else core.derive(
        rig.neg_table, rig.add_table, None, names=rig.carrier.names, name=rig.name)


def is_mv_ideal(rig: FiniteMvwRig, members):
    """The ideal clauses of the MV-reduct: 0-membership, downward closure
    and sum closure, in that order (see ``is_ideal``)."""
    return is_ideal(_mv_reduct(rig), members)


def is_ideal(rig: FiniteMvwRig, members):
    """Check 0-membership, downward closure, sum closure and, with a
    product, absorption on both sides, in that order, on one member mask.

    Returns (ok, witness); the witness names the violated clause and its
    first violating pair, taking members in ascending order.  The verdict
    is kept on the structure for as long as it lives, one per distinct set
    of members, so a caller that probes many subsets keeps one per subset.
    """
    return _ideal_verdict(rig, frozenset(members))


@core.per_structure
def _ideal_verdict(rig, members):
    # rebuilt, so each structure keeps a verdict of its own: the verdicts
    # ``_ideal_check`` returns as literals are one object for every call
    ok, witness = _ideal_check(rig, members)
    return ok, witness


def _ideal_check(rig, members):
    mask = _member_mask(rig, members)
    if not mask[0]:
        return False, ("zero", (0,))
    inside = np.flatnonzero(mask)
    below = _first_pair(rig.leq_table.take(inside, axis=1).T & ~mask, inside, rig.elements())
    if below is not None:
        b, a = below
        return False, ("downward", (a, b))
    pair = _first_pair(~mask[core._grid(rig.add_table, inside, inside)], inside, inside)
    if pair is not None:
        return False, ("sum", pair)
    mul = rig.mul_table
    if mul is not None:
        pair = _first_pair(~mask[mul.take(inside, axis=0)] | ~mask[mul.take(inside, axis=1).T],
                           inside, rig.elements())
        if pair is not None:
            return False, ("absorb", pair)
    return True, None


# -- enumeration and generation ----------------------------------------------

@core.per_structure
def _tops(rig):
    """The idempotent e of each ideal down e, the ideals smallest first.
    Rows and columns of an MVW-rig's product are monotone (``core``), so
    down e absorbs the product iff e.u <= e and u.e <= e."""
    tops = np.flatnonzero(rig.add_table.diagonal() == np.arange(rig.size))
    leq, mul, u = rig.leq_table, rig.mul_table, rig.u
    if mul is not None:
        tops = tops[leq[mul[tops, u], tops] & leq[mul[u, tops], tops]]
    return core._read_only(tops[core._canonical_order(leq.take(tops, axis=1).T)])


@core.per_structure
def _ideal_masks(rig):
    """The membership mask of each listed ideal, one read-only row each."""
    return core._read_only(np.ascontiguousarray(rig.leq_table.take(_tops(rig), axis=1).T))


@core.per_structure
def _least(rig):
    """least[x]: the index of the first, hence least, listed ideal holding x."""
    return core._read_only(_ideal_masks(rig).argmax(axis=0))


@core.per_structure
def _lattice_table(rig, op):
    """The k x k index table least[op[e, f]] over the tops of the listed
    ideals: their join for the sum, their product ideal for the product."""
    tops = _tops(rig)
    return core._read_only(_least(rig)[core._grid(getattr(rig, f"{op}_table"), tops, tops)])


@core.per_structure
def _ideal_list(rig):
    return tuple(_as_ideal(rig, m) for m in _ideal_masks(rig))


@core.per_structure
def _positions(rig):
    """The position of each listed ideal in the list, by its members."""
    return MappingProxyType({i.members: k for k, i in enumerate(_ideal_list(rig))})


def _as_ideal(rig, mask) -> Ideal:
    return Ideal(rig, core._members(mask))


def _check_bound(rig):
    bound = builders.size_bound()
    if rig.size > bound:
        raise SizeBound(f"carrier of {rig.size} exceeds enumeration bound {bound}")


def enumerate_ideals(rig: FiniteMvwRig):
    """All ideals, smallest first: the down-sets of the idempotents that
    absorb the product on both sides."""
    _check_bound(rig)
    return list(_ideal_list(rig))


def generated_ideals(rig: FiniteMvwRig, rows):
    """The position in the ideal list of the least ideal holding each row of
    a boolean seed table: the join table folded over least[x] for the
    row's elements x, from the zero ideal, which is listed first.  This
    holds for noncommutative structures too."""
    return core._fold(_lattice_table(rig, "add"), 0, np.where(rows, _least(rig), -1))


def generated_ideal(rig: FiniteMvwRig, seed) -> Ideal:
    """Least ideal containing the seed, a one-row ``generated_ideals``."""
    return _ideal_list(rig)[generated_ideals(rig, _member_mask(rig, seed)[None])[0]]


# -- classification --------------------------------------------------------

@dataclass(frozen=True)
class IdealClass:
    prime: bool
    mv_prime: bool
    maximal: bool
    proper: bool


def classified_ideals(rig: FiniteMvwRig):
    """(ideal, class) for every ideal, smallest first, as one tuple built
    once per structure.  The classes are the raw clauses, which the whole
    carrier satisfies vacuously, so consumers combine them with ``proper``
    (the spectrum admits proper primes only)."""
    _check_bound(rig)
    return _classified(rig)


@core.per_structure
def _classified(rig):
    """The prime and MV-prime clauses on the pairs of atoms under neg e, and
    maximality from the ideals holding e (module docstring)."""
    masks, tops, atoms = _ideal_masks(rig), _tops(rig), core._atoms(rig)
    # under[i, p]: atom p lies under neg e_i
    under = core._grid(rig.leq_table, atoms, rig.neg_table.take(tops)).T
    pairs = under[:, :, None] & under[:, None, :]

    def clause(table):   # [i]: no atoms p, q under neg e_i have pq in ideal i
        return (~(pairs & masks[:, core._grid(table, atoms, atoms)]).any(axis=(1, 2))).tolist()

    prime = [True] * len(masks) if rig.mul_table is None else clause(rig.mul_table)
    # above[j, i]: ideal j holds e_i, so it contains ideal i
    above = masks.take(tops, axis=1) & ~masks[:, rig.u, None] & ~np.eye(len(masks), dtype=bool)
    return tuple((ideal, IdealClass(prime=p, mv_prime=m, maximal=not up, proper=ideal.proper))
                 for ideal, p, m, up in zip(enumerate_ideals(rig), prime, clause(rig.meet_table),
                                            above.any(axis=0).tolist()))


def prime_ideals(rig: FiniteMvwRig):
    """Proper ideals satisfying the product-prime clause: the points of the
    spectrum."""
    return [i for i, cls in classified_ideals(rig) if i.proper and cls.prime]


def maximal_ideals(rig: FiniteMvwRig):
    """All maximal proper ideals; nonempty for every nontrivial structure."""
    if rig.size == 1:
        raise Trivial("the one-element structure has no proper ideals")
    out = [i for i, cls in classified_ideals(rig) if i.proper and cls.maximal]
    if not out:
        raise MvwError("no maximal ideal found in a nontrivial structure")
    return out


# -- nilpotents and radicals -------------------------------------------------

def is_nilpotent(rig: FiniteMvwRig, x: int) -> bool:
    """Some power of x is 0 (``_nilpotent``)."""
    x = rig._check(x)
    if rig.mul_table is None:
        raise GateNotMet("structure has no product")
    return bool(_nilpotent(rig)[x])


@core.per_structure
def _nilpotent(rig):
    """[x]: x is nilpotent.  0 absorbs, so x is iff its last power in the
    walk of ``core._powers`` (x^(n+1), or where no power moves) is 0."""
    for last in core._powers(rig):
        pass
    return core._read_only(last == 0)


def _require_commutative(rig):
    if rig.mul_table is None:
        raise GateNotMet("structure has no product")
    if not rig.commutative:
        raise NotCommutative(f"{rig.name} is not commutative")


def nilradical(rig: FiniteMvwRig) -> Ideal:
    """The ideal of nilpotent elements (``_nilpotent``), the radical of the
    zero ideal (commutative structures only)."""
    _require_commutative(rig)
    nil = _as_ideal(rig, _nilpotent(rig))
    ok, witness = is_ideal(rig, nil.members)
    if not ok:
        raise MvwError(f"nilpotent set is not an ideal: {witness}")
    return nil


def radical(rig: FiniteMvwRig, ideal: Ideal) -> Ideal:
    """Elements with some power in the ideal, read off one walk over the
    powers of every element (``core._powers``).  The law suite compares the
    result with the intersection of the proper primes above the ideal.
    """
    _require_commutative(rig)
    mask = _member_mask(rig, ideal.members)
    rad = np.zeros(rig.size, dtype=bool)
    for power in core._powers(rig):
        rad |= mask[power]
    return _as_ideal(rig, rad)


def ideal_product(rig: FiniteMvwRig, i: Ideal, j: Ideal) -> Ideal:
    """The ideal generated by the products ab with a in i and b in j, two
    listed ideals: one read of the product table (module docstring)."""
    if rig.mul_table is None:
        raise GateNotMet("structure has no product")
    position = _positions(rig)
    return _ideal_list(rig)[_lattice_table(rig, "mul")[position[i.members], position[j.members]]]


# -- congruences ------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    rig: FiniteMvwRig
    class_of: tuple[int, ...]


def is_congruence(rig: FiniteMvwRig, class_of):
    """Exact compatibility check of a partition with every operation.

    Each x is compared with the least element b of its class, one gather
    per operation and side.  The witness is the first failure with classes
    in order of their least elements, x ascending within its class, and at
    each x the negation first, then for each y the sum on the left and on
    the right, then the product on the left and on the right.  The verdict
    is kept on the structure for as long as it lives, one per distinct
    tuple of labels, so a caller that probes many partitions keeps one per
    partition.
    """
    return _congruence_verdict(rig, tuple(class_of))


@core.per_structure
def _congruence_verdict(rig, class_of):
    # rebuilt, as in ``_ideal_verdict``
    ok, witness = _congruence_check(rig, class_of)
    return ok, witness


def _congruence_check(rig, class_of):
    if len(class_of) != rig.size:
        return False, ("shape", (len(class_of),))
    least = {}
    rep = np.array([least.setdefault(c, x) for x, c in enumerate(class_of)], dtype=np.int32)
    neg_bad = rep[rig.neg_table[rep]] != rep[rig.neg_table]
    clauses = []    # [x, y]: b op y ~ x op y, then y op b ~ y op x
    for op in (rig.add_table, rig.mul_table):
        if op is not None:
            cls = rep[op]   # [x, y]: the class of x op y, by its least element
            clauses += [cls.take(rep, axis=0) != cls, (cls.take(rep, axis=1) != cls).T]
    row_bad = neg_bad | np.any([bad.any(axis=1) for bad in clauses], axis=0)
    if not row_bad.any():
        return True, None
    bad = np.stack(clauses, axis=2)
    order = np.argsort(rep, kind="stable")
    x = int(order[row_bad[order].argmax()])
    base = int(rep[x])
    if neg_bad[x]:
        return False, ("neg", (base, x))
    y, k = divmod(int(bad[x].argmax()), len(clauses))
    return False, ("add" if k < 2 else "mul", (base, x, y) if k % 2 == 0 else (y, base, x))


def _idempotent(rig, ideal):
    """e of the ideal down e: the top of the largest least[x], x in it."""
    return int(_tops(rig)[_least(rig)[_member_mask(rig, ideal.members)].max()])


@core.per_structure
def congruence_from_ideal(rig: FiniteMvwRig, ideal: Ideal) -> Congruence:
    """x ~ y iff x ^ neg e = y ^ neg e for the ideal down e (module docstring),
    each class labelled by the rank of its least element; built once per
    structure and ideal, and verified by ``is_congruence``."""
    ok, witness = is_ideal(rig, ideal.members)
    if not ok:
        raise ValueError(f"not an ideal: {witness}")
    key = rig.meet_table[:, rig.neg_table[_idempotent(rig, ideal)]]
    # least[x]: the least element with the key of x, by one scatter
    idx = np.arange(rig.size)
    least = np.full(rig.size, rig.size)
    np.minimum.at(least, key, idx)
    least = least[key]
    label = np.cumsum(least == idx) - 1
    cong = Congruence(rig, tuple(label[least].tolist()))
    ok, witness = is_congruence(rig, cong.class_of)
    if not ok:
        raise MvwError(f"ideal congruence failed compatibility: {witness}")
    return cong


def ideal_from_congruence(rig: FiniteMvwRig, cong) -> Ideal:
    """The class of 0; raises NotACongruence with a witness for invalid
    partitions."""
    class_of = cong.class_of if isinstance(cong, Congruence) else tuple(cong)
    ok, witness = is_congruence(rig, class_of)
    if not ok:
        raise NotACongruence(*witness)
    members = frozenset(x for x, c in enumerate(class_of) if c == class_of[0])
    ok, witness = is_ideal(rig, members)
    if not ok:
        raise MvwError(f"zero class is not an ideal: {witness}")
    return Ideal(rig, members)


# -- quotients ---------------------------------------------------------------

@dataclass(frozen=True)
class QuotientRig:
    parent: FiniteMvwRig
    ideal: Ideal
    rig: FiniteMvwRig
    projection: tuple[int, ...]
    reps: tuple[int, ...]


@core.per_structure
@core.reads_name
def quotient(rig: FiniteMvwRig, ideal: Ideal) -> QuotientRig:
    """The structure of congruence classes, built once per structure and
    ideal; the projection is a surjective homomorphism whose kernel is the
    ideal.  The tables of the classes are read at their least elements and
    projected, the kept congruence numbering its classes by their least
    elements; the ``quotient-axioms`` law check verifies the axioms of the
    result, the projection and its kernel."""
    cong = congruence_from_ideal(rig, ideal)
    proj = np.array(cong.class_of)
    # a class's least element is where the running maximum label steps up
    reps = np.flatnonzero(np.diff(np.maximum.accumulate(proj), prepend=-1) > 0)
    mul = None if rig.mul_table is None else proj[core._grid(rig.mul_table, reps, reps)]
    names = tuple(f"[{rig.carrier.names[r]}]" for r in reps)
    qname = f"{rig.name}/{format_subset(rig, ideal.members)}"
    q = core.derive(proj[rig.neg_table.take(reps)], proj[core._grid(rig.add_table, reps, reps)],
                    mul, names=names, name=qname)
    return QuotientRig(parent=rig, ideal=ideal, rig=q, projection=cong.class_of,
                       reps=tuple(int(r) for r in reps))


def mv_quotient(rig: FiniteMvwRig, ideal: Ideal) -> QuotientRig:
    """Quotient of the underlying MV-algebra by an MV-ideal: the quotient of
    the MV-reduct, kept there; the product, if any, is dropped (an MV-ideal
    need not absorb it)."""
    ok, witness = is_mv_ideal(rig, ideal.members)
    if not ok:
        raise ValueError(f"not an MV-ideal: {witness}")
    mv = _mv_reduct(rig)
    return quotient(mv, Ideal(mv, ideal.members))


# -- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class Homomorphism:
    source: FiniteMvwRig
    target: FiniteMvwRig
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def check_homomorphism(f: Homomorphism):
    """Exact verification of the homomorphism clauses, one gather per
    operation: m[a.add] against b.add[m, m], and likewise for neg and mul.

    The witness is the first failure with x ascending, the negation clause
    at x before the sum clauses at (x, y) for ascending y.  The product
    clause applies when both sides carry a product.
    """
    a, b, m = f.source, f.target, f.mapping
    if len(m) != a.size or any(not 0 <= v < b.size for v in m):
        return False, ("total", ())
    if m[0] != 0:
        return False, ("zero", (0,))
    m = np.asarray(m)
    # column 0 holds the negation clause at x, column y + 1 the sum at (x, y)
    mv_bad = np.column_stack([m[a.neg_table] != b.neg_table.take(m),
                              m[a.add_table] != core._grid(b.add_table, m, m)])
    pair = _first_pair(mv_bad, range(a.size), range(-1, a.size))
    if pair is not None:
        x, y = pair
        return False, ("neg", (x,)) if y < 0 else ("add", (x, y))
    if _preserves_product(f):
        pair = _first_pair(m[a.mul_table] != core._grid(b.mul_table, m, m),
                           range(a.size), range(a.size))
        if pair is not None:
            return False, ("mul", pair)
    return True, None


def verify_homomorphism(f: Homomorphism) -> Homomorphism:
    ok, witness = check_homomorphism(f)
    if not ok:
        raise NotAHomomorphism(*witness)
    return f


def _preserves_product(f: Homomorphism) -> bool:
    return f.source.mul_table is not None and f.target.mul_table is not None


def kernel(f: Homomorphism) -> Ideal:
    """The preimage of 0; an ideal (an MV-ideal when the map is only a
    homomorphism of the underlying MV-algebras)."""
    members = frozenset(x for x, v in enumerate(f.mapping) if v == 0)
    test = is_ideal if _preserves_product(f) else is_mv_ideal
    ok, witness = test(f.source, members)
    if not ok:
        raise MvwError(f"kernel is not an ideal: {witness}")
    return Ideal(f.source, members)


def image(f: Homomorphism):
    """The image as a substructure of the target, with its inclusion.

    For a homomorphism of the underlying MV-algebras only, the image is a
    substructure of the target's MV-reduct (it need not be closed under a
    product the map ignores).  The image of an onto map is that target
    itself, with the identity inclusion.
    """
    target = f.target if _preserves_product(f) else _mv_reduct(f.target)
    values = set(f.mapping)
    if values == set(range(target.size)):
        return target, tuple(range(target.size))
    return core.restrict(target, values)


@dataclass
class FirstIso:
    hom: Homomorphism
    quot: QuotientRig
    image_rig: FiniteMvwRig
    image_embedding: tuple[int, ...]
    iso: Homomorphism


def first_iso(f: Homomorphism) -> FirstIso:
    """The canonical isomorphism between the quotient by the kernel and the
    image.  The map is verified, and the induced map is checked to be well
    defined and bijective; the ``first-iso`` law check verifies that it is
    a homomorphism.  Failure would indicate an implementation bug and aborts."""
    verify_homomorphism(f)
    k = kernel(f)
    q = quotient(f.source, k) if _preserves_product(f) else mv_quotient(f.source, k)
    img, embedding = image(f)
    back = {p: i for i, p in enumerate(embedding)}
    phi_bar = tuple(back[f.mapping[r]] for r in q.reps)
    if any(phi_bar[c] != back[v] for c, v in zip(q.projection, f.mapping)):
        raise MvwError("induced map is not well defined")
    if sorted(phi_bar) != list(range(img.size)):
        raise MvwError("induced map is not a bijection")
    return FirstIso(hom=f, quot=q, image_rig=img, image_embedding=embedding,
                    iso=Homomorphism(q.rig, img, phi_bar))


def ideal_correspondence(rig: FiniteMvwRig, ideal: Ideal):
    """The bijection between ideals above the given one and ideals of the
    quotient, verified in both directions and order-preserving.  Each ideal
    above maps to its image mask under the projection."""
    q = quotient(rig, ideal)
    listed, masks = _ideal_list(rig), _ideal_masks(rig)
    up = np.flatnonzero(masks[:, _idempotent(rig, ideal)])
    above = masks[up]
    below = _positions(q.rig)
    images = np.zeros((len(above), q.rig.size), dtype=bool)
    rows, cols = np.nonzero(above)
    images[rows, np.asarray(q.projection)[cols]] = True
    pairs = []
    for j, img in zip(up, images):
        members = core._members(img)
        if members not in below:
            raise MvwError(f"image of {listed[j].display()} is not an ideal of the quotient")
        pairs.append((listed[j], _ideal_list(q.rig)[below[members]]))
    if len({image for _, image in pairs}) != len(pairs):
        raise MvwError("correspondence is not injective")
    if len(pairs) != len(below):
        raise MvwError("correspondence is not surjective")
    # [j1, j2]: some member of j1 lies outside j2
    if ((above @ ~above.T) != (images @ ~images.T)).any():
        raise MvwError("correspondence does not preserve inclusion")
    return pairs


# -- subdirect embedding into chains ------------------------------------------

@dataclass
class ChangEmbedding:
    rig: FiniteMvwRig
    primes: list
    quotients: list
    product: FiniteMvwRig
    mapping: tuple[int, ...]


def chang_embedding(rig: FiniteMvwRig) -> ChangEmbedding:
    """Embed a nontrivial MV-algebra into the product of its quotients by
    MV-prime ideals; every factor is totally ordered and the canonical map
    is an injective MV-homomorphism with surjective coordinates.  The
    MV-primes are one per factor of ``core.chain_decomposition``, the
    down-set {x : x ^ e = 0} of the complement of its top, e its atom."""
    if rig.size == 1:
        raise Trivial("the one-element algebra has no subdirect decomposition")
    _check_bound(rig)
    dec = core.chain_decomposition(rig)
    if dec is None:
        raise MvwError(f"{rig.name} is not a product of finite chains")
    rows = np.array([rig.meet_table[:, e] == 0 for e in dec.atoms])
    primes = [_as_ideal(rig, rows[i]) for i in core._canonical_order(rows)]
    quotients = [mv_quotient(rig, p) for p in primes]
    for q in quotients:
        if not (q.rig.leq_table | q.rig.leq_table.T).all():
            raise MvwError(f"quotient by {q.ideal.display()} is not a chain")
    product = builders.direct_product([q.rig for q in quotients])
    mapping = np.zeros(rig.size, dtype=np.int64)
    for q in quotients:
        mapping = mapping * q.rig.size + np.asarray(q.projection)
    mapping = tuple(int(v) for v in mapping)
    emb = Homomorphism(rig, product, mapping)
    ok, witness = check_homomorphism(emb)
    if not ok:
        raise MvwError(f"canonical map fails a clause: {witness}")
    if len(set(mapping)) != rig.size:
        raise MvwError("canonical map is not injective")
    for q in quotients:
        if set(q.projection) != set(range(q.rig.size)):
            raise MvwError("a coordinate projection is not surjective")
    return ChangEmbedding(rig=rig, primes=primes, quotients=quotients,
                          product=product, mapping=mapping)
