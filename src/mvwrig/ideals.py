"""Ideal theory: membership, generation, enumeration, classification,
radicals, congruences, quotients, homomorphisms and the subdirect
embedding into chains.

All answers are exact and read off the operation tables: ideals are the
down-sets of idempotents, generation picks the least listed ideal above
the seed, nilpotency searches are bounded by the carrier size (the power
sequence of an element cycles within |A| steps), and congruences,
homomorphisms, quotients and restrictions are whole-table gathers.  The
library computes each object once per structure (the ideal masks, the
classified ideals and the quotient by each ideal are kept on the structure
by ``core.per_structure``) and verifies it once, by its defining clauses
(an ideal's congruence, a map's homomorphism clauses); theorems about the
result, such as the axioms of a quotient, are re-checked by the law suites
in ``suites``, not on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __contains__(self, a: int) -> bool:
        return a in self.members


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


def is_mv_ideal(rig: FiniteMvwRig, members):
    """Check 0-membership, downward closure and sum closure, in that order.

    Returns (ok, witness); the witness names the violated clause and its
    first violating pair, taking members in ascending order.
    """
    mask = _member_mask(rig, members)
    if not mask[0]:
        return False, ("zero", (0,))
    inside = np.flatnonzero(mask)
    below = _first_pair(rig.leq_table[:, inside].T & ~mask, inside, rig.elements())
    if below is not None:
        b, a = below
        return False, ("downward", (a, b))
    pair = _first_pair(~mask[rig.add_table[np.ix_(inside, inside)]], inside, inside)
    if pair is not None:
        return False, ("sum", pair)
    return True, None


def is_ideal(rig: FiniteMvwRig, members):
    """An MV-ideal that also absorbs products on both sides."""
    ok, witness = is_mv_ideal(rig, members)
    if not ok or rig.mul_table is None:
        return ok, witness
    mask = _member_mask(rig, members)
    inside = np.flatnonzero(mask)
    mul = rig.mul_table
    pair = _first_pair(~mask[mul[inside]] | ~mask[mul[:, inside].T], inside, rig.elements())
    if pair is not None:
        return False, ("absorb", pair)
    return True, None


# -- enumeration and generation ----------------------------------------------
#
# In a finite MV-algebra every MV-ideal is the down-set of an idempotent
# (e + e = e), namely of the sum of all its members; conversely the down-set
# of an idempotent is closed under sums.  Cignoli, D'Ottaviano and Mundici,
# Algebraic Foundations of Many-valued Reasoning, ch. 1 and 3.  The ideals
# are therefore the down-sets of idempotents that also absorb the product.

@core.per_structure
def _ideal_masks(rig, absorb_product=True):
    """Membership masks of all (MV-)ideals, one read-only row each,
    smallest first."""
    mul = rig.mul_table
    masks = []
    for e in np.flatnonzero(rig.add_table.diagonal() == np.arange(rig.size)):
        mask = rig.leq_table[:, e]
        if absorb_product and mul is not None and not (
                mask[mul[mask]].all() and mask[mul[:, mask]].all()):
            continue
        masks.append(mask)
    out = np.array(sorted(masks, key=lambda m: (int(m.sum()), np.flatnonzero(m).tolist())))
    out.flags.writeable = False
    return out


def _as_ideal(rig, mask) -> Ideal:
    return Ideal(rig, frozenset(int(a) for a in np.flatnonzero(mask)))


def _check_bound(rig):
    bound = builders.size_bound()
    if rig.size > bound:
        raise SizeBound(f"carrier of {rig.size} exceeds enumeration bound {bound}")


def enumerate_ideals(rig: FiniteMvwRig):
    """All ideals, smallest first: the down-sets of the idempotents that
    absorb the product on both sides."""
    _check_bound(rig)
    return [_as_ideal(rig, m) for m in _ideal_masks(rig)]


def enumerate_mv_ideals(rig: FiniteMvwRig):
    """All MV-ideals, smallest first: the down-sets of the idempotents."""
    _check_bound(rig)
    return [_as_ideal(rig, m) for m in _ideal_masks(rig, False)]


def _least_containing(masks, seed):
    """The first listed mask holding the seed, a boolean mask or a list of
    elements: the least one, since the masks run smallest first and are
    closed under intersection."""
    return masks[masks[:, seed].all(axis=1).argmax()]


def generated_ideal(rig: FiniteMvwRig, seed) -> Ideal:
    """Least ideal containing the seed.

    Every ideal is the down-set of an idempotent, and ideals are closed
    under intersection, so the smallest listed ideal containing the seed
    is the least one.  This holds for noncommutative structures too.
    """
    return _as_ideal(rig, _least_containing(_ideal_masks(rig), _member_mask(rig, seed)))


# -- classification --------------------------------------------------------

@dataclass(frozen=True)
class IdealClass:
    prime: bool
    mv_prime: bool
    maximal: bool
    proper: bool


def _prime_clause(mask, table) -> bool:
    """No value table[a, b] with both a and b outside lies inside."""
    out = ~mask
    return not (mask[table] & out[:, None] & out[None, :]).any()


def classify_ideal(rig: FiniteMvwRig, ideal: Ideal) -> IdealClass:
    """Raw clause checks; the whole carrier satisfies the prime and maximal
    clauses vacuously, so consumers that need properness combine these with
    the ``proper`` bit (the spectrum admits proper primes only)."""
    masks = _ideal_masks(rig)
    mask = _member_mask(rig, ideal.members)
    prime = rig.mul_table is None or _prime_clause(mask, rig.mul_table)
    # maximal: no proper ideal lies strictly above; this is the ideal's row
    # of the containment matrix of the masks
    strictly_above = masks[:, mask].all(axis=1) & (masks & ~mask).any(axis=1)
    maximal = not (strictly_above & ~masks.all(axis=1)).any()
    return IdealClass(prime=prime, mv_prime=_prime_clause(mask, rig.meet_table),
                      maximal=maximal, proper=ideal.proper)


def classified_ideals(rig: FiniteMvwRig):
    """(ideal, class) for every ideal, smallest first, as one tuple built
    once per structure."""
    _check_bound(rig)
    return _classified(rig)


@core.per_structure
def _classified(rig):
    return tuple((i, classify_ideal(rig, i)) for i in enumerate_ideals(rig))


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
    """Some power of x is 0; powers cycle within |A| steps, so the search
    is bounded and exact."""
    acc = rig._check(x)
    for _ in range(rig.size):
        if acc == 0:
            return True
        acc = rig.mul(acc, x)
    return acc == 0


def _require_commutative(rig):
    if rig.mul_table is None:
        raise GateNotMet("structure has no product")
    if not rig.commutative:
        raise NotCommutative(f"{rig.name} is not commutative")


def nilradical(rig: FiniteMvwRig) -> Ideal:
    """The ideal of nilpotent elements, the radical of the zero ideal
    (commutative structures only)."""
    nil = radical(rig, Ideal(rig, frozenset({0})))
    ok, witness = is_ideal(rig, nil.members)
    if not ok:
        raise MvwError(f"nilpotent set is not an ideal: {witness}")
    return nil


def radical(rig: FiniteMvwRig, ideal: Ideal) -> Ideal:
    """Elements with some power in the ideal.

    The powers x, x^2, .., x^(|A|+1) of every element are walked together,
    one product-table lookup per step; the power sequence cycles within
    |A| steps, so the scan is exact.  The law suite compares the result
    with the intersection of the proper primes above the ideal.
    """
    _require_commutative(rig)
    mask = _member_mask(rig, ideal.members)
    idx = np.arange(rig.size)
    acc, rad = idx, mask.copy()
    for _ in range(rig.size):
        acc = rig.mul_table[acc, idx]
        rad |= mask[acc]
    return _as_ideal(rig, rad)


def ideal_product(rig: FiniteMvwRig, i: Ideal, j: Ideal) -> Ideal:
    """The ideal generated by the products ab with a in i and b in j: the
    least listed ideal holding the block mul[i, j]."""
    if rig.mul_table is None:
        raise GateNotMet("structure has no product")
    seed = np.zeros(rig.size, dtype=bool)
    seed[rig.mul_table[np.ix_(_member_mask(rig, i.members), _member_mask(rig, j.members))]] = True
    return _as_ideal(rig, _least_containing(_ideal_masks(rig), seed))


# -- congruences ------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    rig: FiniteMvwRig
    class_of: tuple[int, ...]

    def together(self, x, y) -> bool:
        return self.class_of[x] == self.class_of[y]


def _normalize_partition(rig, class_of):
    """Renumber classes so the class of 0 is 0 and classes follow their
    least elements."""
    reps = {}
    for x, c in enumerate(class_of):
        reps.setdefault(c, x)
    order = sorted(reps, key=lambda c: reps[c])
    renum = {c: i for i, c in enumerate(order)}
    return tuple(renum[c] for c in class_of)


def is_congruence(rig: FiniteMvwRig, class_of):
    """Exact compatibility check of a partition with every operation.

    Each x is compared with the least element b of its class, one gather
    per operation and side.  The witness is the first failure with classes
    in order of their least elements, x ascending within its class, and at
    each x the negation first, then for each y the sum on the left and on
    the right, then the product on the left and on the right.
    """
    if len(class_of) != rig.size:
        return False, ("shape", (len(class_of),))
    least = {}
    rep = np.array([least.setdefault(c, x) for x, c in enumerate(class_of)])
    neg_bad = rep[rig.neg_table[rep]] != rep[rig.neg_table]
    clauses = []    # [x, y]: b op y ~ x op y, then y op b ~ y op x
    for op in (rig.add_table, rig.mul_table):
        if op is not None:
            clauses.append(rep[op[rep]] != rep[op])
            clauses.append(rep[op[:, rep]].T != rep[op.T])
    bad = np.stack(clauses, axis=2)
    row_bad = neg_bad | bad.any(axis=(1, 2))
    if not row_bad.any():
        return True, None
    order = np.argsort(rep, kind="stable")
    x = int(order[row_bad[order].argmax()])
    base = int(rep[x])
    if neg_bad[x]:
        return False, ("neg", (base, x))
    y, k = divmod(int(bad[x].argmax()), len(clauses))
    return False, ("add" if k < 2 else "mul", (base, x, y) if k % 2 == 0 else (y, base, x))


def _ideal_congruence(rig, mask) -> Congruence:
    """x ~ y iff (x - y) + (y - x) lies in the ideal given by the mask; each
    class is labelled by the rank of its least element."""
    related = mask[rig.add_table[rig.monus_table, rig.monus_table.T]]
    least = related.argmax(axis=1)
    label = np.cumsum(least == np.arange(rig.size)) - 1
    cong = Congruence(rig, tuple(int(c) for c in label[least]))
    ok, witness = is_congruence(rig, cong.class_of)
    if not ok:
        raise MvwError(f"ideal congruence failed compatibility: {witness}")
    return cong


def congruence_from_ideal(rig: FiniteMvwRig, ideal: Ideal) -> Congruence:
    """x ~ y iff (x - y) + (y - x) lies in the ideal."""
    ok, witness = is_ideal(rig, ideal.members)
    if not ok:
        raise ValueError(f"not an ideal: {witness}")
    return _ideal_congruence(rig, _member_mask(rig, ideal.members))


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


def _quotient_impl(rig, ideal, cong):
    """The tables of the classes, read at their least elements and projected;
    the congruence numbers its classes by their least elements."""
    proj = np.array(cong.class_of)
    # a class's least element is where the running maximum label steps up
    reps = np.flatnonzero(np.diff(np.maximum.accumulate(proj), prepend=-1) > 0)
    block = np.ix_(reps, reps)
    mul = None if rig.mul_table is None else proj[rig.mul_table[block]]
    names = tuple(f"[{rig.carrier.names[r]}]" for r in reps)
    qname = f"{rig.name}/{format_subset(rig, ideal.members)}"
    q = core.derive(proj[rig.neg_table[reps]], proj[rig.add_table[block]], mul,
                    names=names, name=qname)
    return QuotientRig(parent=rig, ideal=ideal, rig=q, projection=cong.class_of,
                       reps=tuple(int(r) for r in reps))


@core.per_structure
def quotient(rig: FiniteMvwRig, ideal: Ideal) -> QuotientRig:
    """The structure of congruence classes, built once per structure and
    ideal; the projection is a surjective homomorphism whose kernel is the
    ideal.  The congruence is verified here; the ``quotient-axioms`` law
    check verifies the axioms of the result, the projection and its
    kernel."""
    return _quotient_impl(rig, ideal, congruence_from_ideal(rig, ideal))


def mv_quotient(rig: FiniteMvwRig, ideal: Ideal) -> QuotientRig:
    """Quotient of the underlying MV-algebra by an MV-ideal; the product,
    if any, is dropped (an MV-ideal need not absorb it)."""
    ok, witness = is_mv_ideal(rig, ideal.members)
    if not ok:
        raise ValueError(f"not an MV-ideal: {witness}")
    mv = rig
    if rig.mul_table is not None:
        mv = core.derive(rig.neg_table, rig.add_table, None,
                         names=rig.carrier.names, name=rig.name)
    cong = _ideal_congruence(mv, _member_mask(mv, ideal.members))
    return _quotient_impl(mv, Ideal(mv, ideal.members), cong)


# -- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class Homomorphism:
    source: FiniteMvwRig
    target: FiniteMvwRig
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def check_homomorphism(f: Homomorphism, require_product=None):
    """Exact verification of the homomorphism clauses, one gather per
    operation: m[a.add] against b.add[m, m], and likewise for neg and mul.

    The witness is the first failure with x ascending, the negation clause
    at x before the sum clauses at (x, y) for ascending y.  The product
    clause applies when both sides carry a product (or always, with
    ``require_product=True``).
    """
    a, b, m = f.source, f.target, f.mapping
    if len(m) != a.size or any(not 0 <= v < b.size for v in m):
        return False, ("total", ())
    if m[0] != 0:
        return False, ("zero", (0,))
    m = np.asarray(m)
    block = np.ix_(m, m)
    # column 0 holds the negation clause at x, column y + 1 the sum at (x, y)
    mv_bad = np.column_stack([m[a.neg_table] != b.neg_table[m],
                              m[a.add_table] != b.add_table[block]])
    pair = _first_pair(mv_bad, range(a.size), range(-1, a.size))
    if pair is not None:
        x, y = pair
        return False, ("neg", (x,)) if y < 0 else ("add", (x, y))
    if require_product is None:
        require_product = a.mul_table is not None and b.mul_table is not None
    if require_product:
        if a.mul_table is None or b.mul_table is None:
            return False, ("product-missing", ())
        pair = _first_pair(m[a.mul_table] != b.mul_table[block], range(a.size), range(a.size))
        if pair is not None:
            return False, ("mul", pair)
    return True, None


def verify_homomorphism(f: Homomorphism, require_product=None) -> Homomorphism:
    ok, witness = check_homomorphism(f, require_product)
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
    product the map ignores).
    """
    target = f.target
    if not _preserves_product(f) and target.mul_table is not None:
        target = core.derive(target.neg_table, target.add_table, None,
                             names=target.carrier.names, name=target.name)
    return core.restrict(target, set(f.mapping))


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
    masks = _ideal_masks(rig)
    above = masks[masks[:, _member_mask(rig, ideal.members)].all(axis=1)]
    below = {m.tobytes(): b for b, m in enumerate(_ideal_masks(q.rig))}
    images = np.zeros((len(above), q.rig.size), dtype=bool)
    rows, cols = np.nonzero(above)
    images[rows, np.asarray(q.projection)[cols]] = True
    pairs = []
    for j, img in zip(above, images):
        if img.tobytes() not in below:
            raise MvwError(f"image of {_as_ideal(rig, j).display()} is not an ideal "
                           f"of the quotient")
        pairs.append((_as_ideal(rig, j), _as_ideal(q.rig, img)))
    if len({img.tobytes() for img in images}) != len(pairs):
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
    is an injective MV-homomorphism with surjective coordinates."""
    if rig.size == 1:
        raise Trivial("the one-element algebra has no subdirect decomposition")
    _check_bound(rig)
    primes = [_as_ideal(rig, m) for m in _ideal_masks(rig, False)
              if not m.all() and _prime_clause(m, rig.meet_table)]
    if not primes:
        raise MvwError(f"no MV-prime ideals found in nontrivial {rig.name}")
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
    ok, witness = check_homomorphism(emb, require_product=False)
    if not ok:
        raise MvwError(f"canonical map fails a clause: {witness}")
    if len(set(mapping)) != rig.size:
        raise MvwError("canonical map is not injective")
    for q in quotients:
        if set(q.projection) != set(range(q.rig.size)):
            raise MvwError("a coordinate projection is not surjective")
    return ChangEmbedding(rig=rig, primes=primes, quotients=quotients,
                          product=product, mapping=mapping)
