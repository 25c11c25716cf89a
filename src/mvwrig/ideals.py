"""Ideal theory: membership, generation, enumeration, classification,
radicals, congruences, quotients, homomorphisms and the subdirect
embedding into chains.

All answers are exact: ideals are read off the idempotents (every ideal
is the down-set of one), generation picks the least listed ideal above the
seed, nilpotency searches are bounded by the carrier size (the power
sequence of an element cycles within |A| steps), and every structural
theorem consumed elsewhere is re-verified here rather than assumed.
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
        return "{" + ", ".join(self.rig.element_name(a) for a in self.sorted_members()) + "}"

    def __contains__(self, a: int) -> bool:
        return a in self.members


def format_subset(rig: FiniteMvwRig, members) -> str:
    return "{" + ", ".join(rig.element_name(a) for a in sorted(members)) + "}"


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

def _ideal_masks(rig, absorb_product=True):
    """Membership masks of all (MV-)ideals, one row each, smallest first."""
    mul = rig.mul_table
    masks = []
    for e in np.flatnonzero(rig.add_table.diagonal() == np.arange(rig.size)):
        mask = rig.leq_table[:, e]
        if absorb_product and mul is not None and not (
                mask[mul[mask]].all() and mask[mul[:, mask]].all()):
            continue
        masks.append(mask)
    return np.array(sorted(masks, key=lambda m: (int(m.sum()), np.flatnonzero(m).tolist())))


def _as_ideal(rig, mask) -> Ideal:
    return Ideal(rig, frozenset(int(a) for a in np.flatnonzero(mask)))


def _enumerate(rig, bound, absorb_product):
    bound = builders.size_bound() if bound is None else bound
    if rig.size > bound:
        raise SizeBound(f"carrier of {rig.size} exceeds enumeration bound {bound}")
    return [_as_ideal(rig, m) for m in _ideal_masks(rig, absorb_product)]


def enumerate_ideals(rig: FiniteMvwRig, bound: int | None = None):
    """All ideals, smallest first: the down-sets of the idempotents that
    absorb the product on both sides."""
    return _enumerate(rig, bound, absorb_product=True)


def enumerate_mv_ideals(rig: FiniteMvwRig, bound: int | None = None):
    """All MV-ideals, smallest first: the down-sets of the idempotents."""
    return _enumerate(rig, bound, absorb_product=False)


def _least_containing(rig, seed, absorb_product):
    seed = [rig._check(a) for a in seed]
    masks = _ideal_masks(rig, absorb_product)
    return _as_ideal(rig, masks[masks[:, seed].all(axis=1).argmax()])


def generated_mv_ideal(rig: FiniteMvwRig, seed) -> Ideal:
    """Least MV-ideal containing the seed: the smallest MV-ideal listed
    that contains it (MV-ideals are closed under intersection)."""
    return _least_containing(rig, seed, absorb_product=False)


def generated_ideal(rig: FiniteMvwRig, seed) -> Ideal:
    """Least ideal containing the seed.

    Every ideal is the down-set of an idempotent, and ideals are closed
    under intersection, so the smallest listed ideal containing the seed
    is the least one.  This holds for noncommutative structures too.
    """
    return _least_containing(rig, seed, absorb_product=True)


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


def classify_ideal(rig: FiniteMvwRig, ideal: Ideal, _masks=None) -> IdealClass:
    """Raw clause checks; the whole carrier satisfies the prime and maximal
    clauses vacuously, so consumers that need properness combine these with
    the ``proper`` bit (the spectrum admits proper primes only).

    ``_masks`` is the ideal mask list of the structure, for callers that
    classify many ideals against one list.
    """
    masks = _ideal_masks(rig) if _masks is None else _masks
    mask = _member_mask(rig, ideal.members)
    prime = rig.mul_table is None or _prime_clause(mask, rig.mul_table)
    # maximal: no proper ideal lies strictly above; this is the ideal's row
    # of the containment matrix of the masks
    strictly_above = masks[:, mask].all(axis=1) & (masks & ~mask).any(axis=1)
    maximal = not (strictly_above & ~masks.all(axis=1)).any()
    return IdealClass(prime=prime, mv_prime=_prime_clause(mask, rig.meet_table),
                      maximal=maximal, proper=ideal.proper)


def classified_ideals(rig: FiniteMvwRig, absorb_product=True):
    """(ideal, class) for every ideal, or every MV-ideal, smallest first,
    each classified against one list of ideal masks."""
    found = enumerate_ideals(rig)
    masks = np.array([_member_mask(rig, i.members) for i in found])
    listed = found if absorb_product else enumerate_mv_ideals(rig)
    return [(i, classify_ideal(rig, i, masks)) for i in listed]


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


def ideal_join(rig: FiniteMvwRig, i: Ideal, j: Ideal) -> Ideal:
    return generated_ideal(rig, i.members | j.members)


def ideal_product(rig: FiniteMvwRig, i: Ideal, j: Ideal) -> Ideal:
    pairs = {rig.mul(a, b) for a in i.members for b in j.members}
    return generated_ideal(rig, pairs)


# -- congruences ------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    rig: FiniteMvwRig
    class_of: tuple[int, ...]

    def classes(self):
        buckets = {}
        for x, c in enumerate(self.class_of):
            buckets.setdefault(c, set()).add(x)
        return tuple(frozenset(buckets[c]) for c in sorted(buckets))

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
    """Exact compatibility check of a partition with every operation."""
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


def congruence_from_ideal(rig: FiniteMvwRig, ideal: Ideal) -> Congruence:
    """x ~ y iff (x - y) + (y - x) lies in the ideal."""
    ok, witness = is_ideal(rig, ideal.members)
    if not ok:
        raise ValueError(f"not an ideal: {witness}")
    mask = _member_mask(rig, ideal.members)
    sym_diff = rig.add_table[rig.monus_table, rig.monus_table.T]
    related = mask[sym_diff]
    class_of = [-1] * rig.size
    nxt = 0
    for x in rig.elements():
        if class_of[x] < 0:
            for y in np.flatnonzero(related[x]):
                class_of[int(y)] = nxt
            nxt += 1
    cong = Congruence(rig, _normalize_partition(rig, tuple(class_of)))
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
    members = frozenset(x for x in rig.elements() if class_of[x] == class_of[0])
    ok, witness = is_ideal(rig, members)
    if not ok:
        raise MvwError(f"zero class is not an ideal: {witness}")
    return Ideal(rig, members)


# -- quotients ---------------------------------------------------------------

@dataclass
class QuotientRig:
    parent: FiniteMvwRig
    ideal: Ideal
    rig: FiniteMvwRig
    projection: tuple[int, ...]
    reps: tuple[int, ...]


def _quotient_impl(rig, ideal, keep_product):
    cong = congruence_from_ideal(rig, ideal)
    classes = cong.classes()
    reps = sorted(min(c) for c in classes)
    proj = [0] * rig.size
    for i, r in enumerate(reps):
        cls = next(c for c in classes if r in c)
        for x in cls:
            proj[x] = i
    k = len(reps)
    neg = [proj[rig.neg(r)] for r in reps]
    add = [[proj[rig.add(r, s)] for s in reps] for r in reps]
    mul = None
    if keep_product and rig.mul_table is not None:
        mul = [[proj[rig.mul(r, s)] for s in reps] for r in reps]
    names = tuple("[" + rig.element_name(r) + "]" for r in reps)
    qname = f"{rig.name}/{format_subset(rig, ideal.members)}"
    q = core.derive(neg, add, mul, names=names, name=qname)
    report = core.check_mv(q) if mul is None else core.check_all(q)
    if not report.passed:
        raise MvwError(f"quotient failed axioms: {report.failed_axioms()}")
    return QuotientRig(parent=rig, ideal=ideal, rig=q,
                       projection=tuple(proj), reps=tuple(reps))


def quotient(rig: FiniteMvwRig, ideal: Ideal) -> QuotientRig:
    """The structure of congruence classes; the projection is a surjective
    homomorphism whose kernel is the ideal."""
    q = _quotient_impl(rig, ideal, keep_product=True)
    proj = Homomorphism(rig, q.rig, q.projection)
    ok, witness = check_homomorphism(proj)
    if not ok:
        raise MvwError(f"projection is not a homomorphism: {witness}")
    if kernel(proj).members != ideal.members:
        raise MvwError("projection kernel differs from the ideal")
    return q


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
    return _quotient_impl(mv, Ideal(mv, ideal.members), keep_product=False)


# -- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class Homomorphism:
    source: FiniteMvwRig
    target: FiniteMvwRig
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def check_homomorphism(f: Homomorphism, require_product=None):
    """Exact verification of the homomorphism clauses.

    The product clause applies when both sides carry a product (or always,
    with ``require_product=True``).
    """
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
    if require_product is None:
        require_product = a.mul_table is not None and b.mul_table is not None
    if require_product:
        if a.mul_table is None or b.mul_table is None:
            return False, ("product-missing", ())
        for x in a.elements():
            for y in a.elements():
                if m[a.mul(x, y)] != b.mul(m[x], m[y]):
                    return False, ("mul", (x, y))
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
    members = frozenset(x for x in f.source.elements() if f.mapping[x] == 0)
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


def enumerate_homomorphisms(a: FiniteMvwRig, b: FiniteMvwRig, limit: int = 10 ** 6):
    """All homomorphisms a -> b by exhaustive map search (desk scale)."""
    import itertools
    total = b.size ** max(a.size - 1, 0)
    if total > limit:
        raise SizeBound(f"{total} candidate maps exceed limit {limit}")
    out = []
    for rest in itertools.product(range(b.size), repeat=a.size - 1):
        f = Homomorphism(a, b, (0,) + rest)
        if check_homomorphism(f)[0]:
            out.append(f)
    return out


@dataclass
class FirstIso:
    hom: Homomorphism
    quot: QuotientRig
    image_rig: FiniteMvwRig
    image_embedding: tuple[int, ...]
    iso: Homomorphism


def first_iso(f: Homomorphism) -> FirstIso:
    """The canonical isomorphism between the quotient by the kernel and the
    image; failure would indicate an implementation bug and aborts."""
    both = _preserves_product(f)
    verify_homomorphism(f)
    k = kernel(f)
    q = quotient(f.source, k) if both else mv_quotient(f.source, k)
    img, embedding = image(f)
    back = {p: i for i, p in enumerate(embedding)}
    phi_bar = tuple(back[f.mapping[r]] for r in q.reps)
    for x in f.source.elements():
        if phi_bar[q.projection[x]] != back[f.mapping[x]]:
            raise MvwError("induced map is not well defined")
    if sorted(phi_bar) != list(range(img.size)):
        raise MvwError("induced map is not a bijection")
    iso = Homomorphism(q.rig, img, phi_bar)
    ok, witness = check_homomorphism(iso, require_product=both or None)
    if not ok:
        raise MvwError(f"induced map fails a clause: {witness}")
    return FirstIso(hom=f, quot=q, image_rig=img,
                    image_embedding=embedding, iso=iso)


def ideal_correspondence(rig: FiniteMvwRig, ideal: Ideal):
    """The bijection between ideals above the given one and ideals of the
    quotient, verified in both directions and order-preserving."""
    q = quotient(rig, ideal)
    above = [j for j in enumerate_ideals(rig) if ideal.members <= j.members]
    below = enumerate_ideals(q.rig)
    below_sets = {j.members for j in below}
    pairs = []
    for j in above:
        img = frozenset(q.projection[a] for a in j.members)
        if img not in below_sets:
            raise MvwError(f"image of {j.display()} is not an ideal of the quotient")
        pairs.append((j, Ideal(q.rig, img)))
    if len({img.members for _, img in pairs}) != len(pairs):
        raise MvwError("correspondence is not injective")
    if len(pairs) != len(below):
        raise MvwError("correspondence is not surjective")
    for j1, i1 in pairs:
        for j2, i2 in pairs:
            if (j1.members <= j2.members) != (i1.members <= i2.members):
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
    primes = [i for i, cls in classified_ideals(rig, absorb_product=False)
              if i.proper and cls.mv_prime]
    if not primes:
        raise MvwError(f"no MV-prime ideals found in nontrivial {rig.name}")
    quotients = [mv_quotient(rig, p) for p in primes]
    for q in quotients:
        if not (q.rig.leq_table | q.rig.leq_table.T).all():
            raise MvwError(f"quotient by {q.ideal.display()} is not a chain")
    product = builders.direct_product([q.rig for q in quotients])
    mapping = []
    for x in rig.elements():
        idx = 0
        for q in quotients:
            idx = idx * q.rig.size + q.projection[x]
        mapping.append(idx)
    emb = Homomorphism(rig, product, tuple(mapping))
    ok, witness = check_homomorphism(emb, require_product=False)
    if not ok:
        raise MvwError(f"canonical map fails a clause: {witness}")
    if len(set(mapping)) != rig.size:
        raise MvwError("canonical map is not injective")
    for q in quotients:
        if set(q.projection) != set(range(q.rig.size)):
            raise MvwError("a coordinate projection is not surjective")
    return ChangEmbedding(rig=rig, primes=primes, quotients=quotients,
                          product=product, mapping=tuple(mapping))
