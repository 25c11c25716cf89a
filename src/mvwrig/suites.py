"""Named law suites.

Each check verifies one structural law exhaustively on a given structure
and is addressable from the command line, giving a law-to-test
traceability table.  Checks whose hypothesis fails (no product, not
commutative, no unit, carrier too large for an exponential scan) report
SKIPPED rather than PASS; a carrier past an oracle's cap is reported with
the cap's name and value, as in ``carrier 16 > SUBSET_SIZE_LIMIT (10)``.
A check that proves its law on pairs or triples at every size, such as
``theta-iso`` or ``frame-distributivity``, runs its exponential oracle
only below the oracle's cap and otherwise reports PASS on the pairwise
proof alone.  The locale checks read the principal filters F_a, their
joins and their meets off the frame, so past the frame cap that
``frames.frame`` enforces they report SKIPPED naming that cap.

Each check takes the structure and calls the library directly.  Each
shared object (the ideal tables, the classified ideals, the congruence and
quotient of each ideal, the spectrum, the principal P-filter table and
the frame) is built once per structure and kept on it by
``core.per_structure``, so the checks of every suite read the same one.
Generated P-filters and cover questions fold the frame's join table.
The scalar oracles stay element by element and independent of the routes
they check, but read the tables as plain rows of tuples, built once per
structure, instead of calling the accessors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core, frames, ideals, spectrum
from .errors import MvwError, SizeBound

NARY_SIZE_LIMIT = 6        # extra indices make the scan size^(2n)
PARTITION_SIZE_LIMIT = 8   # Bell numbers grow fast
SUBSET_SIZE_LIMIT = 10     # 2^size subset scans
BRUTE_PFILTER_LIMIT = 12   # independent 2^size P-filter oracle


@dataclass
class CheckResult:
    suite: str
    name: str
    status: str              # PASS | FAIL | SKIPPED
    detail: str = ""

    def line(self) -> str:
        tail = f"  ({self.detail})" if self.detail and self.status != "PASS" else ""
        return f"[{self.suite}] {self.name} {self.status}{tail}"


class _Skip(Exception):
    pass


class _Rows(NamedTuple):
    neg: tuple
    add: tuple
    mul: tuple | None
    below: tuple


def _nested(table):
    return tuple(map(tuple, table.tolist()))


@core.per_structure
def _rows(rig):
    """The tables as tuples of rows, and below[b] the elements a <= b: the
    element-by-element oracles index these instead of calling the
    bounds-checked accessors."""
    return _Rows(
        neg=tuple(rig.neg_table.tolist()), add=_nested(rig.add_table),
        mul=None if rig.mul_table is None else _nested(rig.mul_table),
        below=tuple(tuple(a for a, le in enumerate(col) if le)
                    for col in rig.leq_table.T.tolist()))


def _need_product(rig):
    if rig.mul_table is None:
        raise _Skip("no product")


def _need_commutative(rig):
    _need_product(rig)
    if not rig.commutative:
        raise _Skip("not commutative")


def _need_unit(rig):
    _need_product(rig)
    if rig.unit is None:
        raise _Skip("no unitary element")


def _need_within(rig, cap):
    """Skip an oracle past its cap, one of the module constants above,
    naming the cap and its value."""
    limit = globals()[cap]
    if rig.size > limit:
        raise _Skip(f"carrier {rig.size} > {cap} ({limit})")


# -- core laws ---------------------------------------------------------------

def _check_mv_axioms(r):
    report = core.scan_mv(r)
    if not report.passed:
        bad = ", ".join(f"{a} at {report.witnesses(a)[:2]}" for a in report.failed_axioms())
        return f"failing: {bad}"


def _check_mvw_axioms(r):
    _need_product(r)
    report = core.scan_mvw(r)
    if not report.passed:
        bad = ", ".join(f"{a} at {report.witnesses(a)[:2]}" for a in report.failed_axioms())
        return f"failing: {bad}"


def _check_order_lattice(r):
    n = r.size
    leq = r.leq_table
    if not leq.diagonal().all():
        return "order is not reflexive"
    reach = leq.astype(np.int64)
    if ((reach @ reach > 0) & ~leq).any():
        return "order is not transitive"
    if not (leq[0, :].all() and leq[:, r.u].all()):
        return "0 is not bottom or u is not top"
    idx = np.arange(n)
    if not (leq[idx[:, None], r.join_table].all()
            and leq[idx[None, :], r.join_table].all()):
        return "join is not an upper bound"
    if not (leq[r.meet_table, idx[:, None]].all()
            and leq[r.meet_table, idx[None, :]].all()):
        return "meet is not a lower bound"
    for z in range(n):
        up = leq[:, z]
        both = up[:, None] & up[None, :]
        if (both & ~leq[r.join_table, z]).any():
            return f"join is not the least upper bound (against {z})"
        dn = leq[z, :]
        both = dn[:, None] & dn[None, :]
        if (both & ~leq[z, r.meet_table]).any():
            return f"meet is not the greatest lower bound (against {z})"


def _check_residuation(r):
    add, monus, leq = r.add_table, r.monus_table, r.leq_table
    for x in range(r.size):
        lhs = leq[x][add]               # [y, z] : x <= y + z
        rhs = leq[monus[x]][:, :].T     # [y, z] : x - z <= y
        if (lhs != rhs).any():
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return f"fails at ({x}, {y}, {z})"


def _check_monus_superadditive(r):
    add, monus, leq = r.add_table, r.monus_table, r.leq_table
    for x1 in range(r.size):
        for y1 in range(r.size):
            lhs = monus[add[x1][:, None], add[y1][None, :]]
            rhs = add[monus[x1, y1]][monus]
            if not leq[lhs, rhs].all():
                x2, y2 = map(int, np.argwhere(~leq[lhs, rhs])[0])
                return f"fails at x=({x1},{x2}) y=({y1},{y2})"


def _check_monus_superadditive_nary(r):
    """The bound sees x and y only through the left-folded triple
    (sum x, sum y, sum of the x_i - y_i), so it is checked, exactly, on the
    set of reachable triples, grown one coordinate at a time as an
    n x n x n cube.  The tuple scan runs only to name a witness."""
    _need_within(r, "NARY_SIZE_LIMIT")
    add, monus, leq = r.add_table, r.monus_table, r.leq_table
    idx = np.arange(r.size)
    holds = leq[monus]                  # [s, t, q] : s - t <= q
    reach = np.zeros((r.size,) * 3, dtype=bool)
    reach[idx[:, None], idx[None, :], monus] = True
    for arity in (2, 3, 4):
        s, t, q = np.nonzero(reach)
        reach = np.zeros_like(reach)
        reach[add[s][:, :, None], add[t][:, None, :], add[q[:, None, None], monus]] = True
        if arity >= 3 and (reach & ~holds).any():
            return _nary_scan(r)


def _nary_scan(r):
    """Every pair of 3- and 4-tuples, with the first violating pair as the
    witness."""
    add, monus, leq = r.add_table, r.monus_table, r.leq_table
    for arity in (3, 4):
        vecs = np.array(list(itertools.product(range(r.size), repeat=arity)))
        sums = vecs[:, 0]
        for k in range(1, arity):
            sums = add[sums, vecs[:, k]]
        lhs = monus[sums[:, None], sums[None, :]]
        rhs = monus[vecs[:, None, 0], vecs[None, :, 0]]
        for k in range(1, arity):
            rhs = add[rhs, monus[vecs[:, None, k], vecs[None, :, k]]]
        if not leq[lhs, rhs].all():
            i, j = map(int, np.argwhere(~leq[lhs, rhs])[0])
            return f"{arity}-ary fails at x={tuple(vecs[i])} y={tuple(vecs[j])}"


def _check_product_monotone(r):
    _need_product(r)
    mul, leq = r.mul_table, r.leq_table
    for c in range(r.size):
        for vec in (mul[:, c], mul[c, :]):
            bad = leq & ~leq[np.ix_(vec, vec)]
            if bad.any():
                a, b = map(int, np.argwhere(bad)[0])
                return f"fails at a={a} b={b} c={c}"


def _check_product_join_bound(r):
    _need_product(r)
    mul, join, leq = r.mul_table, r.join_table, r.leq_table
    for a in range(r.size):
        for vec in (mul[a], mul[:, a]):
            lhs = vec[join]
            rhs = join[np.ix_(vec, vec)]
            if not leq[rhs, lhs].all():
                b, c = map(int, np.argwhere(~leq[rhs, lhs])[0])
                return f"fails at ({a}, {b}, {c})"


def _check_product_meet_bound(r):
    _need_product(r)
    mul, meet, leq = r.mul_table, r.meet_table, r.leq_table
    for a in range(r.size):
        for vec in (mul[a], mul[:, a]):
            lhs = vec[meet]
            rhs = meet[np.ix_(vec, vec)]
            if not leq[lhs, rhs].all():
                b, c = map(int, np.argwhere(~leq[lhs, rhs])[0])
                return f"fails at ({a}, {b}, {c})"


def _powers(rig, upto):
    idx = np.arange(rig.size)
    out = [idx]
    for _ in range(upto - 1):
        out.append(rig.mul_table[out[-1], idx])
    return out


def _check_power_join_bound(r):
    _need_product(r)
    join, leq = r.join_table, r.leq_table
    for n, p in enumerate(_powers(r, 3), start=1):
        lhs = p[join]
        rhs = join[np.ix_(p, p)]
        if not leq[rhs, lhs].all():
            a, b = map(int, np.argwhere(~leq[rhs, lhs])[0])
            return f"fails at n={n} ({a}, {b})"


def _check_power_meet_bound(r):
    _need_product(r)
    meet, leq = r.meet_table, r.leq_table
    for n, p in enumerate(_powers(r, 3), start=1):
        lhs = p[meet]
        rhs = meet[np.ix_(p, p)]
        if not leq[lhs, rhs].all():
            a, b = map(int, np.argwhere(~leq[lhs, rhs])[0])
            return f"fails at n={n} ({a}, {b})"


def _check_unit_unique(r):
    _need_product(r)
    idx = np.arange(r.size)
    units = [s for s in range(r.size)
             if (r.mul_table[s] == idx).all() and (r.mul_table[:, s] == idx).all()]
    if len(units) > 1:
        return f"multiple unitary elements: {units}"
    if (units and r.unit != units[0]) or (not units and r.unit is not None):
        return "cached unit disagrees with the scan"


def _check_derive_idempotent(r):
    again = core.derive(r.neg_table, r.add_table, r.mul_table,
                        names=r.carrier.names, name=r.name)
    same = (r.same_tables(again)
            and np.array_equal(r.monus_table, again.monus_table)
            and np.array_equal(r.times_table, again.times_table)
            and np.array_equal(r.join_table, again.join_table)
            and np.array_equal(r.meet_table, again.meet_table)
            and r.unit == again.unit and r.u == again.u
            and r.commutative == again.commutative
            and r.product_below_meet == again.product_below_meet)
    if not same:
        return "re-derivation changed a derived table or flag"


# -- ideal laws ----------------------------------------------------------------

def _check_ideals_sound(r):
    found = ideals.enumerate_ideals(r)
    sets = {i.members for i in found}
    if frozenset({0}) not in sets:
        return "the zero ideal is missing"
    if frozenset(range(r.size)) not in sets:
        return "the whole carrier is missing"
    for i in found:
        ok, witness = ideals.is_ideal(r, i.members)
        if not ok:
            return f"{i.display()} fails {witness}"


def _oplus_closure(rows, seed):
    add = rows.add
    out = set(seed)
    frontier = set(seed)
    while frontier:
        fresh = set()
        for a in frontier:
            row = add[a]
            for b in out:
                for c in (row[b], add[b][a]):
                    if c not in out:
                        fresh.add(c)
        out |= fresh
        frontier = fresh
    return out


def _downward(rows, seed):
    out = set(seed)
    for b in seed:
        out.update(rows.below[b])
    return out


def _generated_fixpoint(rows, seed):
    """Least ideal by iterated closure under sums, the order and both
    one-sided products, over the ``_rows`` of a structure: the independent
    oracle for ``generated_ideal``."""
    mul = rows.mul
    members = {0} | set(seed)
    while True:
        before = len(members)
        members = _downward(rows, _oplus_closure(rows, members))
        if mul is not None:
            extra = set()
            for a in members:
                extra.update(mul[a])
                extra.update(row[a] for row in mul)
            members |= extra
        if len(members) == before:
            return members


def _check_generated_least(r):
    _need_within(r, "SUBSET_SIZE_LIMIT")
    all_sets = [i.members for i in ideals.enumerate_ideals(r)]
    rows = _rows(r)
    verified = set()    # generated sets already shown to be ideals
    for k in range(r.size + 1):
        for seed in itertools.combinations(range(r.size), k):
            gen = ideals.generated_ideal(r, seed)
            if gen.members not in verified:
                ok, witness = ideals.is_ideal(r, gen.members)
                if not ok:
                    return f"<{seed}> is not an ideal: {witness}"
                verified.add(gen.members)
            if not set(seed) <= gen.members:
                return f"<{seed}> lost its seed"
            for s in all_sets:
                if set(seed) <= s and not gen.members <= s:
                    return f"<{seed}> is not least (exceeds {sorted(s)})"
            if frozenset(_generated_fixpoint(rows, seed)) != gen.members:
                return f"closure routes disagree on {seed}"


def _check_congruence_roundtrip(r):
    for ideal in ideals.enumerate_ideals(r):
        cong = ideals.congruence_from_ideal(r, ideal)
        back = ideals.ideal_from_congruence(r, cong)
        if back.members != ideal.members:
            return f"{ideal.display()} does not round-trip"


def _compatible(rows, class_of) -> bool:
    """The partition is compatible with every operation, by the definition
    element by element over the ``_rows`` of a structure, with an early
    exit: the oracle for the partition scan, where most candidates fail
    within a few comparisons."""
    neg, add, mul = rows.neg, rows.add, rows.mul
    buckets = {}
    for x, c in enumerate(class_of):
        buckets.setdefault(c, []).append(x)
    for cls in buckets.values():
        base = cls[0]
        for x in cls[1:]:
            if class_of[neg[base]] != class_of[neg[x]]:
                return False
            add_b, add_x = add[base], add[x]
            mul_b, mul_x = (None, None) if mul is None else (mul[base], mul[x])
            for y, row in enumerate(add):
                if class_of[add_b[y]] != class_of[add_x[y]] \
                        or class_of[row[base]] != class_of[row[x]]:
                    return False
                if mul is not None and (
                        class_of[mul_b[y]] != class_of[mul_x[y]]
                        or class_of[mul[y][base]] != class_of[mul[y][x]]):
                    return False
    return True


def _check_congruence_bijection(r):
    _need_within(r, "PARTITION_SIZE_LIMIT")

    def partitions(universe):
        if not universe:
            yield []
            return
        first, rest = universe[0], universe[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [first]] + part[i + 1:]
            yield [[first]] + part

    rows = _rows(r)
    congruences = []
    for part in partitions(list(range(r.size))):
        class_of = [0] * r.size
        for ci, cls in enumerate(part):
            for x in cls:
                class_of[x] = ci
        if _compatible(rows, class_of):
            congruences.append(ideals._normalize_partition(r, tuple(class_of)))
    count = len(ideals.enumerate_ideals(r))
    if len(set(congruences)) != count:
        return f"{len(set(congruences))} congruences vs {count} ideals"
    for class_of in congruences:
        ideal = ideals.ideal_from_congruence(r, ideals.Congruence(r, class_of))
        cong2 = ideals.congruence_from_ideal(r, ideal)
        if cong2.class_of != class_of:
            return "congruence -> ideal -> congruence is not the identity"


def _check_quotient_axioms(r):
    for ideal in ideals.enumerate_ideals(r):
        try:
            q = ideals.quotient(r, ideal)
        except MvwError as exc:
            return f"{ideal.display()}: {exc}"
        report = core.scan_mv(q.rig)
        if q.rig.mul_table is not None:
            report = report.merged_with(core.scan_mvw(q.rig))
        if not report.passed:
            return f"{ideal.display()}: quotient failed axioms: {report.failed_axioms()}"
        proj = ideals.Homomorphism(r, q.rig, q.projection)
        ok, witness = ideals.check_homomorphism(proj)
        if not ok:
            return f"{ideal.display()}: projection is not a homomorphism: {witness}"
        if ideals.kernel(proj).members != ideal.members:
            return f"{ideal.display()}: projection kernel differs from the ideal"


def _check_first_iso_natural(r):
    for ideal in ideals.enumerate_ideals(r):
        q = ideals.quotient(r, ideal)
        f = ideals.Homomorphism(r, q.rig, q.projection)
        try:
            fi = ideals.first_iso(f)
        except MvwError as exc:
            return f"{ideal.display()}: {exc}"
        ok, witness = ideals.check_homomorphism(
            fi.iso, require_product=ideals._preserves_product(f) or None)
        if not ok:
            return f"{ideal.display()}: induced map fails a clause: {witness}"


def _check_hom_kernel_order(r):
    for ideal in ideals.enumerate_ideals(r):
        q = ideals.quotient(r, ideal)
        f = ideals.Homomorphism(r, q.rig, q.projection)
        ker = ideals._member_mask(r, ideals.kernel(f).members)
        proj = np.asarray(q.projection)
        bad = q.rig.leq_table[np.ix_(proj, proj)] != ker[r.monus_table]
        if bad.any():
            x, y = np.unravel_index(int(bad.argmax()), bad.shape)
            return f"fails at ({x}, {y}) over {ideal.display()}"


def _check_ideal_correspondence(r):
    for ideal in ideals.enumerate_ideals(r):
        try:
            ideals.ideal_correspondence(r, ideal)
        except MvwError as exc:
            return f"{ideal.display()}: {exc}"


def _check_maximal_exists(r):
    if r.size == 1:
        raise _Skip("trivial structure")
    if not ideals.maximal_ideals(r):
        return "no maximal proper ideal"


def _check_maximal_implies_prime(r):
    _need_commutative(r)
    _need_unit(r)
    if r.size == 1:
        raise _Skip("trivial structure")
    prime = {i.members: cls.prime for i, cls in ideals.classified_ideals(r)}
    for m in ideals.maximal_ideals(r):
        if not prime[m.members]:
            return f"maximal {m.display()} is not prime"


def _check_nilpotents_in_primes(r):
    _need_product(r)
    nil = {x for x in r.elements() if ideals.is_nilpotent(r, x)}
    for p in ideals.prime_ideals(r):
        if not nil <= p.members:
            return f"nilpotent escapes prime {p.display()}"


def _check_nilradical_ideal(r):
    _need_commutative(r)
    q = ideals.quotient(r, ideals.nilradical(r))
    for c in q.rig.elements():
        if c != 0 and ideals.is_nilpotent(q.rig, c):
            return f"quotient keeps nilpotent class {c}"


def _check_nilradical_intersection(r):
    _need_commutative(r)
    n = ideals.nilradical(r).members
    inter = set(r.elements())
    for p in ideals.prime_ideals(r):
        inter &= p.members
    if n != frozenset(inter):
        return f"nilradical {sorted(n)} vs prime intersection {sorted(inter)}"


def _check_radical_properties(r):
    _need_commutative(r)
    # the intersection and the product of two ideals are ideals, so their
    # radicals are read from this table
    listed = ideals.enumerate_ideals(r)
    rads = {i.members: ideals.radical(r, i).members for i in listed}
    for i, cls in ideals.classified_ideals(r):
        if not i.members <= rads[i.members]:
            return f"{i.display()} exceeds its radical"
        if cls.prime and rads[i.members] != i.members:
            return f"prime {i.display()} differs from its radical"
        for j in listed:
            if i.members <= j.members and not rads[i.members] <= rads[j.members]:
                return "radical is not monotone"
            inter = i.members & j.members
            prod = ideals.ideal_product(r, i, j).members
            for what, s in (("intersection", inter), ("product", prod)):
                if s not in rads:
                    return (f"{what} of {i.display()}, {j.display()} is not a listed "
                            f"ideal")
            if rads[inter] != rads[prod]:
                return (f"radicals of intersection and product differ for "
                        f"{i.display()}, {j.display()}")


def _check_radical_prime_intersection(r):
    _need_commutative(r)
    primes = ideals.prime_ideals(r)
    for i in ideals.enumerate_ideals(r):
        rad = ideals.radical(r, i).members
        inter = set(r.elements())
        for p in primes:
            if i.members <= p.members:
                inter &= p.members
        if rad != inter:
            return (f"radical mismatch on {r.name}: definition gives "
                    f"{sorted(rad)}, prime intersection gives {sorted(inter)}")


def _check_prime_to_mvprime(r):
    _need_product(r)
    if not r.product_below_meet:
        raise _Skip("product is not below the meet")
    for p, cls in ideals.classified_ideals(r):
        if p.proper and cls.prime and not cls.mv_prime:
            return f"prime {p.display()} is not MV-prime"


def _check_chang(r):
    if r.size == 1:
        raise _Skip("trivial structure")
    ideals.chang_embedding(r)


# -- spectrum laws --------------------------------------------------------------

def _check_base_laws(r):
    _need_commutative(r)
    s = spectrum.spec(r)
    for a in r.elements():
        for b in r.elements():
            va, vb = s.base[a], s.base[b]
            if va & vb != s.base[r.add(a, b)]:
                return f"intersection law fails at ({a}, {b})"
            if va & vb != s.base[r.join(a, b)]:
                return f"join law fails at ({a}, {b})"
            if va | vb != s.base[r.mul(a, b)]:
                return f"union law fails at ({a}, {b})"
            if not s.base[r.mul(a, b)] <= s.base[r.meet(a, b)]:
                return f"meet bound fails at ({a}, {b})"


def _check_full_iff_nilpotent(r):
    _need_commutative(r)
    s = spectrum.spec(r)
    for a in r.elements():
        if (s.base[a] == s.all_points) != ideals.is_nilpotent(r, a):
            return f"fails at {a}"


def _check_opens_form_topology(r):
    _need_commutative(r)
    s = spectrum.spec(r)
    opens = set(s.opens)
    if frozenset() not in opens or s.all_points not in opens:
        return "missing the empty or full open"
    for u in opens:
        for v in opens:
            if u | v not in opens:
                return "not closed under union"
            if u & v not in opens:
                return "not closed under intersection"


def _check_t0(r):
    _need_commutative(r)
    if not spectrum.is_t0(spectrum.spec(r)):
        return "two points share every open"


def _check_point_closure(r):
    _need_commutative(r)
    s = spectrum.spec(r)
    for i in range(len(s.points)):
        if spectrum.point_closure(s, i) != spectrum.specialization_downset(s, i):
            return f"closure of point {i} is not its containment down-set"


def _check_set_closure_lower(r):
    _need_commutative(r)
    s = spectrum.spec(r)
    pts = range(len(s.points))
    for k in range(len(s.points) + 1):
        for u in itertools.combinations(pts, k):
            cl = spectrum.set_closure(s, u)
            below = {q for q in pts
                     if any(s.points[q] <= s.points[p] for p in u)}
            if not below <= cl:
                return f"down-set escapes the closure of {u}"
            maxima = [p for p in u
                      if not any(p != v and s.points[p] < s.points[v] for v in u)]
            if len(maxima) == 1 and cl != frozenset(below):
                return f"single-maximum converse fails for {u}"


def _check_irreducible_iff_unique_maximal(r):
    _need_commutative(r)
    _need_unit(r)
    s = spectrum.spec(r)
    if r.size == 1:
        count = 0
    else:
        count = len(ideals.maximal_ideals(r))
    if spectrum.is_irreducible(s) != (count == 1):
        return f"irreducible={spectrum.is_irreducible(s)} but {count} maximal ideals"


def _check_radical_order(r):
    _need_commutative(r)
    s = spectrum.spec(r)
    rads = [ideals.radical(r, ideals.generated_ideal(r, {a})).members
            for a in r.elements()]
    for a in r.elements():
        for b in r.elements():
            if (s.base[a] <= s.base[b]) != (rads[b] <= rads[a]):
                return f"radical/open order disagree at ({a}, {b})"


def _check_spec_compactness(r):
    _need_commutative(r)
    _need_unit(r)
    _need_within(r, "SUBSET_SIZE_LIMIT")
    s, fr = spectrum.spec(r), frames.frame(r)
    for k in range(r.size + 1):
        for gens in itertools.combinations(range(r.size), k):
            union = frozenset().union(*(s.base[a] for a in gens)) if gens else frozenset()
            if union != s.all_points:
                continue
            try:
                sub = frames.finite_subcover(r, list(gens))
            except MvwError as exc:
                return f"cover {gens}: {exc}"
            covered = frozenset().union(*(s.base[a] for a in sub)) if sub else frozenset()
            if covered != s.all_points and not fr.masks[fr.bottom].all():
                return f"subcover of {gens} misses a point"


# -- locale laws ----------------------------------------------------------------

def _check_pfilters_complete(r):
    _need_product(r)
    _need_within(r, "BRUTE_PFILTER_LIMIT")
    brute = set()
    for k in range(1, r.size + 1):
        for cand in itertools.combinations(range(r.size), k):
            if frames.is_pfilter(r, set(cand))[0]:
                brute.add(frozenset(cand))
    if brute != set(frames.frame(r).pfilters):
        return "the enumeration misses or invents a P-filter"


def _check_pfilter_decomposition(r):
    """Row a of masks[prin] is F_a, so row f of the product masks @
    masks[prin] counts, for each x, the a in filter f with x in F_a; the
    union of those F_a is where the count is positive.  The counts are at
    most n, exact in float32, so the product runs in BLAS."""
    _need_product(r)
    fr = frames.frame(r)
    union = fr.masks.astype(np.float32) @ fr.masks[fr.principal_index()] > 0
    bad = (union != fr.masks).any(axis=1)
    if bad.any():
        f = fr.pfilters[int(bad.argmax())]
        return f"{sorted(f)} is not the union of its principal parts"


def _check_principal_meet_law(r):
    """F_a ^ F_b = F_(a v b) on every pair, read off the meet table, whose
    cells ``frames.frame`` checked to be intersections.  The principal
    table verified each distinct F_a as a P-filter, so every intersection
    is one too."""
    _need_commutative(r)
    fr = frames.frame(r)
    pair = frames.principal_law_failure(fr.meet_table, fr.principal_index(), r.join_table)
    if pair is not None:
        return f"fails at {pair}"


def _check_principal_join_law(r):
    _need_commutative(r)
    fr = frames.frame(r)
    pair = frames.principal_law_failure(fr.join_table, fr.principal_index(), r.mul_table)
    if pair is not None:
        return f"fails at {pair}"


def _pfilter_by_formula(rig, seed, dotsums):
    """The dotted-sum description of the generated P-filter: x belongs iff
    some finite product of seed elements sits below some dotted sum of x
    (``dotsums`` maps each x to all its dotted sums), that is, iff some
    dotted sum of x lies in the up-set of the products.  The independent
    oracle for ``pfilter_generated`` on commutative structures; on
    noncommutative ones it can fail product closure."""
    prods = np.zeros(rig.size, dtype=bool)
    prods[list(seed)] = True
    while True:
        inside = np.flatnonzero(prods)
        grown = prods.copy()
        grown[rig.mul_table[inside[:, None], inside]] = True
        if (grown == prods).all():
            break
        prods = grown
    above = rig.leq_table[prods].any(axis=0).tolist()
    return frozenset(x for x in range(rig.size) if any(above[d] for d in dotsums[x]))


def _check_pfilter_generated_least(r):
    _need_product(r)
    _need_within(r, "SUBSET_SIZE_LIMIT")
    all_filters = list(frames.frame(r).pfilters)
    dotsums = {x: frames.dotsum_closure(r, x) for x in r.elements()}
    for k in range(1, r.size + 1):
        for seed in itertools.combinations(range(r.size), k):
            gen = frames.pfilter_generated(r, seed).members
            for f in all_filters:
                if set(seed) <= f and not gen <= f:
                    return f"<{seed}> is not least"
            if r.commutative and _pfilter_by_formula(r, seed, dotsums) != gen:
                return f"dotted-sum description of <{seed}> differs from the closure"


def _check_frame_distributivity(r):
    """f ^ (g v h) = (f ^ g) v (f ^ h) on every triple, one k x k gather per
    f; in a finite lattice that gives distributivity over every finite
    join.  The scan over families of principal filters stays as the oracle
    while there are at most SUBSET_SIZE_LIMIT of them."""
    _need_commutative(r)
    fr = frames.frame(r)
    join, meet = fr.join_table.astype(np.int32), fr.meet_table.astype(np.int32)
    for fi in range(len(fr.pfilters)):
        row = meet[fi]
        # (f ^ g) v (f ^ h) is join[row[g], row[h]], gathered rows then columns
        bad = row.take(join) != join.take(row, axis=0).take(row, axis=1)
        if bad.any():
            g, h = map(int, np.argwhere(bad)[0])
            return f"fails for filter {fi} against family {(g, h)}"
    prin_idx = sorted(set(fr.principal_index().tolist()))
    if len(prin_idx) > SUBSET_SIZE_LIMIT:
        return None
    # oracle: each filter against the join of each family of principal filters
    join, meet = join.tolist(), meet.tolist()
    for k in range(len(prin_idx) + 1):
        for family in itertools.combinations(prin_idx, k):
            whole = fr.join_of(family)
            for fi, row in enumerate(meet):
                rhs = fr.bottom
                for g in family:
                    rhs = join[rhs][row[g]]
                if row[whole] != rhs:
                    return f"fails for filter {fi} against family {family}"


def _check_theta_iso(r):
    _need_commutative(r)
    _need_unit(r)
    tm = frames.theta(r)
    if len(tm.space.opens) != len(tm.frame.pfilters):
        return "open lattice and P-filter frame have different sizes"
    if r.size > SUBSET_SIZE_LIMIT:
        return None
    # oracle: every element subset, read as a presentation of an open as a
    # union of basic opens, joins to the filter the open maps to
    space, fr = tm.space, tm.frame
    table = frames.principal_table(r)
    prin = [fr.index_of(table.pfilters[i]) for i in table.index]
    open_index = {o: i for i, o in enumerate(space.opens)}
    for rset in itertools.chain.from_iterable(
            itertools.combinations(range(r.size), k) for k in range(r.size + 1)):
        u = frozenset().union(*(space.base[a] for a in rset))
        if fr.join_of(prin[a] for a in rset) != tm.open_to_filter[open_index[u]]:
            return f"open map depends on the presentation {rset}"


def _check_frame_covers(r):
    _need_product(r)
    _need_within(r, "SUBSET_SIZE_LIMIT")
    fr = frames.frame(r)
    full = frozenset(r.elements())
    prin = fr.principal_index().tolist()
    for k in range(1, r.size + 1):
        for gens in itertools.combinations(range(r.size), k):
            join = fr.join_of(prin[g] for g in gens)
            covers = fr.pfilters[join] == full
            try:
                sub = frames.finite_subcover(r, list(gens))
            except frames.NotACover:
                if covers:
                    return f"{gens} covers but was rejected"
                continue
            if not covers:
                return f"{gens} does not cover but a subcover was returned"
            if sub:
                back = fr.join_of(prin[g] for g in sub)
                if fr.pfilters[back] != full:
                    return f"subcover of {gens} has a proper join"


SUITES = {
    "core": [
        ("mv-axioms", "the six MV equations hold", _check_mv_axioms),
        ("mvw-axioms", "product axioms: associativity, zero, distributivity bounds",
         _check_mvw_axioms),
        ("order-lattice", "the monus order is a lattice order with bottom 0 and top u",
         _check_order_lattice),
        ("residuation", "x <= y+z iff x-z <= y", _check_residuation),
        ("monus-superadditive", "(x1+x2)-(y1+y2) <= (x1-y1)+(x2-y2)",
         _check_monus_superadditive),
        ("monus-superadditive-nary", "the same bound for sums of 3 and 4 terms",
         _check_monus_superadditive_nary),
        ("product-monotone", "products preserve the order in each argument",
         _check_product_monotone),
        ("product-join-bound", "a(b v c) >= ab v ac on both sides",
         _check_product_join_bound),
        ("product-meet-bound", "a(b ^ c) <= ab ^ ac on both sides",
         _check_product_meet_bound),
        ("power-join-bound", "(a v b)^n >= a^n v b^n for n <= 3",
         _check_power_join_bound),
        ("power-meet-bound", "(a ^ b)^n <= a^n ^ b^n for n <= 3",
         _check_power_meet_bound),
        ("unit-unique", "at most one unitary element exists", _check_unit_unique),
        ("derive-idempotent", "re-deriving a derived structure changes nothing",
         _check_derive_idempotent),
    ],
    "ideals": [
        ("ideals-sound", "every enumerated ideal satisfies all ideal clauses",
         _check_ideals_sound),
        ("generated-least", "generated ideals are least and both closure routes agree",
         _check_generated_least),
        ("congruence-roundtrip", "ideal -> congruence -> ideal is the identity",
         _check_congruence_roundtrip),
        ("congruence-bijection", "congruences and ideals are in bijection",
         _check_congruence_bijection),
        ("quotient-axioms", "every quotient passes the axiom checker with the "
         "projection as kernel homomorphism", _check_quotient_axioms),
        ("first-iso", "the quotient by a kernel is isomorphic to the image",
         _check_first_iso_natural),
        ("hom-kernel-order", "f(x) <= f(y) iff x-y lies in the kernel",
         _check_hom_kernel_order),
        ("ideal-correspondence", "ideals above I correspond to ideals of the quotient",
         _check_ideal_correspondence),
        ("maximal-exists", "every nontrivial structure has a maximal proper ideal",
         _check_maximal_exists),
        ("maximal-implies-prime", "with a unit and commutativity, maximal ideals "
         "are prime", _check_maximal_implies_prime),
        ("nilpotents-in-primes", "nilpotents lie in every proper prime",
         _check_nilpotents_in_primes),
        ("nilradical-ideal", "the nilpotents form an ideal with a reduced quotient",
         _check_nilradical_ideal),
        ("nilradical-intersection", "the nilradical is the intersection of the "
         "proper primes", _check_nilradical_intersection),
        ("radical-properties", "radical containment, monotonicity, fixed points "
         "on primes, and product/intersection agreement", _check_radical_properties),
        ("radical-prime-intersection", "the radical equals the intersection of the "
         "primes above the ideal", _check_radical_prime_intersection),
        ("prime-to-mvprime", "when ab <= a^b, prime ideals are MV-prime",
         _check_prime_to_mvprime),
        ("chang-embedding", "the structure embeds into a product of chains",
         _check_chang),
    ],
    "spectrum": [
        ("base-laws", "the basic opens respect sum, join, product and meet",
         _check_base_laws),
        ("full-iff-nilpotent", "V(a) is everything iff a is nilpotent",
         _check_full_iff_nilpotent),
        ("opens-form-topology", "the opens close under union and intersection",
         _check_opens_form_topology),
        ("t0", "distinct points are separated by some open", _check_t0),
        ("point-closure", "the closure of a point is its containment down-set",
         _check_point_closure),
        ("set-closure", "down-sets sit inside closures; equality under a single "
         "maximum", _check_set_closure_lower),
        ("irreducible-iff-unique-maximal", "irreducibility matches having exactly "
         "one maximal ideal", _check_irreducible_iff_unique_maximal),
        ("radical-order", "open containment matches the reverse radical order",
         _check_radical_order),
        ("compactness", "every basic cover has a finite subcover",
         _check_spec_compactness),
    ],
    "locale": [
        ("pfilters-complete", "the P-filter enumeration matches a brute-force scan",
         _check_pfilters_complete),
        ("pfilter-decomposition", "every P-filter is the union of its principal "
         "parts", _check_pfilter_decomposition),
        ("principal-meet-law", "principal filters meet along the join of elements",
         _check_principal_meet_law),
        ("principal-join-law", "principal filters join along the product of "
         "elements", _check_principal_join_law),
        ("pfilter-generated-least", "generated P-filters are least",
         _check_pfilter_generated_least),
        ("frame-distributivity", "meets distribute over joins of principal filters",
         _check_frame_distributivity),
        ("theta-iso", "the open lattice and the P-filter frame are isomorphic",
         _check_theta_iso),
        ("frame-covers", "covers by principal filters admit finite subcovers",
         _check_frame_covers),
    ],
}

SUITE_NAMES = tuple(SUITES)


def run_suite(rig, suite: str):
    """Run one named suite; gated checks report SKIPPED with the reason,
    and a check that raises reports FAIL with the error, so the remaining
    checks still run."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    results = []
    for name, _desc, fn in SUITES[suite]:
        try:
            detail = fn(rig)
        except _Skip as skip:
            results.append(CheckResult(suite, name, "SKIPPED", str(skip)))
            continue
        except SizeBound as exc:
            results.append(CheckResult(suite, name, "SKIPPED", str(exc)))
            continue
        except MvwError as exc:
            results.append(CheckResult(suite, name, "FAIL", str(exc)))
            continue
        if detail is None:
            results.append(CheckResult(suite, name, "PASS"))
        else:
            results.append(CheckResult(suite, name, "FAIL", detail))
    return results


def run_all(rig):
    """Every suite in order.  The ideals, the spectrum and the frame are
    kept on the structure, so each is computed once however many checks
    read it."""
    out = []
    for suite in SUITE_NAMES:
        out.extend(run_suite(rig, suite))
    return out


def listing():
    """(suite, check, description) rows for the traceability table."""
    rows = []
    for suite, checks in SUITES.items():
        for name, desc, _fn in checks:
            rows.append((suite, name, desc))
    return rows
