"""The earlier scalar oracles and scans, kept as references.

The law suites' subset and partition oracles, one seed or one partition at
a time, are references for the whole-table oracles in ``suites``; they
read the tables as rows of tuples (``rows``) instead of calling the
bounds-checked accessors.  The per-element axiom scans and law checks,
one element or one pair at a time, are references for the blocked kernels
in ``core`` and ``suites``.  The broadcast-indexing reads of ``core``,
``ideals`` and ``frames`` are references for their ``take`` gathers, the
map-by-map row certificate for ``core._certified_rows``, the
two-gather Light's test for the value-class one of ``core._light_test``, the
cell-by-cell builders for the digit gathers of ``builders``, the binary
search of every formula cell for ``dsl._carrier_index``, and the
pair-by-pair closure for ``builders.subalgebra_closure``.  The one-seed
bodies of ``generated_ideal``, ``pfilter_generated`` and
``finite_subcover`` are references for the table forms in ``ideals`` and
``frames``, and the ``np.unique`` labels for the scatter of
``ideals.congruence_from_ideal``.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from mvwrig import core, dsl, frames, ideals
from mvwrig.errors import EmptySeed, MvwError, NotACover


class Rows(NamedTuple):
    neg: tuple
    add: tuple
    mul: tuple | None
    below: tuple


def _nested(table):
    return tuple(map(tuple, table.tolist()))


def rows(rig):
    """The tables as tuples of rows, and below[b] the elements a <= b."""
    return Rows(
        neg=tuple(rig.neg_table.tolist()), add=_nested(rig.add_table),
        mul=None if rig.mul_table is None else _nested(rig.mul_table),
        below=tuple(tuple(a for a, le in enumerate(col) if le)
                    for col in rig.leq_table.T.tolist()))


def oplus_closure(rows, seed):
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


def downward(rows, seed):
    out = set(seed)
    for b in seed:
        out.update(rows.below[b])
    return out


def generated_fixpoint(rows, seed):
    """Least ideal by iterated closure under sums, the order and both
    one-sided products."""
    mul = rows.mul
    members = {0} | set(seed)
    while True:
        before = len(members)
        members = downward(rows, oplus_closure(rows, members))
        if mul is not None:
            extra = set()
            for a in members:
                extra.update(mul[a])
                extra.update(row[a] for row in mul)
            members |= extra
        if len(members) == before:
            return members


def compatible(rows, class_of) -> bool:
    """The partition is compatible with every operation, by the definition
    element by element, with an early exit."""
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


def pfilter_by_formula(rig, seed, dotsums):
    """The dotted-sum description of the generated P-filter: x belongs iff
    some dotted sum of x (``dotsums`` maps each x to all of them) lies in
    the up-set of the finite products of seed elements."""
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


def _three_powers(rig):
    """x, x^2 and x^3 of every element, left-associated, by two product
    steps."""
    idx = np.arange(rig.size)
    out = [idx]
    for _ in range(2):
        out.append(rig.mul_table[out[-1], idx])
    return out


def power_join_bound(rig):
    """The earlier ``power-join-bound`` body: a^n v b^n <= (a v b)^n for
    n = 1, 2, 3, the first failure in row-major order, or None."""
    join, leq = rig.join_table, rig.leq_table
    for n, p in enumerate(_three_powers(rig), start=1):
        bad = ~leq[join[p[:, None], p], p[join]]
        if bad.any():
            a, b = map(int, np.argwhere(bad)[0])
            return f"fails at n={n} ({a}, {b})"


def power_meet_bound(rig):
    """The earlier ``power-meet-bound`` body: (a ^ b)^n <= a^n ^ b^n for
    n = 1, 2, 3, the first failure in row-major order, or None."""
    meet, leq = rig.meet_table, rig.leq_table
    for n, p in enumerate(_three_powers(rig), start=1):
        bad = ~leq[p[meet], meet[p[:, None], p]]
        if bad.any():
            a, b = map(int, np.argwhere(bad)[0])
            return f"fails at n={n} ({a}, {b})"


# -- the per-element law scans and checks that the blocked kernels replaced -----

def scan_per_element(n, row_failures, rows=None):
    """The earlier row loop of ``core._scan_per_element``: ``row_failures(x)``
    marks the failing (y, z) of one x; returns (count, first witnesses)."""
    total = 0
    samples = []
    for x in range(n) if rows is None else rows:
        bad = np.flatnonzero(row_failures(x))
        total += len(bad)
        for cell in bad[:core.MAX_WITNESSES - len(samples)]:
            samples.append((x, *divmod(int(cell), n)))
    return total, tuple(samples)


def associativity(table):
    """The earlier per-element kernel of MV1 and MVW-ii."""
    return lambda x: table[x][table] != table[table[x]]


def scan_distributive(rig, rows):
    """The earlier per-element MVW-iv and MVW-v scans over ``rows``: one
    row a*_ and, on a non-commutative product, one column _*a at a time,
    read flat at int32 indices."""
    n = rig.size
    mul, add, monus = rig.mul_table, rig.add_table, rig.monus_table
    n32 = np.int32(n)
    flat_add, flat_monus = add.ravel(), monus.ravel()
    not_leq = ~rig.leq_table.ravel()

    def both_sides(fails):
        def row_failures(x):
            out = fails(mul[x])
            if not rig.commutative:
                out |= fails(mul[:, x])
            return out
        return row_failures

    def subdist(vec):
        vec_n = vec * n32
        cells = flat_add[vec_n[:, None] + vec]
        cells += vec_n[add]
        return not_leq[cells]

    def superdist(vec):
        vec_n = vec * n32
        cells = flat_monus[vec_n[:, None] + vec]
        cells *= n32
        cells += vec[monus]
        return not_leq[cells]

    return (scan_per_element(n, both_sides(subdist), rows),
            scan_per_element(n, both_sides(superdist), rows))


def unit(mul):
    """The earlier unit search of ``core.FiniteMvwRig``: the first s whose
    row and column are the identity, or None."""
    idx = np.arange(len(mul))
    for s in range(len(mul)):
        if (mul[s] == idx).all() and (mul[:, s] == idx).all():
            return s
    return None


def order_lattice(r):
    """The earlier ``order-lattice`` body, one z at a time in its last part."""
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


def residuation(r):
    """The earlier ``residuation`` body, one x at a time."""
    add, monus, leq = r.add_table, r.monus_table, r.leq_table
    for x in range(r.size):
        lhs = leq[x][add]               # [y, z] : x <= y + z
        rhs = leq[monus[x]][:, :].T     # [y, z] : x - z <= y
        if (lhs != rhs).any():
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return f"fails at ({x}, {y}, {z})"


def monus_superadditive(r):
    """The earlier ``monus-superadditive`` body, one (x1, y1) at a time."""
    add, monus, leq = r.add_table, r.monus_table, r.leq_table
    for x1 in range(r.size):
        for y1 in range(r.size):
            lhs = monus[add[x1][:, None], add[y1][None, :]]
            rhs = add[monus[x1, y1]][monus]
            if not leq[lhs, rhs].all():
                x2, y2 = map(int, np.argwhere(~leq[lhs, rhs])[0])
                return f"fails at x=({x1},{x2}) y=({y1},{y2})"


def product_monotone(r):
    """The earlier ``product-monotone`` body, one c at a time."""
    mul, leq = r.mul_table, r.leq_table
    for c in range(r.size):
        for vec in (mul[:, c], mul[c, :]):
            bad = leq & ~leq[vec[:, None], vec]
            if bad.any():
                a, b = map(int, np.argwhere(bad)[0])
                return f"fails at a={a} b={b} c={c}"


def product_join_bound(r):
    """The earlier ``product-join-bound`` body, one a at a time."""
    mul, join, leq = r.mul_table, r.join_table, r.leq_table
    for a in range(r.size):
        for vec in (mul[a], mul[:, a]):
            lhs = vec[join]
            rhs = join[vec[:, None], vec]
            if not leq[rhs, lhs].all():
                b, c = map(int, np.argwhere(~leq[rhs, lhs])[0])
                return f"fails at ({a}, {b}, {c})"


def product_meet_bound(r):
    """The earlier ``product-meet-bound`` body, one a at a time."""
    mul, meet, leq = r.mul_table, r.meet_table, r.leq_table
    for a in range(r.size):
        for vec in (mul[a], mul[:, a]):
            lhs = vec[meet]
            rhs = meet[vec[:, None], vec]
            if not leq[lhs, rhs].all():
                b, c = map(int, np.argwhere(~leq[lhs, rhs])[0])
                return f"fails at ({a}, {b}, {c})"


def unit_unique(r):
    """The earlier ``unit-unique`` body, one s at a time."""
    idx = np.arange(r.size)
    units = [s for s in range(r.size)
             if (r.mul_table[s] == idx).all() and (r.mul_table[:, s] == idx).all()]
    if len(units) > 1:
        return f"multiple unitary elements: {units}"
    if (units and r.unit != units[0]) or (not units and r.unit is not None):
        return "cached unit disagrees with the scan"


# -- the broadcast-indexing reads that the ``take`` gathers replaced -------------

def init_tables(neg, add, mul=None):
    """The derived tables of ``core.FiniteMvwRig`` by the earlier fancy
    indexing, and with a product whether it lies below the meet."""
    idx = np.arange(len(neg))
    monus = neg[add[neg, :]]
    leq = monus == 0
    join = add[monus, idx[None, :]]
    tables = {"monus": monus, "times": neg[add[neg[:, None], neg]], "leq": leq,
              "join": join, "meet": neg[join[neg[:, None], neg]]}
    below = None if mul is None else bool(leq[mul, tables["meet"]].all())
    return tables, below


def light_test(mul, gens) -> bool:
    """The earlier ``core._light_test``: a column gather of the table."""
    return all((mul[mul[:, g]] == mul[:, mul[g]]).all() for g in gens)


def light_test_by_gathers(mul, gens) -> bool:
    """The ``core._light_test`` before value classes: for each generator g,
    the rows of the table at its column against the columns at its row, two
    n^2 gathers into two buffers kept for the call."""
    xg_y, x_gy = np.empty_like(mul), np.empty_like(mul)
    return all(np.array_equal(mul.take(mul[:, g], axis=0, out=xg_y, mode="clip"),
                              mul.take(mul[g], axis=1, out=x_gy, mode="clip")) for g in gens)


def certified_rows(rig, dec, maps):
    """The earlier ``core._certified_rows``: blocks of whole maps, one map
    a row, each gathered at every pair with ``take(axis=1)``."""
    n = rig.size
    n32 = np.int32(n)
    add = rig.add_table
    flat_add = add.ravel()
    not_leq = ~rig.leq_table.ravel()
    steps = [add[:, e] for e in dec.atoms]
    b, c = np.nonzero(np.triu(rig.times_table == 0))
    b_plus_c = add[b, c]
    ok = np.ones(len(maps), dtype=bool)
    block = max(1, n * n // (2 * max(len(b), n)))
    for lo in range(0, len(maps), block):
        f = maps[lo:lo + block]
        f_n = f * n32
        good = np.ones(len(f), dtype=bool)
        for step in steps:
            good &= ~not_leq.take(f_n + f.take(step, axis=1)).any(axis=1)
        cells = flat_add.take(f_n.take(b, axis=1) + f.take(c, axis=1))
        cells += f_n.take(b_plus_c, axis=1)
        good &= ~not_leq.take(cells).any(axis=1)
        ok[lo:lo + len(f)] = good
    return ok


def principal_certified(rig, prin):
    """The earlier certificate of ``frames.principal_table``: a in F_ab for
    every (a, b), by broadcast fancy indexing at an n^2 index."""
    elements = np.arange(rig.size)
    return bool(prin.masks[prin.index[rig.mul_table], elements[:, None]].all())


def _first_pair(bad, rows, cols):
    if not bad.any():
        return None
    i, j = np.unravel_index(int(bad.argmax()), bad.shape)
    return int(rows[i]), int(cols[j])


def _mask(rig, members):
    mask = np.zeros(rig.size, dtype=bool)
    mask[list(members)] = True
    return mask


def ideal_check(rig, members):
    """The earlier ``ideals._ideal_check``."""
    mask = _mask(rig, members)
    if not mask[0]:
        return False, ("zero", (0,))
    inside = np.flatnonzero(mask)
    below = _first_pair(rig.leq_table[:, inside].T & ~mask, inside, rig.elements())
    if below is not None:
        b, a = below
        return False, ("downward", (a, b))
    pair = _first_pair(~mask[rig.add_table[inside[:, None], inside]], inside, inside)
    if pair is not None:
        return False, ("sum", pair)
    mul = rig.mul_table
    if mul is not None:
        pair = _first_pair(~mask[mul[inside]] | ~mask[mul[:, inside].T], inside, rig.elements())
        if pair is not None:
            return False, ("absorb", pair)
    return True, None


def is_filter(rig, members):
    """The earlier ``frames.is_filter``."""
    mask = _mask(rig, members)
    if not mask.any():
        return False, ("nonempty", ())
    inside = np.flatnonzero(mask)
    pair = _first_pair(rig.leq_table[inside] & ~mask, inside, rig.elements())
    if pair is not None:
        return False, ("upward", pair)
    pair = _first_pair(~mask[rig.mul_table[inside[:, None], inside]], inside, inside)
    if pair is not None:
        return False, ("product", pair)
    return True, None


def congruence_check(rig, class_of):
    """The earlier ``ideals._congruence_check``."""
    if len(class_of) != rig.size:
        return False, ("shape", (len(class_of),))
    least = {}
    rep = np.array([least.setdefault(c, x) for x, c in enumerate(class_of)], dtype=np.int32)
    neg_bad = rep[rig.neg_table[rep]] != rep[rig.neg_table]
    clauses = []
    for op in (rig.add_table, rig.mul_table):
        if op is not None:
            cls = rep[op]
            clauses += [cls[rep] != cls, (cls[:, rep] != cls).T]
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


def check_homomorphism(source, target, mapping):
    """The earlier ``ideals.check_homomorphism`` on a map given by its parts."""
    a, b, m = source, target, mapping
    if len(m) != a.size or any(not 0 <= v < b.size for v in m):
        return False, ("total", ())
    if m[0] != 0:
        return False, ("zero", (0,))
    m = np.asarray(m)
    block = (m[:, None], m)
    mv_bad = np.column_stack([m[a.neg_table] != b.neg_table[m],
                              m[a.add_table] != b.add_table[block]])
    pair = _first_pair(mv_bad, range(a.size), range(-1, a.size))
    if pair is not None:
        x, y = pair
        return False, ("neg", (x,)) if y < 0 else ("add", (x, y))
    if a.mul_table is not None and b.mul_table is not None:
        pair = _first_pair(m[a.mul_table] != b.mul_table[block], range(a.size), range(a.size))
        if pair is not None:
            return False, ("mul", pair)
    return True, None


def is_nilpotent(rig, x):
    """The earlier n-step search of ``ideals.is_nilpotent``: some power of x
    is 0; powers cycle within |A| steps, so the search is bounded."""
    acc = rig._check(x)
    for _ in range(rig.size):
        if acc == 0:
            return True
        acc = rig.mul(acc, x)
    return acc == 0


def classified(rig, ideal_masks, tops):
    """The earlier clauses of ``ideals._classified``, as (prime, mv_prime,
    maximal) per listed ideal."""
    above = ideal_masks[:, tops] & ~ideal_masks[:, [rig.u]] & ~np.eye(len(ideal_masks), dtype=bool)
    out = []
    for mask, e, up in zip(ideal_masks, tops, above.T):
        reps = np.flatnonzero(rig.leq_table[:, rig.neg_table[e]])[1:]
        block = (reps[:, None], reps)
        prime = rig.mul_table is None or not mask[rig.mul_table[block]].any()
        out.append((prime, not mask[rig.meet_table[block]].any(), not up.any()))
    return out


# -- the per-cell builders that the digit gathers replaced ------------------------

def gamma_zk(k, u):
    """The earlier cell-by-cell tables of ``builders.gamma_zk``: (neg, add,
    mul, names, name) as lists, for a valid unit vector ``u``."""
    elems = list(itertools.product(*[range(c + 1) for c in u]))
    index = {e: i for i, e in enumerate(elems)}

    def vec_name(e):
        return str(e[0]) if k == 1 else "(" + ",".join(str(c) for c in e) + ")"

    neg = [index[tuple(uc - xc for uc, xc in zip(u, e))] for e in elems]
    add = [[index[tuple(min(xc + yc, uc) for xc, yc, uc in zip(e, f, u))]
            for f in elems] for e in elems]
    mul = [[index[tuple(xc * yc for xc, yc in zip(e, f))] for f in elems]
           for e in elems]
    names = tuple(vec_name(e) for e in elems)
    return neg, add, mul, names, f"G{k}_{''.join(str(c) for c in u)}"


def matrix_rig(base, n):
    """The earlier cell-by-cell tables of ``builders.build_matrix_rig``:
    (neg, add, mul, names, name) as lists; the base tables are read as
    tuples of rows."""
    cells = n * n
    elems = list(itertools.product(range(base.size), repeat=cells))
    index = {e: i for i, e in enumerate(elems)}
    base_rows = rows(base)
    bneg, badd, bmul = base_rows.neg, base_rows.add, base_rows.mul

    def mat_name(e):
        out = []
        for i in range(n):
            row = ",".join(base.element_name(e[i * n + j]) for j in range(n))
            out.append(f"[{row}]")
        return "[" + ",".join(out) + "]"

    neg = [index[tuple(bneg[c] for c in e)] for e in elems]
    add = [[index[tuple(badd[a][b] for a, b in zip(e, f))] for f in elems]
           for e in elems]

    def mat_mul(e, f):
        out = []
        for i in range(n):
            for j in range(n):
                acc = bmul[e[i * n + 0]][f[0 * n + j]]
                for k in range(1, n):
                    acc = badd[acc][bmul[e[i * n + k]][f[k * n + j]]]
                out.append(acc)
        return tuple(out)

    mul = [[index[mat_mul(e, f)] for f in elems] for e in elems]
    names = tuple(mat_name(e) for e in elems)
    return neg, add, mul, names, f"M{n}({base.name})"


def carrier_index(nums, den, bound, scaled, scale):
    """The earlier ``dsl._carrier_index``: every value ``nums / den`` is
    searched in the sorted scaled carrier, for ranges too."""
    g = math.gcd(den, scale)
    step, grow = den // g, scale // g
    nums = dsl._exact(nums, max(bound, step))
    cand = dsl._exact(nums // step if step > 1 else nums, bound * grow)
    if grow > 1:
        cand = cand * grow
    if cand.dtype == object or scaled.dtype == object:
        scaled, cand = scaled.astype(object), cand.astype(object)
    pos = np.searchsorted(scaled, cand)
    np.minimum(pos, len(scaled) - 1, out=pos)
    hit = scaled[pos] == cand
    if step > 1:
        hit &= nums % step == 0
    return pos, hit


def subalgebra_closure(rig, seed):
    """The earlier ``builders.subalgebra_closure``: every round reads every
    pair of members through the accessors, until a round adds nothing."""
    members = {0} | {rig._check(a) for a in seed}
    while True:
        fresh = set()
        for a in members:
            fresh.add(rig.neg(a))
            for b in members:
                fresh.add(rig.add(a, b))
                if rig.mul_table is not None:
                    fresh.add(rig.mul(a, b))
                    fresh.add(rig.mul(b, a))
        if fresh <= members:
            break
        members |= fresh
    sub, embedding = core.restrict(rig, members)
    return sub.set_name(f"{rig.name}|sub"), embedding


def generated_ideal(rig, seed):
    """The earlier ``ideals.generated_ideal``: the join table folded over
    least[x] for the seed elements x in the seed's order."""
    least, join = ideals._least(rig), ideals._lattice_table(rig, "add")
    acc = 0
    for a in seed:
        acc = join[acc, least[rig._check(a)]]
    return ideals._ideal_list(rig)[acc]


def pfilter_generated(rig, seed):
    """The earlier ``frames.pfilter_generated``: the frame's join table
    folded over the principal filters of the sorted seed."""
    frames._require_product(rig)
    seed = sorted({rig._check(a) for a in seed})
    if not seed:
        raise EmptySeed("P-filters are nonempty; seed must be too")
    fr = frames.frame(rig)
    return frames.PFilter(rig, fr.pfilters[fr.join_of(fr.principal[seed])])


def finite_subcover(rig, generators):
    """The earlier ``frames.finite_subcover``: a breadth-first search over
    the products of one generator list, one dict entry per reached
    product."""
    frames._require_product(rig)
    gens = list(dict.fromkeys(rig._check(g) for g in generators))
    fr = frames.frame(rig)
    if fr.bottom == fr.top:
        return []
    prin = fr.principal
    products = rig.mul_table.take(gens, axis=1).tolist()
    parent = {g: (None, g) for g in gens}
    frontier = list(gens)
    found = 0 in parent
    while frontier and not found:
        fresh = []
        for v in frontier:
            for g, w in zip(gens, products[v]):
                if w not in parent:
                    parent[w] = (v, g)
                    fresh.append(w)
                    if w == 0:
                        found = True
        frontier = fresh
    if 0 not in parent:
        if fr.join_of(prin[gens]) != fr.top:
            raise NotACover("the principal filters of the generators have a proper join")
        return gens
    used = set()
    node = 0
    while node is not None:
        prev, g = parent[node]
        used.add(g)
        node = prev
    sub = [g for g in gens if g in used]
    if fr.join_of(prin[sub]) != fr.top:
        raise MvwError("extracted subfamily does not cover")
    return sub


def congruence_labels(rig, ideal):
    """The earlier labels of ``ideals.congruence_from_ideal``: each class
    by the rank of its least element, found by ``np.unique``."""
    key = rig.meet_table[:, rig.neg_table[ideals._idempotent(rig, ideal)]]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    least = first[inverse]
    label = np.cumsum(least == np.arange(rig.size)) - 1
    return tuple(label[least].tolist())
