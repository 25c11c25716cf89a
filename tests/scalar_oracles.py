"""The law suites' earlier scalar oracles, one seed or one partition at a
time, kept as references for the whole-table oracles in ``suites``.

They read the tables as rows of tuples (``rows``) instead of calling the
bounds-checked accessors.
"""

from typing import NamedTuple

import numpy as np


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
