"""Finite MV-algebras with product, represented as operation tables.

A structure is given by a carrier {0, .., n-1} with element 0 as the zero,
a negation table, a sum table and (optionally) a product table.  Everything
else is derived:

    u          = neg(0)                      (top element)
    x (-) y    = neg(add(neg(x), y))         (monus / truncated difference)
    x (.) y    = neg(add(neg(x), neg(y)))    (the MV "strong" product)
    x <= y     iff  x (-) y = 0
    x v y      = add(monus(x, y), y)
    x ^ y      = neg(join(neg(x), neg(y)))

Axiom checking is exhaustive over all tuples; carriers are desk-scale so
cubic scans are cheap, and the scans double as the oracle for every other
module.  Tables are int32 numpy arrays so the cubic checks vectorize: for
each element x, the scan gathers from the flattened tables at int32 indices
a·n + b, which keeps every temporary at n^2 cells.  A commutative product
has the same right-hand laws as left-hand ones, so their scan runs once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GateNotMet, OrderNotAntisymmetric

MV_AXIOMS = ("closure", "MV1", "MV2", "MV3", "MV4", "MV5", "MV6")
MVW_AXIOMS = ("MVW-ii", "MVW-iii", "MVW-iv", "MVW-v")

#: Axiom checks keep at most this many witnesses per axiom.
MAX_WITNESSES = 5


@dataclass(frozen=True)
class Carrier:
    """The underlying set: a size and one display name per index."""

    size: int
    names: tuple[str, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("carrier must have at least one element")
        if len(self.names) != self.size:
            raise ValueError("need exactly one name per element")

    def name(self, i: int) -> str:
        return self.names[i]


@dataclass
class AxiomReport:
    """Outcome of an exhaustive axiom scan.

    ``failures`` maps each checked axiom to (count, sample witnesses); an
    axiom passes iff its count is zero, and the report passes iff every
    axiom does.
    """

    axioms: tuple[str, ...]
    failures: dict[str, tuple[int, list[tuple[int, ...]]]] = field(default_factory=dict)

    def record(self, axiom: str, witnesses) -> None:
        ws = [tuple(int(v) for v in w) for w in witnesses]
        self.failures[axiom] = (len(ws), ws[:MAX_WITNESSES])

    @property
    def passed(self) -> bool:
        return all(count == 0 for count, _ in self.failures.values())

    def failed_axioms(self) -> list[str]:
        return [a for a in self.axioms if self.failures.get(a, (0, []))[0] > 0]

    def status(self, axiom: str) -> str:
        count, _ = self.failures.get(axiom, (0, []))
        return "PASS" if count == 0 else "FAIL"

    def witnesses(self, axiom: str) -> list[tuple[int, ...]]:
        return self.failures.get(axiom, (0, []))[1]

    def merged_with(self, other: "AxiomReport") -> "AxiomReport":
        merged = AxiomReport(axioms=self.axioms + other.axioms)
        merged.failures.update(self.failures)
        merged.failures.update(other.failures)
        return merged


class FiniteMvwRig:
    """A finite MV-algebra, optionally with a product, plus derived tables.

    Instances are immutable after construction and safe to share; use
    :func:`derive` to build one.  ``mul_table`` is None for product-free
    (MV-only) structures.
    """

    def __init__(self, carrier, neg_table, add_table, mul_table=None, name="A"):
        self.name = name
        self.carrier = carrier
        n = carrier.size
        self.size = n
        self.neg_table = _as_table(neg_table, (n,), n)
        self.add_table = _as_table(add_table, (n, n), n)
        self.mul_table = None if mul_table is None else _as_table(mul_table, (n, n), n)

        neg, add = self.neg_table, self.add_table
        idx = np.arange(n)
        self.u = int(neg[0])
        # monus(x, y) = neg(add(neg(x), y)); rows of add gathered by neg.
        self.monus_table = neg[add[neg, :]]
        self.times_table = neg[add[np.ix_(neg, neg)]]
        self.leq_table = self.monus_table == 0

        bad = np.argwhere(self.leq_table & self.leq_table.T & ~np.eye(n, dtype=bool))
        if bad.size:
            x, y = (int(v) for v in bad[0])
            raise OrderNotAntisymmetric(x, y)

        self.join_table = add[self.monus_table, idx[None, :]]
        self.meet_table = neg[self.join_table[np.ix_(neg, neg)]]

        for t in (self.neg_table, self.add_table, self.mul_table, self.monus_table,
                  self.times_table, self.leq_table, self.join_table, self.meet_table):
            if t is not None:
                t.setflags(write=False)

        self.commutative = None
        self.unit = None
        self.product_below_meet = None
        if self.mul_table is not None:
            mul = self.mul_table
            self.commutative = bool((mul == mul.T).all())
            # a unitary element is unique when it exists, so the scan may stop
            for s in range(n):
                if (mul[s] == idx).all() and (mul[:, s] == idx).all():
                    self.unit = s
                    break
            self.product_below_meet = bool(self.leq_table[mul, self.meet_table].all())

    # -- element-wise accessors ------------------------------------------

    @property
    def mv_only(self) -> bool:
        return self.mul_table is None

    def elements(self):
        return range(self.size)

    def element_name(self, i: int) -> str:
        return self.carrier.name(self._check(i))

    def neg(self, a: int) -> int:
        return int(self.neg_table[self._check(a)])

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[self._check(a), self._check(b)])

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is None:
            raise GateNotMet("structure has no product")
        return int(self.mul_table[self._check(a), self._check(b)])

    def monus(self, a: int, b: int) -> int:
        return int(self.monus_table[self._check(a), self._check(b)])

    def times_mv(self, a: int, b: int) -> int:
        return int(self.times_table[self._check(a), self._check(b)])

    def join(self, a: int, b: int) -> int:
        return int(self.join_table[self._check(a), self._check(b)])

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_table[self._check(a), self._check(b)])

    def leq(self, a: int, b: int) -> bool:
        return bool(self.leq_table[self._check(a), self._check(b)])

    def power(self, a: int, n: int) -> int:
        """n-fold product a.a...a, left-associated; n >= 1."""
        if n < 1:
            raise ValueError("power requires n >= 1 (there is no empty product)")
        if self.mul_table is None:
            raise GateNotMet("structure has no product")
        self._check(a)
        acc = a
        for _ in range(n - 1):
            acc = int(self.mul_table[acc, a])
        return acc

    def _check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise IndexError(f"element index {a} out of range 0..{self.size - 1}")
        return a

    # -- structure-level helpers -----------------------------------------

    def same_tables(self, other: "FiniteMvwRig") -> bool:
        """Table-for-table equality, ignoring names."""
        if self.size != other.size:
            return False
        if (self.mul_table is None) != (other.mul_table is None):
            return False
        ok = np.array_equal(self.neg_table, other.neg_table) and \
            np.array_equal(self.add_table, other.add_table)
        if ok and self.mul_table is not None:
            ok = np.array_equal(self.mul_table, other.mul_table)
        return bool(ok)

    def set_name(self, name: str) -> "FiniteMvwRig":
        self.name = name
        return self

    def describe(self) -> str:
        kind = "MV-algebra (no product)" if self.mv_only else "MVW-rig"
        return f"{self.name}: {kind} with {self.size} elements"

    def __repr__(self):
        return f"<FiniteMvwRig {self.name} size={self.size}>"


def _as_table(data, shape, size):
    arr = np.array(data, dtype=np.int32)
    if arr.shape != shape:
        raise ValueError(f"table has shape {arr.shape}, expected {shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValueError("table entry out of carrier range")
    return arr


def derive(neg, add, mul=None, names=None, name="A") -> FiniteMvwRig:
    """Build a structure from raw tables, populating all derived tables.

    Raises OrderNotAntisymmetric when the truncated-difference relation
    fails antisymmetry (the input cannot be an MV-algebra; the witness
    pair is reported).  Element 0 is the zero by convention.
    """
    size = len(neg)
    if names is None:
        names = tuple(str(i) for i in range(size))
    carrier = Carrier(size=size, names=tuple(names))
    return FiniteMvwRig(carrier, neg, add, mul, name=name)


def _scan_per_element(n, row_failures):
    """Run a per-element vectorized law check; returns (count, samples).

    ``row_failures(x)`` returns an (n, n) boolean array marking failures at
    (y, z) for fixed x.  Looping over one index keeps intermediates at n^2.
    """
    total = 0
    samples = []
    for x in range(n):
        bad = np.flatnonzero(row_failures(x))
        total += len(bad)
        for cell in bad[:MAX_WITNESSES - len(samples)]:
            samples.append((x, *divmod(int(cell), n)))
    return total, samples


def check_mv(rig: FiniteMvwRig) -> AxiomReport:
    """Exhaustively test the six MV-algebra equations; failures are data."""
    n = rig.size
    neg, add = rig.neg_table, rig.add_table
    idx = np.arange(n)
    report = AxiomReport(axioms=MV_AXIOMS)

    # table totality was already enforced at construction
    report.record("closure", [])

    # MV1: x + (y + z) = (x + y) + z
    report.failures["MV1"] = _scan_per_element(n, lambda x: add[x][add] != add[add[x]])
    report.record("MV2", np.argwhere(add != add.T))
    report.record("MV3", [(int(x),) for x in np.flatnonzero(add[:, 0] != idx)])
    report.record("MV4", [(int(x),) for x in np.flatnonzero(add[:, rig.u] != rig.u)])
    report.record("MV5", [(int(x),) for x in np.flatnonzero(neg[neg] != idx)])
    # MV6: neg(neg x + y) + y = neg(neg y + x) + x, which says the derived
    # join table is symmetric.
    join = rig.join_table
    report.record("MV6", np.argwhere(join != join.T))
    return report


def check_mvw(rig: FiniteMvwRig) -> AxiomReport:
    """Exhaustively test the product axioms: associativity, zero absorption,
    sub-distributivity over the sum and super-distributivity over the
    truncated difference (both sides of each)."""
    if rig.mul_table is None:
        raise GateNotMet("structure has no product; nothing to check")
    n = rig.size
    mul, add, monus = rig.mul_table, rig.add_table, rig.monus_table
    n32 = np.int32(n)
    # the tables are read flat at a·n + b in int32, and a <= b fails where
    # not_leq[a·n + b] holds
    flat_add, flat_monus = add.ravel(), monus.ravel()
    not_leq = ~rig.leq_table.ravel()
    report = AxiomReport(axioms=MVW_AXIOMS)

    report.failures["MVW-ii"] = _scan_per_element(n, lambda x: mul[x][mul] != mul[mul[x]])

    zero_bad = [(int(a), 0) for a in np.flatnonzero(mul[:, 0] != 0)]
    zero_bad += [(0, int(a)) for a in np.flatnonzero(mul[0, :] != 0)]
    report.record("MVW-iii", zero_bad)

    # For fixed a, row = a*_ and col = _*a cover the left and right laws:
    #   iv)  a(b + c) <= ab + ac        v)  a(b - c) >= ab - ac
    # A commutative product has col = row, so its column pass would repeat
    # the row pass cell for cell.
    def both_sides(fails):
        def row_failures(x):
            out = fails(mul[x])
            if not rig.commutative:
                out |= fails(mul[:, x])
            return out
        return row_failures

    def subdist(vec):
        # not_leq at a(b + c)·n + (ab + ac)
        vec_n = vec * n32
        cells = flat_add[vec_n[:, None] + vec]
        cells += vec_n[add]
        return not_leq[cells]

    def superdist(vec):
        # not_leq at (ab - ac)·n + a(b - c)
        vec_n = vec * n32
        cells = flat_monus[vec_n[:, None] + vec]
        cells *= n32
        cells += vec[monus]
        return not_leq[cells]

    report.failures["MVW-iv"] = _scan_per_element(n, both_sides(subdist))
    report.failures["MVW-v"] = _scan_per_element(n, both_sides(superdist))
    return report


def check_all(rig: FiniteMvwRig) -> AxiomReport:
    """MV axioms plus, when a product is present, the product axioms."""
    report = check_mv(rig)
    if rig.mul_table is not None:
        report = report.merged_with(check_mvw(rig))
    return report


def structural_flags(rig: FiniteMvwRig) -> dict:
    """Exact structural facts found by exhaustive scan."""
    return {
        "mv_only": rig.mv_only,
        "commutative": rig.commutative,
        "unit": rig.unit,
        "product_below_meet": rig.product_below_meet,
        "u": rig.u,
    }


def restrict(rig: FiniteMvwRig, subset) -> tuple[FiniteMvwRig, tuple[int, ...]]:
    """The structure induced on a subset closed under all operations.

    Returns the restricted structure and the embedding (sub index ->
    parent index).  Element 0 must belong to the subset; ordering by
    parent index keeps it at index 0.  Each table is a gather of the
    parent's, renumbered; the first value to escape is reported.
    """
    members = sorted(set(subset))
    if not members or members[0] != 0:
        raise ValueError("subset must contain the zero element")
    inside = [p for p in members if p < rig.size]
    back = np.full(rig.size, -1)
    back[inside] = range(len(inside))

    def renumbered(part):
        if (back[part] < 0).any():
            raise ValueError(f"subset not closed: element {part[back[part] < 0][0]} escapes")
        return back[part]

    neg = renumbered(rig.neg_table[inside])
    for p in members[len(inside):]:
        rig._check(p)
    block = np.ix_(inside, inside)
    add = renumbered(rig.add_table[block])
    mul = None if rig.mul_table is None else renumbered(rig.mul_table[block])
    names = tuple(rig.carrier.names[p] for p in members)
    return derive(neg, add, mul, names=names, name=f"{rig.name}|sub"), tuple(members)
