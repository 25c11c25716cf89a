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

A structure builds the monus and the order at construction, since its
antisymmetry test reads them, and the strong product, the join, the meet
and the product's flags on first read (:class:`FiniteMvwRig`): a command
that never reads a table never builds it.

The exhaustive axiom scans (:func:`scan_mv`, :func:`scan_mvw`) test every
tuple and are the oracle for every other module.  Tables are int32 numpy
arrays, and a scan over the triples (x, y, z) pays for cells, not calls:
it walks blocks of whole rows x (:func:`_blocks`), at most
``_BLOCK_CELLS`` = 2^15 cells and never less than one row, and its kernel
answers each block with a few ``ndarray.take`` gathers, rows of one table
at the values of another or a flattened table at a·n + b.  So the whole
cube is one block up to n = 32, and past n = 128 each block is one row of
n^2 cells, which bounds every temporary.  Counts and witnesses come x
first, then (y, z), as an element-by-element scan gives them.  The law
checks of ``suites`` walk the same blocks.  A commutative product has the
same right-hand laws as left-hand ones, so their scan runs once.

Every gather of a table at index arrays, in the scans and on the library
paths alike, is an ``ndarray.take``, which at n = 1024 reads an n x n grid
about five times faster than broadcast fancy indexing.  A grid
``table[rows[:, None], cols]`` is :func:`_grid`, a ``take`` of the rows and
then one of the columns; a row or a column at a 1-D index is one ``take``.
``take`` copies an index array to intp, so a table read at an n^2 index
table (:func:`_read_at`) goes in ``_blocks`` of whole index rows, and the
copy is one block.

The checks (:func:`check_mv`, :func:`check_mvw`, :func:`check_all`) return
the scans' reports, counts and first witnesses alike, but prove a zero by
the structure theorems below where they apply, and scan only where they do
not.  The two reports are kept on the structure (:func:`per_structure`), so
every reader of a structure's verdict reads one report.  A direct product
and a subalgebra are given theirs by :func:`inherit_reports`: every MV and
product axiom is an equation (x <= y reads x (-) y = 0), so it holds in a
direct product of structures where it holds, and in a subset closed under
the operations of one.  The scans stay unkept: they are the oracle.

(1) MV axioms in O(n^2 log n).  Every finite MV-algebra is a product of
finite Łukasiewicz chains L_m = {0, 1/m, .., 1} (Cignoli, D'Ottaviano and
Mundici, 2000).  :func:`chain_decomposition` takes the atoms, the elements
with exactly two elements at or below them, and maps each product element
(k_1, .., k_r) to k_1·e_1 + .. + k_r·e_r, where k·e is the k-fold sum of the
atom e.  If that map phi is a bijection that preserves neg on all n
elements and + on all n^2 pairs, the tables are isomorphic to a product of
chains, which satisfies every MV equation.  Its zero is element 0, as the
axioms MV3 and MV4 require: phi(0) is a sum of copies of element 0, and a
sum of chain elements is the zero only when every term is.  So every MV
count is 0.  Otherwise :func:`scan_mv` runs.

(2) MVW-iv and MVW-v on rows, given (1).  Let f be a row a*_ or a column
_*a.  Suppose f(x) <= f(x + e) for every x and atom e, and
f(b + c) <= f(b) + f(c) for every pair with b (.) c = 0.  Then f is
monotone, since x <= y in a product of chains means y is reached from x
by adding atoms one at a time.  MVW-iv: b + c = b + (neg b ^ c), and
b (.) (neg b ^ c) = 0, so f(b + c) <= f(b) + f(neg b ^ c) <= f(b) + f(c).
MVW-v: with c' = b ^ c, b = (b - c') + c' and (b - c') (.) c' = 0, so
f(b) <= f(b - c') + f(c'), which by residuation reads
f(b) - f(c') <= f(b - c'); and b - c' = b - c, while f(c') <= f(c) makes
f(b) - f(c) <= f(b) - f(c').  So both laws hold on the whole row.  The
pairs are taken once each, b <= c by index, since + and (.) commute.  Rows
the theorem does not clear are scanned as before, in ascending order, so
counts and witness order stay exact.  Every MVW-rig clears every row:
for x <= y, MVW-v and MVW-iii give 0 = a(x - y) >= ax - ay, so rows are
monotone, and the pair condition is an instance of MVW-iv.
The test (:func:`_certified_rows`) works on two block levels.  The maps
go in ``_blocks`` of whole maps, and each group is laid out as the
columns of an n x w table, w <= 2^15 / n, one row per element.  The
orthogonal pairs go in blocks of at most n^2/2 cells and at most
``_BLOCK_CELLS`` (:func:`_pairs_per_block`), so f(b), f(c) and f(b + c)
for every map of the group are three row ``take``s of that layout, and
so is f(x + e) for an atom step.  A row ``take`` copies w values at a
time, where a ``take(axis=1)`` of the maps copies one.

(2') The row certificate on a chain, one atom e and m = n - 1.  In chain
coordinates, with pos the inverse of phi, a map f reads
F = pos o f o phi on 0..m, the sum reads min(k + l, m), and the order is
that of the integers.  The atom-step test says that F does not decrease,
so each value v of F is taken on an interval [lo_v, hi_v], a level.  Then
F(k + l) <= F(k) + F(l) for every pair with k + l <= m if and only if
F(min(hi_v + hi_w, m)) <= v + w for every pair of levels with
lo_v + lo_w <= m.  If: given k and l, let v = F(k) and w = F(l); then
lo_v + lo_w <= k + l <= min(hi_v + hi_w, m), and F does not decrease.
Only if: the sums k + l over [lo_v, hi_v] x [lo_w, hi_w] take every value
from lo_v + lo_w to hi_v + hi_w, so some pair with k + l <= m sums to
min(hi_v + hi_w, m), and there F(k) + F(l) = v + w.  (The cap at m on
v + w changes nothing, since F <= m.)  So the pairs read are those of the
levels, at most k_f^2 / 2 for a map of k_f levels, against every
orthogonal pair for every map, and the identity, which the unit's row
is, clears with none (:func:`_chain_certified_rows`).  The level pairs
of all maps go in blocks of whole levels (:func:`_level_pairs`), and
:func:`_certified_rows` stays the test on every other product of chains.

(3) MVW-ii, MVW-iv and MVW-v on a generating set, given (1).  Let G be a
set whose closure under the product is the carrier (:func:`_generators`).
Light's test (Clifford and Preston, 1961): call g good when
(xg)y = x(gy) for all x and y.  If a and b are good, so is ab:
(x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), each step one
instance of a or b being good.  So when every generator is good, every
element is, and the product is associative.  Light's condition is read on
value classes (:func:`_light_test`).  For a generator g let c(x) = xg and
r(y) = gy, and let rep(v) be one fixed x with xg = v.  Then g is good if
and only if
  (i)  v·y = rep(v)·r(y) for every value v of c and every y, and
  (ii) x·w = rep(c(x))·w for every x and every value w of r.
Only if: (i) is Light's condition at x = rep(v), since c(rep(v)) = v; and
for (ii), with w = r(y), Light's condition at x and at rep(c(x)) gives
x·w = c(x)·y = c(rep(c(x)))·y = rep(c(x))·w.  If: with v = c(x) and
w = r(y), (xg)y = v·y = rep(v)·w by (i), which is x·w by (ii).  On a
commutative table c = r, and (ii) follows from (i): x·w = w·x =
rep(w)·c(x) by (i), and rep(c(x))·w = w·rep(c(x)) = rep(w)·c(x) by (i)
again.  So a generator reads 2n cells for each value of c and, on a
non-commutative table, for each value of r: 2n(|c(A)| + |r(A)|) cells
against the 2n^2 of Light's condition read at every x, which a generator
with more values than n reads instead.  The unit, whose row and column
are the identity, is good with no cell read.  On Z_n the column of g
takes about n/g values, so Z4095 reads 10639 rows for its 565 generators
other than the unit, where Light's condition at every x read 4096 each.
Then the row of a product is a composition of rows, L_xy = L_x o L_y, and
its column a composition of columns, R_xy = R_y o R_x.  A composition of monotone
maps with MVW-iv and MVW-v has all three: f(g(b + c)) <= f(gb + gc) <=
f(gb) + f(gc), and f(g(b - c)) >= f(gb - gc) >= f(gb) - f(gc).  So when
the rows of the generators (and their columns, on a non-commutative
product) clear (2), so does every row and column, and MVW-ii, MVW-iv and
MVW-v all count 0.  When a generator fails either test, or G is the whole
carrier and the test would be the scan itself, (2) runs on every row and
associativity is scanned.  MVW-iii stays a linear scan.

(4) MVW-ii, MVW-iv and MVW-v for a lattice product, given (1).  When the
product is the meet or the join, all three are identities of every
MV-algebra.  Both lattice operations are associative, commutative and
monotone.  For a monotone f = a*_, MVW-iv gives MVW-v: b <= (b - c) + c,
so f(b) <= f(b - c) + f(c), which by residuation reads
f(b) - f(c) <= f(b - c).  MVW-iv for the join: a and b + c are both at
most (a v b) + (a v c).  For the meet it is an equation, so it need
only hold in a chain, since every MV-algebra is a subdirect product of
chains (Chang): a ^ (b + c) is at most a, which is at most
(a ^ b) + (a ^ c) when a <= b or a <= c, and at most b + c, which is that
sum otherwise.  So a product equal to ``meet_table`` or ``join_table`` is
proved at n^2 cells, before any generator is sought: on a chain every
element is irreducible under either operation, and (3) would fall back
to the scan.  Each compare waits for a row pre-test, which (1) makes
exact: u ^ x = x and 0 v x = x, so the product can be the meet only when
its row u is the identity, and the join only when its row 0 is.  So a
Z_n product builds neither lattice table, and a chain with the bounded
sum as its product builds only the join.  Only MVW-iii is scanned; it
holds for the meet and fails at every (a, 0) and (0, a), a != 0, for the
join.  The identities need (1): an algebra whose MV axioms fail may break
them with its own derived meet or join.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

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


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom check, immutable, so a structure can keep it.

    ``failures`` maps each checked axiom to (count, sample witnesses), the
    witnesses a tuple of int tuples (:func:`_recorded`); it is read-only.
    An axiom passes iff its count is zero, and the report passes iff every
    axiom does.
    """

    axioms: tuple[str, ...]
    failures: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "failures", MappingProxyType(dict(self.failures)))

    @property
    def passed(self) -> bool:
        return all(count == 0 for count, _ in self.failures.values())

    def failed_axioms(self) -> list[str]:
        return [a for a in self.axioms if self.failures.get(a, (0, ()))[0] > 0]

    def status(self, axiom: str) -> str:
        count, _ = self.failures.get(axiom, (0, ()))
        return "PASS" if count == 0 else "FAIL"

    def witnesses(self, axiom: str) -> list[tuple[int, ...]]:
        return list(self.failures.get(axiom, (0, ()))[1])

    def merged_with(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.axioms + other.axioms, {**self.failures, **other.failures})


def _recorded(witnesses):
    """The count of a sequence of witness tuples (a list, or an array with
    one row each) and its first ``MAX_WITNESSES``, as tuples of ints."""
    return len(witnesses), tuple(tuple(int(v) for v in w) for w in witnesses[:MAX_WITNESSES])


def _passing(axioms):
    """A report in which every axiom of ``axioms`` passes."""
    return AxiomReport(axioms, dict.fromkeys(axioms, (0, ())))


class _derived:
    """A derived table or flag of :class:`FiniteMvwRig`, built on its first
    read by the decorated method and kept as a plain attribute of the same
    name, which later reads find before this descriptor.  Unlike
    ``functools.cached_property`` it never reads the instance ``__dict__``:
    on CPython 3.11 that read makes every later attribute read of the
    structure a dictionary lookup, about three times slower."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rig, owner=None):
        if rig is None:
            return self
        value = self.build(rig)
        setattr(rig, self.name, value)
        return value


class FiniteMvwRig:
    """A finite MV-algebra, optionally with a product, plus derived tables.

    Instances are immutable after construction and safe to share; use
    :func:`derive` to build one.  ``mul_table`` is None for product-free
    (MV-only) structures.  Construction builds ``monus_table`` and
    ``leq_table``, which the antisymmetry test needs; ``times_table``,
    ``join_table``, ``meet_table``, ``commutative``, ``unit`` and
    ``product_below_meet`` are built on first read and kept, so a command
    that never reads one never builds it (the last three are None without a
    product).  Every table is read-only.  Objects computed from the
    tables, such as the axiom reports, the ideals, the spectrum and the
    frame, are kept on the structure by :func:`per_structure`; a shallow
    copy starts without them, since it may have a table swapped, and
    :meth:`set_name` drops those that embed the name.  A shallow copy
    shares the derived tables built before it and builds the rest from its
    own tables.
    """

    def __init__(self, carrier, neg_table, add_table, mul_table=None, name="A"):
        self.name = name
        self._memo = {}
        self.carrier = carrier
        n = carrier.size
        self.size = n
        self.neg_table = _as_table(neg_table, (n,), n)
        self.add_table = _as_table(add_table, (n, n), n)
        self.mul_table = None if mul_table is None else _as_table(mul_table, (n, n), n)

        neg, add = self.neg_table, self.add_table
        self.u = int(neg[0])
        # monus(x, y) = neg(add(neg(x), y)); rows of add gathered by neg.
        self.monus_table = _read_at(neg, add.take(neg, axis=0))
        self.leq_table = self.monus_table == 0

        # x <= y <= x off the diagonal: counted first, located only when found
        both = self.leq_table & self.leq_table.T
        if np.count_nonzero(both) > np.count_nonzero(both.diagonal()):
            x, y = (int(v) for v in np.argwhere(both & ~np.eye(n, dtype=bool))[0])
            raise OrderNotAntisymmetric(x, y)

        _read_only(self.neg_table, self.add_table, self.mul_table, self.monus_table,
                   self.leq_table)

    # -- derived on first read, kept, read-only ----------------------------

    @_derived
    def times_table(self):
        neg = self.neg_table
        return _read_only(_read_at(neg, _grid(self.add_table, neg, neg)))

    @_derived
    def join_table(self):
        idx = np.arange(self.size, dtype=np.int32)
        return _read_only(_read_at(self.add_table, self.monus_table, idx))

    @_derived
    def meet_table(self):
        neg = self.neg_table
        return _read_only(_read_at(neg, _grid(self.join_table, neg, neg)))

    @_derived
    def commutative(self):
        # each block of rows from the diagonal on against its mirror strip of
        # columns, so every cell pair is compared once
        mul = self.mul_table
        return None if mul is None else all(
            (mul[b.start:b.stop, b.start:] == mul[b.start:, b.start:b.stop].T).all()
            for b in _blocks(self.size, self.size))

    @_derived
    def unit(self):
        mul = self.mul_table
        if mul is None:
            return None
        # s is unitary when its row and its column are the identity, so
        # u.s = u; only those s are tried, and the first unitary one is
        # the unit, since it is unique when it exists
        idx = np.arange(self.size)
        for s in np.flatnonzero(mul[self.u] == self.u):
            if (mul[s] == idx).all() and (mul[:, s] == idx).all():
                return int(s)
        return None

    @_derived
    def product_below_meet(self):
        mul = self.mul_table
        return None if mul is None else bool(_read_at(self.leq_table, mul, self.meet_table).all())

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
        """Rename the structure.  The kept objects that embed the name are
        dropped (the builds marked by :func:`reads_name`: the quotients, the
        spectrum with its warnings and the MV-reduct); the axiom reports and
        every other kept object read no name, and stay."""
        self.name = name
        for key in [key for key in self._memo if key[0] in _READS_NAME]:
            del self._memo[key]
        return self

    def __copy__(self):
        # a copy may have a table swapped, so it starts with nothing kept
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, _memo={})
        return twin

    def describe(self) -> str:
        kind = "MV-algebra (no product)" if self.mv_only else "MVW-rig"
        return f"{self.name}: {kind} with {self.size} elements"

    def __repr__(self):
        return f"<FiniteMvwRig {self.name} size={self.size}>"


def per_structure(build):
    """Compute ``build(rig, *args)`` once per structure and positional
    arguments, and keep the result on the structure under the key
    ``(build, *args)``.  A build that raises keeps nothing, so the next
    call builds, and raises, again.  Callers share the result, so it must
    be immutable (read-only arrays, tuples, frozen dataclasses); caps are
    checked by the callers, before each read.  The result survives
    :meth:`FiniteMvwRig.set_name` unless the build is marked by
    :func:`reads_name`, and no shallow copy has it."""
    @functools.wraps(build)
    def memoized(rig, *args):
        memo = rig._memo
        key = (build, *args)
        if key not in memo:
            memo[key] = build(rig, *args)
        return memo[key]
    return memoized


#: The builds whose kept objects embed the structure's name (:func:`reads_name`).
_READS_NAME = set()


def reads_name(build):
    """Mark a build whose object embeds the structure's name, so that
    :meth:`FiniteMvwRig.set_name` drops it; apply it below
    :func:`per_structure`."""
    _READS_NAME.add(build)
    return build


def _powers(rig):
    """The powers x, x^2, x^3, .. of every element, left-associated as in
    ``FiniteMvwRig.power``: one vector per exponent, walked together with
    one product-table lookup per step.  Each power sequence cycles within
    n steps, so the n + 1 vectors x .. x^(n+1) reach every power; once no
    power moves, every later power repeats, so the walk stops there."""
    idx = np.arange(rig.size)
    power = idx
    yield power
    for _ in range(rig.size):
        step = rig.mul_table[power, idx]
        if (step == power).all():
            return
        power = step
        yield power


# -- kept families of sets: distinct boolean rows, one column per element, in
# canonical order (smaller sets first, then by sorted members), read-only

def _read_only(*tables):
    """Make each array that is not None read-only; returns the first."""
    for table in tables:
        if table is not None:
            table.flags.writeable = False
    return tables[0]


def _members(row) -> frozenset:
    """The set a boolean row holds."""
    return frozenset(np.flatnonzero(row).tolist())


def _member_rows(n, sets):
    """One boolean row of n columns per set of elements."""
    table = np.zeros((len(sets), n), dtype=bool)
    table[np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
          np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp)] = True
    return table


def _canonical_order(rows):
    """The stable permutation that sorts boolean rows canonically: by size,
    then by sorted members.  Of two sets of one size, the one holding the
    first element where they differ comes first, so the rows compare as
    their complements do, bit by bit; ``packbits`` reads eight at a time."""
    packed = np.packbits(~rows, axis=1)
    return np.lexsort(np.vstack([packed.T[::-1], rows.sum(axis=1)]))


def _canonical_rows(rows):
    """The distinct rows of a boolean table in canonical order, read-only,
    and the position of each input row among them.  Rows are told apart by
    their bytes: ``np.unique(axis=0)`` sorts the whole table."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    first = {}
    copy_of = [first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)]
    distinct = np.array(list(first.values()), dtype=np.intp)
    order = distinct[_canonical_order(rows[distinct])]
    rank = np.empty(len(rows), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return _read_only(rows[order]), rank[copy_of]


def _as_table(data, shape, size):
    arr = np.array(data, dtype=np.int32)
    if arr.shape != shape:
        raise ValueError(f"table has shape {arr.shape}, expected {shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValueError("table entry out of carrier range")
    return arr


def derive(neg, add, mul=None, names=None, name="A") -> FiniteMvwRig:
    """Build a structure from raw tables; the derived tables follow on first
    read (:class:`FiniteMvwRig`).

    Raises OrderNotAntisymmetric when the truncated-difference relation
    fails antisymmetry (the input cannot be an MV-algebra; the witness
    pair is reported).  Element 0 is the zero by convention.
    """
    size = len(neg)
    if names is None:
        names = tuple(str(i) for i in range(size))
    carrier = Carrier(size=size, names=tuple(names))
    return FiniteMvwRig(carrier, neg, add, mul, name=name)


#: The most cells a blocked scan gathers at once (``_blocks``).
_BLOCK_CELLS = 1 << 15


def _blocks(count, cells):
    """Slices of range(count), the rows of an outer index space taken in
    row-major order, each a block of whole rows of ``cells`` cells: at most
    ``_BLOCK_CELLS`` cells a block, and never less than one row."""
    step = max(1, _BLOCK_CELLS // cells)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _grid(table, rows, cols):
    """``table[rows[:, None], cols]``: a ``take`` of the rows, then one of
    the columns."""
    return table.take(rows, axis=0).take(cols, axis=1)


def _fold(table, start, leaves):
    """For each row of ``leaves``, the binary index table ``table`` folded
    from ``start`` over the row's entries left to right, skipping the
    negative ones: one gather per column, whatever the number of rows."""
    acc = np.full(len(leaves), start)
    for col in leaves.T:
        acc = np.where(col < 0, acc, table[acc, col])
    return acc


def _read_at(table, rows, cols=None):
    """``table[rows]`` at a 2-D index table, or ``table[rows, cols]`` for a
    2-D table, ``cols`` broadcast against ``rows``, read by ``take`` in
    ``_blocks`` of whole index rows: ``take`` copies its index to intp, so
    the copy is one block.  The flat index rows·n + cols is formed in the
    dtype of the index tables, int32 for the tables of a structure, which
    holds n^2 for every table that fits in memory."""
    out = np.empty(rows.shape, dtype=table.dtype)
    flat = table.ravel()
    if cols is not None:
        cols = np.broadcast_to(cols, rows.shape)
    for block in _blocks(len(rows), rows.shape[1]):
        at = rows[block]
        if cols is not None:
            at = at * rows.dtype.type(table.shape[1]) + cols[block]
        out[block] = flat.take(at)
    return out


def _scan_per_element(n, block_failures, rows=None):
    """Run a blocked law check; returns (count, samples).

    ``block_failures(xs)`` returns a (len(xs), n, n) boolean table marking
    failures at (x, y, z) for each x of the ascending array xs.  ``rows``
    (ascending, all of 0..n-1 by default) lists the x to scan, handed over
    in blocks of whole x (``_blocks``), so counts and witnesses come x
    first, then (y, z).
    """
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    total = 0
    samples = []
    for block in _blocks(len(rows), n * n):
        xs = rows[block]
        bad = block_failures(xs)
        count = int(np.count_nonzero(bad))
        total += count
        if count and len(samples) < MAX_WITNESSES:
            for cell in np.flatnonzero(bad)[:MAX_WITNESSES - len(samples)]:
                i, cell = divmod(int(cell), n * n)
                samples.append((int(xs[i]), *divmod(cell, n)))
    return total, tuple(samples)


def _pair_cells(table, f, g):
    """[i, b, c]: table[f[i, b], g[i, c]] for two (rows, n) maps, gathered
    from the flat table at f·n + g, built in intp, the index type of
    ``take``."""
    f, g = f.astype(np.intp), g.astype(np.intp)
    return table.ravel().take((f * len(table))[:, :, None] + g[:, None, :])


def _associativity(op):
    """The blocked kernel of x(yz) = (xy)z for one table: the rows x of the
    table, gathered at every yz, against its rows at every xy.  The n^2
    index is cast to intp, the index type of ``take``, once per scan, and
    the gathers write into buffers kept for the scan, one set per block
    length: past n = 128 a fresh n^2 table a row can be handed back to the
    system and faulted in again on every row."""
    op_index = op.astype(np.intp)
    buffers = {}

    def block_failures(xs):
        if len(xs) not in buffers:
            shape = (len(xs), *op.shape)
            buffers[len(xs)] = (np.empty(shape, dtype=op.dtype), np.empty(shape, dtype=op.dtype),
                                np.empty(shape, dtype=bool))
        yz_rows, xy_rows, bad = buffers[len(xs)]
        rows = op.take(xs, axis=0)          # [x, y]: xy
        # a table's values lie in range, so "clip" never clips; unlike the
        # default "raise", it gathers straight into ``out``
        rows.take(op_index, axis=1, out=yz_rows, mode="clip")
        op.take(rows, axis=0, out=xy_rows, mode="clip")
        return np.not_equal(yz_rows, xy_rows, out=bad)
    return block_failures


@per_structure
def _atoms(rig):
    """The atoms: the elements with exactly two elements at or below them."""
    return _read_only(np.flatnonzero(rig.leq_table.sum(axis=0) == 2))


@dataclass(frozen=True)
class ChainDecomposition:
    """A verified isomorphism from a product of Łukasiewicz chains onto a
    structure's MV reduct.

    ``atoms[i]`` generates the i-th chain, of ``lengths[i] + 1`` elements
    0, e, e+e, ..; ``phi[k]`` is the sum of the k_i-fold sums of the atoms,
    where k_1, .., k_r are the mixed-radix digits of k, the first chain's
    most significant.
    """

    atoms: tuple[int, ...]
    lengths: tuple[int, ...]
    phi: np.ndarray


@per_structure
def chain_decomposition(rig: FiniteMvwRig) -> ChainDecomposition | None:
    """The structure as a product of finite chains, or None when its
    tables are not those of an MV-algebra with zero 0.

    The multiples of the atoms (``_atoms``) give the candidate map phi, the
    sum of one multiple of each atom, accepted only when it is a bijection
    that preserves the negation on all n elements and the sum on all n^2
    pairs: then the tables are isomorphic to a product of chains, which is
    an MV-algebra, and every MV count is 0.  Its zero is element 0: phi(0)
    is a sum of copies of element 0, and in a product of chains a sum is
    the zero only when every term is, so phi(0) = 0 needs no test of its own.
    """
    n = rig.size
    add = rig.add_table
    atoms = _atoms(rig)
    chains = []
    total = 1
    for e in atoms:
        multiples = [0, int(e)]
        while (nxt := int(add[multiples[-1], e])) != multiples[-1]:
            if len(multiples) == n:  # no chain outgrows the carrier
                return None
            multiples.append(nxt)
        total *= len(multiples)
        if total > n:
            return None
        chains.append(np.array(multiples, dtype=np.int32))
    if total != n:
        return None
    phi = np.zeros(1, dtype=np.int32)
    for chain in chains:
        phi = _grid(add, phi, chain).ravel()
    if (np.bincount(phi, minlength=n) != 1).any():
        return None
    # the complement of digit k in 0..m is m - k, so negation reverses the
    # mixed-radix order
    if (rig.neg_table.take(phi) != phi[::-1]).any():
        return None
    # the product's sum, digit by digit: the index of min(m, k + l); its
    # temporaries are two n^2 int32 tables at a time
    idx = np.arange(n, dtype=np.int32)
    prod_add = np.zeros((n, n), dtype=np.int32)
    term = np.empty((n, n), dtype=np.int32)
    stride = n
    for chain in chains:
        stride //= len(chain)
        digit = idx // stride % len(chain)
        np.add(digit[:, None], digit, out=term)
        np.minimum(term, len(chain) - 1, out=term)
        term *= stride
        prod_add += term
    del term
    phi_of_sum = _read_at(phi, prod_add)
    del prod_add
    if (_grid(add, phi, phi) != phi_of_sum).any():
        return None
    return ChainDecomposition(atoms=tuple(int(e) for e in atoms),
                              lengths=tuple(len(c) - 1 for c in chains), phi=_read_only(phi))


def scan_mv(rig: FiniteMvwRig) -> AxiomReport:
    """Exhaustively test the six MV-algebra equations; failures are data."""
    n = rig.size
    neg, add = rig.neg_table, rig.add_table
    idx = np.arange(n)
    return AxiomReport(MV_AXIOMS, {
        # table totality was already enforced at construction
        "closure": _recorded([]),
        # MV1: x + (y + z) = (x + y) + z
        "MV1": _scan_per_element(n, _associativity(add)),
        "MV2": _recorded(np.argwhere(add != add.T)),
        "MV3": _recorded(np.flatnonzero(add[:, 0] != idx)[:, None]),
        "MV4": _recorded(np.flatnonzero(add[:, rig.u] != rig.u)[:, None]),
        "MV5": _recorded(np.flatnonzero(neg[neg] != idx)[:, None]),
        # MV6: neg(neg x + y) + y = neg(neg y + x) + x, which says the
        # derived join table is symmetric.
        "MV6": _recorded(np.argwhere(rig.join_table != rig.join_table.T)),
    })


@per_structure
def check_mv(rig: FiniteMvwRig) -> AxiomReport:
    """The MV-axiom report of :func:`scan_mv`, which runs only when the
    structure is not certified by a chain decomposition, kept on the
    structure."""
    return scan_mv(rig) if chain_decomposition(rig) is None else _passing(MV_AXIOMS)


def _mvw_report(rig, distributive_rows, associativity_rows):
    """The product axioms, with the two distributive laws scanned only on
    the rows ``distributive_rows`` of :func:`_scan_distributive` and
    associativity only on the rows ``associativity_rows`` (both ascending)."""
    if rig.mul_table is None:
        raise GateNotMet("structure has no product; nothing to check")
    n = rig.size
    mul = rig.mul_table
    # (a, 0) for each a with a.0 != 0, then (0, a) for each a with 0.a != 0
    left, right = np.flatnonzero(mul[:, 0]), np.flatnonzero(mul[0])
    zero_bad = np.zeros((len(left) + len(right), 2), dtype=np.intp)
    zero_bad[:len(left), 0] = left
    zero_bad[len(left):, 1] = right
    distributive = _scan_distributive(rig, distributive_rows)
    return AxiomReport(MVW_AXIOMS, {
        # a kernel is built only for rows it scans, so a certified report,
        # which scans none, casts no n^2 index
        "MVW-ii": (_scan_per_element(n, _associativity(mul), associativity_rows)
                   if len(associativity_rows) else (0, ())),
        "MVW-iii": _recorded(zero_bad),
        "MVW-iv": distributive[0], "MVW-v": distributive[1],
    })


def _scan_distributive(rig, rows):
    """MVW-iv and MVW-v for each a in ``rows``, scanned over all (b, c)."""
    if not len(rows):
        return (0, ()), (0, ())
    n = rig.size
    mul, add, monus = rig.mul_table, rig.add_table, rig.monus_table
    # a <= b fails where not_leq[a·n + b] holds
    not_leq = ~rig.leq_table.ravel()

    # For fixed a, the maps f = a*_ (rows) and f = _*a (columns) cover the
    # left and right laws, one map per row of a (block, n) table F:
    #   iv)  f(b + c) <= f(b) + f(c)        v)  f(b - c) >= f(b) - f(c)
    # A commutative product has columns equal to rows, so its column pass
    # would repeat the row pass cell for cell.
    def both_sides(fails):
        def block_failures(xs):
            out = fails(mul.take(xs, axis=0))
            if not rig.commutative:
                out |= fails(mul.T.take(xs, axis=0))
            return out
        return block_failures

    def subdist(F):
        # not_leq at f(b + c)·n + (f(b) + f(c))
        cells = _pair_cells(add, F, F)
        cells += (F * n).take(add, axis=1)
        return not_leq.take(cells)

    def superdist(F):
        # not_leq at (f(b) - f(c))·n + f(b - c)
        cells = _pair_cells(monus, F, F)
        cells *= n
        cells += F.take(monus, axis=1)
        return not_leq.take(cells)

    return (_scan_per_element(n, both_sides(subdist), rows),
            _scan_per_element(n, both_sides(superdist), rows))


def scan_mvw(rig: FiniteMvwRig) -> AxiomReport:
    """Exhaustively test the product axioms: associativity, zero absorption,
    sub-distributivity over the sum and super-distributivity over the
    truncated difference (both sides of each)."""
    return _mvw_report(rig, range(rig.size), range(rig.size))


def _pairs_per_block(n, width):
    """How many orthogonal pairs ``_certified_rows`` reads at once for a
    group of ``width`` maps: at most n^2/2 cells and at most
    ``_BLOCK_CELLS``, and never less than one pair.  The second bound binds
    past n = 256; at n = 1024 it made the certificate about a tenth faster
    than blocks of n^2/2 cells."""
    return max(1, min(n * n // 2, _BLOCK_CELLS) // width)


def _certified_rows(rig, dec, maps):
    """Which maps f = ``maps[i]`` (rows a*_ of the product, or columns _*a)
    satisfy MVW-iv and MVW-v by the row theorem: f is monotone on atom
    steps, f(x) <= f(x + e), and f(b + c) <= f(b) + f(c) on the orthogonal
    pairs b (.) c = 0, b <= c by index.  Each group of maps is read as the
    columns of one layout (paragraph (2) of the module docstring).
    :func:`check_mvw` reads a chain by :func:`_chain_certified_rows`
    instead, and this test is its oracle."""
    n = rig.size
    flat_add = rig.add_table.ravel()
    not_leq = ~rig.leq_table.ravel()
    steps = [rig.add_table[:, e] for e in dec.atoms]
    # b (.) c = 0 iff b <= neg c, so the pairs need no ``times_table``
    b, c = np.nonzero(np.triu(rig.leq_table.take(rig.neg_table, axis=1)))
    b_plus_c = flat_add.take(b * n + c)
    ok = np.empty(len(maps), dtype=bool)
    for group in _blocks(len(maps), n):
        f = np.ascontiguousarray(maps[group].T)     # [x, i]: f_i(x)
        f_n = f * np.int32(n)
        width = f.shape[1]
        good = np.ones(width, dtype=bool)
        # a failing cell clears its column, the map; ``any(axis=0)`` would
        # walk the rows w cells at a time
        for step in steps:
            # not_leq at f(x)·n + f(x + e)
            good[np.flatnonzero(not_leq.take(f_n + f.take(step, axis=0))) % width] = False
        per_block = _pairs_per_block(n, width)
        for lo in range(0, len(b), per_block):
            pairs = slice(lo, lo + per_block)
            # not_leq at f(b + c)·n + (f(b) + f(c))
            cells = flat_add.take(f_n.take(b[pairs], axis=0) + f.take(c[pairs], axis=0))
            cells += f_n.take(b_plus_c[pairs], axis=0)
            good[np.flatnonzero(not_leq.take(cells)) % width] = False
        ok[group] = good
    return ok


def _level_pairs(start, lo, m):
    """The pairs (v, w) of levels of one map, v <= w by index and
    lo_v + lo_w <= m, as two index arrays a block, for levels that start at
    ``start`` = map·n + ``lo``, ascending.  A level v pairs with every
    later level of its map that starts by map·n + m - lo_v, and the blocks
    hold whole levels v, at most ``_BLOCK_CELLS`` pairs and never less than
    one level."""
    count = np.maximum(np.searchsorted(start, start + m - 2 * lo, side="right")
                       - np.arange(len(start)), 0)
    end = np.cumsum(count)
    begin = end - count
    v = 0
    while v < len(start):
        stop = max(v + 1, int(np.searchsorted(end, begin[v] + _BLOCK_CELLS, side="right")))
        levels = np.arange(v, stop)
        second = np.repeat(levels - begin[v:stop], count[v:stop])
        second += np.arange(begin[v], end[stop - 1])
        yield np.repeat(levels, count[v:stop]), second
        v = stop


def _chain_certified_rows(rig, dec, maps):
    """:func:`_certified_rows` on a chain, one atom, read on level sets
    (paragraph (2') of the module docstring): in chain coordinates,
    F = pos o f o phi, each map must not decrease, and then
    F[min(hi_v + hi_w, m)] <= v + w for every pair of its levels with
    lo_v + lo_w <= m (:func:`_level_pairs`).  The identity clears with no
    pairs."""
    n = rig.size
    m = n - 1
    pos = np.empty(n, dtype=np.intp)
    pos[dec.phi] = np.arange(n)
    F = pos.take(maps.take(dec.phi, axis=1))            # [i, k]: F_i(k)
    ok = (F[:, 1:] >= F[:, :-1]).all(axis=1)
    todo = np.flatnonzero(ok & (F != np.arange(n)).any(axis=1))
    F = F.take(todo, axis=0)
    # a level starts at k = 0 and wherever F steps up: start = map·n + lo
    fresh = np.ones(F.shape, dtype=bool)
    np.not_equal(F[:, 1:], F[:, :-1], out=fresh[:, 1:])
    F = F.ravel()
    start = np.flatnonzero(fresh)
    owner, lo = np.divmod(start, n)
    hi = np.append(start[1:], F.size) - 1 - owner * n
    value = F.take(start)
    for first, second in _level_pairs(start, lo, m):
        # F at min(hi_v + hi_w, m) against v + w, which the cap at m on
        # the chain's sum cannot change, since F <= m
        top = F.take(owner.take(first) * n + np.minimum(hi.take(first) + hi.take(second), m))
        bad = top > value.take(first) + value.take(second)
        ok[todo.take(owner.take(first[bad]))] = False
    return ok


def _close(members, fresh, maps, ops):
    """Grow the boolean mask ``members``, closed under each unary table of
    ``maps`` and each binary table of ``ops``, in place into the least
    superset that also holds the elements ``fresh`` (an index array).

    The closure grows one frontier at a time: a round gathers the images
    of the new members, and each operation at new x members and at members
    x new, so every pair is read in the round its later element joins."""
    frontier = np.asarray(fresh, dtype=np.intp)
    while frontier.size:
        members[frontier] = True
        inside = np.flatnonzero(members)
        grown = np.zeros(len(members), dtype=bool)
        for f in maps:
            grown[f.take(frontier)] = True
        for op in ops:
            grown[_grid(op, frontier, inside)] = True
            grown[_grid(op, inside, frontier)] = True
        grown &= ~members
        frontier = np.flatnonzero(grown)
    return members


def _generators(mul) -> list[int]:
    """A set that generates the carrier under the product: the irreducible
    elements z, those that are no product x*y with x != z and y != z, in
    ascending order, then, while their closure (:func:`_close`) falls short
    of the carrier, its least missing element.

    Every generating set holds the irreducibles: a shortest way of writing a
    non-generator z as a product of generators splits as z = x*y with both
    sides shorter, so neither side is z."""
    n = len(mul)
    idx = np.arange(n, dtype=np.int32)
    reducible = np.zeros(n, dtype=bool)
    reducible[mul[(mul != idx[:, None]) & (mul != idx)]] = True
    gens = np.flatnonzero(~reducible).tolist()
    members = _close(np.zeros(n, dtype=bool), gens, (), (mul,))
    while not members.all():
        gens.append(int(np.argmin(members)))
        _close(members, gens[-1:], (), (mul,))
    return gens


def _rows_agree(table, heads, cells, index) -> bool:
    """Whether row ``heads[k]`` of ``table`` equals its row x read at the
    columns ``index[i]``, for every cell i·n + x of ``cells``: two gathers
    of whole rows in ``_blocks``, stopping at the first block that
    differs."""
    n = len(table)
    flat = table.ravel()
    for block in _blocks(len(cells), n):
        owner, x = np.divmod(cells[block], n)
        at = index.take(owner, axis=0)
        at += (x * n)[:, None]
        if not (table.take(heads[block], axis=0) == flat.take(at)).all():
            return False
    return True


def _light_test(mul, gens, commutative=False) -> bool:
    """Light's associativity test: whether (x*g)*y = x*(g*y) for every
    generator g and all x, y.  The elements g that pass are closed under the
    product, so when ``gens`` generates the carrier, True proves the product
    associative.  The test reads value classes (paragraph (3) of the module
    docstring), every generator in one batch: condition (i) at one
    representative x of each class of x -> x*g, which one scatter picks
    into an m x n table, and, unless ``commutative`` says the table is
    symmetric, condition (ii) on the columns at the distinct values of
    g*_.  A generator with more classes in all than n reads Light's
    condition at every x instead, the cheaper of the two, and the unit,
    whose row and column are the identity, reads nothing."""
    n = len(mul)
    idx = np.arange(n, dtype=mul.dtype)
    rows = mul.take(gens, axis=0)                           # [i, y]: g*y
    cols = rows if commutative else mul.take(gens, axis=1).T     # [i, x]: x*g
    unit = (rows == idx).all(axis=1)
    if not commutative:
        unit &= (cols == idx).all(axis=1)
    if unit.any():
        rows, cols = rows[~unit], cols[~unit]
    offsets = np.arange(0, rows.size, n)[:, None]
    at = cols + offsets
    # rep[i·n + v]: the x the scatter writes last for x*g_i = v, one per
    # class; rep_of[i, x] = rep[i·n + x*g_i], the representative of x's class
    rep = np.empty(rows.size, dtype=mul.dtype)
    rep[at] = idx
    rep_of = rep.take(at)
    base = rep_of == idx
    if not commutative:
        # seen[i, w]: w is a value of g_i*_
        seen = np.zeros(rows.shape, dtype=bool)
        seen.ravel()[rows + offsets] = True
        direct = np.count_nonzero(base, axis=1) + np.count_nonzero(seen, axis=1) > n
        base[direct] = True
        seen[direct] = False
    # (i), or Light's condition where base is every x: row x*g against row
    # x read at g*_
    cells = np.flatnonzero(base)
    if not _rows_agree(mul, cols.ravel().take(cells), cells, rows):
        return False
    if commutative:
        return True
    # (ii): column w against column w read at the representatives
    cells = np.flatnonzero(seen)
    return _rows_agree(np.ascontiguousarray(mul.T), cells % n, cells, rep_of)


@per_structure
def check_mvw(rig: FiniteMvwRig) -> AxiomReport:
    """The product-axiom report of :func:`scan_mvw`, kept on the
    structure.  On a structure with a
    chain decomposition, a product equal to the meet or the join is an
    MV-algebra identity away from MVW-ii, MVW-iv and MVW-v (paragraph (4)
    of the module docstring), so only MVW-iii is scanned.  Any other
    product has associativity and the distributive laws first proved on a
    generating set (paragraph (3)); when that proof fails or the generating
    set is the whole carrier, MVW-iv and MVW-v are scanned only on the rows
    a whose maps a*_ and _*a the row theorem does not clear, and
    associativity on every row unless Light's test has proved it.  On a
    chain the row theorem reads level sets (paragraph (2')).  The cleared
    rows have no failures, so the counts and witnesses are the exhaustive
    scan's."""
    if rig.mul_table is None:
        raise GateNotMet("structure has no product; nothing to check")
    dec = chain_decomposition(rig)
    if dec is None:
        return scan_mvw(rig)
    mul = rig.mul_table
    # u ^ x = x and 0 v x = x: a product whose row u, or row 0, is not the
    # identity is not that lattice operation, and builds no lattice table
    idx = np.arange(rig.size)
    if ((mul[rig.u] == idx).all() and (mul == rig.meet_table).all()) or \
            ((mul[0] == idx).all() and (mul == rig.join_table).all()):
        return _mvw_report(rig, [], [])

    certified = _chain_certified_rows if len(dec.atoms) == 1 else _certified_rows

    def cleared(rows):
        # one table of maps, so one pass finds the orthogonal pairs once
        sides = [mul[rows]] if rig.commutative else [mul[rows], mul.T[rows]]
        return certified(rig, dec, np.concatenate(sides)).reshape(len(sides), -1).all(0)

    gens = _generators(mul)
    associative = len(gens) < rig.size and _light_test(mul, gens, rig.commutative)
    if associative and cleared(gens).all():
        return _mvw_report(rig, [], [])
    return _mvw_report(rig, np.flatnonzero(~cleared(slice(None))).tolist(),
                       [] if associative else range(rig.size))


def check_all(rig: FiniteMvwRig) -> AxiomReport:
    """MV axioms plus, when a product is present, the product axioms: the
    kept reports of :func:`check_mv` and :func:`check_mvw`, merged."""
    report = check_mv(rig)
    if rig.mul_table is not None:
        report = report.merged_with(check_mvw(rig))
    return report


def inherit_reports(rig: FiniteMvwRig, sources) -> FiniteMvwRig:
    """Keep passing axiom reports on ``rig``, the direct product of the
    structures ``sources`` or a subalgebra of its one source, when the
    sources' reports pass (module docstring): the MV report when theirs
    all pass, and the product-axiom report when ``rig`` has a product and
    theirs pass too.  The sources' reports are read, and built when they
    are not kept.  Returns ``rig``."""
    if all(check_mv(s).passed for s in sources):
        rig._memo[(check_mv.__wrapped__,)] = _passing(MV_AXIOMS)
        if rig.mul_table is not None and all(check_mvw(s).passed for s in sources):
            rig._memo[(check_mvw.__wrapped__,)] = _passing(MVW_AXIOMS)
    return rig


def restrict(rig: FiniteMvwRig, subset) -> tuple[FiniteMvwRig, tuple[int, ...]]:
    """The structure induced on a subset closed under all operations.

    Returns the restricted structure and the embedding (sub index ->
    parent index).  Element 0 must belong to the subset; ordering by
    parent index keeps it at index 0.  Each table is a gather of the
    parent's, renumbered; the first value to escape is reported.  The
    whole carrier is a shallow copy of the parent under the new name: it
    shares the parent's read-only tables, derived ones included, and keeps
    no object computed from them.
    """
    members = sorted(set(subset))
    if not members or members[0] != 0:
        raise ValueError("subset must contain the zero element")
    inside = np.array([p for p in members if p < rig.size], dtype=np.intp)
    if len(inside) == rig.size:
        for p in members[len(inside):]:
            rig._check(p)
        whole = copy.copy(rig)
        whole.name = f"{rig.name}|sub"
        return whole, tuple(members)
    back = np.full(rig.size, -1)
    back[inside] = np.arange(len(inside))

    def renumbered(part):
        if ((out := back[part]) < 0).any():
            raise ValueError(f"subset not closed: element {part[out < 0][0]} escapes")
        return out

    neg = renumbered(rig.neg_table.take(inside))
    for p in members[len(inside):]:
        rig._check(p)
    add = renumbered(_grid(rig.add_table, inside, inside))
    mul = None if rig.mul_table is None else renumbered(_grid(rig.mul_table, inside, inside))
    names = tuple(rig.carrier.names[p] for p in members)
    return derive(neg, add, mul, names=names, name=f"{rig.name}|sub"), tuple(members)
