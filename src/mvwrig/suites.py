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
The subset and partition oracles stay exhaustive and independent of the
routes they check, but each runs on one boolean table, a row per seed in
``itertools.combinations`` order or a row per partition, with a few
whole-table operations per clause, and the first failing row names the
seed a scan would name.  The library calls under test answer the same
table in one call (``ideals.generated_ideals``,
``frames.pfilters_generated``, ``frames.finite_subcovers``).

The laws over triples (``order-lattice``, ``residuation``,
``monus-superadditive``, whose outer index is the pair (x1, y1), and the
``product-*`` laws) run on one engine, ``_first_cell``, over the blocks of
``core._blocks``: each block of outer indices is answered by a few
``ndarray.take`` gathers on whole rows, one (block, n, n) failure table
per side of the law.  The engine stacks the sides as (block, side, n, n),
so one ``argmax`` names the first failure in the order the
element-by-element loop met it: outer index, then side, then (y, z).  The
three ``product-*`` laws are one map law, ``_map_law``: the row a*_ and
the column _*a of the product are read as maps, in the law's own order
(the column first for ``product-monotone``, the row first for the two
bounds), and each check gives only where one map fails.  The n^2-cell
tables that ``take`` reads as indices are cast to intp once per check,
not once per block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


# -- whole-table oracles ---------------------------------------------------------

def _seeds(n, smallest=0):
    """Every subset of range(n) with at least ``smallest`` elements, in
    ``itertools.combinations`` order (by size, then lexicographic): the
    tuples, and one boolean row each."""
    seeds = [s for k in range(smallest, n + 1) for s in itertools.combinations(range(n), k)]
    return seeds, core._member_rows(n, seeds)


@core.per_structure
def _seed_table(rig, smallest):
    """``_seeds`` of the carrier, kept on the structure for the checks that
    scan it: the seeds as a tuple and their rows read-only."""
    seeds, table = _seeds(rig.size, smallest)
    return tuple(seeds), core._read_only(table)


def _ranks(rows):
    """[i, a]: the position of a in row i's elements taken in ascending
    order, or -1 when row i does not hold a: the generator lists of
    ``frames.finite_subcovers``."""
    return np.where(rows, rows.cumsum(axis=1) - 1, -1)


def _hits(rows, rel):
    """[i, c]: some a in row i has rel[a, c].  The counts are at most n,
    exact in float32, so the product runs in BLAS."""
    return rows.astype(np.float32) @ rel.astype(np.float32) > 0


def _pair_images(rows, op):
    """[i, c]: c = op[a, b] for some a, b in row i.  One product per a keeps
    each temporary the size of the row table."""
    images = np.zeros(rows.shape, dtype=bool)
    for a, row in enumerate(op):
        images |= _hits(rows & rows[:, [a]], row[:, None] == np.arange(len(op)))
    return images


def _fixpoint(rows, *steps):
    """Grow every row by what each step (a row table -> the elements to
    add) gives, until no row changes."""
    while True:
        grown = rows | np.logical_or.reduce([step(rows) for step in steps])
        if (grown == rows).all():
            return rows
        rows = grown


def _escapes(seeds, answers, listed):
    """[i, j]: listed set j holds seed row i but not answer row i."""
    return ~_hits(seeds, ~listed.T) & _hits(answers, ~listed.T)


def _first_failure(clauses):
    """The detail of the first failing row, its clauses tried in order.
    Each clause is a boolean vector over the rows and a function giving the
    detail of a failing row."""
    failing = np.logical_or.reduce([bad for bad, _ in clauses])
    if failing.any():
        i = int(failing.argmax())
        return next(detail(i) for bad, detail in clauses if bad[i])


def _first_cell(count, n, sides, detail):
    """The first failure of a law over an outer index space range(count)
    and all (y, z) in range(n)^2, scanned in the blocks of ``core._blocks``.
    ``sides(block)`` gives, for the slice ``block`` of outer indices, one
    (rows, n, n) failure table per side of the law.  Stacked as
    (rows, side, n, n), the tables are met in (outer index, side, y, z)
    order, the order of the element-by-element loop, so the first failure
    is the first cell set.  Returns ``detail(outer index, side, y, z)``, or
    None."""
    for block in core._blocks(count, n * n):
        bad = np.stack(sides(block), axis=1)
        if bad.any():
            i, side, y, z = map(int, np.unravel_index(int(bad.argmax()), bad.shape))
            return detail(block.start + i, side, y, z)


def _not_leq(leq, lo, hi):
    """Where lo <= hi fails, cell by cell (the two broadcast together)."""
    return ~leq.ravel().take(lo * len(leq) + hi)


def _map_law(r, fails, text, column_first=False):
    """A law of the maps f = a*_ (the row of the product) and f = _*a (its
    column), for every a, taken in the law's own order: the row first
    unless ``column_first``.  ``fails(f)`` gives, for a (rows, n) stack of
    maps, the (rows, n, n) cells (y, z) where the law fails; the first
    failure is named ``text.format(a, y, z)``."""
    mul = r.mul_table

    def sides(block):
        maps = [mul[block], np.ascontiguousarray(mul[:, block].T)]
        return [fails(f) for f in (maps[::-1] if column_first else maps)]
    return _first_cell(r.size, r.size, sides, lambda a, _, y, z: text.format(a, y, z))


# -- core laws ---------------------------------------------------------------

def _failed_axioms(report):
    """Each failing axiom of a scan report with its first two witnesses."""
    if not report.passed:
        bad = ", ".join(f"{a} at {report.witnesses(a)[:2]}" for a in report.failed_axioms())
        return f"failing: {bad}"


def _check_mv_axioms(r):
    return _failed_axioms(core.scan_mv(r))


def _check_mvw_axioms(r):
    _need_product(r)
    return _failed_axioms(core.scan_mvw(r))


def _check_order_lattice(r):
    n = r.size
    leq = r.leq_table
    if not leq.diagonal().all():
        return "order is not reflexive"
    if (_hits(leq, leq) & ~leq).any():
        return "order is not transitive"
    if not (leq[0, :].all() and leq[:, r.u].all()):
        return "0 is not bottom or u is not top"
    join, meet = r.join_table.astype(np.intp), r.meet_table.astype(np.intp)
    geq = np.ascontiguousarray(leq.T)
    idx = np.arange(n)
    if not (leq[idx[:, None], join].all() and leq[idx[None, :], join].all()):
        return "join is not an upper bound"
    if not (leq[meet, idx[:, None]].all() and leq[meet, idx[None, :]].all()):
        return "meet is not a lower bound"

    def sides(block):
        # [z, x, y]: x, y <= z but not x v y <= z; z <= x, y but not z <= x ^ y
        up, dn = geq[block], leq[block]            # [z, x]: x <= z, z <= x
        return [(up[:, :, None] & up[:, None, :]) > up.take(join, axis=1),
                (dn[:, :, None] & dn[:, None, :]) > dn.take(meet, axis=1)]
    return _first_cell(n, n, sides, lambda z, side, x, y: (
        f"join is not the least upper bound (against {z})",
        f"meet is not the greatest lower bound (against {z})")[side])


def _check_residuation(r):
    add, monus, leq = r.add_table.astype(np.intp), r.monus_table, r.leq_table

    def sides(block):
        lhs = leq[block].take(add, axis=1)                        # [x, y, z]: x <= y + z
        rhs = leq.take(monus[block], axis=0).transpose(0, 2, 1)   # [x, y, z]: x - z <= y
        return [lhs != rhs]
    return _first_cell(r.size, r.size, sides, lambda x, _, y, z: f"fails at ({x}, {y}, {z})")


def _check_monus_superadditive(r):
    """Blocked over the pairs p = x1·n + y1, n^2 cells (x2, y2) each."""
    n = r.size
    add, monus = r.add_table, r.monus_table
    monus_index = monus.astype(np.intp)
    x1, y1 = np.divmod(np.arange(n * n), n)

    def sides(block):
        # [p, x2, y2]: (x1 + x2) - (y1 + y2) and (x1 - y1) + (x2 - y2)
        lhs = core._pair_cells(monus, add.take(x1[block], axis=0), add.take(y1[block], axis=0))
        rhs = add.take(monus.ravel()[block], axis=0).take(monus_index, axis=1)
        return [_not_leq(r.leq_table, lhs, rhs)]
    return _first_cell(n * n, n, sides,
                       lambda p, _, x2, y2: f"fails at x=({p // n},{x2}) y=({p % n},{y2})")


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
    leq = r.leq_table
    # [c, a, b]: a <= b but not f(a) <= f(b), f the column _*c, then the row c*_
    return _map_law(r, lambda f: leq & _not_leq(leq, f[:, :, None], f[:, None, :]),
                    "fails at a={1} b={2} c={0}", column_first=True)


def _product_bound(r, op, order):
    """a(b op c) against ab op ac, on the row a*_ and then the column _*a:
    the first (a, b, c) where ``order`` (the order or its transpose) fails
    between the two.  ``_not_leq`` reads ``order`` flat, so a transpose is
    passed contiguous."""
    op_index = op.astype(np.intp)
    return _map_law(r, lambda f: _not_leq(order, f.take(op_index, axis=1),
                                          core._pair_cells(op, f, f)), "fails at ({}, {}, {})")


def _check_product_join_bound(r):
    _need_product(r)
    return _product_bound(r, r.join_table, np.ascontiguousarray(r.leq_table.T))


def _check_product_meet_bound(r):
    _need_product(r)
    return _product_bound(r, r.meet_table, r.leq_table)


def _power_bound(r, op, order):
    """(a op b)^n against a^n op b^n for n <= 3: the first pair (a, b), in
    row-major order, where ``order`` (the order or its transpose) fails
    between the two."""
    for n, p in enumerate(itertools.islice(core._powers(r), 3), start=1):
        bad = ~order[p[op], op[p[:, None], p]]
        if bad.any():
            a, b = map(int, np.argwhere(bad)[0])
            return f"fails at n={n} ({a}, {b})"


def _check_power_join_bound(r):
    _need_product(r)
    return _power_bound(r, r.join_table, r.leq_table.T)


def _check_power_meet_bound(r):
    _need_product(r)
    return _power_bound(r, r.meet_table, r.leq_table)


def _check_unit_unique(r):
    _need_product(r)
    idx = np.arange(r.size)
    mul = r.mul_table
    # s is unitary when its row and its column are the identity
    units = np.flatnonzero((mul == idx).all(axis=1) & (mul.T == idx).all(axis=1)).tolist()
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


def _ideal_closure(rig, seeds):
    """The least ideal holding each seed row: the rows with 0 added, grown
    under sums, the order and the product with any element on either side,
    read off the raw tables.  The independent oracle for
    ``generated_ideal``."""
    rows = seeds | (np.arange(rig.size) == 0)
    steps = [lambda f: _pair_images(f, rig.add_table), lambda f: _hits(f, rig.leq_table.T)]
    if rig.mul_table is not None:
        # row a: the products a.y and y.a for every y
        absorb = core._member_rows(rig.size, [row + col for row, col in zip(
            rig.mul_table.tolist(), rig.mul_table.T.tolist())])
        steps.append(lambda f: _hits(f, absorb))
    return _fixpoint(rows, *steps)


def _check_generated_least(r):
    _need_within(r, "SUBSET_SIZE_LIMIT")
    listed = ideals.enumerate_ideals(r)
    seeds, table = _seed_table(r, 0)
    answers = ideals.generated_ideals(r, table)
    masks = core._member_rows(r.size, [i.members for i in listed])
    gens = masks.take(answers, axis=0)
    witness = [ideals.is_ideal(r, i.members)[1] for i in listed]
    escapes = _escapes(table, gens, masks)
    return _first_failure([
        (np.array([w is not None for w in witness], dtype=bool)[answers],
         lambda i: f"<{seeds[i]}> is not an ideal: {witness[answers[i]]}"),
        ((table & ~gens).any(axis=1), lambda i: f"<{seeds[i]}> lost its seed"),
        (escapes.any(axis=1), lambda i: f"<{seeds[i]}> is not least (exceeds "
                                        f"{sorted(listed[escapes[i].argmax()].members)})"),
        ((_ideal_closure(r, table) != gens).any(axis=1),
         lambda i: f"closure routes disagree on {seeds[i]}"),
    ])


def _check_congruence_roundtrip(r):
    for ideal in ideals.enumerate_ideals(r):
        cong = ideals.congruence_from_ideal(r, ideal)
        back = ideals.ideal_from_congruence(r, cong)
        if back.members != ideal.members:
            return f"{ideal.display()} does not round-trip"


def _partitions(n):
    """Every partition of range(n), in lexicographic order, as a restricted
    growth string: classes numbered by their least elements, a normalized
    class_of per row."""
    table = np.zeros((1, 1), dtype=np.int8)
    for _ in range(1, n):
        options = table.max(axis=1) + 2     # each class so far, or a new one
        first = np.repeat(np.cumsum(options) - options, options)
        table = np.column_stack([np.repeat(table, options, axis=0),
                                 np.arange(len(first)) - first]).astype(np.int8)
    return table


def _congruence_rows(rig, classes):
    """Which rows of a class table are congruences: x and the least element
    of its class land in one class under the negation and each column and
    row of each operation.  Rows failing the negation, then the first
    column of the sum, are dropped before the survivors meet every other
    map in one gather, so most candidates cost a few gathers."""
    reps = (classes[:, :, None] == classes[:, None, :]).argmax(axis=2).astype(np.int8)
    maps = np.array([rig.neg_table] + [f for op in (rig.add_table, rig.mul_table) if op is not None
                                       for y in range(rig.size) for f in (op[:, y], op[y])]).T
    keep = np.arange(len(classes))
    for group in (maps[:, :1], maps[:, 1:2], maps[:, 2:]):
        cls = classes[keep]
        # [row, x, map]: the class of map(rep(x)) against that of map(x)
        images = cls[np.arange(len(keep))[:, None, None], group[reps[keep]]]
        keep = keep[(images == cls[:, group]).all(axis=(1, 2))]
    return np.isin(np.arange(len(classes)), keep)


def _check_congruence_bijection(r):
    _need_within(r, "PARTITION_SIZE_LIMIT")
    classes = _partitions(r.size)
    congruences = [tuple(row) for row in classes[_congruence_rows(r, classes)].tolist()]
    count = len(ideals.enumerate_ideals(r))
    if len(congruences) != count:
        return f"{len(congruences)} congruences vs {count} ideals"
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
        ok, witness = ideals.check_homomorphism(fi.iso)
        if not ok:
            return f"{ideal.display()}: induced map fails a clause: {witness}"


def _check_hom_kernel_order(r):
    for ideal in ideals.enumerate_ideals(r):
        q = ideals.quotient(r, ideal)
        f = ideals.Homomorphism(r, q.rig, q.projection)
        ker = ideals._member_mask(r, ideals.kernel(f).members)
        proj = np.asarray(q.projection)
        bad = q.rig.leq_table[proj[:, None], proj] != ker[r.monus_table]
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


def _prime_meet(r, members, primes):
    """The meet of the primes holding ``members``: the whole carrier when
    none does."""
    return frozenset(r.elements()).intersection(*[p.members for p in primes
                                                   if members <= p.members])


def _check_nilradical_intersection(r):
    _need_commutative(r)
    n = ideals.nilradical(r).members
    inter = _prime_meet(r, frozenset(), ideals.prime_ideals(r))
    if n != inter:
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
        inter = _prime_meet(r, i.members, primes)
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
    listed = ideals.enumerate_ideals(r)
    rads = [ideals.radical(r, listed[j]).members
            for j in ideals.generated_ideals(r, np.eye(r.size, dtype=bool))]
    for a in r.elements():
        for b in r.elements():
            if (s.base[a] <= s.base[b]) != (rads[b] <= rads[a]):
                return f"radical/open order disagree at ({a}, {b})"


def _check_spec_compactness(r):
    _need_commutative(r)
    _need_unit(r)
    _need_within(r, "SUBSET_SIZE_LIMIT")
    s, fr = spectrum.spec(r), frames.frame(r)
    seeds, table = _seed_table(r, 0)
    basic = core._member_rows(len(s.points), [s.base[a] for a in r.elements()])
    covering = np.flatnonzero(_hits(table, basic).all(axis=1))
    cov = frames.finite_subcovers(r, _ranks(table[covering]))
    # a cover refused or not sound comes first, since it has no subfamily
    misses = ~_hits(cov.members, basic).all(axis=1) & ~fr.masks[fr.bottom].all()
    return _first_failure([
        (cov.refused | cov.unsound, lambda k: f"cover {seeds[covering[k]]}: {cov.fault(k)}"),
        (misses, lambda k: f"subcover of {seeds[covering[k]]} misses a point")])


# -- locale laws ----------------------------------------------------------------

def _dotted_sums(rig):
    """[x, d]: d is a dotted sum of x, by ``frames.dotsum_closure``."""
    return core._member_rows(rig.size, [frames.dotsum_closure(rig, x) for x in rig.elements()])


def _pfilter_rows(rig, rows, dotted):
    """Which rows are P-filters, by the definition: nonempty, upward
    closed, closed under the product, and holding x whenever they hold a
    dotted sum of x (``dotted`` as from ``_dotted_sums``)."""
    reached = (_hits(rows, rig.leq_table) | _pair_images(rows, rig.mul_table)
               | _hits(rows, dotted.T))
    return rows.any(axis=1) & ~(reached & ~rows).any(axis=1)


def _check_pfilters_complete(r):
    _need_product(r)
    _need_within(r, "BRUTE_PFILTER_LIMIT")
    _, table = _seed_table(r, 1)
    brute = table[_pfilter_rows(r, table, _dotted_sums(r))]
    if {row.tobytes() for row in brute} != {row.tobytes() for row in frames.frame(r).masks}:
        return "the enumeration misses or invents a P-filter"


def _check_pfilter_decomposition(r):
    """Row a of masks[prin] is F_a, so row f of the product masks @
    masks[prin] counts, for each x, the a in filter f with x in F_a; the
    union of those F_a is where the count is positive.  The counts are at
    most n, exact in float32, so the product runs in BLAS."""
    _need_product(r)
    fr = frames.frame(r)
    union = fr.masks.astype(np.float32) @ fr.masks[fr.principal] > 0
    bad = (union != fr.masks).any(axis=1)
    if bad.any():
        f = fr.pfilters[int(bad.argmax())]
        return f"{sorted(f)} is not the union of its principal parts"


def _principal_law(fr, table, op):
    """The first pair (a, b) where the frame table does not send
    (F_a, F_b) to F_(a op b)."""
    pair = frames.principal_law_failure(table, fr.principal, op)
    if pair is not None:
        return f"fails at {pair}"


def _check_principal_meet_law(r):
    """F_a ^ F_b = F_(a v b) on every pair, read off the meet table, whose
    cells ``frames.frame`` checked to be intersections.  Each F_a is a
    fixpoint of the P-filter closure, so a P-filter, and so is every
    intersection."""
    _need_commutative(r)
    fr = frames.frame(r)
    return _principal_law(fr, fr.meet_table, r.join_table)


def _check_principal_join_law(r):
    _need_commutative(r)
    fr = frames.frame(r)
    return _principal_law(fr, fr.join_table, r.mul_table)



def _pfilter_formula(rig, seeds, dotted):
    """The P-filter each seed row generates, by its dotted-sum description:
    x belongs iff a dotted sum of x lies above a product of seed elements.
    The oracle for ``pfilter_generated`` on commutative structures."""
    products = _fixpoint(seeds, lambda f: _pair_images(f, rig.mul_table))
    return _hits(_hits(products, rig.leq_table), dotted.T)


def _check_pfilter_generated_least(r):
    _need_product(r)
    _need_within(r, "SUBSET_SIZE_LIMIT")
    fr = frames.frame(r)
    seeds, table = _seed_table(r, 1)
    gens = fr.masks.take(frames.pfilters_generated(r, table), axis=0)
    clauses = [(_escapes(table, gens, fr.masks).any(axis=1),
                lambda i: f"<{seeds[i]}> is not least")]
    if r.commutative:
        clauses.append(((_pfilter_formula(r, table, _dotted_sums(r)) != gens).any(axis=1),
                        lambda i: f"dotted-sum description of <{seeds[i]}> differs "
                                  f"from the closure"))
    return _first_failure(clauses)


def _joins(fr, prin, rows):
    """The join of the F_a (index prin[a]) over each row's elements a, folded
    over the frame's join table from the bottom in ascending a."""
    return core._fold(fr.join_table, fr.bottom, np.where(rows, prin, -1))


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
    prin_idx = sorted(set(fr.principal.tolist()))
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
    prin = np.array([fr.index_of(table.pfilters[i]) for i in table.index])
    seeds, rows = _seed_table(r, 0)
    width = len(space.points)
    opens = core._member_rows(width, space.opens)
    unions = _hits(rows, core._member_rows(width, [space.base[a] for a in r.elements()]))
    # [i, o]: the union of row i is open o
    same = ~_hits(unions, ~opens.T) & ~_hits(~unions, opens.T)
    mapped = np.asarray(tm.open_to_filter)[same.argmax(axis=1)]
    return _first_failure([(~same.any(axis=1) | (mapped != _joins(fr, prin, rows)),
                            lambda i: f"open map depends on the presentation {seeds[i]}")])


def _check_frame_covers(r):
    _need_product(r)
    _need_within(r, "SUBSET_SIZE_LIMIT")
    fr = frames.frame(r)
    seeds, table = _seed_table(r, 1)
    cov = frames.finite_subcovers(r, _ranks(table))
    # the scan stops at the first subfamily that is not sound
    stop = int(np.append(cov.unsound, True).argmax())
    covers = _joins(fr, fr.principal, table[:stop]) == fr.top
    refused, subs = cov.refused[:stop], cov.members[:stop]
    detail = _first_failure([
        (refused & covers, lambda i: f"{seeds[i]} covers but was rejected"),
        (~refused & ~covers, lambda i: f"{seeds[i]} does not cover but a subcover was returned"),
        (subs.any(axis=1) & (_joins(fr, fr.principal, subs) != fr.top),
         lambda i: f"subcover of {seeds[i]} has a proper join"),
    ])
    if detail is None and stop < len(seeds):
        raise cov.fault(stop)
    return detail


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
        except (_Skip, SizeBound) as skip:
            status, detail = "SKIPPED", str(skip)
        except MvwError as exc:
            status, detail = "FAIL", str(exc)
        else:
            status, detail = ("PASS", "") if detail is None else ("FAIL", detail)
        results.append(CheckResult(suite, name, status, detail))
    return results


def run_all(rig):
    """Every suite in order.  The ideals, the spectrum and the frame are
    kept on the structure, so each is computed once however many checks
    read it."""
    return [result for suite in SUITE_NAMES for result in run_suite(rig, suite)]


def listing():
    """(suite, check, description) rows for the traceability table."""
    return [(suite, name, desc) for suite, checks in SUITES.items() for name, desc, _fn in checks]
