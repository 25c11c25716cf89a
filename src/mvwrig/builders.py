"""Constructors for the standard example families.

Every builder pushes its output through the axiom checker instead of
trusting the construction, and raises AxiomViolation with the first
failing report.  The reports are kept on the structure (``core.check_mv``,
``core.check_mvw``), and a direct product and a subalgebra inherit passing
ones from their sources (``core.inherit_reports``): the MV and MVW axioms
are equations (x <= y is x (-) y = 0), so they hold in a direct product of
factors where they hold, and in a closed subset.  So the check of a
product of lawful factors, or of a ``sub`` of a lawful parent, scans
nothing.  ``check=False`` leaves the result unchecked, for a caller that
checks it itself (``mvw check`` prints the kept reports, built once per
structure).
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

import numpy as np

from . import core
from .core import FiniteMvwRig, derive
from .errors import (
    AxiomViolation,
    ClosureViolation,
    InvalidUnit,
    SizeBound,
)

#: Carriers are capped so the axiom checks stay cheap: they are certified in
#: about n^2 steps per generator of the product, but a structure that fails
#: the certificates, or whose product needs every element as a generator, is
#: scanned in about n^3.
DEFAULT_SIZE_BOUND = 4096


def _env_size_bound() -> int | None:
    """MVW_SIZE_BOUND as a positive integer, or None when it is unset."""
    text = os.environ.get("MVW_SIZE_BOUND")
    if text is None:
        return None
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise SizeBound(f"MVW_SIZE_BOUND={text} is not a positive integer")
    return value


def size_bound() -> int:
    """The carrier-size cap; MVW_SIZE_BOUND overrides the default."""
    env = _env_size_bound()
    return DEFAULT_SIZE_BOUND if env is None else env


def _check_size(what: str, size: int) -> None:
    """Raise SizeBound before a carrier of ``size`` elements is built."""
    bound = size_bound()
    if size > bound:
        raise SizeBound(f"{what} would have {size} elements (bound {bound})")


def _checked(rig: FiniteMvwRig) -> FiniteMvwRig:
    """``rig`` when it passes the MV axioms and, with a product, the product
    axioms; else AxiomViolation with the first failing report.  Both are
    the kept reports, so a structure is checked once."""
    report = core.check_mv(rig)
    if report.passed and rig.mul_table is not None:
        report = core.check_mvw(rig)
    if not report.passed:
        raise AxiomViolation(report, context=rig.name)
    return rig


def build_zn(n: int, check: bool = True) -> FiniteMvwRig:
    """The rig {0, .., n} with x+y = min(n, x+y), neg x = n-x,
    xy = min(n, x*y).  Has unit 1, distinct from the top when n > 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_size(f"Z{n} carrier", n + 1)
    idx = np.arange(n + 1)
    neg = n - idx
    add = np.minimum(n, idx[:, None] + idx[None, :])
    mul = np.minimum(n, idx[:, None] * idx[None, :])
    rig = derive(neg, add, mul, name=f"Z{n}")
    return _checked(rig) if check else rig


def luk_values(n: int) -> list[Fraction]:
    """The n-point rational grid 0, 1/(n-1), .., 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_size(f"L{n} carrier", n)
    return [Fraction(i, n - 1) for i in range(n)]


def build_luk_mv(n: int, check: bool = True) -> FiniteMvwRig:
    """The n-valued chain on {0, 1/(n-1), .., 1} with truncated sum and
    neg x = 1-x.  Product-free: the rational grid is not closed under the
    real product (see attach_real_product)."""
    values = luk_values(n)
    names = tuple(str(v) for v in values)
    idx = np.arange(n)
    neg = (n - 1) - idx
    add = np.minimum(n - 1, idx[:, None] + idx[None, :])
    rig = derive(neg, add, None, names=names, name=f"L{n}")
    return _checked(rig) if check else rig


def attach_real_product(n: int) -> FiniteMvwRig:
    """Equip the n-valued chain with the actual rational product.

    Raises ClosureViolation with the first witness pair whose product
    leaves the grid; only n = 2 survives.  Arithmetic is exact.
    """
    values = luk_values(n)
    index = {v: i for i, v in enumerate(values)}
    mul = [[0] * n for _ in range(n)]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            p = x * y
            if p not in index:
                raise ClosureViolation("mul", (x, y), p)
            mul[i][j] = index[p]
    base = build_luk_mv(n)
    rig = derive(base.neg_table, base.add_table, mul,
                 names=base.carrier.names, name=f"L{n}*")
    return _checked(rig)


def lift_trivial_product(mv: FiniteMvwRig, check: bool = True) -> FiniteMvwRig:
    """Attach the constant-zero product; the product axioms then hold
    vacuously (every instance reduces to 0 <= 0)."""
    n = mv.size
    mul = np.zeros((n, n), dtype=np.int32)
    rig = derive(mv.neg_table, mv.add_table, mul,
                 names=mv.carrier.names, name=f"T({mv.name})")
    return _checked(rig) if check else rig


def build_matrix_rig(base: FiniteMvwRig, n: int, check: bool = True):
    """Square n x n matrices over a finite base rig.

    Sum and negation are componentwise; the product is the truncated
    matrix product whose (i, j) entry is the base-sum over k of
    a[i,k].b[k,j].  Associativity can fail for some bases, so the product
    axioms are checked, not assumed.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if base.mul_table is None:
        raise ValueError("base must have a product")
    _check_size("matrix carrier", base.size ** (n * n))

    # a matrix is the tuple of its n^2 entries, row by row, at its
    # mixed-radix index, the first entry the most significant digit
    b, cells = base.size, n * n
    size = b ** cells
    weights = np.array([b ** (cells - 1 - c) for c in range(cells)], dtype=np.int32)
    digits = np.arange(size, dtype=np.int32)[:, None] // weights % np.int32(b)
    neg, add, _ = _product_tables([(base.neg_table, base.add_table, None)] * cells)
    # entry (i, j) of a product is the base sum over k of a[i, k].b[k, j]:
    # for a block of left factors (``core._blocks``) against every right
    # factor, each term is a grid of the base product at two digit columns
    flat_add, bmul = base.add_table.ravel(), base.mul_table
    mul = np.empty((size, size), dtype=np.int32)
    for block in core._blocks(size, size):
        left = digits[block]
        out = np.zeros((len(left), size), dtype=np.int32)
        for i, j in itertools.product(range(n), repeat=2):
            acc = core._grid(bmul, left[:, i * n], digits[:, j])
            for k in range(1, n):
                term = core._grid(bmul, left[:, i * n + k], digits[:, k * n + j])
                acc = flat_add.take(acc * np.int32(b) + term)
            out += acc * weights[i * n + j]
        mul[block] = out

    def mat_name(e):
        rows = ("[" + ",".join(base.carrier.names[d] for d in e[i * n:(i + 1) * n]) + "]"
                for i in range(n))
        return "[" + ",".join(rows) + "]"

    names = tuple(mat_name(e) for e in digits.tolist())
    rig = derive(neg, add, mul, names=names, name=f"M{n}({base.name})")
    return _checked(rig) if check else rig


def _combine(ta, tb):
    """The componentwise table of two factors' binary tables, the pair (i, j)
    at index i * |B| + j."""
    sa, sb = len(ta), len(tb)
    return (ta[:, None, :, None] * sb + tb[None, :, None, :]).reshape(sa * sb, sa * sb)


def _product_tables(factors):
    """The negation, sum and product tables of the componentwise product of
    factors given as (neg, add, mul) tables, folded in pairwise: the tuple
    (x_1, .., x_r) at its mixed-radix index, x_1 the most significant.  The
    product is None unless every factor has one."""
    neg, add, mul = factors[0]
    for f_neg, f_add, f_mul in factors[1:]:
        neg = (neg[:, None] * len(f_neg) + f_neg[None, :]).reshape(-1)
        add = _combine(add, f_add)
        mul = None if mul is None or f_mul is None else _combine(mul, f_mul)
    return neg, add, mul


def direct_product(rigs, check: bool = True) -> FiniteMvwRig:
    """Componentwise product of finitely many structures.

    The result carries a product only when every factor does.  The factors
    are folded in pairwise on the raw tables and names, the pair of the
    product so far with the next factor, and only the result is derived.
    After the size cap, the factors' reports are read, once per distinct
    factor, and a product of passing factors inherits passing reports
    (module docstring), so ``check`` scans nothing.  When a factor fails,
    so does the product, and ``check`` checks the product for its own
    report, in its own elements.
    """
    rigs = list(rigs)
    if not rigs:
        raise ValueError("need at least one factor")
    _check_size("product carrier", math.prod(r.size for r in rigs))
    acc = rigs[0]
    if len(rigs) > 1:
        names, name = acc.carrier.names, acc.name
        for r in rigs[1:]:
            names = tuple(f"({x},{y})" for x in names for y in r.carrier.names)
            name = f"{name}x{r.name}"
        neg, add, mul = _product_tables([(r.neg_table, r.add_table, r.mul_table) for r in rigs])
        acc = core.inherit_reports(derive(neg, add, mul, names=names, name=name), rigs)
    return _checked(acc) if check else acc


def gamma_zk(k: int, u, check: bool = True) -> FiniteMvwRig:
    """The interval [0, u] of Z^k under the componentwise order, with the
    truncated sum (x+y) meet u and the componentwise integer product.

    The requirement u.u <= u forces every coordinate of u into {0, 1}, so
    the interval is the direct product of one factor per coordinate: Z1 for
    a coordinate 1, the one-element structure for a 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    u = tuple(int(c) for c in u)
    if len(u) != k:
        raise ValueError(f"unit vector must have length {k}")
    if any(c not in (0, 1) for c in u):
        raise InvalidUnit(f"unit vector entries must be 0 or 1, got {u}")
    _check_size("interval carrier", 2 ** sum(u))

    def factor(c):
        idx = np.arange(c + 1, dtype=np.int32)
        return c - idx, np.minimum(c, idx[:, None] + idx), idx[:, None] * idx

    def vec_name(e):
        return str(e[0]) if k == 1 else "(" + ",".join(str(c) for c in e) + ")"

    # the names follow the factors' order, as the indices of the tables do
    factors = [factor(c) for c in u]
    neg, add, mul = _product_tables(factors)
    names = tuple(vec_name(e) for e in itertools.product(*(range(len(f[0])) for f in factors)))
    uname = "".join(str(c) for c in u)
    rig = derive(neg, add, mul, names=names, name=f"G{k}_{uname}")
    return _checked(rig) if check else rig


def build_trivial() -> FiniteMvwRig:
    """The one-element structure: every table is constant 0 and u = 0."""
    return gamma_zk(1, (0,)).set_name("0")


def subalgebra_closure(rig: FiniteMvwRig, seed):
    """Least subset containing the seed and 0, closed under all operations,
    returned as a structure named ``<parent>|sub`` with its inclusion into
    the parent.  The closure is one frontier walk (``core._close``) under
    the negation, the sum and, when present, the product.  The parent's
    reports are read, and the subalgebra of a passing parent inherits
    passing ones (module docstring)."""
    fresh = [0] + [rig._check(a) for a in seed]
    ops = (rig.add_table,) if rig.mul_table is None else (rig.add_table, rig.mul_table)
    members = core._close(np.zeros(rig.size, dtype=bool), fresh, (rig.neg_table,), ops)
    sub, embedding = core.restrict(rig, np.flatnonzero(members).tolist())
    return core.inherit_reports(sub, [rig]), embedding
