"""The algebra-definition text format and the canonical JSON documents.

Grammar (EBNF):

    file        := algebra+
    algebra     := "algebra" IDENT "{" decl+ "}"
    decl        := "elements" ":" carrier | "zero" ":" atom
                 | opdef | "builder" ":" builderexpr
    carrier     := INT ".." INT | "[" atom ("," atom)* "]"
    atom        := IDENT | RATIONAL | INT
    opdef       := ("neg"|"add"|"mul")
                   ( "(" IDENT ("," IDENT)? ")" "=" expr | ":" tablelit )
    expr        := sum of products of atoms, variables, "min(..)", "max(..)",
                   parenthesized subexpressions; operators "+", "-", "*"
    tablelit    := "[" (atom | "[" atom ("," atom)* "]") ("," ...)* "]"
    builderexpr := IDENT "(" arg ("," arg)* ")"
    arg         := INT | IDENT | "[" INT ("," INT)* "]" | builderexpr

Formulas are evaluated exactly, over the whole carrier at once: each
element v enters as the integer v·D (D the lcm of the carrier's
denominators), every node yields integer numerators over one denominator,
and the arithmetic runs in int64 while a magnitude bound computed from the
formula, and the denominator the carrier test divides by, stay below 2^62,
on Python-int object arrays beyond.  The first cell, in row-major order,
whose value leaves the carrier raises a closure violation with the witness
inputs.  Serialization is canonical (fixed key
order, sorted arrays) so two runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import builders, core, frames, ideals, spectrum
from .core import FiniteMvwRig
from .errors import (
    ClosureViolation,
    DslSyntaxError,
    InvalidUnit,
    SchemaError,
    SizeBound,
)


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str
    line: int
    column: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


def _err(line, column, message):
    raise DslSyntaxError(ParseDiagnostic("error", line, column, message))


def _rational(tok) -> Fraction:
    num, den = tok.value.split("/")
    if int(den) == 0:
        _err(tok.line, tok.column, "zero denominator")
    return Fraction(int(num), int(den))


# -- tokens -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+)
  | (?P<RATIONAL>\d+/\d+)
  | (?P<RANGE>\.\.)
  | (?P<INT>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[{}()\[\],:=+\-*])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            _err(line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        value = m.group()
        if kind != "WS":
            tokens.append(Token("PUNCT" if kind == "PUNCT" else kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- syntax trees --------------------------------------------------------------

@dataclass(frozen=True)
class NumberAtom:
    value: Fraction

    def text(self):
        return str(self.value)


@dataclass(frozen=True)
class NameAtom:
    name: str

    def text(self):
        return self.name


@dataclass(frozen=True)
class RangeCarrier:
    lo: int
    hi: int


@dataclass(frozen=True)
class ListCarrier:
    atoms: tuple


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    """One operator of a formula.  Chains nest through left operands, so
    equality, hashing and the repr walk that spine in a loop."""
    op: str
    left: object
    right: object

    def _flat(self):
        spine, leaf = _spine(self)
        return leaf, *((n.op, n.right) for n in spine)

    def __eq__(self, other):
        return self._flat() == other._flat() if other.__class__ is BinOp else NotImplemented

    def __hash__(self):
        return hash(self._flat())

    def __repr__(self):
        spine, leaf = _spine(self)
        return ("".join(f"BinOp(op={n.op!r}, left=" for n in spine) + repr(leaf)
                + "".join(f", right={n.right!r})" for n in reversed(spine)))


def _spine(node):
    """The operators down the left operands of a formula, outermost first,
    and the operand at the foot of that chain."""
    spine = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.left
    return spine, node


@dataclass(frozen=True)
class MinMax:
    fn: str
    args: tuple


@dataclass(frozen=True)
class FormulaOp:
    params: tuple
    body: object


@dataclass(frozen=True)
class TableOp:
    entries: tuple
    nested: bool


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class VectorArg:
    values: tuple


@dataclass(frozen=True)
class BuilderExpr:
    fn: str
    args: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class AlgebraSource:
    name: str
    carrier: object = None
    zero: object = None
    ops: tuple = ()              # ((opname, FormulaOp|TableOp), ...)
    builder: object = None
    span: tuple = field(default=(0, 0), compare=False)

    def op(self, name):
        for key, value in self.ops:
            if key == name:
                return value
        return None


# -- parser ---------------------------------------------------------------------

_OP_NAMES = ("neg", "add", "mul")
_DECL_KEYS = ("elements", "zero", "builder") + _OP_NAMES

#: Deepest nesting the parser accepts: parentheses and min/max calls in a
#: formula, builder calls in a builder expression.  Parsing, evaluation and
#: building recurse a few frames per level, so the cap keeps them well
#: inside Python's recursion limit and makes deeper input a located error.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.params = ()         # variables bound by the formula being parsed
        self.depth = 0           # open parentheses and calls around the position

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        shown = tok.value if tok.kind != "EOF" else "end of input"
        _err(tok.line, tok.column,
             f"expected {' or '.join(expected)}, found {shown!r}")

    def expect(self, value=None, kind=None, expected=None):
        tok = self.peek()
        if value is not None and tok.value != value:
            self.fail(expected or [repr(value)])
        if kind is not None and tok.kind != kind:
            self.fail(expected or [kind])
        return self.advance()

    def at(self, value):
        return self.peek().value == value

    def items(self, parse_item, close):
        """item ("," item)* close, the opening token already read."""
        items = [parse_item()]
        while self.at(","):
            self.advance()
            items.append(parse_item())
        self.expect(value=close, expected=[repr(close)])
        return items

    def enter(self, tok):
        """Open one more level at ``tok``; the caller leaves it when it
        closes the level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            _err(tok.line, tok.column, f"nesting deeper than {MAX_NESTING} levels")

    # file := algebra+
    def parse_file(self):
        sources = [self.parse_algebra()]
        while self.peek().kind != "EOF":
            sources.append(self.parse_algebra())
        return sources

    def parse_algebra(self):
        head = self.expect(value="algebra", expected=["'algebra'"])
        name = self.expect(kind="IDENT", expected=["an algebra name"]).value
        self.expect(value="{", expected=["'{'"])
        carrier = zero = builder = None
        ops = []
        seen = set()
        while not self.at("}"):
            tok = self.peek()
            if tok.kind != "IDENT" or tok.value not in _DECL_KEYS:
                self.fail(["'elements'", "'zero'", "'neg'", "'add'", "'mul'",
                           "'builder'", "'}'"])
            if tok.value in seen:
                _err(tok.line, tok.column, f"duplicate {tok.value!r} declaration")
            seen.add(tok.value)
            self.advance()
            if tok.value == "elements":
                self.expect(value=":", expected=["':'"])
                carrier = self.parse_carrier()
            elif tok.value == "zero":
                self.expect(value=":", expected=["':'"])
                zero = self.parse_atom()
            elif tok.value == "builder":
                self.expect(value=":", expected=["':'"])
                builder = self.parse_builderexpr()
            else:
                ops.append((tok.value, self.parse_opdef(tok.value)))
        self.expect(value="}", expected=["'}'"])
        return AlgebraSource(name=name, carrier=carrier, zero=zero,
                             ops=tuple(ops), builder=builder,
                             span=(head.line, head.column))

    def parse_carrier(self):
        tok = self.peek()
        if tok.kind == "INT":
            lo = int(self.advance().value)
            self.expect(value="..", expected=["'..'"])
            hi = self.parse_int()
            if hi < lo:
                _err(tok.line, tok.column, f"empty range {lo}..{hi}")
            carrier = RangeCarrier(lo, hi)
            size = hi - lo + 1
        elif tok.value == "[":
            self.advance()
            atoms = self.items(self.parse_atom, "]")
            carrier = ListCarrier(tuple(atoms))
            size = len(atoms)
        else:
            self.fail(["an integer range", "'['"])
        # the cap applies before elaboration builds a value list or a table
        builders._check_size(f"{tok.line}:{tok.column}: carrier", size)
        return carrier

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            return NumberAtom(Fraction(int(self.advance().value)))
        if tok.kind == "RATIONAL":
            return NumberAtom(_rational(self.advance()))
        if tok.kind == "IDENT":
            return NameAtom(self.advance().value)
        self.fail(["a name", "a number"])

    def parse_opdef(self, opname):
        tok = self.peek()
        if tok.value == "(":
            self.advance()
            params = [self.expect(kind="IDENT", expected=["a variable"]).value]
            if self.at(","):
                self.advance()
                params.append(self.expect(kind="IDENT", expected=["a variable"]).value)
            self.expect(value=")", expected=["')'"])
            self.expect(value="=", expected=["'='"])
            self.params = tuple(params)
            body = self.parse_expr()
            want = 1 if opname == "neg" else 2
            if len(params) != want:
                _err(tok.line, tok.column,
                     f"{opname} takes {want} argument{'s' if want > 1 else ''}")
            return FormulaOp(tuple(params), body)
        if tok.value == ":":
            self.advance()
            return self.parse_tablelit()
        self.fail(["'('", "':'"])

    def parse_tablelit(self):
        self.expect(value="[", expected=["'['"])
        if self.at("["):
            return TableOp(tuple(self.items(self.parse_table_row, "]")), nested=True)
        return TableOp(tuple(self.items(self.parse_atom, "]")), nested=False)

    def parse_table_row(self):
        self.expect(value="[", expected=["'['"])
        return tuple(self.items(self.parse_atom, "]"))

    # expr := term (("+"|"-") term)*    term := factor ("*" factor)*
    def parse_expr(self):
        node = self.parse_term()
        while self.peek().value in ("+", "-"):
            op = self.advance().value
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at("*"):
            self.advance()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.value == "(":
            self.enter(tok)
            self.advance()
            node = self.parse_expr()
            self.expect(value=")", expected=["')'"])
            self.depth -= 1
            return node
        if tok.kind == "IDENT" and tok.value in ("min", "max"):
            self.enter(tok)
            fn = self.advance().value
            self.expect(value="(", expected=["'('"])
            args = self.items(self.parse_expr, ")")
            self.depth -= 1
            if len(args) < 2:
                _err(tok.line, tok.column, f"{fn} needs at least two arguments")
            return MinMax(fn, tuple(args))
        if tok.kind == "IDENT":
            if tok.value not in self.params:
                _err(tok.line, tok.column, f"unbound variable {tok.value!r}")
            return Var(self.advance().value)
        if tok.kind == "INT":
            return Lit(Fraction(int(self.advance().value)))
        if tok.kind == "RATIONAL":
            return Lit(_rational(self.advance()))
        self.fail(["a number", "a variable", "'('", "'min'", "'max'"])

    def parse_builderexpr(self):
        head = self.expect(kind="IDENT", expected=["a builder name"])
        self.enter(head)
        self.expect(value="(", expected=["'('"])
        args = self.items(self.parse_builderarg, ")")
        self.depth -= 1
        return BuilderExpr(head.value, tuple(args), span=(head.line, head.column))

    def parse_int(self):
        return int(self.expect(kind="INT", expected=["an integer"]).value)

    def parse_builderarg(self):
        tok = self.peek()
        if tok.kind == "INT":
            return int(self.advance().value)
        if tok.value == "[":
            self.advance()
            return VectorArg(tuple(self.items(self.parse_int, "]")))
        if tok.kind == "IDENT":
            name = self.advance().value
            if self.at("("):
                self.pos -= 1
                return self.parse_builderexpr()
            return NameRef(name)
        self.fail(["an integer", "a vector", "an algebra name", "a builder call"])


def parse(text: str) -> list[AlgebraSource]:
    """Parse a source file into algebra definitions; syntax errors carry a
    line/column span and an expected-token message, and no partial
    structures are produced."""
    return _Parser(text).parse_file()


# -- pretty printer ---------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2}


def _expr_text(node, parent_prec=0, right=False):
    """Formula text with the parentheses its tree needs.  A chain of
    operators nests through its left operands, so that spine is walked in a
    loop; right operands and min/max arguments nest only through
    parentheses and calls, which ``MAX_NESTING`` caps."""
    spine, node = _spine(node)
    if isinstance(node, Lit):
        text = str(node.value)
    elif isinstance(node, Var):
        text = node.name
    else:
        text = f"{node.fn}(" + ", ".join(_expr_text(a) for a in node.args) + ")"
    prec = None
    for op in reversed(spine):
        outer = _PREC[op.op]
        if prec is not None and prec < outer:
            text = f"({text})"
        text = f"{text} {op.op} {_expr_text(op.right, outer, right=True)}"
        prec = outer
    if prec is not None and (prec < parent_prec or (right and prec == parent_prec)):
        return f"({text})"
    return text


def _builder_text(node):
    parts = []
    for a in node.args:
        if isinstance(a, BuilderExpr):
            parts.append(_builder_text(a))
        elif isinstance(a, VectorArg):
            parts.append("[" + ", ".join(str(v) for v in a.values) + "]")
        elif isinstance(a, NameRef):
            parts.append(a.name)
        else:
            parts.append(str(a))
    return f"{node.fn}(" + ", ".join(parts) + ")"


def pretty(source: AlgebraSource) -> str:
    """Canonical text for a definition; parsing it reproduces the same tree."""
    lines = [f"algebra {source.name} {{"]
    if source.carrier is not None:
        if isinstance(source.carrier, RangeCarrier):
            lines.append(f"  elements: {source.carrier.lo}..{source.carrier.hi}")
        else:
            atoms = ", ".join(a.text() for a in source.carrier.atoms)
            lines.append(f"  elements: [{atoms}]")
    if source.zero is not None:
        lines.append(f"  zero: {source.zero.text()}")
    for opname, op in source.ops:
        if isinstance(op, FormulaOp):
            params = ", ".join(op.params)
            lines.append(f"  {opname}({params}) = {_expr_text(op.body)}")
        elif op.nested:
            rows = ", ".join("[" + ", ".join(a.text() for a in row) + "]"
                             for row in op.entries)
            lines.append(f"  {opname}: [{rows}]")
        else:
            lines.append(f"  {opname}: [" + ", ".join(a.text() for a in op.entries) + "]")
    if source.builder is not None:
        lines.append(f"  builder: {_builder_text(source.builder)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- elaboration --------------------------------------------------------------------

#: A formula node whose magnitude bound reaches this is evaluated on
#: Python-int object arrays instead of int64, so no value can wrap.
_INT64_LIMIT = 1 << 62


def _exact(nums, bound):
    """``nums`` as an int64 array while ``bound`` (>= every magnitude in it)
    stays below the limit, else as an array of Python ints."""
    if bound < _INT64_LIMIT:
        return np.asarray(nums, dtype=np.int64)
    if isinstance(nums, list):
        # asarray would infer float64, and round, for a list of Python ints
        # whose largest lies in [2^63, 2^64)
        return np.array(nums, dtype=object)
    # astype, unlike asarray, turns a NumPy integer scalar into a Python int
    return np.asarray(nums).astype(object)


def _grid_value(node, env):
    """The exact value of a formula at every point of a grid.

    Returns ``(nums, den, bound)``: the value is ``nums / den`` cell by
    cell, with ``den`` a positive int and ``|nums| <= bound``.  ``env``
    maps each variable to such a triple; bounds stay at least 1, so a
    scale factor never exceeds the bound it multiplies into.  The left
    spine of an operator chain is walked in a loop, as in ``_expr_text``.
    """
    spine, node = _spine(node)
    if isinstance(node, Lit):
        # one-element arrays, not 0-d ones: arithmetic on 0-d object arrays
        # returns bare Python ints, which NumPy would then narrow
        bound = max(abs(node.value.numerator), 1)
        value = _exact([node.value.numerator], bound), node.value.denominator, bound
    elif isinstance(node, Var):
        value = env[node.name]
    else:
        value = _combine(node.fn, [_grid_value(a, env) for a in node.args])
    for op in reversed(spine):
        value = _combine(op.op, [value, _grid_value(op.right, env)])
    return value


def _combine(op, parts):
    """``+``, ``-``, ``*``, ``min`` or ``max`` of exact grid values."""
    if op == "*":
        (a, da, ba), (b, db, bb) = parts
        bound = ba * bb
        return _exact(a, bound) * _exact(b, bound), da * db, bound
    # + and - add the bounds; min and max keep the larger one
    den = math.lcm(*(d for _, d, _ in parts))
    scaled_bounds = [b * (den // d) for _, d, b in parts]
    bound = sum(scaled_bounds) if op in ("+", "-") else max(scaled_bounds)
    a, b, *rest = (_exact(nums, bound) if d == den else _exact(nums, bound) * (den // d)
                   for nums, d, _ in parts)
    if op in ("+", "-"):
        return (a + b if op == "+" else a - b), den, bound
    fold = np.minimum if op == "min" else np.maximum
    out = fold(a, b)
    for c in rest:
        out = fold(out, c)
    return out, den, bound


def _carrier_index(nums, den, bound, scaled, scale):
    """``(pos, hit)``: ``hit`` marks the values ``nums / den`` that are
    carrier elements, and ``pos`` holds their indices in the sorted scaled
    carrier there.

    ``nums/den`` is an element ``s/scale`` iff ``den' | nums`` and
    ``(nums/den')·scale' = s``, where ``g = gcd(den, scale)``,
    ``den' = den/g`` and ``scale' = scale/g``.  Where the scaled carrier is
    consecutive integers, as for every range ``lo..hi`` and evenly spaced
    list such as ``[0, 1/2, 1]``, the index of s is s minus the least
    element; an uneven list, or values past int64, are searched.
    """
    g = math.gcd(den, scale)
    step, grow = den // g, scale // g
    # a product node multiplies denominators without raising the bound, so
    # the divisor itself may be past int64
    nums = _exact(nums, max(bound, step))
    cand = _exact(nums // step if step > 1 else nums, bound * grow)
    if grow > 1:
        cand = cand * grow
    n = len(scaled)
    objects = cand.dtype == object or scaled.dtype == object
    if not objects and scaled[-1] - scaled[0] == n - 1:
        pos = cand - scaled[0]
        hit = (pos >= 0) & (pos < n)
    else:
        if objects:
            scaled, cand = scaled.astype(object), cand.astype(object)
        pos = np.searchsorted(scaled, cand)
        np.minimum(pos, n - 1, out=pos)
        hit = scaled[pos] == cand
    if step > 1:
        hit &= nums % step == 0
    return pos, hit


def _formula_table(opname, formula, values):
    """The table of a formula over a sorted numeric carrier, as int32
    carrier indices (one row per value of the first parameter).

    Each carrier value ``v`` enters as the integer ``v·D``, where D is the
    lcm of the carrier's denominators, and the formula is evaluated over the
    grid with exact integer arithmetic, a binary table in ``core._blocks``
    of whole rows, which keeps the temporaries small.  Raises
    ClosureViolation at the first cell, in row-major order, whose value is
    not in the carrier.
    """
    n = len(values)
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    bound = max(max(abs(v) for v in ints), 1)
    scaled = _exact(ints, bound)
    unary = len(formula.params) == 1
    out = np.empty((n,) if unary else (n, n), dtype=np.int32)
    for block in [slice(0, n)] if unary else core._blocks(n, n):
        if unary:
            env = {formula.params[0]: (scaled, scale, bound)}
        else:
            # a repeated parameter name binds the column, as a dict would
            env = {formula.params[0]: (scaled[block, None], scale, bound),
                   formula.params[1]: (scaled[None, :], scale, bound)}
        nums, den, top = _grid_value(formula.body, env)
        nums = np.broadcast_to(_exact(nums, top), out[block].shape)
        pos, hit = _carrier_index(nums, den, top, scaled, scale)
        misses = np.flatnonzero(~hit)
        if misses.size:
            cell = int(misses[0])
            inputs = (values[block.start + cell],) if unary else \
                (values[block.start + cell // n], values[cell % n])
            raise ClosureViolation(opname, inputs, Fraction(int(nums.flat[cell]), den))
        out[block] = pos
    return out


#: each builder but ``product`` (any number of algebras): the kinds of its
#: arguments, their text in the arity error, and its call, which looks the
#: builder up in ``builders`` when it runs
_BUILDERS = {
    "zn": ([int], "n", lambda n, check: builders.build_zn(n, check=check)),
    "luk": ([int], "n", lambda n, check: builders.build_luk_mv(n, check=check)),
    "trivial": ([FiniteMvwRig], "algebra",
                lambda rig, check: builders.lift_trivial_product(rig, check=check)),
    "matrix": ([FiniteMvwRig, int], "algebra, n",
               lambda rig, n, check: builders.build_matrix_rig(rig, n, check=check)),
    "gamma": ([int, tuple], "k, unit vector",
              lambda k, u, check: builders.gamma_zk(k, u, check=check)),
    "sub": ([FiniteMvwRig, tuple], "algebra, elements",
            lambda rig, elements, check: builders.subalgebra_closure(rig, set(elements))[0]),
}


def _run_builder(node, registry, span, check, built):
    """The structure a builder call makes, checked when ``check`` is on.
    A ``product`` or a ``sub`` needs no check of its own: it inherits
    passing reports from its sources (``core.inherit_reports``), the nested
    calls, checked here, and the named algebras, which the file checked
    when ``check`` is on.

    An argument made by a nested call is built unchecked and checked
    before this call builds on it: ``built`` maps each nested call to its
    structure (``BuilderExpr`` equality ignores the span), so equal calls
    are built once, and a structure keeps its reports, so a second check
    of it reads them.  A product's factors are checked only after its size
    cap has passed.
    """
    nested = []

    def resolve(arg):
        if isinstance(arg, BuilderExpr):
            if arg not in built:
                built[arg] = _run_builder(arg, registry, span, False, built)
            nested.append(built[arg])
            return built[arg]
        if isinstance(arg, NameRef):
            if arg.name not in registry:
                _err(span[0], span[1], f"unknown algebra {arg.name!r}")
            return registry[arg.name]
        if isinstance(arg, VectorArg):
            return arg.values
        return arg

    args = [resolve(a) for a in node.args]

    def check_nested():
        for arg in nested:
            builders._checked(arg)

    # the builder's own argument checks and size caps point at its call
    line, col = node.span
    try:
        if node.fn == "product":
            if len(args) < 2 or not all(isinstance(a, FiniteMvwRig) for a in args):
                _err(span[0], span[1], "builder product takes at least two algebras")
            rig = builders.direct_product(args, check=False)
            check_nested()
            return rig
        check_nested()
        if node.fn in _BUILDERS:
            kinds, arity, build = _BUILDERS[node.fn]
            if len(args) != len(kinds) or not all(isinstance(a, k) for a, k in zip(args, kinds)):
                _err(span[0], span[1], f"builder {node.fn} takes ({arity})")
            return build(*args, check=check)
    except (ValueError, IndexError, InvalidUnit) as exc:
        _err(line, col, str(exc))
    except SizeBound as exc:
        raise SizeBound(f"{line}:{col}: {exc}") from None
    _err(span[0], span[1], f"unknown builder {node.fn!r}")


def elaborate(source: AlgebraSource, registry=None, check=True) -> FiniteMvwRig:
    """Turn a definition into a checked structure.

    Formula evaluation is exact; escapes from the carrier raise
    ClosureViolation with the witness inputs.  Unless ``check`` is off,
    the result must pass the MV axioms (and the product axioms when a
    product is defined).
    """
    registry = registry if registry is not None else {}
    line, col = source.span
    if source.builder is not None:
        if source.carrier or source.zero or source.ops:
            _err(line, col, "a builder algebra takes no other declarations")
        return _run_builder(source.builder, registry, source.span, check, {}).set_name(source.name)

    if source.carrier is None:
        _err(line, col, "missing 'elements' declaration")
    if source.zero is None:
        _err(line, col, "missing 'zero' declaration")

    if isinstance(source.carrier, RangeCarrier):
        # Python ints, which compare and hash equal to the Fractions of
        # numeric atoms
        declared = list(range(source.carrier.lo, source.carrier.hi + 1))
        named = False
    else:
        atoms = source.carrier.atoms
        named = any(isinstance(a, NameAtom) for a in atoms)
        if named and not all(isinstance(a, NameAtom) for a in atoms):
            _err(line, col, "carrier mixes names and numbers")
        declared = [a.name if named else a.value for a in atoms]
        if len(set(declared)) != len(declared):
            _err(line, col, "carrier has duplicate elements")

    # element 0 is pinned to the zero: numeric carriers sort ascending with
    # the zero verified least, named ones move the zero to the front;
    # explicit tables are still read in the declared order
    if named:
        if not isinstance(source.zero, NameAtom) or source.zero.name not in declared:
            _err(line, col, "zero must be a carrier element")
        values = [source.zero.name] + [v for v in declared if v != source.zero.name]
    else:
        values = sorted(declared)
        if not isinstance(source.zero, NumberAtom) or source.zero.value not in values:
            _err(line, col, "zero must be a carrier element")
        if source.zero.value != values[0]:
            _err(line, col, "zero must be the least element of the carrier")

    index = {v: i for i, v in enumerate(values)}
    names = tuple(v if named else str(v) for v in values)
    size = len(values)

    def resolve_atom(atom, op, where):
        key = atom.name if isinstance(atom, NameAtom) else atom.value
        if key not in index:
            raise ClosureViolation(op, where, atom.text())
        return index[key]

    def table_for(opname, op, unary):
        if op is None:
            _err(line, col, f"missing {opname!r} definition")
        if isinstance(op, FormulaOp):
            if named:
                _err(line, col, "formulas need a numeric carrier")
            return _formula_table(opname, op, values)
        if unary:
            if op.nested or len(op.entries) != size:
                _err(line, col, f"{opname} table needs {size} entries")
            out = [0] * size
            for i, a in enumerate(op.entries):
                out[index[declared[i]]] = resolve_atom(a, opname, (declared[i],))
            return out
        if not op.nested or len(op.entries) != size or \
                any(len(row) != size for row in op.entries):
            _err(line, col, f"{opname} table needs {size}x{size} entries")
        out = [[0] * size for _ in range(size)]
        for i, row in enumerate(op.entries):
            for j, a in enumerate(row):
                out[index[declared[i]]][index[declared[j]]] = \
                    resolve_atom(a, opname, (declared[i], declared[j]))
        return out

    # the tables are not held here, so derive's copies are the only ones
    # left while the axioms are checked
    mul_def = source.op("mul")
    rig = core.derive(table_for("neg", source.op("neg"), unary=True),
                      table_for("add", source.op("add"), unary=False),
                      table_for("mul", mul_def, unary=False) if mul_def is not None else None,
                      names=names, name=source.name)
    return builders._checked(rig) if check else rig


def elaborate_file(text: str, check=True):
    """Parse and elaborate every algebra in a source file, in order; later
    definitions may refer to earlier ones by name in builder calls."""
    registry = {}
    out = []
    for source in parse(text):
        rig = elaborate(source, registry=registry, check=check)
        registry[source.name] = rig
        out.append(rig)
    return out


# -- canonical JSON -------------------------------------------------------------------

def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def rig_document(rig: FiniteMvwRig) -> dict:
    return {
        "name": rig.name,
        "elements": list(rig.carrier.names),
        "zero": 0,
        "neg": rig.neg_table.tolist(),
        "add": rig.add_table.tolist(),
        "mul": None if rig.mul_table is None else rig.mul_table.tolist(),
        "flags": {
            "mv_only": rig.mv_only,
            "commutative": rig.commutative,
            "unit": rig.unit,
            "product_below_meet": rig.product_below_meet,
            "u": rig.u,
        },
    }


def serialize(obj) -> str:
    """Canonical JSON for structures, ideals, spectra, P-filters and frames;
    deterministic byte-for-byte."""
    if isinstance(obj, FiniteMvwRig):
        return _dump(rig_document(obj))
    if isinstance(obj, ideals.QuotientRig):
        return _dump(rig_document(obj.rig))
    if isinstance(obj, (ideals.Ideal, frames.PFilter)):
        return _dump(sorted(obj.members))
    if isinstance(obj, spectrum.SpecSpace):
        return _dump(spectrum.export_json_doc(obj))
    if isinstance(obj, frames.FrameLA):
        return _dump(frames.export_json_doc(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _expect_key(doc, key, path):
    if key not in doc:
        raise SchemaError(path, f"missing key {key!r}")
    return doc[key]


def _is_index(v, size) -> bool:
    """A JSON carrier index: an int, not a boolean, inside the carrier."""
    return type(v) is int and 0 <= v < size


def _int_matrix(data, size, path):
    if not isinstance(data, list) or len(data) != size:
        raise SchemaError(path, f"expected a list of {size} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != size:
            raise SchemaError(f"{path}[{i}]", f"expected {size} entries")
        for j, v in enumerate(row):
            if not _is_index(v, size):
                raise SchemaError(f"{path}[{i}][{j}]", "entry out of range")
    return data


def deserialize(text: str) -> FiniteMvwRig:
    """Rebuild a structure from its canonical JSON document.  The carrier
    cap is checked before any table, and every index must be a JSON
    integer (booleans are refused)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    name = _expect_key(doc, "name", "$.name")
    if not isinstance(name, str):
        raise SchemaError("$.name", "expected a string")
    elements = _expect_key(doc, "elements", "$.elements")
    if not isinstance(elements, list) or \
            not all(isinstance(e, str) for e in elements) or not elements:
        raise SchemaError("$.elements", "expected a nonempty list of strings")
    size = len(elements)
    builders._check_size("carrier", size)
    zero = _expect_key(doc, "zero", "$.zero")
    if type(zero) is not int or zero != 0:
        raise SchemaError("$.zero", "the zero element is pinned to index 0")
    neg = _expect_key(doc, "neg", "$.neg")
    if not isinstance(neg, list) or len(neg) != size or \
            not all(_is_index(v, size) for v in neg):
        raise SchemaError("$.neg", f"expected {size} carrier indices")
    add = _int_matrix(_expect_key(doc, "add", "$.add"), size, "$.add")
    mul = _expect_key(doc, "mul", "$.mul")
    if mul is not None:
        mul = _int_matrix(mul, size, "$.mul")
    return core.derive(neg, add, mul, names=tuple(elements), name=name)
