"""Fuzzing of the mvw command line over the definition grammar, and of
the canonical JSON reader.

Each example is a definition file drawn from the grammar in ``dsl``, with
deliberate slips (unbound names, zero denominators, wrong arities and
stray tokens), and one ``mvw`` command on it.  Whatever the input,
``cli.main`` must end with exit code 0, 1 or 2 and let no exception escape.
The JSON examples are canonical documents of zoo structures with a few
values replaced, deleted or appended; ``dsl.deserialize`` must load each
one or raise an ``MvwError``.  Carriers stay small so that the run takes
seconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvwrig import cli, dsl
from mvwrig.errors import MvwError

from conftest import ZOO

_ATOMS = st.one_of(st.integers(0, 6).map(str),
                   st.sampled_from(["1/2", "2/3", "1/0", "10", "o", "a", "x"]))


def _formula(leaf):
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(" ".join),
        sub.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(sub, min_size=1, max_size=3))
        .map(lambda t: f"{t[0]}({', '.join(t[1])})")), max_leaves=6)


_FORMULAS = _formula(st.one_of(st.sampled_from(["x", "y"]), _ATOMS))


def _table(atoms, nested):
    row = st.lists(atoms, min_size=1, max_size=3).map(lambda r: "[" + ", ".join(r) + "]")
    return (st.lists(row, min_size=1, max_size=3).map(lambda rs: "[" + ", ".join(rs) + "]")
            if nested else row)


def _opdef(op):
    params = st.sampled_from(["x", "x, y", "y, x", "x, y, z"] if op != "neg" else ["x", "x, y"])
    formula = st.tuples(params, _FORMULAS).map(lambda t: f"{op}({t[0]}) = {t[1]}")
    table = _table(_ATOMS, op != "neg").map(lambda t: f"{op}: {t}")
    return st.one_of(formula, table)


_CARRIERS = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 4)).map(lambda t: f"elements: {t[0]}..{t[1]}"),
    st.lists(_ATOMS, min_size=1, max_size=4).map(lambda a: "elements: [" + ", ".join(a) + "]"))

_TABLE_BODIES = st.tuples(
    _CARRIERS, _ATOMS.map(lambda a: f"zero: {a}"),
    *(st.one_of(st.just(""), _opdef(op)) for op in ("neg", "add", "mul"))).map(" ".join)

#: Chains 0..n with the Lukasiewicz sum and a product that is lawful, or
#: a drawn formula clamped into the carrier, which mostly is not.
_CHAIN_BODIES = st.integers(1, 5).flatmap(lambda n: st.one_of(
    st.sampled_from([f"min({n}, x * y)", "0", f"max(0, x + y - {n})", "min(x, y)"]),
    _FORMULAS.map(lambda f: f"min({n}, max(0, {f}))"),
).map(lambda mul: f"elements: 0..{n} zero: 0 neg(x) = {n} - x "
                  f"add(x, y) = min({n}, x + y) mul(x, y) = {mul}"))

#: Builder calls over carriers of at most 5 elements, three leaves at most;
#: matrices only over bases of at most three elements.
_BUILDER_LEAVES = st.one_of(
    st.integers(1, 4).map(lambda k: f"zn({k})"),
    st.integers(2, 5).map(lambda k: f"luk({k})"),
    st.lists(st.integers(0, 1), min_size=1, max_size=3)
    .map(lambda u: f"gamma({len(u)}, [{', '.join(map(str, u))}])"),
    st.tuples(st.sampled_from(["zn(1)", "zn(2)", "luk(2)", "trivial(luk(2))"]),
              st.integers(1, 2)).map(lambda t: f"matrix({t[0]}, {t[1]})"),
    st.sampled_from(["A", "B", "zn(0)", "luk(1)", "gamma(2, [1, 2])", "gamma(2, [1])",
                     "matrix(luk(3), 2)", "nosuch(1)", "zn(x)", "trivial(3)",
                     "product(zn(1))"]))

_BUILDERS = st.recursive(_BUILDER_LEAVES, lambda sub: st.one_of(
    st.lists(sub, min_size=1, max_size=3).map(lambda xs: f"product({', '.join(xs)})"),
    sub.map(lambda b: f"trivial({b})"),
    st.tuples(sub, st.lists(st.integers(0, 6), max_size=3))
    .map(lambda t: f"sub({t[0]}, [{', '.join(map(str, t[1]))}])")), max_leaves=3)

_BODIES = st.one_of(_TABLE_BODIES, _CHAIN_BODIES, _BUILDERS.map(lambda b: f"builder: {b}"))

_ALGEBRAS = st.lists(_BODIES, min_size=1, max_size=2).map(
    lambda bodies: "".join(f"algebra {'AB'[i]} {{\n  {body}\n}}\n"
                           for i, body in enumerate(bodies)))

#: Token soup for the syntax errors the grammar above never makes.
_NOISE = st.text(alphabet="algebr {}()[],:=+-*/.0123456789xyz²\n", max_size=40)

_ELEMENTS = st.one_of(st.integers(0, 9).map(str),
                      st.sampled_from(["0,1", "1,2", "²", "٣", "0,²", "-1", "", "x"]),
                      st.text(max_size=3))

_COMMANDS = st.one_of(
    st.sampled_from([["check"], ["check", "--mv-only"], ["parse"], ["parse", "--emit-json"],
                     ["ideals"], ["ideals", "--prime", "--json"], ["spec"], ["spec", "--json"],
                     ["filters"], ["filters", "--frame"], ["filters", "--frame", "--json"]]),
    _ELEMENTS.map(lambda e: ["filters", f"--principal={e}"]),
    _ELEMENTS.map(lambda e: ["quotient", f"--ideal={e}"]))


def _nested(levels, opener, inner, closer):
    """``inner`` inside ``levels`` openers and closers.  The examples below
    nest 5000 deep, past the recursion limit, which Hypothesis raises by
    2000 while it runs a test."""
    return opener * levels + inner + closer * levels


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(_ALGEBRAS, _NOISE), _COMMANDS)
@example("algebra Z3 {\n  builder: zn(3)\n}\n", ["filters", "--principal=²"])
@example("algebra Z3 {\n  builder: zn(3)\n}\n", ["quotient", "--ideal=0,²"])
@example("algebra A {\n  elements: 0..3\n  zero: 0\n  neg(x) = "
         + _nested(5000, "(", "3 - x", ")") + "\n  add(x, y) = min(3, x + y)\n}\n", ["check"])
@example("algebra A {\n  elements: 0..3\n  zero: 0\n  neg(x) = 3 - x\n  add(x, y) = "
         + _nested(5000, "min(3, ", "x + y", ")") + "\n}\n", ["check"])
@example("algebra A {\n  builder: " + _nested(5000, "product(", "zn(1)", ", gamma(1, [0]))")
         + "\n}\n", ["check"])
def test_cli_ends_with_an_exit_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.mvw")
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([command[0], str(path), *command[1:]])
            except SystemExit as stop:  # argparse refusing an option
                code = stop.code
    assert code in (0, 1, 2), (code, out.getvalue(), err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.floats(allow_nan=False),
    st.text(max_size=2), st.lists(st.integers(0, 3), max_size=3),
    st.builds(dict), st.builds(lambda: [[0]]))

#: One mutation: a position in the document's list of paths, an action and
#: the value it puts there.
_MUTATIONS = st.lists(st.tuples(st.integers(0, 10**6),
                                st.sampled_from(["replace", "delete", "append"]),
                                _JSON_VALUES), min_size=1, max_size=3)


def _paths(doc, path=()):
    """Every key and index path into a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(doc, mutations):
    for position, action, value in mutations:
        paths = list(_paths(doc))[1:]
        *head, last = paths[position % len(paths)]
        parent = doc
        for key in head:
            parent = parent[key]
        if action == "replace":
            parent[last] = value
        elif action == "delete":
            del parent[last]
        elif isinstance(parent, list):
            parent.append(value)
        else:
            parent["extra"] = value
    return doc


_SMALL = sorted(name for name, rig in ZOO.items() if rig.size <= 6)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(_SMALL), _MUTATIONS)
@example("Z1", [(6, "replace", True), (7, "replace", False)])   # neg: [true, false]
@example("Z1", [(4, "replace", False)])                         # zero: false
def test_deserialize_loads_or_raises(name, mutations):
    doc = _mutated(json.loads(dsl.serialize(ZOO[name])), mutations)
    try:
        rig = dsl.deserialize(json.dumps(doc))
    except MvwError:
        return
    # what loads holds JSON integers wherever an index goes, and round-trips
    cells = [doc["zero"], *doc["neg"]]
    for key in ("add", "mul"):
        cells.extend(v for row in doc[key] or () for v in row)
    assert all(type(v) is int for v in cells), doc
    assert dsl.deserialize(dsl.serialize(rig)).same_tables(rig)
