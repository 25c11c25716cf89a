import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvwrig import builders, core, dsl
from mvwrig.errors import (
    AxiomViolation,
    ClosureViolation,
    DslSyntaxError,
    SchemaError,
    SizeBound,
)

import scalar_oracles as oracle
from conftest import ZOO, algebra_path, golden_path

SHIPPED_SOURCES = [
    "z3.mvw", "z1.mvw", "z1xz1.mvw", "luk3.mvw", "t3.mvw",
    "boolmat2.mvw", "gamma110.mvw", "trivial.mvw",
    "luk3_realprod.mvw", "luk4_realprod.mvw",
]

Z3_SRC = ("algebra Z3 { elements: 0..3  zero: 0  neg(x) = 3 - x  "
          "add(x,y) = min(3, x + y)  mul(x,y) = min(3, x * y) }")


def _sum_source(first, summands, last):
    return ("algebra A {\n  elements: 0..3\n  zero: 0\n  neg(x) = 3 - x\n"
            f"  add(x, y) = min(3, {first} + y{' + 0' * (summands - 3)} + {last})\n"
            "  mul(x, y) = min(3, x * y)\n}\n")


@pytest.mark.parametrize("summands", [1000, 5000])
def test_long_chains_compare_hash_and_print_in_a_loop(summands):
    # equality, hashing and the repr of an operator walk the left operands
    # of its chain in a loop, so a long sum needs no more recursion than a
    # short one; the limit is set to Python's default for the test
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        [source] = dsl.parse(_sum_source("x", summands, "0"))
        assert dsl.parse(dsl.pretty(source)) == [source]
        [again] = dsl.parse(dsl.pretty(source))
        assert hash(again) == hash(source)
        assert repr(again) == repr(source)
        assert repr(source).count("BinOp(") == summands + 1
        for first, last in (("y", "0"), ("x", "1")):
            assert dsl.parse(_sum_source(first, summands, last)) != [source], (first, last)
    finally:
        sys.setrecursionlimit(limit)


def test_operator_repr_and_equality_keep_the_dataclass_forms():
    x, one = dsl.Var("x"), dsl.Lit(Fraction(1))
    node = dsl.BinOp("-", dsl.BinOp("+", x, one), x)
    assert repr(node) == ("BinOp(op='-', left=BinOp(op='+', left=Var(name='x'), "
                          "right=Lit(value=Fraction(1, 1))), right=Var(name='x'))")
    assert node == dsl.BinOp("-", dsl.BinOp("+", x, one), x)
    assert hash(node) == hash(dsl.BinOp("-", dsl.BinOp("+", x, one), x))
    assert node != dsl.BinOp("+", dsl.BinOp("+", x, one), x)
    assert node != dsl.BinOp("-", dsl.BinOp("+", x, x), x)
    assert node != dsl.BinOp("-", x, x) and node != x


def test_parse_z3_shape():
    (src,) = dsl.parse(Z3_SRC)
    assert src.name == "Z3"
    assert src.carrier == dsl.RangeCarrier(0, 3)
    assert src.zero == dsl.NumberAtom(Fraction(0))
    assert [name for name, _ in src.ops] == ["neg", "add", "mul"]
    neg = src.op("neg")
    assert neg.params == ("x",)
    assert neg.body == dsl.BinOp("-", dsl.Lit(Fraction(3)), dsl.Var("x"))


def test_parse_table_form():
    (src,) = dsl.parse("algebra T { elements: [o] zero: o neg: [o] "
                       "add: [[o]] mul: [[o]] }")
    assert src.carrier == dsl.ListCarrier((dsl.NameAtom("o"),))
    assert src.op("neg") == dsl.TableOp((dsl.NameAtom("o"),), nested=False)
    assert src.op("add").nested


def test_parse_multiple_algebras():
    sources = dsl.parse("algebra A { builder: zn(1) } algebra B { builder: zn(2) }")
    assert [s.name for s in sources] == ["A", "B"]


@pytest.mark.parametrize("bad, fragment", [
    ("algebra { }", "expected an algebra name"),
    ("algebra A elements: 0..3 }", "expected '{'"),
    ("algebra A { elements 0..3 }", "expected ':'"),
    ("algebra A { elements: 0.. }", "expected an integer"),
    ("algebra A { shrug: 1 }", "expected 'elements'"),
    ("algebra A { zero: 0 zero: 0 }", "duplicate 'zero'"),
    ("algebra A { neg(x, y, z) = x }", "expected ')'"),
    ("algebra A { neg(x, y) = x }", "neg takes 1 argument"),
    ("algebra A { add(x) = x }", "add takes 2 arguments"),
    ("algebra A { neg(x) = min(x) }", "min needs at least two"),
    ("algebra A { neg(x) = 3 - }", "expected a number"),
    ("algebra Z % {}", "unexpected character"),
])
def test_parse_diagnostics(bad, fragment):
    with pytest.raises(DslSyntaxError) as exc:
        dsl.parse(bad)
    assert fragment in str(exc.value)
    assert exc.value.diagnostic.line >= 1
    assert exc.value.diagnostic.column >= 1


def test_diagnostic_span_points_at_token():
    with pytest.raises(DslSyntaxError) as exc:
        dsl.parse("algebra A {\n  elements 0..3\n}")
    assert exc.value.diagnostic.line == 2
    assert exc.value.diagnostic.column == 12


def test_unbound_variable_rejected_at_parse_time():
    with pytest.raises(DslSyntaxError) as exc:
        dsl.parse("algebra A {\n  elements: 0..3\n  zero: 0\n  neg(x) = 3 - y\n}")
    assert (exc.value.diagnostic.line, exc.value.diagnostic.column) == (4, 16)
    assert "unbound variable 'y'" in str(exc.value)


@pytest.mark.parametrize("body, where", [
    ("  elements: [0, 1/0]\n", (2, 17)),
    ("  elements: [0, 1]\n  neg: [1, 2/0]\n", (3, 12)),
    ("  elements: 0..3\n  neg(x) = 3 - x * 1/0\n", (3, 20)),
])
def test_zero_denominator_is_located(body, where):
    with pytest.raises(DslSyntaxError) as exc:
        dsl.parse("algebra A {\n" + body + "}")
    assert (exc.value.diagnostic.line, exc.value.diagnostic.column) == where
    assert exc.value.diagnostic.message == "zero denominator"


def test_elaborate_z3_matches_builder():
    rig = dsl.elaborate_file(Z3_SRC)[0]
    assert rig.same_tables(builders.build_zn(3))
    assert rig.name == "Z3"


def test_elaborate_closure_violation_witness():
    src = ("algebra L { elements: [0, 1/2, 1] zero: 0 neg(x) = 1 - x "
           "add(x,y) = min(1, x + y) mul(x,y) = x * y }")
    with pytest.raises(ClosureViolation) as exc:
        dsl.elaborate_file(src)
    assert exc.value.inputs == (Fraction(1, 2), Fraction(1, 2))
    assert exc.value.value == Fraction(1, 4)


def test_elaborate_zero_must_be_least():
    with pytest.raises(DslSyntaxError) as exc:
        dsl.elaborate_file("algebra B { elements: 0..3 zero: 1 "
                           "neg(x) = 3 - x add(x,y) = min(3, x + y) }")
    assert "least element" in str(exc.value)


def test_elaborate_table_boolean_equals_builder():
    src = ("algebra B { elements: 0..1 zero: 0 neg: [1, 0] "
           "add: [[0, 1], [1, 1]] mul: [[0, 0], [0, 1]] }")
    rig = dsl.elaborate_file(src)[0]
    assert rig.same_tables(builders.build_zn(1))


def test_elaborate_axiom_violation_forwarded():
    src = ("algebra B { elements: 0..1 zero: 0 neg: [1, 0] "
           "add: [[0, 1], [1, 1]] mul: [[0, 1], [0, 1]] }")
    with pytest.raises(AxiomViolation) as exc:
        dsl.elaborate_file(src)
    assert "MVW-iii" in exc.value.report.failed_axioms()


def test_elaborate_mv_only_when_mul_missing():
    src = ("algebra L { elements: [0, 1/2, 1] zero: 0 neg(x) = 1 - x "
           "add(x,y) = min(1, x + y) }")
    rig = dsl.elaborate_file(src)[0]
    assert rig.mv_only
    assert rig.carrier.names == ("0", "1/2", "1")


def test_elaborate_named_carrier_reorders_zero_first():
    # tables are written in the declared order (t first); the elaborated
    # structure still pins the zero to index 0
    src = ("algebra B { elements: [t, z] zero: z neg: [z, t] "
           "add: [[t, t], [t, z]] mul: [[t, z], [z, z]] }")
    rig = dsl.elaborate_file(src)[0]
    assert rig.carrier.names == ("z", "t")
    assert rig.same_tables(builders.build_zn(1))


def test_elaborate_rejects_formula_on_named_carrier():
    with pytest.raises(DslSyntaxError) as exc:
        dsl.elaborate_file("algebra B { elements: [a, b] zero: a "
                           "neg(x) = 1 - x add: [[a, b], [b, b]] }")
    assert "numeric carrier" in str(exc.value)


def test_elaborate_builders():
    text = """
    algebra Z1 { builder: zn(1) }
    algebra P { builder: product(Z1, zn(1)) }
    algebra B { builder: matrix(Z1, 2) }
    algebra G { builder: gamma(3, [1, 1, 0]) }
    algebra T3 { builder: trivial(luk(3)) }
    algebra S { builder: sub(zn(3), [3]) }
    """
    rigs = {r.name: r for r in dsl.elaborate_file(text)}
    assert rigs["P"].same_tables(ZOO["Z1xZ1"])
    assert rigs["B"].size == 16
    assert rigs["G"].size == 4
    assert rigs["T3"].same_tables(ZOO["T3"])
    assert rigs["S"].size == 2


def test_elaborate_builder_unknown_reference():
    with pytest.raises(DslSyntaxError) as exc:
        dsl.elaborate_file("algebra P { builder: product(Nope, zn(1)) }")
    assert "unknown algebra" in str(exc.value)


def test_elaborate_builder_arity_errors():
    with pytest.raises(DslSyntaxError):
        dsl.elaborate_file("algebra P { builder: zn(1, 2) }")
    with pytest.raises(DslSyntaxError):
        dsl.elaborate_file("algebra P { builder: nosuch(1) }")
    with pytest.raises(DslSyntaxError):
        dsl.elaborate_file("algebra P { builder: zn(1) zero: 0 }")


@pytest.mark.parametrize("name", SHIPPED_SOURCES)
def test_shipped_sources_roundtrip_pretty(name):
    text = algebra_path(name).read_text(encoding="utf-8")
    sources = dsl.parse(text)
    for source in sources:
        assert dsl.parse(dsl.pretty(source)) == [source]


def test_pretty_parenthesizes_correctly():
    src = "algebra A { elements: 0..3 zero: 0 neg(x) = 3 - (1 - x) + 1 " \
          "add(x,y) = min(3, x + y) }"
    (source,) = dsl.parse(src)
    assert dsl.parse(dsl.pretty(source)) == [source]
    nested = dsl.BinOp("*", dsl.BinOp("+", dsl.Var("x"), dsl.Var("y")), dsl.Lit(Fraction(2)))
    assert dsl._expr_text(nested) == "(x + y) * 2"


def test_serialize_golden_boolean():
    doc = dsl.serialize(builders.build_zn(1))
    assert doc == golden_path("rig_z1.json").read_text(encoding="utf-8")


def test_serialize_is_deterministic():
    a = dsl.serialize(builders.build_zn(3))
    b = dsl.serialize(builders.build_zn(3))
    assert a == b


def test_rig_roundtrip_all_shipped_examples():
    for name, rig in ZOO.items():
        back = dsl.deserialize(dsl.serialize(rig))
        assert back.same_tables(rig), name
        assert back.carrier.names == rig.carrier.names
        assert back.name == rig.name


def test_deserialize_schema_errors():
    with pytest.raises(SchemaError) as exc:
        dsl.deserialize("{not json")
    assert exc.value.path == "$"
    with pytest.raises(SchemaError) as exc:
        dsl.deserialize('{"name": "A"}')
    assert exc.value.path == "$.elements"
    with pytest.raises(SchemaError) as exc:
        dsl.deserialize('{"name": "A", "elements": ["0", "1"], "zero": 1, '
                        '"neg": [1, 0], "add": [[0, 1], [1, 1]], "mul": null}')
    assert exc.value.path == "$.zero"
    with pytest.raises(SchemaError) as exc:
        dsl.deserialize('{"name": "A", "elements": ["0", "1"], "zero": 0, '
                        '"neg": [1, 0], "add": [[0, 7], [1, 1]], "mul": null}')
    assert exc.value.path == "$.add[0][1]"


def test_deserialize_refuses_booleans_and_oversized_carriers(monkeypatch):
    doc = json.loads(dsl.serialize(ZOO["Z1"]))
    for key, value, path in (("zero", False, "$.zero"), ("neg", [True, False], "$.neg"),
                             ("add", [[0, 1], [True, 1]], "$.add[1][0]"),
                             ("mul", [[0, 0], [0, True]], "$.mul[1][1]")):
        with pytest.raises(SchemaError) as exc:
            dsl.deserialize(json.dumps({**doc, key: value}))
        assert exc.value.path == path
    # the cap is checked before any table is read
    names = [str(i) for i in range(builders.DEFAULT_SIZE_BOUND + 1)]
    with pytest.raises(SizeBound, match=r"^carrier would have 4097 elements \(bound 4096\)$"):
        dsl.deserialize(json.dumps({**doc, "elements": names}))
    monkeypatch.setenv("MVW_SIZE_BOUND", "3")
    with pytest.raises(SizeBound, match=r"^carrier would have 4 elements \(bound 3\)$"):
        dsl.deserialize(dsl.serialize(ZOO["Z3"]))


def test_serialize_spec_and_frame_documents():
    from mvwrig import frames, spectrum
    square = ZOO["Z1xZ1"]
    assert dsl.serialize(spectrum.spec(square)) == \
        golden_path("spec_z1xz1.json").read_text(encoding="utf-8")
    doc = dsl.serialize(frames.frame(square))
    assert '"pfilters"' in doc and '"hasse"' in doc


# -- formula tables against the scalar route ----------------------------------------

def _eval_expr(node, env):
    """The cell-by-cell reference evaluator, in exact Fractions."""
    if isinstance(node, dsl.Lit):
        return node.value
    if isinstance(node, dsl.Var):
        return env[node.name]
    if isinstance(node, dsl.MinMax):
        vals = [_eval_expr(a, env) for a in node.args]
        return min(vals) if node.fn == "min" else max(vals)
    a = _eval_expr(node.left, env)
    b = _eval_expr(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    return a * b


def _scalar_table(opname, formula, values):
    """The table (or the first ClosureViolation) by the cell-by-cell route."""
    index = {v: i for i, v in enumerate(values)}
    if len(formula.params) == 1:
        out = []
        for v in values:
            res = _eval_expr(formula.body, {formula.params[0]: v})
            if res not in index:
                raise ClosureViolation(opname, (v,), res)
            out.append(index[res])
        return out
    out = []
    for v in values:
        row = []
        for w in values:
            res = _eval_expr(formula.body, {formula.params[0]: v, formula.params[1]: w})
            if res not in index:
                raise ClosureViolation(opname, (v, w), res)
            row.append(index[res])
        out.append(row)
    return out


def _outcome(route, opname, formula, values):
    try:
        table = route(opname, formula, values)
    except ClosureViolation as exc:
        return ("violation", exc.op, exc.inputs, exc.value, str(exc))
    return ("table", np.asarray(table).tolist())


def assert_grid_matches_scalar(opname, formula, values):
    grid = _outcome(dsl._formula_table, opname, formula, values)
    scalar = _outcome(_scalar_table, opname, formula, values)
    assert grid == scalar


def _formula(opname, params, body):
    (source,) = dsl.parse(f"algebra A {{ {opname}({params}) = {body} }}")
    return source.op(opname)


def _carrier_values(source):
    if isinstance(source.carrier, dsl.RangeCarrier):
        return [Fraction(v) for v in range(source.carrier.lo, source.carrier.hi + 1)]
    return sorted(a.value for a in source.carrier.atoms)


@pytest.mark.parametrize("name", SHIPPED_SOURCES)
def test_grid_tables_match_scalar_on_shipped_sources(name):
    for source in dsl.parse(algebra_path(name).read_text(encoding="utf-8")):
        for opname, op in source.ops:
            if isinstance(op, dsl.FormulaOp):
                assert_grid_matches_scalar(opname, op, _carrier_values(source))


@pytest.mark.parametrize("n", range(41))
def test_grid_tables_match_scalar_on_chains(n):
    values = [Fraction(v) for v in range(n + 1)]
    assert_grid_matches_scalar("neg", _formula("neg", "x", f"{n} - x"), values)
    for opname, body in (("add", f"min({n}, x + y)"), ("mul", f"min({n}, x * y)"),
                         ("mul", "max(x, y)"), ("mul", "x * y"), ("mul", f"min({n}, x + y)")):
        assert_grid_matches_scalar(opname, _formula(opname, "x, y", body), values)


@pytest.mark.parametrize("params, body", [
    ("x", "1 - x"),
    ("x, y", "min(1, x + y)"),
    ("x, y", "x * y"),
    ("x, y", "max(0, x + y - 1)"),
    ("x, y", "min(x, y, 1/2)"),
    ("x, y", "x * 3 - y * 2"),
    ("x, x", "x * 2"),
    ("x, y", "1/2"),
])
def test_grid_tables_match_scalar_on_rational_carriers(params, body):
    opname = "neg" if params == "x" else "mul"
    for values in ([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
                   [Fraction(k, 4) for k in range(5)],
                   [Fraction(-1, 2), Fraction(0), Fraction(1, 6), Fraction(1)]):
        assert_grid_matches_scalar(opname, _formula(opname, params, body), values)


def test_grid_tables_switch_to_exact_objects_past_int64():
    values = [Fraction(v) for v in range(4)]
    big = "x * y * 10000000000 * 10000000000"
    formula = _formula("mul", "x, y", f"min(3, {big})")
    assert_grid_matches_scalar("mul", formula, values)
    assert dsl._formula_table("mul", formula, values).tolist() == \
        [[0, 0, 0, 0]] + [[0, 3, 3, 3]] * 3
    with pytest.raises(ClosureViolation) as exc:
        dsl._formula_table("mul", _formula("mul", "x, y", big), values)
    assert str(exc.value) == "mul(1, 1) = 100000000000000000000 is not in the carrier"
    assert_grid_matches_scalar("mul", _formula("mul", "x, y", big), values)
    # a denominator past int64 with small numerators
    tiny = "1/10000000000000000000"
    with pytest.raises(ClosureViolation) as exc:
        dsl._formula_table("mul", _formula("mul", "x, y", f"x * y * {tiny}"), values)
    assert str(exc.value) == "mul(1, 1) = 1/10000000000000000000 is not in the carrier"
    for opname, params, body in (("mul", "x, y", f"x * y * {tiny}"),
                                 ("neg", "x", f"x * {tiny}"),
                                 ("mul", "x, y", f"min(1, x * y * {tiny} * 10000000000000000000)")):
        assert_grid_matches_scalar(opname, _formula(opname, params, body), values)


def test_grid_tables_on_a_carrier_between_int64_and_uint64():
    # scaled values in [2^63, 2^64) must stay exact Python ints, not float64
    top = 2 ** 63 + 1
    values = [Fraction(0), Fraction(1), Fraction(top)]
    formula = _formula("mul", "x, y", "max(x, y)")
    assert dsl._formula_table("mul", formula, values).tolist() == \
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    for body in ("max(x, y)", "min(x, y)", f"max(0, min({top}, x + y))", "x * y"):
        assert_grid_matches_scalar("mul", _formula("mul", "x, y", body), values)
    # the scaled top is about 1.23e19 here
    values = sorted([Fraction(29, 333333333333), Fraction(19, 150), Fraction(736396, 337)])
    lo, hi = dsl.Lit(values[0]), dsl.Lit(values[-1])
    clamped = dsl.MinMax("max", (lo, dsl.MinMax("min", (hi, dsl.Var("x")))))
    assert dsl._formula_table("mul", dsl.FormulaOp(("x", "y"), clamped), values).tolist() == \
        [[0, 0, 0], [1, 1, 1], [2, 2, 2]]


def test_grid_tables_on_a_carrier_past_int64():
    # the scaled carrier itself needs Python ints: D = 3 * 10^20
    values = [Fraction(0), Fraction(1, 10 ** 20), Fraction(1, 3), Fraction(1)]
    for body in ("min(1, x + y)", "x * y", "max(x, y)", "min(x, 1/3)"):
        assert_grid_matches_scalar("mul", _formula("mul", "x, y", body), values)


def _budget_cases():
    """Binary formulas on chains 0..n, among them the unclosed ``x * y`` on
    0..100, and on the shipped carriers of 1/2 and 1/3 steps whose real
    product leaves them."""
    for n in (1, 5, 12, 40, 100):
        values = [Fraction(v) for v in range(n + 1)]
        for body in (f"min({n}, x + y)", f"min({n}, x * y)", "max(x, y)", "x * y"):
            yield values, _formula("mul", "x, y", body)
    for name in ("luk3_realprod.mvw", "luk4_realprod.mvw"):
        (source,) = dsl.parse(algebra_path(name).read_text(encoding="utf-8"))
        for opname, op in source.ops:
            if isinstance(op, dsl.FormulaOp) and len(op.params) == 2:
                yield _carrier_values(source), op


@pytest.mark.parametrize("budget", [1, 7, core._BLOCK_CELLS])
def test_grid_tables_do_not_depend_on_the_block_budget(budget, monkeypatch):
    # binary tables are evaluated in ``core._blocks`` of whole rows: one row
    # a block, a few rows on small carriers, or the default budget give the
    # scalar route's table or its first ClosureViolation
    monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    violations = 0
    for values, formula in _budget_cases():
        assert_grid_matches_scalar("mul", formula, values)
        violations += _outcome(dsl._formula_table, "mul", formula, values)[0] == "violation"
    assert violations >= 6


_LITERALS = st.one_of(
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
    st.integers(10 ** 10, 10 ** 22).map(Fraction),
    st.builds(Fraction, st.integers(0, 10 ** 12), st.integers(1, 10 ** 11)),
    st.builds(Fraction, st.integers(0, 12), st.integers(10 ** 18, 10 ** 22)),
)


def _trees(depth):
    leaf = st.one_of(st.sampled_from([dsl.Var("x"), dsl.Var("y")]), _LITERALS.map(dsl.Lit))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(dsl.BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(dsl.MinMax, st.sampled_from(["min", "max"]),
                  st.lists(sub, min_size=2, max_size=3).map(tuple)),
    )


_CARRIERS = st.lists(
    st.one_of(st.builds(Fraction, st.integers(-6, 30), st.integers(1, 6)),
              st.builds(Fraction, st.integers(-10, 10 ** 13), st.integers(1, 10 ** 12))),
    min_size=1, max_size=6, unique=True).map(sorted)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_trees(4), _CARRIERS, st.booleans())
@example(dsl.Var("x"),
         [Fraction(29, 333333333333), Fraction(19, 150), Fraction(736396, 337)], False)
def test_grid_tables_match_scalar_on_random_formulas(body, values, unary):
    if unary:
        body = _rename_y(body)
        assert_grid_matches_scalar("neg", dsl.FormulaOp(("x",), body), values)
    else:
        assert_grid_matches_scalar("add", dsl.FormulaOp(("x", "y"), body), values)
        # a clamp into the carrier's range keeps some tables closed
        lo, hi = dsl.Lit(values[0]), dsl.Lit(values[-1])
        clamped = dsl.MinMax("max", (lo, dsl.MinMax("min", (hi, body))))
        assert_grid_matches_scalar("mul", dsl.FormulaOp(("x", "y"), clamped), values)


def _rename_y(node):
    if isinstance(node, dsl.Var):
        return dsl.Var("x")
    if isinstance(node, dsl.BinOp):
        return dsl.BinOp(node.op, _rename_y(node.left), _rename_y(node.right))
    if isinstance(node, dsl.MinMax):
        return dsl.MinMax(node.fn, tuple(_rename_y(a) for a in node.args))
    return node


# -- the carrier index against the binary search ------------------------------------

#: carriers as (values, written as a range): ranges from 0, from 5 and past
#: int64, evenly spaced fraction lists (consecutive once scaled), and lists
#: that are not: uneven, spaced by 2, and past int64
INDEX_CARRIERS = [
    ([Fraction(v) for v in range(13)], True),
    ([Fraction(v) for v in range(5, 21)], True),
    ([Fraction(v) for v in range(2 ** 63 - 8, 2 ** 63 + 3)], True),
    ([Fraction(k, 3) for k in range(4)], False),
    ([Fraction(k, 2) for k in range(5)], False),
    ([Fraction(0), Fraction(1, 6), Fraction(1, 2), Fraction(2, 3), Fraction(1)], False),
    ([Fraction(k) for k in range(0, 8, 2)], False),
    ([Fraction(k * 10 ** 22) for k in range(3)], False),
]

#: binary formulas over the carrier's ends {lo} and {hi} and a constant {c}:
#: closed ones, and ones that escape below, above or between the elements
INDEX_FORMULAS = (
    "min({hi}, x + y - {lo})", "max({lo}, x + y - {hi})", "x + y", "x - y", "min(x, y)",
    "max(x, y) * 1/2", "x * y", "min({hi}, max({lo}, x * y * {c}))", "min({hi}, x + {c})",
    "{hi} + {lo} - y", "x * 2 - y", "max({lo}, min({hi}, x * {c} - y))",
)
INDEX_CONSTANTS = ("1/2", "2", "1/3", "3/2", "7", "10000000000000000000")


def _index_file(values, as_range, add, mul):
    lo, hi = values[0], values[-1]
    elements = f"{lo}..{hi}" if as_range else "[" + ", ".join(map(str, values)) + "]"
    neg = ", ".join(map(str, reversed(values)))
    return (f"algebra I {{\n  elements: {elements}\n  zero: {lo}\n  neg: [{neg}]\n"
            f"  add(x, y) = {add}\n  mul(x, y) = {mul}\n}}\n")


def _index_outcome(text, index, monkeypatch):
    """The add and mul tables a load builds with ``index`` as its carrier
    index, or the text of its first ClosureViolation."""
    monkeypatch.setattr(dsl, "_carrier_index", index)
    monkeypatch.setattr(core, "derive", lambda neg, add, mul, **_: (add.tolist(), mul.tolist()))
    try:
        [tables] = dsl.elaborate_file(text, check=False)
    except ClosureViolation as exc:
        return str(exc)
    return tables


_SUBTRACTION = dsl._carrier_index

#: a carrier, its add and mul formulas, and the first escape, None when both close
INDEX_CASES = [
    (1, "min(20, x + y - 5)", "max(5, x + y - 20)", None),
    (1, "x - y", "x", "add(5, 5) = 0 is not in the carrier"),
    (1, "x + y", "x", "add(5, 16) = 21 is not in the carrier"),
    (0, "max(x, y) * 1/2", "x", "add(0, 1) = 1/2 is not in the carrier"),
    (0, "max(0, x + y - 12)", "x + y + 1", "mul(0, 12) = 13 is not in the carrier"),
    (4, "min(2, x + y)", "max(x, y) * 1/2", "mul(0, 1/2) = 1/4 is not in the carrier"),
    (4, "min(2, x + y)", "max(0, x + y - 2)", None),
    (5, "max(x, y)", "x * y", "mul(1/6, 1/6) = 1/36 is not in the carrier"),
    (2, "min(9223372036854775810, x + y - 9223372036854775800)", "max(x, y)", None),
    (2, "x + y - 9223372036854775801", "x",
     "add(9223372036854775800, 9223372036854775800) = 9223372036854775799 "
     "is not in the carrier"),
    (7, "max(x, y)", "x * 1/2", "mul(10000000000000000000000, 0) = "
     "5000000000000000000000 is not in the carrier"),
]


@pytest.mark.parametrize("case", range(len(INDEX_CASES)))
def test_the_carrier_index_locates_each_cell_or_the_first_escape(case, monkeypatch):
    carrier, add, mul, escape = INDEX_CASES[case]
    text = _index_file(*INDEX_CARRIERS[carrier], add, mul)
    got = _index_outcome(text, _SUBTRACTION, monkeypatch)
    assert got == _index_outcome(text, oracle.carrier_index, monkeypatch)
    assert (got if isinstance(got, str) else None) == escape


def test_the_carrier_index_matches_the_binary_search_on_seeded_files(monkeypatch):
    escapes = 0
    for seed in range(300):
        rng = random.Random(seed)
        values, as_range = rng.choice(INDEX_CARRIERS)
        add, mul = (rng.choice(INDEX_FORMULAS).format(lo=values[0], hi=values[-1],
                                                      c=rng.choice(INDEX_CONSTANTS))
                    for _ in range(2))
        text = _index_file(values, as_range, add, mul)
        got = _index_outcome(text, _SUBTRACTION, monkeypatch)
        assert got == _index_outcome(text, oracle.carrier_index, monkeypatch), text
        escapes += isinstance(got, str)
    assert 50 < escapes < 250
