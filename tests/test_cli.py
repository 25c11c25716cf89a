import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvwrig import builders, cli, core, dsl

from conftest import algebra_path, golden_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_z3_golden(capsys):
    code, out, err = run(capsys, "check", str(algebra_path("z3.mvw")))
    assert code == 0
    assert out == golden_path("check_z3.txt").read_text(encoding="utf-8")
    assert err == ""


def test_check_closure_violation_exit_2(capsys):
    code, out, err = run(capsys, "check", str(algebra_path("luk3_realprod.mvw")))
    assert code == 2
    assert "mul(1/2, 1/2) = 1/4" in err


def test_check_luk4_closure_witness(capsys):
    code, out, err = run(capsys, "check", str(algebra_path("luk4_realprod.mvw")))
    assert code == 2
    assert "mul(1/3, 1/3) = 1/9" in err


def test_check_corrupted_table_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.mvw"
    bad.write_text(
        "algebra Bad { elements: 0..3 zero: 0 neg: [3, 2, 1, 0] "
        "add(x,y) = min(3, x + y) "
        "mul: [[0, 1, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 3]] }",
        encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "MVW-iii FAIL" in out
    assert "(0, 1)" in out
    assert "result: FAIL" in out


def test_check_antisymmetry_failure_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.mvw"
    bad.write_text(
        "algebra Bad { elements: 0..3 zero: 0 neg: [3, 3, 1, 0] "
        "add(x,y) = min(3, x + y) }", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "not antisymmetric" in out


def test_check_mv_only_flag(capsys):
    code, out, err = run(capsys, "check", str(algebra_path("z3.mvw")), "--mv-only")
    assert code == 0
    assert "MVW-ii" not in out


def test_check_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "check", "nope.mvw")
    assert code == 2
    assert "error:" in err


def test_syntax_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.mvw"
    bad.write_text("algebra { }", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "expected an algebra name" in err


@pytest.mark.parametrize("command", [
    ["check"], ["ideals"], ["quotient", "--ideal", "0"], ["spec"], ["filters"], ["verify"],
    ["parse"]], ids=lambda command: command[0])
def test_non_utf8_file_is_a_located_error(capsys, tmp_path, command):
    bad = tmp_path / "bin.mvw"
    bad.write_bytes(b"algebra A {\n  \xc3\xa9 \xff\xfe\x00bad")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: 2:5: error: {bad} is not UTF-8 text: byte 0xff at offset 17\n"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["nosuchcommand"])
    assert exc.value.code == 2


def test_verify_all_z3_golden(capsys):
    code, out, err = run(capsys, "verify", str(algebra_path("z3.mvw")),
                         "--suite", "all")
    assert code == 0
    assert out == golden_path("verify_z3.txt").read_text(encoding="utf-8")


def test_verify_all_z1xz1_golden(capsys):
    code, out, err = run(capsys, "verify", str(algebra_path("z1xz1.mvw")),
                         "--suite", "all")
    assert code == 0
    assert out == golden_path("verify_z1xz1.txt").read_text(encoding="utf-8")


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", str(algebra_path("t3.mvw")),
                         "--suite", "locale")
    assert code == 0
    assert "[locale]" in out and "[core]" not in out
    assert "theta-iso SKIPPED" in out


def test_verify_list(capsys):
    code, out, err = run(capsys, "verify", "--list")
    assert code == 0
    for suite in ("core", "ideals", "spectrum", "locale"):
        assert f"suite {suite}:" in out


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", str(algebra_path("z3.mvw")),
                         "--suite", "bogus")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "nosuch.mvw", "--suite", "nosuch"], "unknown suite 'nosuch'"),
    (["filters", "nosuch.mvw", "--json"], "--json needs --frame or --principal"),
])
def test_bad_arguments_are_refused_before_the_load(capsys, argv, message):
    # the file does not exist either: the argument is checked first
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err and "No such file" not in err


def _output_argvs(source, out):
    return [["quotient", source, "--ideal", "0", "-o", out], ["spec", source, "--dot", out]]


@pytest.mark.parametrize("where", ["missing/out", "", "."])
def test_an_unwritable_output_is_refused_before_the_load(capsys, monkeypatch, tmp_path, where):
    # a missing directory, the empty path and a directory: the error a write
    # raises, before the input (which does not exist either) is read
    monkeypatch.chdir(tmp_path)
    calls = _counting(monkeypatch, cli, "_load_one")
    for argv in _output_argvs("nosuch.mvw", where):
        with pytest.raises(OSError) as expected:
            open(where, "w", encoding="utf-8")
        assert run(capsys, *argv) == (2, "", f"error: {expected.value}\n")
    assert calls["_load_one"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_a_failing_run_leaves_no_new_output_behind(capsys, tmp_path):
    # the quotient's ideal is no ideal, and M2(Z1) has no spectrum: the
    # output is refused after it was opened
    z3, m2z1 = str(algebra_path("z3.mvw")), str(algebra_path("boolmat2.mvw"))
    out = tmp_path / "out"
    for argv in (["quotient", z3, "--ideal", "0,1", "-o", str(out)],
                 ["spec", m2z1, "--dot", str(out)]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "") and err.startswith("error: ")
        assert not out.exists()
        # a file that was there keeps its bytes
        out.write_text("kept\n", encoding="utf-8")
        assert run(capsys, *argv) == (code, stdout, err)
        assert out.read_text(encoding="utf-8") == "kept\n"
        out.unlink()


def test_an_output_that_was_there_is_replaced(capsys, tmp_path):
    z1xz1 = str(algebra_path("z1xz1.mvw"))
    out = tmp_path / "out"
    for argv in _output_argvs(z1xz1, str(out)):
        out.write_text("~" * 10000, encoding="utf-8")
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "") and stdout.endswith(f"wrote {out}\n")
        assert "~" not in out.read_text(encoding="utf-8")


def test_verify_failure_exits_1(capsys, tmp_path):
    # associativity of the product is broken at (1,1,2): table passes the
    # MV axioms but the law suites must flag it
    bad = tmp_path / "bad.mvw"
    bad.write_text(
        "algebra Bad { elements: 0..3 zero: 0 neg: [3, 2, 1, 0] "
        "add(x,y) = min(3, x + y) "
        "mul: [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 2]] }",
        encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1


def test_spec_dot_golden(capsys, tmp_path):
    out_dot = tmp_path / "spec.dot"
    code, out, err = run(capsys, "spec", str(algebra_path("z3.mvw")),
                         "--dot", str(out_dot))
    assert code == 0
    assert out_dot.read_text(encoding="utf-8") == \
        golden_path("spec_z3.dot").read_text(encoding="utf-8")

    code, out, err = run(capsys, "spec", str(algebra_path("z1xz1.mvw")),
                         "--dot", str(out_dot))
    assert code == 0
    assert out_dot.read_text(encoding="utf-8") == \
        golden_path("spec_z1xz1.dot").read_text(encoding="utf-8")


def test_spec_json_golden(capsys):
    code, out, err = run(capsys, "spec", str(algebra_path("z1xz1.mvw")), "--json")
    assert code == 0
    assert out == golden_path("spec_z1xz1.json").read_text(encoding="utf-8")


def test_spec_noncommutative_exit_2(capsys):
    code, out, err = run(capsys, "spec", str(algebra_path("boolmat2.mvw")))
    assert code == 2
    assert "not commutative" in err


def test_spec_human_report(capsys):
    code, out, err = run(capsys, "spec", str(algebra_path("t3.mvw")))
    assert code == 0
    assert "0 prime ideal point(s)" in out
    assert "warning" in out


def test_ideals_json_schema(capsys):
    code, out, err = run(capsys, "ideals", str(algebra_path("z1xz1.mvw")), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ideals"] == [[0], [0, 1], [0, 2], [0, 1, 2, 3]]


def test_ideals_filter_flags(capsys):
    code, out, err = run(capsys, "ideals", str(algebra_path("z1xz1.mvw")),
                         "--maximal", "--json")
    assert code == 0
    assert json.loads(out)["ideals"] == [[0, 1], [0, 2]]


def test_quotient_writes_valid_rig(capsys, tmp_path):
    out_json = tmp_path / "q.json"
    code, out, err = run(capsys, "quotient", str(algebra_path("z1xz1.mvw")),
                         "--ideal", "0,1", "-o", str(out_json))
    assert code == 0
    rig = dsl.deserialize(out_json.read_text(encoding="utf-8"))
    assert rig.size == 2


def test_quotient_rejects_non_ideal(capsys):
    code, out, err = run(capsys, "quotient", str(algebra_path("z3.mvw")),
                         "--ideal", "0,1")
    assert code == 2
    assert "not an ideal" in err


def test_filters_principal_json(capsys):
    code, out, err = run(capsys, "filters", str(algebra_path("z3.mvw")),
                         "--principal", "3", "--json")
    assert code == 0
    assert json.loads(out) == [1, 2, 3]


@pytest.mark.parametrize("argv", [
    ("filters", "z3.mvw", "--principal", "\u00b2"),
    ("filters", "z3.mvw", "--principal", "\u0663"),
    ("quotient", "z3.mvw", "--ideal", "0,\u00b2"),
])
def test_non_ascii_digits_are_unknown_elements(capsys, argv):
    # '\u00b2' (superscript two) and '\u0663' (Arabic-Indic three) pass
    # str.isdigit, but only ASCII digits name an element by index
    command, name, option, value = argv
    code, out, err = run(capsys, command, str(algebra_path(name)), option, value)
    assert (code, out) == (2, "")
    assert err == f"error: 1:1: error: unknown element {value.split(',')[-1]!r}\n"


def _nested_source(form, levels):
    """A definition nested ``levels`` deep in one of three ways, with the
    line and column of its deepest opener."""
    if form == "parentheses":
        head, opener = "  neg(x) = ", "("
        line = head + opener * levels + "3 - x" + ")" * levels
        return (f"algebra A {{\n  elements: 0..3\n  zero: 0\n{line}\n"
                f"  add(x, y) = min(3, x + y)\n}}\n"), 4, len(head) + levels
    if form == "min":
        head, opener = "  add(x, y) = ", "min(3, "
        line = head + opener * levels + "x + y" + ")" * levels
        return (f"algebra A {{\n  elements: 0..3\n  zero: 0\n  neg(x) = 3 - x\n{line}\n}}\n",
                5, len(head) + len(opener) * (levels - 1) + 1)
    # the innermost zn(1) is the deepest call
    head, opener = "  builder: ", "product("
    line = head + opener * (levels - 1) + "zn(1)" + ", gamma(1, [0]))" * (levels - 1)
    return f"algebra A {{\n{line}\n}}\n", 2, len(head) + len(opener) * (levels - 1) + 1


@pytest.mark.parametrize("form", ["parentheses", "min", "product"])
def test_nesting_cap(capsys, tmp_path, form):
    path = tmp_path / "deep.mvw"
    path.write_text(_nested_source(form, dsl.MAX_NESTING)[0], encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    text, line, column = _nested_source(form, dsl.MAX_NESTING + 1)
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {line}:{column}: error: nesting deeper than 100 levels\n"


def _chain_source(add, mul):
    return (f"algebra A {{\n  elements: 0..3\n  zero: 0\n  neg(x) = 3 - x\n"
            f"  add(x, y) = {add}\n  mul(x, y) = {mul}\n}}\n")


_SHORT_SUM, _SHORT_PRODUCT = "min(3, x + y)", "min(3, x * y)"


@pytest.mark.parametrize("add, mul", [
    ("min(3, x + y" + " + 0" * 998 + ")", _SHORT_PRODUCT),
    ("min(3, x + y" + " + 0" * 4998 + ")", _SHORT_PRODUCT),
    (_SHORT_SUM, "min(3, x * y" + " * 1" * 998 + ")"),
], ids=["sum-1000", "sum-5000", "product-1000"])
def test_long_operator_chains_load(capsys, tmp_path, add, mul):
    # a chain of operators nests through its left operands, which the
    # evaluator and the printer walk in a loop, not by recursion
    path = tmp_path / "long.mvw"
    path.write_text(_chain_source(_SHORT_SUM, _SHORT_PRODUCT), encoding="utf-8")
    expect = run(capsys, "check", str(path))
    assert expect[0] == 0
    path.write_text(_chain_source(add, mul), encoding="utf-8")
    assert run(capsys, "check", str(path)) == expect
    assert run(capsys, "parse", str(path)) == (0, "parsed algebra A (tables)\n", "")
    code, out, err = run(capsys, "parse", str(path), "--emit-json")
    assert (code, err) == (0, "")
    assert dsl.deserialize(out).same_tables(dsl.elaborate_file(_chain_source(
        _SHORT_SUM, _SHORT_PRODUCT))[0])
    [source] = dsl.parse(path.read_text(encoding="utf-8"))
    text = dsl.pretty(source)
    assert f"add(x, y) = {add}" in text and f"mul(x, y) = {mul}" in text


def test_filters_frame_json(capsys):
    code, out, err = run(capsys, "filters", str(algebra_path("z1xz1.mvw")),
                         "--frame", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pfilters"] == [[3], [1, 3], [2, 3], [0, 1, 2, 3]]
    assert sorted(doc["hasse"]) == [[0, 1], [0, 2], [1, 3], [2, 3]]


def test_filters_json_needs_target(capsys):
    code, out, err = run(capsys, "filters", str(algebra_path("z3.mvw")), "--json")
    assert code == 2


@pytest.mark.parametrize("order", [("--principal", "1", "--frame"), ("--frame", "--principal", "1")])
def test_filters_principal_and_frame_exclude_each_other(capsys, order):
    with pytest.raises(SystemExit) as exc:
        cli.main(["filters", str(algebra_path("z3.mvw")), *order])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument" in err
    assert "--principal" in err and "--frame" in err


def test_parse_emit_json_roundtrips(capsys):
    code, out, err = run(capsys, "parse", str(algebra_path("z3.mvw")),
                         "--emit-json")
    assert code == 0
    rig = dsl.deserialize(out)
    assert rig.name == "Z3" and rig.size == 4


def test_size_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("MVW_SIZE_BOUND", "8")
    code, out, err = run(capsys, "check", str(algebra_path("boolmat2.mvw")))
    assert code == 2
    assert "bound 8" in err


def test_size_bound_env_must_be_positive_integer(capsys, monkeypatch):
    for value in ("abc", "0", "-3"):
        monkeypatch.setenv("MVW_SIZE_BOUND", value)
        code, out, err = run(capsys, "verify", str(algebra_path("z1.mvw")))
        assert code == 2
        assert err == f"error: MVW_SIZE_BOUND={value} is not a positive integer\n"


def test_size_bound_caps_dsl_carriers_and_builders(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MVW_SIZE_BOUND", "10")
    cases = {
        "algebra C {\n  elements: 0..20\n  zero: 0\n  neg(x) = 20 - x\n"
        "  add(x, y) = min(20, x + y)\n}\n":
            "2:13: carrier would have 21 elements (bound 10)",
        "algebra N {\n  elements: [" + ", ".join(f"e{i}" for i in range(11)) + "]\n"
        "  zero: e0\n  neg: [e0]\n  add: [[e0]]\n}\n":
            "2:13: carrier would have 11 elements (bound 10)",
        "algebra Z { builder: zn(20) }\n": "1:22: Z20 carrier would have 21 elements (bound 10)",
        "algebra L { builder: luk(11) }\n": "1:22: L11 carrier would have 11 elements (bound 10)",
    }
    src = tmp_path / "big.mvw"
    for text, message in cases.items():
        src.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", str(src))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    monkeypatch.setenv("MVW_SIZE_BOUND", "21")
    for text in list(cases)[::2]:
        src.write_text(text, encoding="utf-8")
        assert run(capsys, "check", str(src))[0] == 0


@pytest.mark.parametrize("builder, message", [
    ("zn(0)", "1:22: error: n must be >= 1"),
    ("luk(0)", "1:22: error: n must be >= 2"),
    ("matrix(zn(1), 0)", "1:22: error: matrix dimension must be >= 1"),
    ("matrix(luk(3), 2)", "1:22: error: base must have a product"),
    ("gamma(3, [1, 1])", "1:22: error: unit vector must have length 3"),
    ("gamma(2, [1, 2])", "1:22: error: unit vector entries must be 0 or 1, got (1, 2)"),
    ("sub(zn(3), [9])", "1:22: error: element index 9 out of range 0..3"),
    # a nested call is located at its own name
    ("product(zn(1), zn(0))", "1:37: error: n must be >= 1"),
    ("product(zn(64), zn(64))", "1:22: product carrier would have 4225 elements (bound 4096)"),
])
def test_builder_errors_are_located(capsys, tmp_path, builder, message):
    src = tmp_path / "builder.mvw"
    src.write_text(f"algebra X {{ builder: {builder} }}\n", encoding="utf-8")
    assert run(capsys, "check", str(src)) == (2, "", f"error: {message}\n")


def test_huge_range_rejected_before_elaboration(capsys, tmp_path):
    # the cap is checked before the 10^8 carrier values are built
    src = tmp_path / "huge.mvw"
    src.write_text("algebra H {\n  elements: 0..100000000\n  zero: 0\n"
                   "  neg(x) = 100000000 - x\n  add(x, y) = min(100000000, x + y)\n}\n",
                   encoding="utf-8")
    code, out, err = run(capsys, "check", str(src))
    assert code == 2
    assert err == "error: 2:13: carrier would have 100000001 elements (bound 4096)\n"


def test_unbound_variable_exit_2(capsys, tmp_path):
    src = tmp_path / "unbound.mvw"
    src.write_text("algebra U {\n  elements: 0..3\n  zero: 0\n  neg(x) = 3 - y\n"
                   "  add(x, y) = min(3, x + y)\n}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(src))
    assert code == 2
    assert err == "error: 4:16: error: unbound variable 'y'\n"


@pytest.mark.parametrize("body, message", [
    ("  elements: [0, 1/0]\n", "2:17: error: zero denominator"),
    ("  elements: 0..1\n  zero: 0\n  neg(x) = 1 - x\n  add(x, y) = min(1, x + y * 0/0)\n",
     "5:30: error: zero denominator"),
])
def test_zero_denominator_exit_2(capsys, tmp_path, body, message):
    src = tmp_path / "zero_den.mvw"
    src.write_text("algebra D {\n" + body + "}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(src))
    assert code == 2
    assert err == f"error: {message}\n"


def test_multi_algebra_file_check_all(capsys, tmp_path):
    multi = tmp_path / "multi.mvw"
    multi.write_text("algebra A { builder: zn(1) } algebra B { builder: zn(2) }",
                     encoding="utf-8")
    code, out, err = run(capsys, "check", str(multi))
    assert code == 0
    assert out.count("result: PASS") == 2
    code, out, err = run(capsys, "spec", str(multi))
    assert code == 2
    assert "exactly one" in err


def _counting(monkeypatch, module, *names):
    """Wrap ``module.<name>`` for each name; returns name -> call count."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def wrapped(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    return calls


def test_check_of_a_builder_file_scans_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "z127.mvw"
    path.write_text("algebra Z127 { builder: zn(127) }", encoding="utf-8")
    calls = _counting(monkeypatch, core, "check_mv", "check_mvw")
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("result: PASS\n")
    assert calls == {"check_mv": 1, "check_mvw": 1}


def test_product_cap_is_enforced_before_any_check(capsys, monkeypatch, tmp_path):
    path = tmp_path / "oversize.mvw"
    path.write_text("algebra Oversize {\n  builder: product(zn(64), zn(64))\n}\n",
                    encoding="utf-8")
    calls = _counting(monkeypatch, core, "check_mv", "check_mvw", "scan_mv", "scan_mvw")
    for command in ("check", "verify"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: 2:12: product carrier would have 4225 elements (bound 4096)\n"
    assert set(calls.values()) == {0}


@pytest.mark.parametrize("expr, message", [
    ("product(zn(5000), zn(1))", "2:20: Z5000 carrier would have 5001 elements (bound 4096)"),
    ("product(zn(0), zn(1))", "2:20: error: n must be >= 1"),
    ("product(gamma(2, [1, 2]), zn(1))",
     "2:20: error: unit vector entries must be 0 or 1, got (1, 2)"),
])
def test_failing_factor_messages(capsys, tmp_path, expr, message):
    path = tmp_path / "p.mvw"
    path.write_text(f"algebra P {{\n  builder: {expr}\n}}\n", encoding="utf-8")
    for command in ("check", "verify"):
        assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n")


def test_nested_builder_arguments_are_checked(report_log):
    # unchecked as built, each nested result is checked once before use
    text = "algebra T { builder: trivial(luk(3)) }\nalgebra P { builder: product(zn(2), T) }"

    def logged():
        entries = [(rig.name, report, how) for rig, report, how in report_log]
        report_log.clear()
        return entries
    assert [r.size for r in dsl.elaborate_file(text, check=False)] == [3, 9]
    # luk(3), and the product's sources zn(2) and T, which the product reads
    # before its nested zn(2) is checked; the product inherits
    assert logged() == [("L3", "check_mv", "built"),
                        ("Z2", "check_mv", "built"), ("T", "check_mv", "built"),
                        ("P", "check_mv", "inherited"),
                        ("Z2", "check_mvw", "built"), ("T", "check_mvw", "built"),
                        ("P", "check_mvw", "inherited")]
    assert [r.size for r in dsl.elaborate_file(text)] == [3, 9]
    # luk(3), then T itself, then zn(2); the product inherits from zn(2)
    # and from T, which was checked when it was elaborated
    assert logged() == [("L3", "check_mv", "built"),
                        ("T", "check_mv", "built"), ("T", "check_mvw", "built"),
                        ("Z2", "check_mv", "built"), ("P", "check_mv", "inherited"),
                        ("Z2", "check_mvw", "built"), ("P", "check_mvw", "inherited")]


_ANALYZE_LARGE = {
    "chain200.mvw": ("algebra Chain200 {\n  elements: 0..200\n  zero: 0\n"
                     "  neg(x) = 200 - x\n  add(x, y) = min(200, x + y)\n"
                     "  mul(x, y) = min(200, x * y)\n}\n"),
    "z127.mvw": "algebra Z127 { builder: zn(127) }",
    "g3xg2.mvw": "algebra G3xG2 { builder: product(gamma(3, [1, 1, 1]), gamma(2, [1, 1])) }",
    "z63.mvw": "algebra Z63 { builder: zn(63) }",
    "z1p4.mvw": "algebra Z1p4 { builder: product(zn(1), zn(1), zn(1), zn(1)) }",
    "m2z1.mvw": "algebra M2Z1 { builder: matrix(zn(1), 2) }",
}


def test_analysis_commands_never_scan_the_mv_axioms(capsys, monkeypatch, tmp_path):
    # the chain decomposition certifies every lawful structure these load
    for name, text in _ANALYZE_LARGE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    calls = _counting(monkeypatch, core, "scan_mv")
    for argv in (["ideals", "chain200.mvw"], ["check", "z127.mvw"], ["ideals", "g3xg2.mvw"],
                 ["spec", "g3xg2.mvw"], ["ideals", "--prime", "z63.mvw"], ["spec", "z63.mvw"],
                 ["filters", "z63.mvw"], ["spec", "z1p4.mvw"], ["filters", "--frame", "z1p4.mvw"],
                 ["ideals", "m2z1.mvw"], ["check", "chain200.mvw"]):
        code, _out, err = run(capsys, argv[0], *argv[1:-1], str(tmp_path / argv[-1]))
        assert (code, err) == (0, ""), argv
    assert calls["scan_mv"] == 0


# -- the shared parser ------------------------------------------------------------

def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` call; a SystemExit from
    argparse counts as its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parser_calls(tmp_path):
    z3 = str(algebra_path("z3.mvw"))
    calls = [
        ["check", z3], ["check", z3, "--mv-only"],
        ["ideals", z3], ["ideals", z3, "--prime", "--json"],
        ["quotient", z3, "--ideal", "0", "-o", str(tmp_path / "q.json")],
        ["spec", z3], ["spec", z3, "--json"], ["spec", z3, "--dot", str(tmp_path / "s.dot")],
        ["filters", z3], ["filters", z3, "--principal", "1", "--json"], ["filters", z3, "--frame"],
        ["verify", "--list"], ["verify", z3], ["verify", z3, "--suite", "core"],
        ["parse", z3], ["parse", z3, "--emit-json"],
        # usage errors: argparse exits 2 with the usage on stderr
        [], ["nosuchcommand"], ["quotient", z3], ["spec", z3, "--dot", "X", "--json"],
        ["filters", z3, "--principal", "1", "--frame"],
        ["--help"],
    ]
    calls += [[command, "--help"] for command in
              ("check", "ideals", "quotient", "spec", "filters", "verify", "parse")]
    return calls + [["--help"], ["verify", "--list"], ["verify", z3]]


def _run_sequence(capsys, monkeypatch, calls):
    # a different terminal width on each call: argparse reads COLUMNS when
    # it formats a usage or help text
    widths = ("80", "40", "200", "57", "123")
    outcomes = []
    for i, argv in enumerate(calls):
        monkeypatch.setenv("COLUMNS", widths[i % len(widths)])
        outcomes.append(_outcome(capsys, argv))
    return outcomes


def test_shared_parser_matches_a_fresh_parser_on_every_call(capsys, monkeypatch, tmp_path):
    calls = _parser_calls(tmp_path)
    namespaces = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        namespaces.append(namespace)
        return namespace
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    cli.build_parser.cache_clear()
    shared = _run_sequence(capsys, monkeypatch, calls)
    # each call parses into a namespace of its own, holding what a freshly
    # built parser gives for that argv and nothing an earlier call set
    assert len({id(ns) for ns in namespaces}) == len(namespaces)
    parsed = [argv for argv, (code, _out, _err) in zip(calls, shared)
              if code in (0, 1) and "--help" not in argv]
    assert [vars(ns) for ns in namespaces] == [
        vars(parse_args(cli.build_parser.__wrapped__(), argv)) for argv in parsed]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_sequence(capsys, monkeypatch, calls)
    for argv, got, expect in zip(calls, shared, fresh):
        assert got == expect, argv
    assert [code for code, _out, _err in shared].count(2) == 5
    for argv, (code, _out, err) in zip(calls, shared):
        if code == 2:
            assert err.startswith("usage: mvw"), argv
    # the two top-level help texts were formatted at different widths
    helps = [out for argv, (_code, out, _err) in zip(calls, shared) if argv == ["--help"]]
    assert len(helps) == 2 and helps[0] != helps[1]
    assert all(out.startswith("usage: mvw") for out in helps)


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.__wrapped__()
    one_build = list(built)
    assert len(one_build) == 1 + 7  # mvw and its seven subcommands
    built.clear()
    cli.build_parser.cache_clear()
    calls = _parser_calls(tmp_path)
    for argv in calls[:20]:
        _outcome(capsys, argv)
    assert built == one_build


def test_importing_the_cli_builds_no_parser():
    # a fresh interpreter, so the import is the first one
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import mvwrig.cli\n"
        "print(len(built))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
