"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success; every tolerance is exact
(integer/rational arithmetic throughout).
"""

import copy
import itertools
import time
from fractions import Fraction

import pytest

from mvwrig import builders, cli, core, dsl, frames, ideals, spectrum, suites
from mvwrig.errors import ClosureViolation

from conftest import ZOO, algebra_path, golden_path
from test_ideals import enumerate_homomorphisms

AXIOM_SUITE_BUDGET_SECONDS = 60.0


def _families():
    base = [builders.build_zn(n) for n in range(1, 7)]
    base += [builders.lift_trivial_product(builders.build_luk_mv(n)).set_name(f"T{n}")
             for n in range(2, 6)]
    base.append(builders.build_matrix_rig(builders.build_zn(1), 2))
    for k in range(1, 4):
        for u in itertools.product((0, 1), repeat=k):
            base.append(builders.gamma_zk(k, u))
    return base


def test_axiom_suite_on_all_families():
    start = time.monotonic()
    base = _families()
    checked = 0
    for rig in base:
        assert core.check_mv(rig).passed, rig.name
        assert core.check_mvw(rig).passed, rig.name
        checked += 1
    for a in base:
        for b in base:
            if a.size * b.size > 4096:
                continue
            # the product inherits its factors' reports; a copy keeps none,
            # so the product's own tables are checked
            prod = copy.copy(builders.direct_product([a, b]))
            assert core.check_mv(prod).passed, prod.name
            assert core.check_mvw(prod).passed, prod.name
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < AXIOM_SUITE_BUDGET_SECONDS, f"axiom suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE axiom-suite: PASS "
          f"({checked} structures in {elapsed:.1f}s)")


def test_closure_diagnostic_for_real_product():
    with pytest.raises(ClosureViolation) as exc:
        builders.attach_real_product(3)
    assert exc.value.inputs == (Fraction(1, 2), Fraction(1, 2))
    assert exc.value.value == Fraction(1, 4)
    with pytest.raises(ClosureViolation) as exc:
        builders.attach_real_product(4)
    assert exc.value.inputs == (Fraction(1, 3), Fraction(1, 3))
    assert exc.value.value == Fraction(1, 9)
    # the same witnesses surface through the definition files
    for name, pair, value in (
            ("luk3_realprod.mvw", (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)),
            ("luk4_realprod.mvw", (Fraction(1, 3), Fraction(1, 3)), Fraction(1, 9))):
        with pytest.raises(ClosureViolation) as exc:
            dsl.elaborate_file(algebra_path(name).read_text(encoding="utf-8"))
        assert exc.value.inputs == pair and exc.value.value == value
    print("\nACCEPTANCE closure-diagnostic: PASS")


LAW_CHECKS = (
    "residuation",
    "monus-superadditive",
    "monus-superadditive-nary",
    "product-monotone",
    "product-join-bound",
    "product-meet-bound",
    "power-join-bound",
    "power-meet-bound",
)


def test_exhaustive_law_suites_on_shipped_examples():
    for name, rig in ZOO.items():
        assert rig.size <= 16, name
        results = {r.name: r for r in suites.run_suite(rig, "core")}
        for check in LAW_CHECKS:
            assert results[check].status != "FAIL", (name, results[check].line())
        assert results["residuation"].status == "PASS"
        assert results["monus-superadditive"].status == "PASS"
        if rig.size <= 6:
            assert results["monus-superadditive-nary"].status == "PASS", name
        if rig.mul_table is not None:
            for check in LAW_CHECKS[3:]:
                assert results[check].status == "PASS", (name, check)
    print("\nACCEPTANCE law-suites: PASS")


def test_ideal_theory():
    # congruence <-> ideal round-trips on every example
    for name, rig in ZOO.items():
        for ideal in ideals.enumerate_ideals(rig):
            cong = ideals.congruence_from_ideal(rig, ideal)
            assert ideals.ideal_from_congruence(rig, cong).members == ideal.members
            back = ideals.congruence_from_ideal(
                rig, ideals.ideal_from_congruence(rig, cong))
            assert back.class_of == cong.class_of

    # the first isomorphism theorem for every homomorphism between small pairs
    small = [r for r in ZOO.values() if r.size <= 4]
    hom_count = 0
    for a in small:
        for b in small:
            for f in enumerate_homomorphisms(a, b):
                fi = ideals.first_iso(f)
                assert ideals.check_homomorphism(fi.iso)[0]
                hom_count += 1
    assert hom_count > 0

    # the ideal correspondence for every ideal of every mid-sized example
    for rig in (r for r in ZOO.values() if r.size <= 9):
        for ideal in ideals.enumerate_ideals(rig):
            ideals.ideal_correspondence(rig, ideal)

    # radicals from the power definition match the prime intersections
    commutative = [r for r in ZOO.values()
                   if r.mul_table is not None and r.commutative]
    for rig in commutative:
        primes = ideals.prime_ideals(rig)
        for ideal in ideals.enumerate_ideals(rig):
            inter = set(rig.elements())
            for p in primes:
                if ideal.members <= p.members:
                    inter &= p.members
            assert ideals.radical(rig, ideal).members == frozenset(inter), \
                (rig.name, ideal.display())

    # nilradical corollary, including the degenerate zero-square chain
    for rig in commutative:
        nil = ideals.nilradical(rig).members
        inter = set(rig.elements())
        for p in ideals.prime_ideals(rig):
            inter &= p.members
        assert nil == frozenset(inter), rig.name
    t3 = ZOO["T3"]
    assert ideals.nilradical(t3).members == frozenset(range(3))
    assert spectrum.spec(t3).points == ()
    print(f"\nACCEPTANCE ideal-theory: PASS ({hom_count} homomorphisms)")


def test_spectrum_theory():
    commutative = [r for r in ZOO.values()
                   if r.mul_table is not None and r.commutative]
    for rig in commutative:
        results = {r.name: r for r in suites.run_suite(rig, "spectrum")}
        for check in ("base-laws", "full-iff-nilpotent", "opens-form-topology",
                      "t0", "point-closure", "set-closure", "radical-order"):
            assert results[check].status == "PASS", (rig.name, check)
        if rig.unit is not None:
            assert results["irreducible-iff-unique-maximal"].status == "PASS", rig.name

    # frozen spectra: one point for the 4-chain, two for the boolean square
    for file_name, golden_name, count in (
            ("z3.mvw", "spec_z3.json", 1), ("z1xz1.mvw", "spec_z1xz1.json", 2)):
        rig = dsl.elaborate_file(algebra_path(file_name).read_text(encoding="utf-8"))[0]
        space = spectrum.spec(rig)
        assert len(space.points) == count
        assert dsl.serialize(space) == golden_path(golden_name).read_text(encoding="utf-8")
    print("\nACCEPTANCE spectrum: PASS")


def test_locale_theory():
    unital = [r for r in ZOO.values()
              if r.mul_table is not None and r.commutative
              and r.unit is not None and r.size <= 9]
    assert unital
    for rig in unital:
        tm = frames.theta(rig)
        assert len(tm.space.opens) == len(tm.frame.pfilters), rig.name

    commutative = [r for r in ZOO.values()
                   if r.mul_table is not None and r.commutative]
    for rig in commutative:
        results = {r.name: r for r in suites.run_suite(rig, "locale")}
        for check in ("principal-meet-law", "principal-join-law",
                      "pfilter-decomposition", "frame-distributivity"):
            assert results[check].status == "PASS", (rig.name, check)
        if rig.size <= 9:
            assert results["frame-covers"].status == "PASS", rig.name

    square = ZOO["Z1xZ1"]
    assert frames.finite_subcover(square, [1, 2]) == [1, 2]
    print("\nACCEPTANCE locale: PASS")


def test_chang_embedding_everywhere():
    checked = 0
    for name, rig in ZOO.items():
        if rig.size == 1 or rig.size > 9:
            continue
        emb = ideals.chang_embedding(rig)
        assert len(set(emb.mapping)) == rig.size, name
        for q in emb.quotients:
            assert (q.rig.leq_table | q.rig.leq_table.T).all(), name
        checked += 1
    assert checked >= 10
    print(f"\nACCEPTANCE chang-embedding: PASS ({checked} structures)")


def test_cli_contract(capsys, tmp_path):
    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, _ = run("check", str(algebra_path("z3.mvw")))
    assert code == 0
    assert out == golden_path("check_z3.txt").read_text(encoding="utf-8")

    for name, golden in (("z3.mvw", "verify_z3.txt"), ("z1xz1.mvw", "verify_z1xz1.txt")):
        code, out, _ = run("verify", str(algebra_path(name)), "--suite", "all")
        assert code == 0
        assert out == golden_path(golden).read_text(encoding="utf-8")

    out_dot = tmp_path / "out.dot"
    for name, golden in (("z3.mvw", "spec_z3.dot"), ("z1xz1.mvw", "spec_z1xz1.dot")):
        code, _, _ = run("spec", str(algebra_path(name)), "--dot", str(out_dot))
        assert code == 0
        assert out_dot.read_text(encoding="utf-8") == \
            golden_path(golden).read_text(encoding="utf-8")

    # corrupted table: exit 1 with a printed witness
    bad = tmp_path / "bad.mvw"
    bad.write_text(
        "algebra Bad { elements: 0..3 zero: 0 neg: [3, 2, 1, 0] "
        "add(x,y) = min(3, x + y) "
        "mul: [[0, 1, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 3]] }",
        encoding="utf-8")
    code, out, _ = run("check", str(bad))
    assert code == 1 and "MVW-iii FAIL" in out and "(0, 1)" in out

    # parse/validation errors: exit 2
    code, _, err = run("check", str(algebra_path("luk3_realprod.mvw")))
    assert code == 2 and "1/4" in err
    print("\nACCEPTANCE cli-contract: PASS")
