import dataclasses

import pytest

from mvwrig import core, frames, ideals, spectrum, suites
from mvwrig.errors import MvwError

from conftest import LADDER, zoo_items


@pytest.mark.parametrize("rig", zoo_items())
@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_suite_has_no_failures(rig, suite):
    results = suites.run_suite(rig, suite)
    failures = [r.line() for r in results if r.status == "FAIL"]
    assert not failures, failures


def test_every_check_passes_somewhere(zoo):
    # no check is dead weight: each one reports PASS on at least one example
    passed = set()
    for rig in zoo.values():
        for result in suites.run_all(rig):
            if result.status == "PASS":
                passed.add((result.suite, result.name))
    all_checks = {(suite, name) for suite, name, _ in suites.listing()}
    assert passed == all_checks


def test_skips_carry_reasons(zoo):
    for rig in zoo.values():
        for result in suites.run_all(rig):
            if result.status == "SKIPPED":
                assert result.detail


def test_listing_matches_suites():
    rows = suites.listing()
    assert {s for s, _, _ in rows} == set(suites.SUITE_NAMES)
    assert len(rows) == len({(s, n) for s, n, _ in rows})


def test_unknown_suite_rejected(zoo):
    with pytest.raises(KeyError):
        suites.run_suite(zoo["Z1"], "bogus")


def test_raising_check_fails_and_the_rest_still_run(zoo, monkeypatch):
    def broken(rig):
        raise MvwError("no maximal ideal found in a nontrivial structure")

    monkeypatch.setattr(ideals, "maximal_ideals", broken)
    results = suites.run_suite(zoo["Z3"], "ideals")
    # every check reports, and only the two that call the broken function fail
    assert [r.name for r in results] == [name for name, _, _ in suites.SUITES["ideals"]]
    failed = {r.name: r.detail for r in results if r.status == "FAIL"}
    assert failed == {
        "maximal-exists": "no maximal ideal found in a nontrivial structure",
        "maximal-implies-prime": "no maximal ideal found in a nontrivial structure",
    }


def test_frame_cap_skips_theta_iso(zoo):
    # a size cap met inside a check is a SKIPPED naming the cap, not a FAIL
    results = {r.name: r for r in suites.run_suite(zoo["Z3"], "locale", frame_bound=2)}
    assert results["theta-iso"].status == "SKIPPED"
    assert results["theta-iso"].detail == "carrier of 4 exceeds frame bound 2"


def test_radical_prime_intersection_catches_a_wrong_radical(zoo, monkeypatch):
    monkeypatch.setattr(ideals, "radical", lambda rig, ideal: ideal)
    results = {r.name: r for r in suites.run_suite(zoo["T3"], "ideals")}
    assert results["radical-prime-intersection"].status == "FAIL"
    assert results["radical-prime-intersection"].detail == (
        "radical mismatch on T3: definition gives [0], prime intersection gives [0, 1, 2]")


def test_run_all_shares_one_context(zoo, monkeypatch):
    # the spectrum and the frame are computed once per structure, not once
    # per suite
    calls = []
    for module, name in ((spectrum, "spec"), (frames, "frame")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for key in ("Z3", "Z1xZ1", "G110"):
        calls.clear()
        results = suites.run_all(zoo[key])
        assert calls.count("spec") == calls.count("frame") == 1, key
        assert not [r.line() for r in results if r.status == "FAIL"]


def test_run_all_builds_one_ideal_mask_list(monkeypatch):
    # the context's mask list serves generation, products, classification
    # and the correspondence; the rest come from the prime and maximal
    # lists, the spectrum and the Chang embedding
    rig = LADDER["G3xG2"]()
    calls = []
    original = ideals._ideal_masks

    def counted(r, *args, **kwargs):
        calls.append(r is rig)
        return original(r, *args, **kwargs)

    monkeypatch.setattr(ideals, "_ideal_masks", counted)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    assert sum(calls) <= 10


# -- the re-checks of library objects fire -------------------------------------

def _patch_quotient(monkeypatch, change):
    """Make ideals.quotient return change(q) for the quotient q it built."""
    original = ideals.quotient
    monkeypatch.setattr(ideals, "quotient", lambda rig, ideal: change(original(rig, ideal)))


def _ideal_results(rig):
    return {r.name: r for r in suites.run_suite(rig, "ideals")}


def test_quotient_axioms_catches_a_corrupted_table(zoo, monkeypatch):
    def corrupt(q):
        if q.rig.size != 4:
            return q
        mul = q.rig.mul_table.copy()
        mul[1, 1] = q.rig.u
        q.rig = core.derive(q.rig.neg_table, q.rig.add_table, mul,
                            names=q.rig.carrier.names, name=q.rig.name)
        return q

    _patch_quotient(monkeypatch, corrupt)
    result = _ideal_results(zoo["Z3"])["quotient-axioms"]
    assert (result.status, result.detail) == (
        "FAIL", "{0}: quotient failed axioms: ['MVW-ii', 'MVW-v']")


@pytest.mark.parametrize("key, projection, detail", [
    ("Z3", (0, 2, 1, 3), "{0}: projection is not a homomorphism: ('add', (1, 1))"),
    # the other coordinate projection is a homomorphism with the wrong kernel
    ("Z1xZ1", (0, 1, 0, 1), "{(0,0), (0,1)}: projection kernel differs from the ideal"),
])
def test_quotient_axioms_catches_a_wrong_projection(zoo, monkeypatch, key, projection,
                                                    detail):
    rig = zoo[key]
    target = frozenset({0}) if key == "Z3" else frozenset({0, 1})

    def wrong(q):
        return dataclasses.replace(q, projection=projection) if q.ideal.members == target \
            else q

    _patch_quotient(monkeypatch, wrong)
    result = _ideal_results(rig)["quotient-axioms"]
    assert (result.status, result.detail) == ("FAIL", detail)


def test_first_iso_catches_a_broken_induced_map(zoo, monkeypatch):
    original = ideals.first_iso

    def broken(f):
        fi = original(f)
        if fi.iso.source.size != 4:
            return fi
        return dataclasses.replace(fi, iso=dataclasses.replace(fi.iso, mapping=(0, 2, 1, 3)))

    monkeypatch.setattr(ideals, "first_iso", broken)
    result = _ideal_results(zoo["Z3"])["first-iso"]
    assert (result.status, result.detail) == (
        "FAIL", "{0}: induced map fails a clause: ('add', (1, 1))")


def test_hom_kernel_order_catches_a_wrong_projection(zoo, monkeypatch):
    def wrong(q):
        return dataclasses.replace(q, projection=(0, 2, 1, 3)) if q.rig.size == 4 else q

    _patch_quotient(monkeypatch, wrong)
    result = _ideal_results(zoo["Z3"])["hom-kernel-order"]
    assert (result.status, result.detail) == ("FAIL", "fails at (1, 2) over {0}")
