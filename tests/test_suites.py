import dataclasses
import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from mvwrig import builders, core, frames, ideals, spectrum, suites
from mvwrig.errors import MvwError

from conftest import LADDER, ZOO, zoo_items


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
    classified_ideals = ideals.classified_ideals

    def broken(rig, *args, **kwargs):
        # a classification that finds no maximal ideal
        return [(i, dataclasses.replace(cls, maximal=False))
                for i, cls in classified_ideals(rig, *args, **kwargs)]

    monkeypatch.setattr(ideals, "classified_ideals", broken)
    results = suites.run_suite(zoo["Z3"], "ideals")
    # every check reports, and only the two that ask for maximal ideals fail
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
    # the context's mask list serves generation, products, classification,
    # the prime and maximal lists and the correspondence
    rig = LADDER["G3xG2"]()
    calls = []
    original = ideals._ideal_masks

    def counted(r, *args, **kwargs):
        calls.append(r is rig)
        return original(r, *args, **kwargs)

    monkeypatch.setattr(ideals, "_ideal_masks", counted)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    # one list for the context, one for the spectrum's primes and one for
    # the Chang embedding's MV-ideals
    assert sum(calls) <= 3


def test_run_all_reads_principal_filters_off_the_frame(monkeypatch):
    # past the subset caps no locale check builds a principal filter by
    # closure: the frame's principal index is the one route to F_a
    rig = LADDER["G3xG2"]()
    calls = []
    original = frames.pfilter_generated

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(frames, "pfilter_generated", counted)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    assert calls == []


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


# -- pairwise checks against the earlier scans ---------------------------------
#
# ``monus-superadditive-nary`` now checks the reachable (sum x, sum y,
# sum of x_i - y_i) triples, and ``frame-distributivity`` checks every triple
# of filters before its family scan.  These are the earlier bodies.

def reference_nary(r):
    if r.size > suites.NARY_SIZE_LIMIT:
        raise suites._Skip(f"carrier {r.size} > {suites.NARY_SIZE_LIMIT}")
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


def reference_frame_distributivity(ctx):
    fr = ctx.frame
    prin_idx = sorted(set(fr.principal_index().tolist()))
    for fi in range(len(fr.pfilters)):
        for k in range(len(prin_idx) + 1):
            for family in itertools.combinations(prin_idx, k):
                lhs = fr.meet_table[fi][fr.join_of(family)]
                rhs = fr.join_of(fr.meet_table[fi][g] for g in family)
                if lhs != rhs:
                    return f"fails for filter {fi} against family {family}"


NARY_RIGS = [r for r in ZOO.values() if r.size <= suites.NARY_SIZE_LIMIT] + \
    [r for r in (f() for f in LADDER.values()) if r.size <= suites.NARY_SIZE_LIMIT] + \
    [builders.direct_product([builders.build_zn(a), builders.build_zn(b)])
     for a, b in ((1, 2), (2, 1))]


def test_nary_check_matches_tuple_scan():
    for rig in NARY_RIGS:
        ctx = SimpleNamespace(rig=rig)
        assert suites._check_monus_superadditive_nary(ctx) == reference_nary(rig), rig.name


def test_nary_check_matches_tuple_scan_on_corrupted_tables():
    rng = random.Random(2024)
    caught = 0
    for _ in range(100):
        rig = rng.choice([r for r in NARY_RIGS if r.size > 1])
        n = rig.size
        add, monus = rig.add_table.copy(), rig.monus_table.copy()
        table = rng.choice((add, monus))
        x, y = rng.randrange(n), rng.randrange(n)
        table[x, y] = (table[x, y] + rng.randrange(1, n)) % n
        fake = SimpleNamespace(size=n, add_table=add, monus_table=monus,
                               leq_table=rig.leq_table)
        detail = suites._check_monus_superadditive_nary(SimpleNamespace(rig=fake))
        assert detail == reference_nary(fake)
        caught += detail is not None
    assert caught


def test_frame_distributivity_matches_family_scan(zoo):
    for rig in zoo.values():
        if rig.mul_table is None or not rig.commutative:
            continue
        ctx = suites._Ctx(rig)
        assert suites._check_frame_distributivity(ctx) is None
        assert reference_frame_distributivity(ctx) is None


def test_frame_distributivity_catches_a_corrupted_meet(zoo):
    ctx = suites._Ctx(zoo["Z1xZ1"])
    fr = ctx.frame
    meet = fr.meet_table.copy()
    meet[fr.top, fr.top] = fr.bottom
    ctx.frame = dataclasses.replace(fr, meet_table=meet)
    result = {r.name: r for r in suites.run_suite(ctx.rig, "locale", _ctx=ctx)}
    assert (result["frame-distributivity"].status, result["frame-distributivity"].detail) == (
        "FAIL", "fails for filter 3 against family (1, 2)")
    assert reference_frame_distributivity(ctx) is not None


@pytest.mark.parametrize("make", [
    LADDER["G3xG2"],
    lambda: builders.direct_product([builders.build_zn(1)] * 5),
], ids=["G3xG2", "Z1^5"])
def test_frame_checks_run_past_sixteen_elements(make):
    # the frame cap no longer guards an exponential scan, so the locale
    # checks of these 32-element structures pass instead of being skipped
    results = suites.run_all(make())
    assert not [r.line() for r in results if r.status == "FAIL"]
    assert not [r.line() for r in results if "frame bound" in r.detail]
    status = {r.name: r.status for r in results}
    for name in ("pfilter-decomposition", "frame-distributivity", "theta-iso"):
        assert status[name] == "PASS"


# -- principal laws against their closure bodies --------------------------------
#
# ``pfilter-decomposition``, ``principal-meet-law`` and ``principal-join-law``
# read F_a off the frame's principal index and its join and meet tables.
# These are the earlier bodies, which built every F_a, and every join of two,
# by closure.

def reference_principal_filters(rig):
    return {a: frames.principal_pfilter(rig, a).members for a in rig.elements()}


def reference_pfilter_decomposition(ctx):
    r = ctx.rig
    suites._need_product(r)
    prin = reference_principal_filters(r)
    for f in ctx.frame.pfilters:
        union = set()
        for a in f:
            union |= prin[a]
        if union != set(f):
            return f"{sorted(f)} is not the union of its principal parts"


def reference_principal_meet_law(ctx):
    r = ctx.rig
    suites._need_commutative(r)
    prin = reference_principal_filters(r)
    for a in r.elements():
        for b in r.elements():
            if prin[a] & prin[b] != prin[r.join(a, b)]:
                return f"fails at ({a}, {b})"
            ok, witness = frames.is_pfilter(r, prin[a] & prin[b])
            if not ok:
                return f"intersection at ({a}, {b}) fails {witness}"


def reference_principal_join_law(ctx):
    r = ctx.rig
    suites._need_commutative(r)
    prin = reference_principal_filters(r)
    for a in r.elements():
        for b in r.elements():
            join = frames.pfilter_generated(r, prin[a] | prin[b]).members
            if join != prin[r.mul(a, b)]:
                return f"fails at ({a}, {b})"


PRINCIPAL_LAWS = [
    (suites._check_pfilter_decomposition, reference_pfilter_decomposition),
    (suites._check_principal_meet_law, reference_principal_meet_law),
    (suites._check_principal_join_law, reference_principal_join_law),
]


def _outcome(check, ctx):
    try:
        return check(ctx)
    except suites._Skip as skip:
        return f"SKIPPED {skip}"


@pytest.mark.parametrize("rig", zoo_items() + [
    pytest.param(make, id=key) for key, make in LADDER.items()] + [
    pytest.param(lambda: builders.direct_product([builders.build_zn(1)] * 5), id="Z1^5")])
def test_principal_laws_match_closure_bodies(rig):
    rig = rig() if callable(rig) else rig
    ctx = suites._Ctx(rig)
    for check, reference in PRINCIPAL_LAWS:
        assert _outcome(check, ctx) == _outcome(reference, ctx), check.__name__


def _corrupted(rig, field, cell, value):
    """A context whose frame is a copy with one cell of its join table, meet
    table or masks changed; the real frame is left as it was."""
    ctx = suites._Ctx(rig)
    table = getattr(ctx.frame, field).copy()
    table[cell] = value
    ctx.frame = dataclasses.replace(ctx.frame)
    setattr(ctx.frame, field, table)
    return ctx


def _locale_result(ctx, name):
    result = {r.name: r for r in suites.run_suite(ctx.rig, "locale", _ctx=ctx)}[name]
    return result.status, result.detail


def test_principal_join_law_catches_a_corrupted_join(zoo):
    # in Z1xZ1, F_1 v F_2 is the whole carrier (filter 3); call it F_2
    rig = zoo["Z1xZ1"]
    ctx = _corrupted(rig, "join_table", (1, 2), 2)
    assert _locale_result(ctx, "principal-join-law") == ("FAIL", "fails at (1, 2)")
    tm = frames.theta(rig, space=spectrum.spec(rig), fr=ctx.frame, verify=False)
    with pytest.raises(MvwError, match=r"^F_1 v F_2 is not F_ab at \(1, 2\)$"):
        frames._verify_theta(rig, tm, ctx.frame.principal_index())


def test_principal_meet_law_catches_a_corrupted_meet(zoo):
    # in Z1xZ1, F_1 ^ F_2 is F_3 = {3} (filter 0); call it the whole carrier
    ctx = _corrupted(zoo["Z1xZ1"], "meet_table", (1, 2), 3)
    assert _locale_result(ctx, "principal-meet-law") == ("FAIL", "fails at (1, 2)")


def test_pfilter_decomposition_catches_a_corrupted_mask(zoo):
    # drop the top 3 from the whole carrier's row: F_1 = {1, 3} still holds
    # it, so the union of the principal parts of the row's members does too
    ctx = _corrupted(zoo["Z1xZ1"], "masks", (3, 3), False)
    assert _locale_result(ctx, "pfilter-decomposition") == (
        "FAIL", "[0, 1, 2, 3] is not the union of its principal parts")
