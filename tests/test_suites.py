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
    # one list for the context, whose primes the spectrum reads, and one for
    # the Chang embedding's MV-ideals
    assert sum(calls) <= 2


def test_run_all_builds_each_quotient_once(monkeypatch):
    # the quotient-axioms, first-iso (inside first_iso too),
    # hom-kernel-order, ideal-correspondence and nilradical-ideal checks
    # share one quotient per listed ideal
    rig = LADDER["G3xG2"]()
    built = []
    quotient = ideals.quotient

    def counted_quotient(r, ideal):
        if r is rig:
            built.append(ideal.members)
        return quotient(r, ideal)

    monkeypatch.setattr(ideals, "quotient", counted_quotient)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    assert sorted(built, key=sorted) == sorted({i.members for i in ideals.enumerate_ideals(rig)},
                                               key=sorted)
    assert len(built) == len(set(built))


def test_run_all_builds_the_principal_table_once(monkeypatch):
    # frame-covers, compactness and pfilter-generated-least ask one question
    # per subset; on a commutative product each is a read of the one table,
    # so the n closures of its rows are the only closures of the run
    rig = builders.direct_product([builders.build_zn(1)] * 3)
    tables, closures, questions = [], [], []
    table, closure, finite_subcover = \
        frames.principal_table, frames._closure, frames.finite_subcover

    def counted_table(r):
        tables.append(r)
        return table(r)

    def counted_closure(*args):
        closures.append(args)
        return closure(*args)

    def counted_subcover(r, generators, **kwargs):
        questions.append(list(generators))
        return finite_subcover(r, generators, **kwargs)

    monkeypatch.setattr(frames, "principal_table", counted_table)
    monkeypatch.setattr(frames, "_closure", counted_closure)
    monkeypatch.setattr(frames, "finite_subcover", counted_subcover)
    results = {r.name: r.status for r in suites.run_all(rig)}
    assert results["frame-covers"] == results["compactness"] == "PASS"
    assert results["pfilter-generated-least"] == "PASS"
    assert len(questions) > 100
    assert tables == [rig]
    assert len(closures) == rig.size


def test_run_all_computes_the_dotted_sum_vector_twice(monkeypatch):
    # once for the context and once inside frames.frame, whatever the number
    # of subsets the locale and compactness checks scan
    rig = builders.direct_product([builders.build_zn(1)] * 3)
    calls = []
    original = frames._dotsum_tops

    def counted(r):
        calls.append(r)
        return original(r)

    monkeypatch.setattr(frames, "_dotsum_tops", counted)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    assert len(calls) <= 2


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

    def broken(f, **kwargs):
        fi = original(f, **kwargs)
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


# -- the scalar oracles against their accessor bodies ---------------------------
#
# ``generated-least`` and ``congruence-bijection`` run their oracles over the
# tables as Python lists, built once per structure.  These are the earlier
# bodies, which called the bounds-checked accessors element by element.

def reference_oplus_closure(rig, seed):
    out = set(seed)
    frontier = set(seed)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in out:
                for c in (rig.add(a, b), rig.add(b, a)):
                    if c not in out:
                        fresh.add(c)
        out |= fresh
        frontier = fresh
    return out


def reference_downward(rig, seed):
    out = set(seed)
    for b in seed:
        out.update(a for a in rig.elements() if rig.leq(a, b))
    return out


def reference_generated_fixpoint(rig, seed):
    members = {0} | set(seed)
    while True:
        before = len(members)
        members = reference_downward(rig, reference_oplus_closure(rig, members))
        if rig.mul_table is not None:
            extra = set()
            for a in members:
                for b in rig.elements():
                    extra.add(rig.mul(a, b))
                    extra.add(rig.mul(b, a))
            members |= extra
        if len(members) == before:
            return members


def reference_compatible(rig, class_of):
    buckets = {}
    for x, c in enumerate(class_of):
        buckets.setdefault(c, []).append(x)
    for cls in buckets.values():
        base = cls[0]
        for x in cls[1:]:
            if class_of[rig.neg(base)] != class_of[rig.neg(x)]:
                return False
            for y in rig.elements():
                if class_of[rig.add(base, y)] != class_of[rig.add(x, y)] \
                        or class_of[rig.add(y, base)] != class_of[rig.add(y, x)]:
                    return False
                if rig.mul_table is not None and (
                        class_of[rig.mul(base, y)] != class_of[rig.mul(x, y)]
                        or class_of[rig.mul(y, base)] != class_of[rig.mul(y, x)]):
                    return False
    return True


def set_partitions(universe):
    """Every partition of the list, as lists of blocks."""
    if not universe:
        yield []
        return
    first, rest = universe[0], universe[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


#: Every structure the subset scans reach: the zoo, the ladder and the
#: verify-zoo products of at most SUBSET_SIZE_LIMIT elements.
SMALL_RIGS = {k: r for k, r in dict(
    ZOO, **{k: make() for k, make in LADDER.items()},
    **{"Z1xZ2": builders.direct_product([builders.build_zn(1), builders.build_zn(2)]),
       "Z2xZ1": builders.direct_product([builders.build_zn(2), builders.build_zn(1)]),
       "Z1^3": builders.direct_product([builders.build_zn(1)] * 3)}).items()
    if r.size <= suites.SUBSET_SIZE_LIMIT}


@pytest.mark.parametrize("rig", [pytest.param(r, id=k) for k, r in SMALL_RIGS.items()])
def test_generated_fixpoint_matches_accessor_body(rig):
    rows = suites._rows(rig)
    for k in range(rig.size + 1):
        for seed in itertools.combinations(range(rig.size), k):
            assert suites._generated_fixpoint(rows, seed) == \
                reference_generated_fixpoint(rig, seed), seed


def test_oracles_match_accessor_bodies_without_commutativity():
    # M2(Z1) is the zoo's noncommutative product, past the subset caps: seeds
    # of at most two elements; the congruences of its MV-ideals, which keep
    # the sum and may break the product on either side; and seeded random
    # partitions
    rig = ZOO["M2(Z1)"]
    rows = suites._rows(rig)
    for k in range(3):
        for seed in itertools.combinations(range(rig.size), k):
            assert suites._generated_fixpoint(rows, seed) == \
                reference_generated_fixpoint(rig, seed), seed
    mv = core.derive(rig.neg_table, rig.add_table, None)
    partitions = [ideals._ideal_congruence(mv, ideals._member_mask(rig, i.members)).class_of
                  for i in ideals.enumerate_mv_ideals(rig)]
    rng = random.Random(rig.size)
    partitions += [tuple(rng.randrange(k) for _ in rig.elements())
                   for k in (2, 3, 4) for _ in range(100)]
    assert any(suites._compatible(rows, c) for c in partitions)
    for class_of in partitions:
        assert suites._compatible(rows, class_of) == reference_compatible(rig, class_of), \
            class_of


@pytest.mark.parametrize("rig", [pytest.param(r, id=k) for k, r in SMALL_RIGS.items()
                                 if r.size <= suites.PARTITION_SIZE_LIMIT])
def test_compatible_matches_accessor_body(rig):
    rows = suites._rows(rig)
    for part in set_partitions(list(range(rig.size))):
        class_of = [0] * rig.size
        for ci, cls in enumerate(part):
            for x in cls:
                class_of[x] = ci
        assert suites._compatible(rows, class_of) == reference_compatible(rig, class_of), \
            part


def test_generated_least_catches_a_generated_ideal_missing_an_element(zoo, monkeypatch):
    # in Z1xZ1 the seed (1, 2) generates the whole carrier; drop its top 3
    original = ideals.generated_ideal

    def dropped(rig, seed, *args, **kwargs):
        gen = original(rig, seed, *args, **kwargs)
        if tuple(seed) == (1, 2):
            return ideals.Ideal(rig, gen.members - {3})
        return gen

    monkeypatch.setattr(ideals, "generated_ideal", dropped)
    result = _ideal_results(zoo["Z1xZ1"])["generated-least"]
    assert (result.status, result.detail) == (
        "FAIL", "<(1, 2)> is not an ideal: ('sum', (1, 2))")


def test_pfilter_generated_least_catches_an_extra_element(zoo, monkeypatch):
    # in Z3 the seed (3,) generates {1, 2, 3}; add the bottom 0
    original = frames.pfilter_generated

    def grown(rig, seed, *args, **kwargs):
        gen = original(rig, seed, *args, **kwargs)
        if tuple(seed) == (3,):
            return frames.PFilter(rig, gen.members | {0})
        return gen

    monkeypatch.setattr(frames, "pfilter_generated", grown)
    result = {r.name: r for r in suites.run_suite(zoo["Z3"], "locale")}["pfilter-generated-least"]
    assert (result.status, result.detail) == ("FAIL", "<(3,)> is not least")
