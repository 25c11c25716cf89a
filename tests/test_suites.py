import collections
import copy
import dataclasses
import itertools
import random
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest

from mvwrig import builders, core, frames, ideals, spectrum, suites
from mvwrig.errors import MvwError

import scalar_oracles
from conftest import LADDER, ZOO, mv_ideals, zoo_items


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


def test_frame_cap_skips_theta_iso(zoo, monkeypatch):
    # a size cap met inside a check is a SKIPPED naming the cap, not a FAIL
    monkeypatch.setattr(frames, "DEFAULT_FRAME_BOUND", 2)
    results = {r.name: r for r in suites.run_suite(zoo["Z3"], "locale")}
    assert results["theta-iso"].status == "SKIPPED"
    assert results["theta-iso"].detail == "carrier of 4 exceeds frame bound 2"


@pytest.mark.parametrize("n, suite, check, detail", [
    (6, "core", "monus-superadditive-nary", "carrier 7 > NARY_SIZE_LIMIT (6)"),
    (8, "ideals", "congruence-bijection", "carrier 9 > PARTITION_SIZE_LIMIT (8)"),
    (10, "spectrum", "compactness", "carrier 11 > SUBSET_SIZE_LIMIT (10)"),
    (12, "locale", "pfilters-complete", "carrier 13 > BRUTE_PFILTER_LIMIT (12)"),
], ids=["NARY_SIZE_LIMIT", "PARTITION_SIZE_LIMIT", "SUBSET_SIZE_LIMIT", "BRUTE_PFILTER_LIMIT"])
def test_oracle_cap_skips_name_their_cap(n, suite, check, detail):
    # Zn has n + 1 elements, one past the cap
    result = {r.name: r for r in suites.run_suite(builders.build_zn(n), suite)}[check]
    assert (result.status, result.detail) == ("SKIPPED", detail)


def test_radical_prime_intersection_catches_a_wrong_radical(zoo, monkeypatch):
    monkeypatch.setattr(ideals, "radical", lambda rig, ideal: ideal)
    results = {r.name: r for r in suites.run_suite(zoo["T3"], "ideals")}
    assert results["radical-prime-intersection"].status == "FAIL"
    assert results["radical-prime-intersection"].detail == (
        "radical mismatch on T3: definition gives [0], prime intersection gives [0, 1, 2]")


class _CountingMemo(dict):
    """A structure's memo that counts the objects it keeps, by build name
    and arguments: a second build of one object counts 2."""

    def __init__(self):
        super().__init__()
        self.builds = collections.Counter()

    def __setitem__(self, key, value):
        build, *args = key
        self.builds[(build.__name__, *args)] += 1
        super().__setitem__(key, value)


def _count_builds(rig):
    """Swap a structure's memo for a counting one that holds the same
    objects; returns its build counter."""
    memo = _CountingMemo()
    dict.update(memo, rig._memo)
    rig._memo = memo
    return memo.builds


def _immutable(value):
    """Whether nothing reachable from a kept object can be changed in place
    (a structure counts as immutable; its kept objects are checked on their
    own)."""
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if isinstance(value, tuple | frozenset):
        return all(_immutable(v) for v in value)
    if isinstance(value, MappingProxyType):
        return all(_immutable(v) for v in value.values())
    if dataclasses.is_dataclass(value):
        return value.__dataclass_params__.frozen and all(
            _immutable(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value is None or isinstance(value, int | str | core.FiniteMvwRig)


def test_run_all_builds_the_spectrum_and_frame_once(zoo):
    # the spectrum and the frame are computed once per structure, not once
    # per suite or per check
    for key in ("Z3", "Z1xZ1", "G110"):
        rig = copy.copy(zoo[key])
        builds = _count_builds(rig)
        results = suites.run_all(rig)
        assert builds[("_spec",)] == builds[("_frame",)] == 1, key
        assert not [r.line() for r in results if r.status == "FAIL"]


def test_run_all_builds_one_ideal_mask_list():
    # one list serves generation, products, classification, the prime and
    # maximal lists and the correspondence; the Chang embedding takes its
    # MV-primes from the chain decomposition, so no list of MV-ideals is built
    rig = LADDER["G3xG2"]()
    builds = _count_builds(rig)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    assert {k: c for k, c in builds.items() if k[0] == "_ideal_masks"} == \
        {("_ideal_masks",): 1}


def test_run_all_builds_each_quotient_once():
    # the quotient-axioms, first-iso (inside first_iso too),
    # hom-kernel-order, ideal-correspondence and nilradical-ideal checks
    # share one quotient per listed ideal
    rig = LADDER["G3xG2"]()
    builds = _count_builds(rig)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    built = {k[1].members: c for k, c in builds.items() if k[0] == "quotient"}
    assert built == {i.members: 1 for i in ideals.enumerate_ideals(rig)}


def test_run_all_builds_the_principal_table_once(monkeypatch):
    # frame-covers, compactness and pfilter-generated-least ask one question
    # per subset, a row of one table each; on a commutative product each is
    # a read of the one principal table, so the n closures of its rows are
    # the only closures of the run
    rig = builders.direct_product([builders.build_zn(1)] * 3)
    builds = _count_builds(rig)
    closures, questions = [], []
    closure, finite_subcovers = frames._closure, frames.finite_subcovers

    def counted_closure(*args):
        closures.append(args)
        return closure(*args)

    def counted_subcovers(r, ranks):
        questions.extend(ranks.tolist())
        return finite_subcovers(r, ranks)

    monkeypatch.setattr(frames, "_closure", counted_closure)
    monkeypatch.setattr(frames, "finite_subcovers", counted_subcovers)
    results = {r.name: r.status for r in suites.run_all(rig)}
    assert results["frame-covers"] == results["compactness"] == "PASS"
    assert results["pfilter-generated-least"] == "PASS"
    assert len(questions) > 100
    assert builds[("principal_table",)] == 1
    assert len(closures) == rig.size


def test_run_all_computes_the_dotted_sum_vector_once():
    # whatever the number of subsets the locale and compactness checks scan
    rig = builders.direct_product([builders.build_zn(1)] * 3)
    builds = _count_builds(rig)
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    assert builds[("_dotsum_tops",)] == 1


def _commands_read(rig):
    """What mvw ideals, spec and filters read, after mvw check and every
    suite."""
    assert core.check_all(rig).passed
    results = suites.run_all(rig)
    assert not [r.line() for r in results if r.status == "FAIL"]
    return (ideals.classified_ideals(rig), spectrum.spec(rig), frames.frame(rig),
            frames.principal_table(rig))


KEPT = {"_atoms", "chain_decomposition", "_ideal_masks", "_tops", "_least", "_lattice_table",
        "_ideal_list", "_positions", "_classified", "congruence_from_ideal", "quotient",
        "_mv_reduct", "_spec", "_dotsum_tops", "principal_table", "_frame",
        "_ideal_verdict", "_congruence_verdict", "_nilpotent", "_seed_table"}


#: the axiom reports, which a product inherits from its factors
REPORTS = {"check_mv", "check_mvw"}


def test_run_all_and_the_commands_build_each_object_once():
    # every object is built once and read-only, and a shallow copy keeps
    # none of them; the product keeps only the reports it inherited, and
    # builds none, while its copy builds its own
    rig = builders.direct_product([builders.build_zn(1)] * 3, check=False)
    assert {key[0].__name__ for key in rig._memo} == REPORTS
    builds = _count_builds(rig)
    kept = _commands_read(rig)
    assert set(builds.values()) == {1}
    assert {k[0] for k in builds} == KEPT
    # the join and the product table; one congruence per listed ideal
    assert {k[1] for k in builds if k[0] == "_lattice_table"} == {"add", "mul"}
    assert {k[1] for k in builds if k[0] == "congruence_from_ideal"} == \
        set(ideals.enumerate_ideals(rig))
    reduct = ideals._mv_reduct(rig)
    assert reduct.mul_table is None and reduct._memo
    for memo in (rig._memo, reduct._memo):
        assert all(_immutable(value) for value in memo.values())
    twin = copy.copy(rig)
    assert not twin._memo
    twin_builds = _count_builds(twin)
    again = _commands_read(twin)
    for old, new in zip(kept, again):
        assert new is not old
    assert set(twin_builds.values()) == {1}
    assert {k[0] for k in twin_builds} == KEPT | REPORTS
    shared = {id(value) for value in rig._memo.values()}
    assert not [k for k, value in twin._memo.items() if id(value) in shared]
    assert ideals._mv_reduct(twin) is not reduct
    assert set(builds.values()) == {1}


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
    # the Chang embedding's MV-quotients, which have no product, are the
    # quotients of the MV-reduct and pass through unchanged
    def corrupt(q):
        if q.rig.size != 4 or q.rig.mul_table is None:
            return q
        mul = q.rig.mul_table.copy()
        mul[1, 1] = q.rig.u
        return dataclasses.replace(q, rig=core.derive(
            q.rig.neg_table, q.rig.add_table, mul, names=q.rig.carrier.names, name=q.rig.name))

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
            return f"{arity}-ary fails at x={tuple(vecs[i].tolist())} y={tuple(vecs[j].tolist())}"


def reference_frame_distributivity(rig):
    fr = frames.frame(rig)
    prin_idx = sorted(set(fr.principal.tolist()))
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
        assert suites._check_monus_superadditive_nary(rig) == reference_nary(rig), rig.name


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
        detail = suites._check_monus_superadditive_nary(fake)
        assert detail == reference_nary(fake)
        caught += detail is not None
    assert caught


def test_nary_detail_names_plain_ints():
    # Z3 with 0 + 0 = 2: the tuples print as Python ints, not NumPy scalars
    z3 = builders.build_zn(3)
    add = z3.add_table.copy()
    add[0, 0] = 2
    rig = core.derive(z3.neg_table, add, z3.mul_table)
    assert suites._check_monus_superadditive_nary(rig) == "3-ary fails at x=(0, 3, 0) y=(1, 0, 0)"


def _corrupted_products():
    """Every copy of four small products with one product cell changed."""
    for rig in (builders.build_zn(3), builders.build_zn(4),
                builders.direct_product([builders.build_zn(1)] * 2),
                builders.direct_product([builders.build_zn(2), builders.build_zn(1)])):
        n = rig.size
        for a, b, v in itertools.product(range(n), repeat=3):
            if v != rig.mul_table[a, b]:
                mul = rig.mul_table.copy()
                mul[a, b] = v
                yield core.derive(rig.neg_table, rig.add_table, mul)


def test_power_bounds_match_the_three_power_loop():
    # the checks read core._powers, which stops once no power moves, so
    # the exponents it skips repeat ones already checked
    failed_at = collections.Counter()
    settled = 0
    for rig in itertools.chain(ZOO.values(), (f() for f in LADDER.values()),
                               _corrupted_products()):
        if rig.mul_table is None:
            continue
        details = (suites._check_power_join_bound(rig), suites._check_power_meet_bound(rig))
        assert details == (scalar_oracles.power_join_bound(rig),
                           scalar_oracles.power_meet_bound(rig)), rig.name
        failed_at.update(d.split()[2] for d in details if d)
        square = rig.mul_table[np.arange(rig.size), np.arange(rig.size)]
        settled += any(details) and (rig.mul_table[square, np.arange(rig.size)] == square).all()
    # failures at n = 2 and n = 3, and failures whose powers settle after
    # the square, where the walk yields no third vector
    assert failed_at["n=2"] and failed_at["n=3"] and settled


def test_frame_distributivity_matches_family_scan(zoo):
    for rig in zoo.values():
        if rig.mul_table is None or not rig.commutative:
            continue
        assert suites._check_frame_distributivity(rig) is None
        assert reference_frame_distributivity(rig) is None


def test_frame_distributivity_catches_a_corrupted_meet(zoo, monkeypatch):
    rig = zoo["Z1xZ1"]
    fr = frames.frame(rig)
    _corrupted(monkeypatch, rig, "meet_table", (fr.top, fr.top), fr.bottom)
    assert _locale_result(rig, "frame-distributivity") == (
        "FAIL", "fails for filter 3 against family (1, 2)")
    assert reference_frame_distributivity(rig) is not None


def test_frame_distributivity_triples_catch_a_corrupted_meet(monkeypatch):
    # Z1^4 has 16 principal filters, past SUBSET_SIZE_LIMIT, so the family
    # scan does not run and the triple scan alone must report the fault
    rig = LADDER["Z1^4"]()
    fr = frames.frame(rig)
    assert len(set(fr.principal.tolist())) > suites.SUBSET_SIZE_LIMIT
    _corrupted(monkeypatch, rig, "meet_table", (fr.top, fr.top), fr.bottom)
    assert _locale_result(rig, "frame-distributivity") == (
        "FAIL", "fails for filter 15 against family (1, 14)")


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
    return {a: core._members(frames._closure(rig, row))
            for a, row in enumerate(np.eye(rig.size, dtype=bool))}


def reference_pfilter_decomposition(r):
    suites._need_product(r)
    prin = reference_principal_filters(r)
    for f in frames.frame(r).pfilters:
        union = set()
        for a in f:
            union |= prin[a]
        if union != set(f):
            return f"{sorted(f)} is not the union of its principal parts"


def reference_principal_meet_law(r):
    suites._need_commutative(r)
    prin = reference_principal_filters(r)
    for a in r.elements():
        for b in r.elements():
            if prin[a] & prin[b] != prin[r.join(a, b)]:
                return f"fails at ({a}, {b})"
            ok, witness = frames.is_pfilter(r, prin[a] & prin[b])
            if not ok:
                return f"intersection at ({a}, {b}) fails {witness}"


def reference_principal_join_law(r):
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


def _outcome(check, rig):
    try:
        return check(rig)
    except suites._Skip as skip:
        return f"SKIPPED {skip}"


@pytest.mark.parametrize("rig", zoo_items() + [
    pytest.param(make, id=key) for key, make in LADDER.items()] + [
    pytest.param(lambda: builders.direct_product([builders.build_zn(1)] * 5), id="Z1^5")])
def test_principal_laws_match_closure_bodies(rig):
    rig = rig() if callable(rig) else rig
    for check, reference in PRINCIPAL_LAWS:
        assert _outcome(check, rig) == _outcome(reference, rig), check.__name__


def _corrupted(monkeypatch, rig, field, cell, value):
    """Make frames.frame return, for the structure, a copy of its frame with
    one cell of its join table, meet table or masks changed; the frame kept
    on the structure is left as it was."""
    fr = frames.frame(rig)
    table = getattr(fr, field).copy()
    table[cell] = value
    bad = dataclasses.replace(fr, **{field: table})
    original = frames.frame
    monkeypatch.setattr(frames, "frame", lambda r: bad if r is rig else original(r))
    return bad


def _locale_result(rig, name):
    result = {r.name: r for r in suites.run_suite(rig, "locale")}[name]
    return result.status, result.detail


def test_principal_join_law_catches_a_corrupted_join(zoo, monkeypatch):
    # in Z1xZ1, F_1 v F_2 is the whole carrier (filter 3); call it F_2
    rig = zoo["Z1xZ1"]
    bad = _corrupted(monkeypatch, rig, "join_table", (1, 2), 2)
    assert _locale_result(rig, "principal-join-law") == ("FAIL", "fails at (1, 2)")
    assert _locale_result(rig, "theta-iso") == ("FAIL", "F_1 v F_2 is not F_ab at (1, 2)")
    tm = frames._theta_map(rig)
    with pytest.raises(MvwError, match=r"^F_1 v F_2 is not F_ab at \(1, 2\)$"):
        frames._verify_theta(rig, tm, bad.principal)


def test_principal_meet_law_catches_a_corrupted_meet(zoo, monkeypatch):
    # in Z1xZ1, F_1 ^ F_2 is F_3 = {3} (filter 0); call it the whole carrier
    _corrupted(monkeypatch, zoo["Z1xZ1"], "meet_table", (1, 2), 3)
    assert _locale_result(zoo["Z1xZ1"], "principal-meet-law") == ("FAIL", "fails at (1, 2)")


def test_pfilter_decomposition_catches_a_corrupted_mask(zoo, monkeypatch):
    # drop the top 3 from the whole carrier's row: F_1 = {1, 3} still holds
    # it, so the union of the principal parts of the row's members does too
    _corrupted(monkeypatch, zoo["Z1xZ1"], "masks", (3, 3), False)
    assert _locale_result(zoo["Z1xZ1"], "pfilter-decomposition") == (
        "FAIL", "[0, 1, 2, 3] is not the union of its principal parts")


# -- the whole-table oracles against the scalar bodies ----------------------------
#
# The subset and partition oracles run on one table of seeds or partitions.
# The references are the accessor bodies below, which call the
# bounds-checked accessors element by element, the list-row bodies in
# ``scalar_oracles``, and the earlier per-seed checks, which must name the
# same first failing seed with the same detail.

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


def _members(row):
    return set(np.flatnonzero(row).tolist())


def _class_of(part, n):
    """A partition's class labels, numbered by the classes' least elements."""
    class_of = [0] * n
    for cls in part:
        for x in cls:
            class_of[x] = min(cls)
    firsts = sorted(set(class_of))
    return tuple(firsts.index(c) for c in class_of)


@pytest.mark.parametrize("n", range(7))
def test_seed_tables_follow_combinations_order(n):
    # the first failing row is the seed the scalar scan named first
    for smallest in (0, 1):
        seeds, table = suites._seeds(n, smallest)
        assert seeds == [s for k in range(smallest, n + 1)
                         for s in itertools.combinations(range(n), k)]
        assert [tuple(sorted(_members(row))) for row in table] == seeds


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_table_lists_each_partition_once(n):
    # restricted growth strings in lexicographic order
    table = [tuple(row) for row in suites._partitions(n).tolist()]
    assert table == sorted(_class_of(part, n) for part in set_partitions(list(range(n))))


@pytest.mark.parametrize("rig", [pytest.param(r, id=k) for k, r in SMALL_RIGS.items()])
def test_generated_fixpoint_matches_accessor_body(rig):
    seeds, table = suites._seeds(rig.size)
    rows = scalar_oracles.rows(rig)
    for seed, row in zip(seeds, suites._ideal_closure(rig, table)):
        assert _members(row) == reference_generated_fixpoint(rig, seed) == \
            scalar_oracles.generated_fixpoint(rows, seed), seed


def test_oracles_match_accessor_bodies_without_commutativity():
    # M2(Z1) is the zoo's noncommutative product, past the subset caps: seeds
    # of at most two elements; the congruences of its MV-ideals, which keep
    # the sum and may break the product on either side; and seeded random
    # partitions
    rig = ZOO["M2(Z1)"]
    rows = scalar_oracles.rows(rig)
    seeds = [s for k in range(3) for s in itertools.combinations(range(rig.size), k)]
    for seed, row in zip(seeds, suites._ideal_closure(rig, core._member_rows(rig.size, seeds))):
        assert _members(row) == reference_generated_fixpoint(rig, seed) == \
            scalar_oracles.generated_fixpoint(rows, seed), seed
    mv = core.derive(rig.neg_table, rig.add_table, None)
    partitions = [ideals.congruence_from_ideal(mv, ideals.Ideal(mv, i.members)).class_of
                  for i in mv_ideals(rig)]
    rng = random.Random(rig.size)
    partitions += [tuple(rng.randrange(k) for _ in rig.elements())
                   for k in (2, 3, 4) for _ in range(100)]
    held = suites._congruence_rows(rig, np.array(partitions))
    assert held.any()
    for class_of, ok in zip(partitions, held):
        assert ok == reference_compatible(rig, class_of) == \
            scalar_oracles.compatible(rows, class_of), class_of


@pytest.mark.parametrize("rig", [pytest.param(r, id=k) for k, r in SMALL_RIGS.items()
                                 if r.size <= suites.PARTITION_SIZE_LIMIT])
def test_compatible_matches_accessor_body(rig):
    classes = suites._partitions(rig.size)
    rows = scalar_oracles.rows(rig)
    for class_of, ok in zip(classes.tolist(), suites._congruence_rows(rig, classes)):
        assert ok == reference_compatible(rig, class_of) == \
            scalar_oracles.compatible(rows, class_of), class_of


# The earlier per-seed checks, each scanning itertools.combinations and
# stopping at the first failing seed.

def reference_generated_least(r):
    suites._need_within(r, "SUBSET_SIZE_LIMIT")
    all_sets = [i.members for i in ideals.enumerate_ideals(r)]
    rows = scalar_oracles.rows(r)
    verified = set()
    for k in range(r.size + 1):
        for seed in itertools.combinations(range(r.size), k):
            gen = ideals.generated_ideal(r, seed)
            if gen.members not in verified:
                ok, witness = ideals.is_ideal(r, gen.members)
                if not ok:
                    return f"<{seed}> is not an ideal: {witness}"
                verified.add(gen.members)
            if not set(seed) <= gen.members:
                return f"<{seed}> lost its seed"
            for s in all_sets:
                if set(seed) <= s and not gen.members <= s:
                    return f"<{seed}> is not least (exceeds {sorted(s)})"
            if frozenset(scalar_oracles.generated_fixpoint(rows, seed)) != gen.members:
                return f"closure routes disagree on {seed}"


def reference_pfilter_generated_least(r):
    suites._need_product(r)
    suites._need_within(r, "SUBSET_SIZE_LIMIT")
    all_filters = list(frames.frame(r).pfilters)
    dotsums = {x: frames.dotsum_closure(r, x) for x in r.elements()}
    for k in range(1, r.size + 1):
        for seed in itertools.combinations(range(r.size), k):
            gen = frames.pfilter_generated(r, seed).members
            for f in all_filters:
                if set(seed) <= f and not gen <= f:
                    return f"<{seed}> is not least"
            if r.commutative and scalar_oracles.pfilter_by_formula(r, seed, dotsums) != gen:
                return f"dotted-sum description of <{seed}> differs from the closure"


def reference_compactness(r):
    suites._need_commutative(r)
    suites._need_unit(r)
    suites._need_within(r, "SUBSET_SIZE_LIMIT")
    s, fr = spectrum.spec(r), frames.frame(r)
    for k in range(r.size + 1):
        for gens in itertools.combinations(range(r.size), k):
            union = frozenset().union(*(s.base[a] for a in gens)) if gens else frozenset()
            if union != s.all_points:
                continue
            try:
                sub = frames.finite_subcover(r, list(gens))
            except MvwError as exc:
                return f"cover {gens}: {exc}"
            covered = frozenset().union(*(s.base[a] for a in sub)) if sub else frozenset()
            if covered != s.all_points and not fr.masks[fr.bottom].all():
                return f"subcover of {gens} misses a point"


def reference_frame_covers(r):
    suites._need_product(r)
    suites._need_within(r, "SUBSET_SIZE_LIMIT")
    fr = frames.frame(r)
    full = frozenset(r.elements())
    prin = fr.principal.tolist()
    for k in range(1, r.size + 1):
        for gens in itertools.combinations(range(r.size), k):
            join = fr.join_of(prin[g] for g in gens)
            covers = fr.pfilters[join] == full
            try:
                sub = frames.finite_subcover(r, list(gens))
            except frames.NotACover:
                if covers:
                    return f"{gens} covers but was rejected"
                continue
            if not covers:
                return f"{gens} does not cover but a subcover was returned"
            if sub:
                back = fr.join_of(prin[g] for g in sub)
                if fr.pfilters[back] != full:
                    return f"subcover of {gens} has a proper join"


def reference_theta_iso(r):
    suites._need_commutative(r)
    suites._need_unit(r)
    tm = frames.theta(r)
    if len(tm.space.opens) != len(tm.frame.pfilters):
        return "open lattice and P-filter frame have different sizes"
    space, fr = tm.space, tm.frame
    table = frames.principal_table(r)
    prin = [fr.index_of(table.pfilters[i]) for i in table.index]
    open_index = {o: i for i, o in enumerate(space.opens)}
    for rset in itertools.chain.from_iterable(
            itertools.combinations(range(r.size), k) for k in range(r.size + 1)):
        u = frozenset().union(*(space.base[a] for a in rset))
        if fr.join_of(prin[a] for a in rset) != tm.open_to_filter[open_index[u]]:
            return f"open map depends on the presentation {rset}"


def _chooser(salt, rate):
    """Whether to answer a seed wrongly, and a generator for the wrong
    answer, fixed per seed so every scan sees the same faults."""
    def choose(seed):
        rng = random.Random(f"{salt} {sorted(seed)}")
        return rng.random() < rate, rng
    return choose


# The faults are made in the table forms, which the per-seed library calls
# of the references are one-row calls of, so both see the same faults.

def _wrong_positions(original, count):
    """A table form answering a chosen row with a random one of the
    ``count(rig)`` listed objects."""
    def wrong(choose):
        def answer(rig, rows):
            answers = original(rig, rows).copy()
            for i, row in enumerate(rows):
                bad, rng = choose(np.flatnonzero(row).tolist())
                if bad:
                    answers[i] = rng.choice(range(count(rig)))
            return answers
        return answer
    return wrong


def _wrong_generated_ideal(choose):
    wrong = _wrong_positions(ideals.generated_ideals, lambda r: len(ideals.enumerate_ideals(r)))
    return ideals, "generated_ideals", wrong(choose)


def _wrong_pfilter_generated(choose):
    wrong = _wrong_positions(frames.pfilters_generated, lambda r: len(frames.frame(r).pfilters))
    return frames, "pfilters_generated", wrong(choose)


def _wrong_finite_subcover(choose):
    original = frames.finite_subcovers

    def wrong(rig, ranks):
        members, refused, unsound = (a.copy() for a in original(rig, ranks))
        for i, row in enumerate(ranks):
            generators = np.argsort(row)[(row < 0).sum():].tolist()
            bad, rng = choose(generators)
            if not bad:
                continue
            kind = rng.randrange(4)
            # refused, not sound, the whole list, or a random part of it
            refused[i], unsound[i] = kind == 0, kind == 1
            members[i] = False
            if kind > 1:
                members[i, [g for g in generators if kind == 2 or rng.random() < 0.5]] = True
        return frames.Subcovers(members, refused, unsound)
    return frames, "finite_subcovers", wrong


FAULTS = {
    "generated-least": (suites._check_generated_least, reference_generated_least,
                        _wrong_generated_ideal),
    "pfilter-generated-least": (suites._check_pfilter_generated_least,
                                reference_pfilter_generated_least, _wrong_pfilter_generated),
    "compactness": (suites._check_spec_compactness, reference_compactness,
                    _wrong_finite_subcover),
    "frame-covers": (suites._check_frame_covers, reference_frame_covers, _wrong_finite_subcover),
}


def _detail(check, rig):
    try:
        return check(rig)
    except suites._Skip as skip:
        return f"SKIPPED {skip}"
    except MvwError as exc:
        return f"raised {exc}"


@pytest.mark.parametrize("check", sorted(FAULTS))
@pytest.mark.parametrize("rig", [pytest.param(r, id=k) for k, r in SMALL_RIGS.items()])
def test_table_checks_name_the_first_failing_seed(rig, check, monkeypatch):
    # with the library answering wrongly on a few seeds, chosen per seed,
    # the table check and the per-seed scan give the same detail
    new, old, fault = FAULTS[check]
    assert _detail(new, rig) == _detail(old, rig)
    failures = 0
    for salt in range(4):
        monkeypatch.setattr(*fault(_chooser(salt, 0.05 * (salt + 1))))
        detail = _detail(new, rig)
        assert detail == _detail(old, rig), salt
        failures += detail is not None and not detail.startswith("SKIPPED")
        monkeypatch.undo()
    if rig.size >= 6 and _detail(new, rig) is None:
        assert failures


@pytest.mark.parametrize("rig", [pytest.param(r, id=k) for k, r in SMALL_RIGS.items()])
def test_theta_oracle_matches_the_per_seed_scan(rig, monkeypatch):
    # a theta map with two filters swapped passes nothing to the binary
    # verification here, so the oracle alone must name the presentation
    assert _detail(suites._check_theta_iso, rig) == _detail(reference_theta_iso, rig)
    if rig.mul_table is None or not rig.commutative or rig.unit is None:
        return
    tm = frames.theta(rig)
    mapping = list(tm.open_to_filter)
    if len(set(mapping)) < 2:
        return
    for i in range(1, len(mapping)):
        swapped = mapping.copy()
        swapped[0], swapped[i] = swapped[i], swapped[0]
        bad = dataclasses.replace(tm, open_to_filter=tuple(swapped))
        monkeypatch.setattr(frames, "theta", lambda r: bad)
        detail = _detail(suites._check_theta_iso, rig)
        assert detail is not None and detail == _detail(reference_theta_iso, rig), i


def test_generated_least_catches_a_generated_ideal_missing_an_element(zoo, monkeypatch):
    # in Z1xZ1 the seed (1, 2) generates the whole carrier; answer it with
    # the carrier less its top 3, listed after the ideals
    rig = zoo["Z1xZ1"]
    listed = ideals.enumerate_ideals(rig)
    dropped = ideals.Ideal(rig, listed[-1].members - {3})
    original = ideals.generated_ideals

    def answer(r, rows):
        seed = (rows == [False, True, True, False]).all(axis=1)
        return np.where(seed, len(listed), original(r, rows))

    monkeypatch.setattr(ideals, "generated_ideals", answer)
    monkeypatch.setattr(ideals, "enumerate_ideals", lambda r: listed + [dropped])
    assert suites._check_generated_least(rig) == "<(1, 2)> is not an ideal: ('sum', (1, 2))"


def test_pfilter_generated_least_catches_an_extra_element(zoo, monkeypatch):
    # in Z3 the seed (3,) generates {1, 2, 3}; add the bottom 0, which makes
    # it the whole carrier, the frame's top
    original = frames.pfilters_generated

    def grown(rig, rows):
        seed = (rows == [False, False, False, True]).all(axis=1)
        return np.where(seed, frames.frame(rig).top, original(rig, rows))

    monkeypatch.setattr(frames, "pfilters_generated", grown)
    result = {r.name: r for r in suites.run_suite(zoo["Z3"], "locale")}["pfilter-generated-least"]
    assert (result.status, result.detail) == ("FAIL", "<(3,)> is not least")
