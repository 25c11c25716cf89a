from pathlib import Path

import numpy as np
import pytest

from mvwrig import builders, core, ideals

ALGEBRAS_DIR = Path(__file__).resolve().parent.parent / "algebras"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def build_zoo():
    """Every shipped example structure, by name.

    All carriers stay at or below 16 elements so the exhaustive law suites
    remain cheap.
    """
    zoo = {
        "trivial": builders.build_trivial(),
        "Z1xZ1": builders.direct_product(
            [builders.build_zn(1), builders.build_zn(1)]).set_name("Z1xZ1"),
        "M2(Z1)": builders.build_matrix_rig(builders.build_zn(1), 2),
        "G1": builders.gamma_zk(1, (1,)),
        "G2": builders.gamma_zk(2, (1, 1)),
        "G3": builders.gamma_zk(3, (1, 1, 1)),
        "G110": builders.gamma_zk(3, (1, 1, 0)),
    }
    for n in range(1, 7):
        zoo[f"Z{n}"] = builders.build_zn(n)
    for n in range(2, 6):
        zoo[f"L{n}"] = builders.build_luk_mv(n)
        zoo[f"T{n}"] = builders.lift_trivial_product(
            builders.build_luk_mv(n)).set_name(f"T{n}")
    return zoo


ZOO = build_zoo()

#: Products above the zoo's sizes, built on demand.
LADDER = {
    "G3xG2": lambda: builders.direct_product(
        [builders.gamma_zk(3, (1, 1, 1)), builders.gamma_zk(2, (1, 1))]),
    "Z1^4": lambda: builders.direct_product([builders.build_zn(1)] * 4),
    "Z2xZ3": lambda: builders.direct_product([builders.build_zn(2), builders.build_zn(3)]),
}


@pytest.fixture(scope="session")
def zoo():
    return ZOO


#: The attributes of ``core.FiniteMvwRig`` built on first read.
LAZY = ("times_table", "join_table", "meet_table", "commutative", "unit", "product_below_meet")


@pytest.fixture
def table_builds(monkeypatch):
    """The names of the lazily built attributes, one entry per build on any
    structure, while the test runs: each ``core._derived`` attribute of
    ``core.FiniteMvwRig`` is wrapped in a counting one of the same name."""
    built = []
    for name in LAZY:
        lazy = vars(core.FiniteMvwRig)[name]
        assert isinstance(lazy, core._derived), name

        def counted(rig, build=lazy.build, name=name):
            built.append(name)
            return build(rig)
        wrapped = core._derived(counted)
        wrapped.__set_name__(core.FiniteMvwRig, name)
        monkeypatch.setattr(core.FiniteMvwRig, name, wrapped)
    return built


@pytest.fixture
def report_log(monkeypatch):
    """The axiom reports the structures made while the test runs come to
    keep, in order, one (structure, "check_mv" or "check_mvw", "built" or
    "inherited") each: inherited when ``core.inherit_reports`` gives the
    report to the structure it was called for, built otherwise."""
    log, planting = [], []

    class Memo(dict):
        def __init__(self, rig):
            super().__init__()
            self.rig = rig

        def __setitem__(self, key, value):
            name = key[0].__name__
            if name in ("check_mv", "check_mvw"):
                log.append((self.rig, name, "inherited" if self.rig in planting else "built"))
            super().__setitem__(key, value)

    init, shallow, inherit = core.FiniteMvwRig.__init__, core.FiniteMvwRig.__copy__, \
        core.inherit_reports

    def logging_init(rig, *args, **kwargs):
        init(rig, *args, **kwargs)
        rig._memo = Memo(rig)

    def logging_copy(rig):
        # a shallow copy, such as the whole-carrier ``core.restrict``, is
        # a structure of its own
        twin = shallow(rig)
        twin._memo = Memo(twin)
        return twin

    def inheriting(rig, sources):
        planting.append(rig)
        try:
            return inherit(rig, sources)
        finally:
            planting.pop()
    monkeypatch.setattr(core.FiniteMvwRig, "__init__", logging_init)
    monkeypatch.setattr(core.FiniteMvwRig, "__copy__", logging_copy)
    monkeypatch.setattr(core, "inherit_reports", inheriting)
    return log


def zoo_items(predicate=None):
    items = ZOO.items()
    if predicate is not None:
        items = [(k, v) for k, v in items if predicate(v)]
    return [pytest.param(v, id=k) for k, v in items]


def mv_ideals(rig):
    """Every MV-ideal, smallest first: the down-sets of the idempotents."""
    downs = [frozenset(np.flatnonzero(rig.leq_table[:, e]).tolist())
             for e in rig.elements() if rig.add(e, e) == e]
    return [ideals.Ideal(rig, s) for s in sorted(downs, key=lambda s: (len(s), sorted(s)))]


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / name


def algebra_path(name: str) -> Path:
    return ALGEBRAS_DIR / name
