"""Per-layer tracing from outside the package.

``Tracer`` replaces every public module-level function of the traced
modules, every alias of one (such as ``builders.derive``, which is
``core.derive``) and every check function in ``suites.SUITES`` with a
wrapper that records a span, then puts every original back.  Nothing in
the package changes.  ``ScalarCounter`` counts the element accessors of
``FiniteMvwRig`` in a separate pass, because wrapping them distorts time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
import weakref

LAYERS = ("cli", "dsl", "builders", "core", "ideals", "spectrum", "frames", "suites")
PACKAGE = "mvwrig"
ROOT_SPAN = "pass"

#: Per-layer time metrics: name -> the functions whose outermost calls it
#: sums (a call nested in another call of the same group counts once).
#: Every span name is also a group of its own, which gives the per-suite
#: and per-check times.
TIME_GROUPS = {
    "ideals.enumerate_s": ("ideals.enumerate_ideals",),
    "ideals.classify_s": ("ideals.classify_ideal",),
    "ideals.radical_s": ("ideals.radical",),
    "ideals.quotient_s": ("ideals.quotient", "ideals.mv_quotient"),
    "ideals.hom_s": ("ideals.check_homomorphism", "ideals.verify_homomorphism",
                     "ideals.kernel", "ideals.image", "ideals.enumerate_homomorphisms",
                     "ideals.first_iso"),
    "ideals.chang_s": ("ideals.chang_embedding",),
    "spectrum.spec_s": ("spectrum.spec",),
    "spectrum.radical_order_s": ("spectrum.radical_order_check",),
    "spectrum.topology_s": ("spectrum.basic_open", "spectrum.v_of_set", "spectrum.is_t0",
                            "spectrum.is_irreducible", "spectrum.set_closure",
                            "spectrum.point_closure", "spectrum.specialization_downset",
                            "spectrum.covering_edges"),
    "frames.frame_s": ("frames.frame",),
    "frames.all_pfilters_s": ("frames.all_pfilters",),
    "frames.pfilter_generated_s": ("frames.pfilter_generated",),
    "frames.dotsum_s": ("frames.dotsum_closure",),
    "frames.theta_s": ("frames.theta",),
    "core.derive_s": ("core.derive",),
    "core.check_mv_s": ("core.check_mv",),
    "core.check_mvw_s": ("core.check_mvw",),
    "core.restrict_s": ("core.restrict",),
    "dsl.parse_s": ("dsl.parse",),
    "dsl.elaborate_s": ("dsl.elaborate",),
    "dsl.serialize_s": ("dsl.serialize",),
}

#: Per-layer call counts: name -> the functions whose calls it counts.
CALL_GROUPS = {
    "ideals.enumerate_calls": ("ideals.enumerate_ideals",),
    "ideals.generated_calls": ("ideals.generated_ideal",),
    "ideals.classify_calls": ("ideals.classify_ideal",),
    "ideals.prime_ideals_calls": ("ideals.prime_ideals",),
    "ideals.radical_calls": ("ideals.radical",),
    "spectrum.spec_calls": ("spectrum.spec",),
    "frames.frame_calls": ("frames.frame",),
    "frames.pfilter_generated_calls": ("frames.pfilter_generated",),
    "core.derive_calls": ("core.derive",),
    "core.check_calls": ("core.check_mv", "core.check_mvw"),
    "dsl.elaborate_calls": ("dsl.elaborate",),
}

#: Functions whose first argument is a structure; the tracer counts the
#: distinct structures they ran on, for the ``*_per_rig`` ratios.
PER_RIG = {"ideals.enumerate_ideals": "ideals.enumerate_per_rig",
           "spectrum.spec": "spectrum.spec_per_rig"}

ENUMERATE = "ideals.enumerate_ideals"
GENERATED = "ideals.generated_ideal"

#: The element accessors of ``FiniteMvwRig`` counted by ``ScalarCounter``.
ACCESSORS = ("elements", "element_name", "neg", "add", "mul", "monus", "times_mv",
             "join", "meet", "leq", "power")


def package_modules():
    """The package and every submodule it has loaded, by name."""
    importlib.import_module(f"{PACKAGE}.cli")  # imports every layer
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def public_functions():
    """span name ("layer.function") -> original function, for each layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                out[f"{layer}.{name}"] = value
    return out


class Tracer:
    """Records one span per call into a traced function, kept in memory.

    A span is (id, name, start, end, parent id, job).  Self time, outermost
    inclusive time and call counts are accumulated as spans close.
    """

    def __init__(self):
        self.spans = []
        self.job = -1
        self.calls = {}
        self.inclusive = {}
        self.layer_self = {}
        self.distinct = {}
        self.enum_ideals = 0
        self.generated_in_enum = 0
        self._ids = itertools.count(1)
        self._stack = [[0, 0.0]]  # [span id, time covered by children]; 0 is the root
        self._active = {}         # group -> open calls
        self._seen = {}           # function -> WeakSet of structures
        self._patches = []        # (container, key, original, is_attr)
        self._groups = {}
        for metric, names in TIME_GROUPS.items():
            for name in names:
                self._groups.setdefault(name, []).append(metric)

    # -- install / uninstall --------------------------------------------------

    def install(self):
        originals = public_functions()
        wrapped = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in package_modules().values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(mod, attr, wrapper, True)
        suites = importlib.import_module(f"{PACKAGE}.suites")
        for checks in suites.SUITES.values():
            for i, (name, desc, fn) in enumerate(checks):
                self._patch(checks, i, (name, desc, self._wrap(f"suites.check.{name}", fn)),
                            False)

    def uninstall(self):
        while self._patches:
            container, key, original, is_attr = self._patches.pop()
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original

    def _patch(self, container, key, replacement, is_attr):
        original = getattr(container, key) if is_attr else container[key]
        self._patches.append((container, key, original, is_attr))
        if is_attr:
            setattr(container, key, replacement)
        else:
            container[key] = replacement

    # -- spans ----------------------------------------------------------------

    def open_root(self):
        self._root_start = time.perf_counter()

    def close_root(self):
        end = time.perf_counter()
        covered = self._stack[0][1]
        self.spans.append((0, ROOT_SPAN, self._root_start, end, None, -1))
        self.layer_self[ROOT_SPAN] = (end - self._root_start) - covered
        return end - self._root_start

    def _wrap(self, name, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        groups = self._groups.get(name, [])
        per_rig = name in PER_RIG
        is_enum, is_generated = name == ENUMERATE, name == GENERATED
        dynamic = name == "suites.run_suite"  # one span name per suite
        fixed_groups = groups + [name]
        stack, spans, clock, active = self._stack, self.spans, time.perf_counter, self._active

        def wrapper(*args, **kwargs):
            if dynamic:
                span_name = f"suites.suite.{args[1] if len(args) > 1 else kwargs['suite']}"
                span_groups = groups + [span_name]
            else:
                span_name, span_groups = name, fixed_groups
            if is_generated and active.get(ENUMERATE):
                tracer.generated_in_enum += 1
            if per_rig:
                tracer._see(name, args[0])
            starts = [g for g in span_groups if not active.get(g)]
            for g in span_groups:
                active[g] = active.get(g, 0) + 1
            sid = next(tracer._ids)
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                for g in span_groups:
                    active[g] -= 1
                dur = end - start
                parent[1] += dur
                tracer.layer_self[layer] = tracer.layer_self.get(layer, 0.0) + dur - frame[1]
                for g in starts:
                    tracer.inclusive[g] = tracer.inclusive.get(g, 0.0) + dur
                tracer.calls[span_name] = tracer.calls.get(span_name, 0) + 1
                spans.append((sid, span_name, start, end, parent[0], tracer.job))
            if is_enum and not active.get(ENUMERATE):
                tracer.enum_ideals += len(result)
            return result

        wrapper.__bench_name__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _see(self, name, rig):
        seen = self._seen.setdefault(name, weakref.WeakSet())
        if rig not in seen:
            seen.add(rig)
            self.distinct[name] = self.distinct.get(name, 0) + 1

    # -- results --------------------------------------------------------------

    def metrics(self, suite_checks):
        """Per-layer metrics from the closed spans; ``suite_checks`` maps each
        suite to its check names."""
        out = {}
        for suite, checks in suite_checks.items():
            out[f"suites.{suite}_s"] = self.inclusive.get(f"suites.suite.{suite}", 0.0)
            for check in checks:
                out[f"suites.check.{check}_s"] = self.inclusive.get(
                    f"suites.check.{check}", 0.0)
        for metric in TIME_GROUPS:
            out[metric] = self.inclusive.get(metric, 0.0)
        for metric, names in CALL_GROUPS.items():
            out[metric] = sum(self.calls.get(n, 0) for n in names)
        for name, metric in PER_RIG.items():
            distinct = self.distinct.get(name, 0)
            out[metric] = self.calls.get(name, 0) / distinct if distinct else 0.0
        out["ideals.generated_per_ideal"] = \
            self.generated_in_enum / self.enum_ideals if self.enum_ideals else 0.0
        out["builders.self_s"] = self.layer_self.get("builders", 0.0)
        out["builders.calls"] = sum(c for n, c in self.calls.items()
                                    if n.startswith("builders."))
        out["cli.self_s"] = self.layer_self.get("cli", 0.0)
        out["cli.commands"] = self.calls.get("cli.main", 0)
        return out


def leftover_wrappers():
    """Every wrapper still reachable from the package after ``uninstall``."""
    found = []
    for modname, mod in package_modules().items():
        for attr, value in vars(mod).items():
            if hasattr(value, "__bench_name__"):
                found.append(f"{modname}.{attr}")
    suites = importlib.import_module(f"{PACKAGE}.suites")
    for suite, checks in suites.SUITES.items():
        for name, _desc, fn in checks:
            if hasattr(fn, "__bench_name__"):
                found.append(f"suites.SUITES[{suite}].{name}")
    rig = importlib.import_module(f"{PACKAGE}.core").FiniteMvwRig
    for name in ACCESSORS:
        if hasattr(vars(rig)[name], "__bench_name__"):
            found.append(f"core.FiniteMvwRig.{name}")
    return found


class ScalarCounter:
    """Counts calls to the element accessors of ``FiniteMvwRig``."""

    def __init__(self):
        self.count = 0
        self._originals = {}

    def install(self):
        rig = importlib.import_module(f"{PACKAGE}.core").FiniteMvwRig
        for name in ACCESSORS:
            original = vars(rig)[name]
            self._originals[name] = original
            setattr(rig, name, self._wrap(name, original))

    def uninstall(self):
        rig = importlib.import_module(f"{PACKAGE}.core").FiniteMvwRig
        for name, original in self._originals.items():
            setattr(rig, name, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        counter = self

        def wrapper(*args, **kwargs):
            counter.count += 1
            return fn(*args, **kwargs)

        wrapper.__bench_name__ = f"core.FiniteMvwRig.{name}"
        wrapper.__wrapped__ = fn
        return wrapper
