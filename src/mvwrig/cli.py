"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when a mathematical
property fails (a witness is printed), 2 for input, parse or validation
errors.  Human-readable reports go to standard output; JSON and DOT are
emitted only when requested.

``main`` may be called many times in one process.  The argument parser is
built on the first call and shared by every later call; each call still
reads its own argv and environment (``MVW_SIZE_BOUND``, and ``COLUMNS``
when a usage or help text is formatted) and parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import builders, core, dsl, frames, ideals, spectrum, suites
from .errors import (
    AxiomViolation,
    ClosureViolation,
    DslSyntaxError,
    EmptySeed,
    GateNotMet,
    InvalidUnit,
    MvwError,
    NotACover,
    NotCommutative,
    OrderNotAntisymmetric,
    SchemaError,
    SizeBound,
    Trivial,
)

PASS, FAIL, USAGE = 0, 1, 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:   # located at the first undecodable byte
            head, at = exc.object[:exc.start], exc.start
            line, column = head.count(b"\n") + 1, len(head[head.rfind(b"\n") + 1:].decode()) + 1
            raise DslSyntaxError(dsl.ParseDiagnostic("error", line, column, (
                f"{path} is not UTF-8 text: byte 0x{exc.object[at]:02x} at offset {at}"))) from None


def _load_one(path: str):
    rigs = dsl.elaborate_file(_read(path))
    if len(rigs) != 1:
        raise DslSyntaxError(dsl.ParseDiagnostic(
            "error", 1, 1,
            f"{path} defines {len(rigs)} algebras; this command needs exactly one"))
    return rigs[0]


@contextlib.contextmanager
def _output(path):
    """Refuse an unwritable output ``path`` (None: no output) before the
    command loads anything, with the error a write would raise: the path
    is opened to append, which changes no byte of a file already there.  A
    file that opening created is removed again when the command fails."""
    if path is None:
        yield
        return
    fresh = not os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if fresh:
            os.remove(path)
        raise


def _witness_names(rig, witness):
    return "(" + ", ".join(rig.element_name(v) for v in witness) + ")"


def _parse_elements(rig, text: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    names = {rig.element_name(i): i for i in rig.elements()}
    out = []
    for part in parts:
        if part in names:
            out.append(names[part])
        elif part.isascii() and part.isdigit() and int(part) < rig.size:
            out.append(int(part))
        else:
            raise DslSyntaxError(dsl.ParseDiagnostic(
                "error", 1, 1, f"unknown element {part!r}"))
    return out


# -- subcommands ----------------------------------------------------------------

def _cmd_check(args) -> int:
    # loaded unchecked, so that a failing structure is reported, not refused
    rigs = dsl.elaborate_file(_read(args.file), check=False)
    worst = PASS
    for rig in rigs:
        print(rig.describe())
        report = core.check_mv(rig) if args.mv_only else core.check_all(rig)
        if rig.mv_only:
            print("  (no product: MV axioms only)")
        for axiom in report.axioms:
            status = report.status(axiom)
            line = f"  {axiom} {status}"
            if status == "FAIL":
                count, samples = report.failures[axiom]
                shown = ", ".join(_witness_names(rig, w) for w in samples)
                line += f"  [{count} counterexamples: {shown}]"
            print(line)
        verdict = "PASS" if report.passed else "FAIL"
        print(f"result: {verdict}")
        if not report.passed:
            worst = FAIL
    return worst


#: The fields of ``ideals.IdealClass`` that ``mvw ideals`` filters on and
#: tags, in its order, with their tags.
_CLASS_TAGS = (("prime", "prime"), ("mv_prime", "mv-prime"), ("maximal", "maximal"))


def _cmd_ideals(args) -> int:
    rig = _load_one(args.file)
    # the --prime, --mv-prime and --maximal filters keep proper ideals only
    wanted = [field for field, _ in _CLASS_TAGS if getattr(args, field)]
    rows = [(ideal, cls) for ideal, cls in ideals.classified_ideals(rig)
            if all(ideal.proper and getattr(cls, field) for field in wanted)]
    if args.json:
        import json
        print(json.dumps({"ideals": [sorted(i.members) for i, _ in rows]}, indent=2))
        return PASS
    print(rig.describe())
    for ideal, cls in rows:
        tags = ["proper" if cls.proper else "improper"]
        tags += [tag for field, tag in _CLASS_TAGS if getattr(cls, field)]
        print(f"  {ideal.display()}  {' '.join(tags)}")
    print(f"{len(rows)} ideals")
    return PASS


def _cmd_quotient(args) -> int:
    with _output(args.output):
        rig = _load_one(args.file)
        members = set(_parse_elements(rig, args.ideal))
        ok, witness = ideals.is_ideal(rig, members)
        if not ok:
            clause, pair = witness
            raise DslSyntaxError(dsl.ParseDiagnostic(
                "error", 1, 1,
                f"{ideals.format_subset(rig, members)} is not an ideal "
                f"({clause} fails at {_witness_names(rig, pair)})"))
        q = ideals.quotient(rig, ideals.Ideal(rig, frozenset(members)))
        print(rig.describe())
        print(f"quotient by {q.ideal.display()} has {q.rig.size} classes")
        for c in q.rig.elements():
            cls = sorted(x for x in rig.elements() if q.projection[x] == c)
            print(f"  {q.rig.element_name(c)} = "
                  f"{ideals.format_subset(rig, cls)}")
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(dsl.serialize(q))
            print(f"wrote {args.output}")
        return PASS


def _cmd_spec(args) -> int:
    with _output(args.dot):
        rig = _load_one(args.file)
        space = spectrum.spec(rig)
        if args.json:
            print(dsl.serialize(space), end="")
            return PASS
        if args.dot is not None:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(spectrum.export_dot(space))
            print(f"wrote {args.dot}")
            return PASS
        print(rig.describe())
        for warning in space.warnings:
            print(f"  warning: {warning}")
        print(f"  {len(space.points)} prime ideal point(s)")
        for i in range(len(space.points)):
            print(f"    P{i} = {space.point_display(i)}")
        print(f"  {len(space.opens)} open set(s)")
        print(f"  T0: {'yes' if spectrum.is_t0(space) else 'no'}")
        print(f"  irreducible: {'yes' if spectrum.is_irreducible(space) else 'no'}")
        return PASS


def _cmd_filters(args) -> int:
    if args.json and not (args.frame or args.principal is not None):
        raise DslSyntaxError(dsl.ParseDiagnostic(
            "error", 1, 1, "--json needs --frame or --principal"))
    rig = _load_one(args.file)
    if args.principal is not None:
        elems = _parse_elements(rig, args.principal)
        if len(elems) != 1:
            raise DslSyntaxError(dsl.ParseDiagnostic(
                "error", 1, 1, "--principal takes a single element"))
        pf = frames.principal_pfilter(rig, elems[0])
        if args.json:
            print(dsl.serialize(pf), end="")
        else:
            print(rig.describe())
            print(f"  F_{rig.element_name(elems[0])} = {pf.display()}")
        return PASS
    if args.frame:
        fr = frames.frame(rig)
        if args.json:
            print(dsl.serialize(fr), end="")
            return PASS
        print(rig.describe())
        print(f"  {len(fr.pfilters)} P-filter(s)")
        for i, f in enumerate(fr.pfilters):
            print(f"    F{i} = {ideals.format_subset(rig, f)}")
        edges = fr.hasse_edges()
        print(f"  covering relation: "
              + (", ".join(f"F{i} < F{j}" for i, j in sorted(edges)) if edges else "none"))
        return PASS
    print(rig.describe())
    prin = frames.principal_table(rig)
    names = rig.carrier.names
    for a, i in enumerate(prin.index):
        print(f"  F_{names[a]} = {ideals.format_subset(rig, prin.pfilters[i])}")
    return PASS


def _cmd_verify(args) -> int:
    if args.list:
        current = None
        for suite, name, desc in suites.listing():
            if suite != current:
                print(f"suite {suite}:")
                current = suite
            print(f"  {name}: {desc}")
        return PASS
    if not args.file:
        raise DslSyntaxError(dsl.ParseDiagnostic("error", 1, 1, "missing input file"))
    if args.suite != "all" and args.suite not in suites.SUITE_NAMES:
        raise DslSyntaxError(dsl.ParseDiagnostic(
            "error", 1, 1,
            f"unknown suite {args.suite!r} (choose from {', '.join(suites.SUITE_NAMES)}, all)"))
    rig = _load_one(args.file)
    print(rig.describe())
    results = suites.run_all(rig) if args.suite == "all" else suites.run_suite(rig, args.suite)
    counts = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
    for result in results:
        counts[result.status] += 1
        print(result.line())
    print(f"result: {counts['PASS']} passed, {counts['FAIL']} failed, "
          f"{counts['SKIPPED']} skipped")
    return PASS if counts["FAIL"] == 0 else FAIL


def _cmd_parse(args) -> int:
    text = _read(args.file)
    sources = dsl.parse(text)
    if args.emit_json:
        for rig in dsl.elaborate_file(text):
            print(dsl.serialize(rig), end="")
        return PASS
    for source in sources:
        kind = "builder" if source.builder is not None else "tables"
        print(f"parsed algebra {source.name} ({kind})")
    return PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mvw`` parser, built once per process; it keeps no per-call
    state (``build_parser.__wrapped__()`` builds a new one)."""
    parser = argparse.ArgumentParser(
        prog="mvw",
        description="Workbench for finite MV-algebras with product: check "
                    "axioms, compute ideals, quotients, spectra and P-filter "
                    "frames.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checker on a definition file")
    p.add_argument("file")
    p.add_argument("--mv-only", action="store_true",
                   help="check only the MV axioms")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("ideals", help="enumerate and classify ideals")
    p.add_argument("file")
    p.add_argument("--prime", action="store_true", help="proper prime ideals only")
    p.add_argument("--mv-prime", action="store_true", help="proper MV-prime ideals only")
    p.add_argument("--maximal", action="store_true", help="maximal proper ideals only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_ideals)

    p = sub.add_parser("quotient", help="quotient by an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True,
                   help="comma-separated ideal elements (names or indices)")
    p.add_argument("-o", "--output", help="write the quotient as JSON")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("spec", help="the prime spectrum and its topology")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--dot", metavar="OUT", help="write the specialization order as DOT")
    g.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_spec)

    p = sub.add_parser("filters", help="principal P-filters and the frame")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--principal", metavar="ELEM",
                   help="show the principal P-filter of one element")
    g.add_argument("--frame", action="store_true", help="enumerate all P-filters")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_filters)

    p = sub.add_parser("verify", help="run the law suites")
    p.add_argument("file", nargs="?")
    p.add_argument("--suite", default="all",
                   help="core, ideals, spectrum, locale, or all")
    p.add_argument("--list", action="store_true",
                   help="list every suite and check")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("parse", help="syntax-check a definition file")
    p.add_argument("file")
    p.add_argument("--emit-json", action="store_true",
                   help="emit the canonical JSON of each algebra")
    p.set_defaults(fn=_cmd_parse)
    return parser


def main(argv=None) -> int:
    """Run one ``mvw`` command (``argv`` defaults to ``sys.argv[1:]``) and
    return its exit code; argparse raises SystemExit for usage errors and
    ``--help``.  The parser is built on the first call and shared by later
    calls, each of which reads its own argv, ``MVW_SIZE_BOUND`` and
    ``COLUMNS``."""
    args = build_parser().parse_args(argv)
    try:
        # MVW_SIZE_BOUND is validated before any work; when set it caps the
        # carriers, the enumerations and the frame
        builders._env_size_bound()
        return args.fn(args)
    except OrderNotAntisymmetric as exc:
        print(f"FAIL: {exc}")
        return FAIL
    except AxiomViolation as exc:
        print(f"FAIL: {exc}")
        for axiom in exc.report.failed_axioms():
            _count, samples = exc.report.failures[axiom]
            shown = ", ".join(str(w) for w in samples)
            print(f"  {axiom} witnesses: {shown}")
        return FAIL
    except (DslSyntaxError, ClosureViolation, SchemaError, SizeBound,
            InvalidUnit, NotCommutative, GateNotMet, Trivial, EmptySeed,
            NotACover) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except MvwError as exc:
        print(f"FAIL: {exc}")
        return FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
