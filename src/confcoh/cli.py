"""Command-line surface: group tables, the torsion summary table, and the
verification suites.

`COMMANDS` declares the command line once: each subcommand's help, its
`cmd_*` function and its options.  Two parsers read it.  `_parse` takes argv
that spells every option as its exact flag and a separate value, which is
what scripts and the README write, and builds the namespace without
argparse.  Anything else (help, abbreviations, `--opt=value`, `--`,
dash-led values, usage errors) goes to the argparse parser that
`build_parser` builds, so help and error texts are argparse's own.  argparse
costs a few milliseconds to import and build, more than a small table, and
a successful canonical call never loads it.

Exit codes: 0 all checks pass, 1 verification failures, 2 usage errors.
"""

import sys

from . import configcoh, suites
from .abelian import AbGroup2, GradedGroups
from .configcoh import SpaceId
from .report import VerificationReport

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

SimpleNamespace = type(sys.implementation)  # as the types module defines it

# Input bounds, each set from a measurement; a larger input is refused with
# exit code 2.  The readings at the bounds, on a shared 2-core x86-64 host
# with CPython 3.11.7, whole process, stdout to /dev/null, 7 runs each:
# - verify --suite all over 2..80 (91619 checks, 20 skipped-open) takes
#   0.65-1.03 s (median 0.69 s) as a table and 0.75-1.00 s (median 0.85 s)
#   as json, at 38.4 and 38.7 MiB peak RSS: both write one check at a time.
#   The suites alone over 2..96 took 0.90-1.26 s and 48.6 MiB (3 runs).
# - groups at m = 8192 writes every format one row at a time, so its peak
#   RSS is 15.7-16.6 MiB.  Its largest output, --space B --coefficients F2
#   --format json (740 MB), takes 0.12-0.18 s (median 0.14 s); csv F2
#   (134 MB), csv twisted at m = 8191 (67 MB), B's homology table and F's
#   F2 table take a median 0.08-0.11 s.  The output, O(m^2), not the time,
#   sets this bound: a caller that captures it in memory holds all 740 MB.
MAX_VERIFY_M = 80
MAX_GROUPS_M = 8192


def _text(s: str) -> str:
    """json.dumps(s): s in double quotes, escaped to printable ASCII.  The
    strings the package writes are plain ASCII, quoted here; json, whose
    decoder loads re, is imported only for a string that needs escaping."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json

    return json.dumps(s)


class _Quoted(dict):
    """str -> _text(str), filled on first use: a report repeats few
    strings many times, and a repeat costs one dict lookup."""

    __slots__ = ()

    def __missing__(self, s: str) -> str:
        text = self[s] = _text(s)
        return text


def _parse_m_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        value = int(text)
        return range(value, value + 1)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected M or LO..HI, got {text!r}"
        ) from None


def _table_for(s: SpaceId, coefficients: str, homology: bool) -> GradedGroups:
    if homology:
        return configcoh.homology(s)
    if coefficients == "Z":
        return configcoh.cohomology_table(s)
    if coefficients == "twisted":
        return configcoh.twisted_cohomology_table(s)
    # <k> for the mod-2 Betti number k: each row is the shared <k>, so the
    # table writer's text dict finds a repeated row by identity.  The
    # interned table grows to at most m <= MAX_GROUPS_M entries here.
    elementary, mod2_dimension = AbGroup2.elementary, configcoh.mod2_dimension
    return GradedGroups([elementary(mod2_dimension(s, i)) for i in range(s.support_bound + 1)])


def _render_groups(
    s: SpaceId, table: GradedGroups, fmt: str, label: str
) -> "Iterator[str]":
    """The table's text, without its final newline, in pieces of at most
    one row, so that writing it holds one row in memory, not the table.

    A torsion list is written as one string product per (exponent,
    multiplicity) pair, not one str per summand.  In json those products
    are pieces of their own, and the last order goes out with the row's
    closing text, so the list is never copied.  The table format makes
    each distinct group's text once, in a dict that lives for this call;
    csv and json cache nothing, as their rows grow with the rank.  In
    every table but the twisted one, all but at most three rows are shared
    objects (the interned <k> and {k}, and the cohomology rows that
    `uct_homology` reuses), so the dict finds nearly every repeat by
    identity, with no `Value.__eq__` frame."""
    rows = enumerate(table.groups)
    if fmt == "json":
        # The fixed envelope of json.dumps(..., indent=2), written by hand;
        # a table always has rows, so "groups" is never the empty list.
        yield (
            f'{{\n  "space": {_text(s.kind)},\n  "m": {s.m},\n'
            f'  "coefficients": {_text(label)},\n  "groups": ['
        )
        sep, pad = "\n", ",\n        "
        for i, (free, torsion) in rows:
            head = f'{sep}    {{\n      "degree": {i},\n      "free": {free},\n'
            sep = ",\n"
            if not torsion:
                yield f'{head}      "torsion": []\n    }}'
                continue
            yield f'{head}      "torsion": [\n        '
            for e, k in torsion[:-1]:
                yield f"{1 << e}{pad}" * k
            e, k = torsion[-1]
            yield f"{1 << e}{pad}" * (k - 1)
            yield f"{1 << e}\n      ]\n    }}"
        yield "\n  ]\n}"
    elif fmt == "csv":
        yield "degree,free,torsion"
        for i, (free, torsion) in rows:
            orders = "".join([f"{1 << e};" * k for e, k in torsion])
            yield f"\n{i},{free},{orders[:-1]}"
    else:
        yield f"{label} groups of {s}\n{'i':>3}  group"
        texts: dict[AbGroup2, str] = {}
        for i, g in rows:
            text = texts.get(g)
            if text is None:
                text = texts[g] = str(g)
            yield f"\n{i:>3}  {text}"


def _render_report_json(report: VerificationReport) -> "Iterator[str]":
    """json.dumps of the report document, indent=2, without its final
    newline, in pieces of one check each, so that writing it holds one
    check in memory, not the report.  The checks of one family share their
    suite and m, so that head is written once per family, and the other
    strings are quoted once per report."""
    quoted = _Quoted()
    yield (
        f'{{\n  "passed": {"true" if report.passed else "false"},\n'
        f'  "summary": {_text(report.summary())},\n  "checks": ['
    )
    sep, family = "\n    ", None
    for suite, label, expected, got, passed, m, degree, skipped in report.checks:
        if (suite, m) != family:
            family = suite, m
            head = (
                f'{{\n      "suite": {_text(suite)},\n'
                f'      "m": {"null" if m is None else m},\n      "degree": '
            )
        yield (
            f'{sep}{head}{"null" if degree is None else degree},\n'
            f'      "label": {quoted[label]},\n      "expected": {quoted[expected]},\n'
            f'      "got": {quoted[got]},\n      "passed": {"true" if passed else "false"},\n'
            f'      "skipped": {"true" if skipped else "false"}\n    }}'
        )
        sep = ",\n    "
    yield "\n  ]\n}" if report.checks else "]\n}"


def cmd_groups(args: SimpleNamespace) -> int:
    if args.m > MAX_GROUPS_M:
        print(f"m capped at {MAX_GROUPS_M}", file=sys.stderr)
        return 2
    if args.m < 1:
        print("error: m must be >= 1", file=sys.stderr)
        return 2
    s = SpaceId(args.space, args.m)
    if args.homology and args.coefficients != "Z":
        print("--homology only applies to integral coefficients", file=sys.stderr)
        return 2
    label = "H_*" if args.homology else {
        "Z": "H^*",
        "twisted": "twisted H^*",
        "F2": "mod-2 H^*",
    }[args.coefficients]
    table = _table_for(s, args.coefficients, args.homology)
    sys.stdout.writelines(_render_groups(s, table, args.format, label))
    print()
    return 0


TABLE1_MS = (2, 4, 6, 8)
TABLE1_COLUMNS = range(2, 15)


def table1_cells() -> dict[int, dict[int, str]]:
    """Torsion entries of the unordered tables for m = 2, 4, 6, 8 in
    degrees 2..14; empty string where the torsion vanishes."""
    cells: dict[int, dict[int, str]] = {}
    for m in TABLE1_MS:
        s = SpaceId("B", m)
        row = {}
        for i in TABLE1_COLUMNS:
            torsion = configcoh.cohomology(s, i).torsion_part()
            row[i] = "" if torsion.is_trivial else str(torsion)
        cells[m] = row
    return cells


def render_table1(fmt: str = "table") -> str:
    cells = table1_cells()
    if fmt == "json":
        import json

        return json.dumps(
            {
                f"B(P^{m},2)": {str(i): cells[m][i] for i in TABLE1_COLUMNS}
                for m in TABLE1_MS
            },
            indent=2,
        )
    if fmt == "csv":
        lines = ["m," + ",".join(str(i) for i in TABLE1_COLUMNS)]
        for m in TABLE1_MS:
            lines.append(
                f"{m}," + ",".join(cells[m][i] for i in TABLE1_COLUMNS)
            )
        return "\n".join(lines)
    width = 6
    header = "*=".ljust(10) + "".join(str(i).rjust(width) for i in TABLE1_COLUMNS)
    lines = [header]
    for m in TABLE1_MS:
        row = f"B(P^{m},2)".ljust(10) + "".join(
            cells[m][i].rjust(width) for i in TABLE1_COLUMNS
        )
        lines.append(row.rstrip())
    return "\n".join(lines)


def cmd_table1(args: SimpleNamespace) -> int:
    print(render_table1(args.format))
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    m_range = args.m_range
    if not m_range:
        print("empty m-range", file=sys.stderr)
        return 2
    if m_range[0] < 1:
        print("m-range must start at 1 or above", file=sys.stderr)
        return 2
    if m_range[-1] > MAX_VERIFY_M:
        print(f"m-range capped at {MAX_VERIFY_M}", file=sys.stderr)
        return 2
    report = suites.run_suites(names, m_range)
    if args.format == "json":
        sys.stdout.writelines(_render_report_json(report))
        print()
    else:
        for check in report.checks:
            if not check.passed or check.skipped or args.verbose:
                print(check.line())
        print(report.summary())
    return 0 if report.passed else 1


_FORMATS = ("table", "json", "csv")

# subcommand -> (help, function, options as (flag, add_argument keywords))
COMMANDS = {
    "groups": (
        "print a graded group table",
        cmd_groups,
        (
            ("--space", {"choices": ("F", "B"), "required": True}),
            ("--m", {"type": int, "required": True}),
            ("--coefficients", {"choices": ("Z", "twisted", "F2"), "default": "Z"}),
            ("--homology", {"action": "store_true"}),
            ("--format", {"choices": _FORMATS, "default": "table"}),
        ),
    ),
    "table1": (
        "torsion summary for the unordered spaces, m = 2,4,6,8",
        cmd_table1,
        (("--format", {"choices": _FORMATS, "default": "table"}),),
    ),
    "verify": (
        "run verification suites",
        cmd_verify,
        (
            ("--suite", {"choices": ("all",) + suites.SUITE_NAMES, "default": "all"}),
            ("--m-range", {"type": _parse_m_range, "default": range(2, 11)}),
            ("--format", {"choices": ("table", "json"), "default": "table"}),
            ("--verbose", {"action": "store_true"}),
        ),
    ),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse builds from argv, or None.  argv must be
    a subcommand and then its declared flags, each spelled in full; a
    flag that takes a value is followed by a word that does not start with
    '-', converts, and is one of its choices; every required flag is
    there.  As in argparse, the last of a repeated flag wins."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    declared = dict(options)
    given = {}
    words = iter(argv[1:])
    for flag in words:
        if flag not in declared:
            return None
        spec = declared[flag]
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(words, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # argparse converts it again and reports or raises it
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, spec in options:
        if flag not in given and spec.get("required"):
            return None
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, flag.lstrip("-").replace("-", "_"), given.get(flag, default))
    return args


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="confcoh",
        description=(
            "Exact cohomology of two-point configuration spaces of real "
            "projective spaces, with verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return 2 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
