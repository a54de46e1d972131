"""Command-line surface: group tables, the torsion summary table, and the
verification suites.

Exit codes: 0 all checks pass, 1 verification failures, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import configcoh, suites
from .abelian import AbGroup2, GradedGroups
from .configcoh import SpaceId

# Input bounds, each set from a measured run on a 2-core host: verify over
# 2..32 takes about 1.6 s and 25 MiB; groups at m = 4096 peaks at 825 MiB
# (json, Z), and m = 100000 ran out of memory.
MAX_VERIFY_M = 32
MAX_GROUPS_M = 4096


def _parse_m_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        value = int(text)
        return range(value, value + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected M or LO..HI, got {text!r}"
        ) from None


def _table_for(s: SpaceId, coefficients: str, homology: bool) -> GradedGroups:
    if homology:
        return configcoh.homology(s)
    if coefficients == "Z":
        return configcoh.cohomology_table(s)
    if coefficients == "twisted":
        return GradedGroups.from_dict(
            s.support_bound,
            {j: configcoh.twisted_cohomology(s, j) for j in range(s.support_bound + 1)},
        )
    return GradedGroups.from_dict(
        s.support_bound,
        {
            i: AbGroup2.elementary(configcoh.mod2_dimension(s, i))
            for i in range(s.support_bound + 1)
        },
    )


def _render_groups(s: SpaceId, table: GradedGroups, fmt: str, label: str) -> str:
    rows = [(i, table.group(i)) for i in range(table.support_bound + 1)]
    if fmt == "json":
        return json.dumps(
            {
                "space": s.kind,
                "m": s.m,
                "coefficients": label,
                "groups": [
                    {"degree": i, **g.to_json_dict()} for i, g in rows
                ],
            },
            indent=2,
        )
    if fmt == "csv":
        lines = ["degree,free,torsion"]
        for i, g in rows:
            torsion = ";".join(str(2**e) for e in g.torsion_exponents)
            lines.append(f"{i},{g.free_rank},{torsion}")
        return "\n".join(lines)
    header = f"{label} groups of {s}"
    lines = [header, f"{'i':>3}  group"]
    for i, g in rows:
        lines.append(f"{i:>3}  {g}")
    return "\n".join(lines)


def cmd_groups(args: argparse.Namespace) -> int:
    if args.m > MAX_GROUPS_M:
        print(f"m capped at {MAX_GROUPS_M}", file=sys.stderr)
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
    print(_render_groups(s, table, args.format, label))
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


def cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1(args.format))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    m_range = args.m_range
    if len(m_range) == 0:
        print("empty m-range", file=sys.stderr)
        return 2
    if min(m_range) < 1:
        print("m-range must start at 1 or above", file=sys.stderr)
        return 2
    if max(m_range) > MAX_VERIFY_M:
        print(f"m-range capped at {MAX_VERIFY_M}", file=sys.stderr)
        return 2
    report = suites.run_suites(names, m_range)
    if args.format == "json":
        print(json.dumps(report.to_json_obj(), indent=2))
    else:
        for check in report.checks:
            if not check.passed or check.skipped or args.verbose:
                print(check.line())
        print(report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confcoh",
        description=(
            "Exact cohomology of two-point configuration spaces of real "
            "projective spaces, with verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_groups = sub.add_parser("groups", help="print a graded group table")
    p_groups.add_argument("--space", choices=("F", "B"), required=True)
    p_groups.add_argument("--m", type=int, required=True)
    p_groups.add_argument(
        "--coefficients", choices=("Z", "twisted", "F2"), default="Z"
    )
    p_groups.add_argument("--homology", action="store_true")
    p_groups.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p_groups.set_defaults(func=cmd_groups)

    p_table1 = sub.add_parser(
        "table1", help="torsion summary for the unordered spaces, m = 2,4,6,8"
    )
    p_table1.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p_table1.set_defaults(func=cmd_table1)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite", choices=("all",) + suites.SUITE_NAMES, default="all"
    )
    p_verify.add_argument(
        "--m-range", type=_parse_m_range, default=range(2, 11), dest="m_range"
    )
    p_verify.add_argument(
        "--format", choices=("table", "json"), default="table"
    )
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
