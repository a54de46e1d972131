"""Output checks for the benchmark ops.

Each check takes what an op produced and raises ValidationError unless it
is right; on success it returns the op's unit of work.  The checks never
call the code path being timed: `verify` output is judged against check
counts pinned at the benchmark's first commit, `groups` tables against a
mod-2 Betti formula written out here, and Sq1 ranks against expectations
the caller computes from the closed-form tables.
"""

from __future__ import annotations

import json


class ValidationError(ValueError):
    """An op's output is wrong or incomplete."""


# `confcoh verify --suite all --m-range 2..H`: (checks, skipped-open) as
# measured at the commit that introduced this benchmark.  A later version
# may add checks but never drop any, so these are floors.
VERIFY_FLOOR = {
    7: (854, 2),
    8: (1115, 2),
    9: (1375, 2),
    10: (1700, 2),
    12: (2235, 3),
}


def verify(hi: int, code: int, text: str) -> int:
    """Check one `verify --format json --m-range 2..hi` run; returns checks."""
    if code != 0:
        raise ValidationError(f"verify exited {code}")
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"unreadable verify report: {exc}") from None
    for c in checks:
        if not c.get("passed"):
            raise ValidationError(
                f"FAIL [{c.get('suite')}] m={c.get('m')} {c.get('label')}: "
                f"expected={c.get('expected')} got={c.get('got')}"
            )
    skipped = sum(1 for c in checks if c.get("skipped"))
    want_checks, want_skipped = VERIFY_FLOOR[hi]
    if len(checks) < want_checks:
        raise ValidationError(f"{len(checks)} checks, expected at least {want_checks}")
    if skipped < want_skipped:
        raise ValidationError(f"{skipped} skipped-open, expected at least {want_skipped}")
    return len(checks)


def sq1(ranks: list[int], expected: list[int], squares: list[bool], split: list[bool] | None) -> int:
    """Check a Sq1 sweep; returns the number of degrees computed."""
    if len(ranks) != len(expected):
        raise ValidationError(f"{len(ranks)} ranks for {len(expected)} degrees")
    for d, (got, want) in enumerate(zip(ranks, expected)):
        if got != want:
            raise ValidationError(f"Sq1-homology rank {got} at degree {d}, page 1 says {want}")
    for d, ok in enumerate(squares):
        if ok is not True:
            raise ValidationError(f"Sq1 does not square to zero at degree {d}")
    if split is not None and (len(split) != 2 or not all(split)):
        raise ValidationError(f"splitting check results {split}")
    return len(ranks) + len(squares)


def betti_mod2(m: int, i: int) -> int:
    """Mod-2 Betti number of either two-point configuration space of P^m."""
    if 0 <= i < m:
        return i + 1
    if m <= i <= 2 * m - 1:
        return 2 * m - i
    return 0


Row = tuple[int, int, list[int]]  # degree, free rank, torsion exponents


def _exponent(order: int) -> int:
    e = order.bit_length() - 1
    if order < 2 or 1 << e != order:
        raise ValidationError(f"torsion order {order} is not a power of two")
    return e


def _parse_group_text(text: str) -> tuple[int, list[int]]:
    """Read the compact notation: 0, Z, Z^k, <k>, {k}, Z2, Z4, ... joined by ' + '."""
    free, exps = 0, []
    if text == "0":
        return free, exps
    for part in text.split(" + "):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("<") and part.endswith(">"):
            exps += [1] * int(part[1:-1])
        elif part.startswith("{") and part.endswith("}"):
            exps += [1] * int(part[1:-1]) + [2]
        elif part.startswith("Z") and part[1:].isdigit():
            exps.append(_exponent(int(part[1:])))
        else:
            raise ValidationError(f"unreadable group {text!r}")
    return free, exps


def parse_groups(fmt: str, text: str) -> list[Row]:
    """Rows of a `confcoh groups` table in any of its three formats."""
    try:
        if fmt == "json":
            return [
                (g["degree"], g["free"], [_exponent(o) for o in g["torsion"]])
                for g in json.loads(text)["groups"]
            ]
        lines = text.splitlines()
        if fmt == "csv":
            if lines[0] != "degree,free,torsion":
                raise ValidationError(f"csv header {lines[0]!r}")
            rows = []
            for line in lines[1:]:
                degree, free, torsion = line.split(",")
                exps = [_exponent(int(o)) for o in torsion.split(";")] if torsion else []
                rows.append((int(degree), int(free), exps))
            return rows
        if " groups of " not in lines[0] or lines[1].split() != ["i", "group"]:
            raise ValidationError(f"table header {lines[:2]!r}")
        rows = []
        for line in lines[2:]:
            degree, group = line.split(None, 1)
            rows.append((int(degree), *_parse_group_text(group)))
        return rows
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"unreadable {fmt} table: {exc!r}") from None


def groups(m: int, mode: str, fmt: str, code: int, text: str) -> int:
    """Check a `groups` table for B or F at m; returns the number of rows.

    mode is Z, twisted, F2 or homology.  For the integral tables the mod-2
    universal-coefficient count must give the Betti number in every degree:
    free + #torsion(H^i) + #torsion(H^(i+1)) for cohomology (plain or
    twisted, since Z_alpha tensor F2 is F2), and free + #torsion(H_i) +
    #torsion(H_(i-1)) for homology.  The F2 table must be elementary of
    exactly that rank.
    """
    if code != 0:
        raise ValidationError(f"groups exited {code}")
    rows = parse_groups(fmt, text)
    if [r[0] for r in rows] != list(range(2 * m)):
        raise ValidationError(f"{len(rows)} rows, expected degrees 0..{2 * m - 1}")
    tors = [len(exps) for _, _, exps in rows] + [0]
    for i, free, exps in rows:
        want = betti_mod2(m, i)
        if mode == "F2":
            got = len(exps) if free == 0 and all(e == 1 for e in exps) else -1
        elif mode == "homology":
            got = free + tors[i] + (tors[i - 1] if i else 0)
        else:
            got = free + tors[i] + tors[i + 1]
        if got != want:
            raise ValidationError(f"degree {i}: mod-2 count {got}, Betti number {want}")
    return len(rows)
