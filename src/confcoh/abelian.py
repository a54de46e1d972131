"""Exact arithmetic for finitely generated abelian groups with 2-primary torsion.

Groups are kept in canonical form: a free rank plus an ascending tuple of
torsion exponents e, each standing for a cyclic summand Z/2^e.  Equality of
values is equality of groups.  Integer matrices with Smith normal form give
cokernel computations, and the universal-coefficient helpers convert whole
cohomology tables into homology tables and back.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


class NonTwoPrimaryError(ValueError):
    """A presentation produced torsion away from the prime 2."""


@dataclass(frozen=True)
class AbGroup2:
    """Z^free_rank plus one Z/2^e summand per torsion exponent e."""

    free_rank: int = 0
    torsion_exponents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(e < 1 for e in self.torsion_exponents):
            raise ValueError("torsion exponents must be positive")
        object.__setattr__(
            self, "torsion_exponents", tuple(sorted(self.torsion_exponents))
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def elementary(cls, k: int) -> "AbGroup2":
        """<k>: elementary abelian 2-group of rank k."""
        return cls(torsion_exponents=(1,) * k)

    @classmethod
    def elementary_with_z4(cls, k: int) -> "AbGroup2":
        """{k}: <k> plus one Z/4 summand."""
        return cls(torsion_exponents=(1,) * k + (2,))

    @classmethod
    def cyclic(cls, exponent: int) -> "AbGroup2":
        return cls(torsion_exponents=(exponent,))

    # -- basic structure ---------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_exponents

    @property
    def torsion_order_log2(self) -> int:
        return sum(self.torsion_exponents)

    @property
    def z4_count(self) -> int:
        return sum(1 for e in self.torsion_exponents if e >= 2)

    @property
    def two_rank_tensor(self) -> int:
        """Rank of G tensor Z/2."""
        return self.free_rank + len(self.torsion_exponents)

    @property
    def mult2_kernel_rank(self) -> int:
        """Rank of the kernel of multiplication by 2 on G."""
        return len(self.torsion_exponents)

    def torsion_part(self) -> "AbGroup2":
        return AbGroup2(torsion_exponents=self.torsion_exponents)

    def free_part(self) -> "AbGroup2":
        return AbGroup2(free_rank=self.free_rank)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "AbGroup2") -> "AbGroup2":
        """Direct sum."""
        return AbGroup2(
            self.free_rank + other.free_rank,
            self.torsion_exponents + other.torsion_exponents,
        )

    def without_elementary(self, k: int) -> "AbGroup2":
        """Remove k exponent-1 summands (image of an injected <k>)."""
        ones = sum(1 for e in self.torsion_exponents if e == 1)
        if k > ones:
            raise ValueError(f"cannot remove <{k}> from {self}")
        rest = tuple(e for e in self.torsion_exponents if e > 1)
        return AbGroup2(self.free_rank, (1,) * (ones - k) + rest)

    def without_cyclic(self, exponent: int) -> "AbGroup2":
        """Remove one Z/2^exponent summand."""
        exps = list(self.torsion_exponents)
        if exponent not in exps:
            raise ValueError(f"no Z/2^{exponent} summand in {self}")
        exps.remove(exponent)
        return AbGroup2(self.free_rank, tuple(exps))

    def halve_z4s(self) -> "AbGroup2":
        """Replace every Z/2^e summand with e >= 2 by Z/2^(e-1)."""
        return AbGroup2(
            self.free_rank,
            tuple(max(e - 1, 1) for e in self.torsion_exponents),
        )

    # -- encoding ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "free": self.free_rank,
            "torsion": [2**e for e in self.torsion_exponents],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AbGroup2":
        exps = []
        for order in data.get("torsion", []):
            e = order.bit_length() - 1
            if order <= 1 or 2**e != order:
                raise NonTwoPrimaryError(f"torsion order {order} is not a 2-power")
            exps.append(e)
        return cls(data.get("free", 0), tuple(exps))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        exps = self.torsion_exponents
        if exps:
            ones = sum(1 for e in exps if e == 1)
            if all(e == 1 for e in exps):
                parts.append(f"<{ones}>")
            elif exps == (1,) * ones + (2,):
                parts.append(f"{{{ones}}}")
            else:
                parts.extend(f"Z{2**e}" for e in exps)
        return " + ".join(parts) if parts else "0"


ZERO = AbGroup2()
Z = AbGroup2(free_rank=1)
Z4 = AbGroup2.cyclic(2)


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(len(rows), cols, tuple(flat))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def smith_normal_form(mat: IntMatrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | dr of mat, plus the rank r.

    Classic row/column reduction with a minimal-absolute-value pivot;
    divisibility of the diagonal is restored afterwards by gcd/lcm passes.
    """
    a = [list(mat.row(i)) for i in range(mat.rows)]
    n_rows, n_cols = mat.rows, mat.cols
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        p = a[t][t]
        clean = True
        for i in range(t + 1, n_rows):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                clean = False
        for j in range(t + 1, n_cols):
            q = a[t][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                clean = False
        if clean:
            t += 1
            if t >= min(n_rows, n_cols):
                break
    diag = [a[i][i] for i in range(t)]
    # Restore the divisibility chain: diag(a, b) ~ diag(gcd, lcm).
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = math.gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return diag, len(diag)


def group_from_presentation(mat: IntMatrix) -> AbGroup2:
    """Cokernel of mat as a map Z^cols -> Z^rows, in canonical form."""
    diag, rank = smith_normal_form(mat)
    exps = []
    for d in diag:
        if d == 1:
            continue
        e = d.bit_length() - 1
        if 2**e != d:
            raise NonTwoPrimaryError(f"invariant factor {d} is not a 2-power")
        exps.append(e)
    return AbGroup2(mat.rows - rank, tuple(exps))


def diagonal_presentation(group: AbGroup2) -> IntMatrix:
    """A presentation matrix whose cokernel is the given group."""
    torsion = list(group.torsion_exponents)
    rows = len(torsion) + group.free_rank
    cols = len(torsion)
    entries = [0] * (rows * cols)
    for i, e in enumerate(torsion):
        entries[i * cols + i] = 2**e
    return IntMatrix(rows, cols, tuple(entries))


# ---------------------------------------------------------------------------
# Graded groups and universal coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedGroups:
    """Partial map degree -> AbGroup2 with a declared support bound."""

    support_bound: int
    groups: dict[int, AbGroup2] = field(default_factory=dict)  # ascending degree

    def __post_init__(self) -> None:
        cleaned = {
            d: g for d, g in sorted(dict(self.groups).items()) if not g.is_trivial
        }
        for d in cleaned:
            if d < 0 or d > self.support_bound:
                raise ValueError(f"degree {d} outside [0, {self.support_bound}]")
        object.__setattr__(self, "groups", cleaned)

    def group(self, degree: int) -> AbGroup2:
        return self.groups.get(degree, ZERO)

    def total_free_rank(self) -> int:
        return sum(g.free_rank for g in self.groups.values())


def uct_homology(coh: GradedGroups) -> GradedGroups:
    """Homology table from a full cohomology table.

    H_i has the free rank of H^i and the torsion of H^(i+1).
    """
    out = {}
    for i in range(coh.support_bound + 1):
        out[i] = coh.group(i).free_part() + coh.group(i + 1).torsion_part()
    return GradedGroups(coh.support_bound, out)


def uct_cohomology(hom: GradedGroups) -> GradedGroups:
    """Inverse of uct_homology: H^i gets free(H_i) and torsion(H_(i-1))."""
    out = {}
    for i in range(hom.support_bound + 1):
        g = hom.group(i).free_part()
        if i >= 1:
            g = g + hom.group(i - 1).torsion_part()
        out[i] = g
    return GradedGroups(hom.support_bound, out)
