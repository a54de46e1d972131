"""Exact arithmetic for finitely generated abelian groups with 2-primary torsion.

Groups are kept in canonical form: a free rank plus an ascending tuple of
(exponent e, multiplicity k) pairs, each standing for k cyclic summands
Z/2^e, so <k> and {k} cost the same whatever k is.  Equality of
values is equality of groups.  Integer matrices with Smith normal form give
cokernel computations, and the universal-coefficient helpers convert whole
cohomology tables into homology tables and back.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, repeat


class NonTwoPrimaryError(ValueError):
    """A presentation produced torsion away from the prime 2."""


def _check_rank(k: int) -> None:
    if k < 0:
        raise ValueError(f"rank must be non-negative, got {k}")


class Value(tuple):
    """Base of the package's immutable value types, each a namedtuple.

    A value equals only a value of its own class with equal fields, never a
    plain tuple, and hashes as the tuple of its fields does.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class AbGroup2(Value, namedtuple("AbGroup2", "free_rank torsion")):
    """Z^free_rank plus, for each pair (e, k) in torsion, k summands Z/2^e.

    `torsion` is the canonical form: pairs sorted by exponent, each
    exponent >= 1 and each multiplicity >= 1.  Every operation works on
    the pairs, so its cost grows with the number of distinct exponents,
    not with the number of summands.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int = 0, torsion_exponents: Iterable[int] = ()) -> "AbGroup2":
        """The group Z^free_rank plus one Z/2^e per entry e of torsion_exponents."""
        return tuple.__new__(cls, (free_rank, tuple(sorted(Counter(torsion_exponents).items()))))

    def __init__(self, free_rank: int = 0, torsion_exponents: Iterable[int] = ()) -> None:
        """Refuse a negative free rank or a non-positive exponent.  The check
        sits here, not in __new__, so that each public construction runs
        __init__, which the benchmark's tracer counts (`abelian.groups_built`)."""
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if self.torsion and self.torsion[0][0] < 1:
            raise ValueError("torsion exponents must be positive")

    @classmethod
    def _of(cls, free_rank: int, torsion: tuple[tuple[int, int], ...]) -> "AbGroup2":
        """A value from pairs already in canonical form."""
        return tuple.__new__(cls, (free_rank, torsion))

    @classmethod
    def _of_counts(cls, free_rank: int, counts: dict[int, int]) -> "AbGroup2":
        """A value from exponent -> multiplicity; zero counts are dropped."""
        return cls._of(free_rank, tuple(sorted((e, k) for e, k in counts.items() if k)))

    def __reduce__(self) -> tuple:
        # The fields are the canonical pairs, not the exponents __new__ takes.
        return AbGroup2._of, tuple(self)

    def __repr__(self) -> str:
        return (
            f"AbGroup2(free_rank={self.free_rank!r}, "
            f"torsion_exponents={self.torsion_exponents!r})"
        )

    @property
    def torsion_exponents(self) -> tuple[int, ...]:
        """One exponent per cyclic summand, ascending.  It is as long as the
        group has summands: code that only counts reads the rank properties."""
        return tuple(chain.from_iterable(repeat(e, k) for e, k in self.torsion))

    # -- constructors ------------------------------------------------------

    @classmethod
    def elementary(cls, k: int) -> "AbGroup2":
        """<k>: elementary abelian 2-group of rank k."""
        _check_rank(k)
        return cls._of(0, ((1, k),) if k else ())

    @classmethod
    def elementary_with_z4(cls, k: int) -> "AbGroup2":
        """{k}: <k> plus one Z/4 summand."""
        _check_rank(k)
        return cls._of(0, ((1, k), (2, 1)) if k else ((2, 1),))

    @classmethod
    def cyclic(cls, exponent: int) -> "AbGroup2":
        if exponent < 1:
            raise ValueError("torsion exponents must be positive")
        return cls._of(0, ((exponent, 1),))

    # -- basic structure ---------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def torsion_order_log2(self) -> int:
        return sum(e * k for e, k in self.torsion)

    @property
    def z4_count(self) -> int:
        return sum(k for e, k in self.torsion if e >= 2)

    @property
    def two_rank_tensor(self) -> int:
        """Rank of G tensor Z/2."""
        return self.free_rank + self.mult2_kernel_rank

    @property
    def mult2_kernel_rank(self) -> int:
        """Rank of the kernel of multiplication by 2 on G."""
        return sum(k for _, k in self.torsion)

    def torsion_part(self) -> "AbGroup2":
        return AbGroup2._of(0, self.torsion)

    def free_part(self) -> "AbGroup2":
        return AbGroup2._of(self.free_rank, ())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "AbGroup2") -> "AbGroup2":
        """Direct sum."""
        free = self.free_rank + other.free_rank
        if not other.torsion or not self.torsion:
            return AbGroup2._of(free, self.torsion or other.torsion)
        counts = dict(self.torsion)
        for e, k in other.torsion:
            counts[e] = counts.get(e, 0) + k
        return AbGroup2._of_counts(free, counts)

    def without_elementary(self, k: int) -> "AbGroup2":
        """Remove k exponent-1 summands (image of an injected <k>)."""
        _check_rank(k)
        counts = dict(self.torsion)
        ones = counts.get(1, 0)
        if k > ones:
            raise ValueError(f"cannot remove <{k}> from {self}")
        counts[1] = ones - k
        return AbGroup2._of_counts(self.free_rank, counts)

    def without_cyclic(self, exponent: int) -> "AbGroup2":
        """Remove one Z/2^exponent summand."""
        counts = dict(self.torsion)
        if exponent not in counts:
            raise ValueError(f"no Z/2^{exponent} summand in {self}")
        counts[exponent] -= 1
        return AbGroup2._of_counts(self.free_rank, counts)

    def halve_z4s(self) -> "AbGroup2":
        """Replace every Z/2^e summand with e >= 2 by Z/2^(e-1)."""
        counts: dict[int, int] = {}
        for e, k in self.torsion:
            e = max(e - 1, 1)
            counts[e] = counts.get(e, 0) + k
        return AbGroup2._of_counts(self.free_rank, counts)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        if self.torsion:
            ones = dict(self.torsion).get(1, 0)
            rest = self.torsion[1:] if ones else self.torsion
            if not rest:
                parts.append(f"<{ones}>")
            elif rest == ((2, 1),):
                parts.append(f"{{{ones}}}")
            else:
                for e, k in self.torsion:
                    parts += [f"Z{2**e}"] * k
        return " + ".join(parts) if parts else "0"


ZERO = AbGroup2()
Z = AbGroup2(free_rank=1)
Z4 = AbGroup2.cyclic(2)


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


class IntMatrix(Value, namedtuple("IntMatrix", "rows cols entries")):
    """Dense integer matrix, row-major, arbitrary-precision entries."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: Sequence[int]) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        return tuple.__new__(cls, (rows, cols, tuple(entries)))

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


class GradedGroups(Value, namedtuple("GradedGroups", "support_bound groups")):
    """Partial map degree -> AbGroup2 with a declared support bound; groups
    holds the nontrivial ones in ascending degree."""

    __slots__ = ()

    def __new__(
        cls,
        support_bound: int,
        groups: Mapping[int, AbGroup2] | Iterable[tuple[int, AbGroup2]] = (),
    ) -> "GradedGroups":
        cleaned = {d: g for d, g in sorted(dict(groups).items()) if not g.is_trivial}
        for d in cleaned:
            if d < 0 or d > support_bound:
                raise ValueError(f"degree {d} outside [0, {support_bound}]")
        return tuple.__new__(cls, (support_bound, cleaned))

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
