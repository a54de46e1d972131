"""Exact arithmetic for finitely generated abelian groups with 2-primary torsion.

Groups are kept in canonical form: a free rank plus an ascending tuple of
(exponent e, multiplicity k) pairs, each standing for k cyclic summands
Z/2^e, so <k> and {k} cost the same whatever k is.  <k> and {k} are
shared: one instance per rank per process, interned on first use.  Each of
the two tables grows by one entry per distinct rank asked for and is never
emptied; one call of the CLI's `groups` adds at most `MAX_GROUPS_M`
entries to each (its F2 table asks for <k> for k = 1..m).  `uct_homology`
reuses each cohomology row that a homology row equals, so the repeated
rows of a table are shared objects too.  Equality of values is equality
of groups.  Smith normal form of integer matrices, given as lists of rows,
gives cokernel computations, and the universal-coefficient helpers
convert whole cohomology tables into homology tables and back.

All values are immutable and all operations are pure.
"""

try:
    from _collections import _tuplegetter  # the C field reader of namedtuple
except ImportError:  # a plain Python reader in its place

    def _tuplegetter(index: int, doc: str) -> property:
        return property(lambda self: self[index], doc=doc)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence


class NonTwoPrimaryError(ValueError):
    """A presentation produced torsion away from the prime 2."""


def _check_rank(k: int) -> None:
    if type(k) is not int:
        raise TypeError(f"rank must be an int, got {k!r}")
    if k < 0:
        raise ValueError(f"rank must be non-negative, got {k}")


class Value(tuple):
    """Base of the package's immutable value types: tuples whose fields a
    subclass names, as in `class SpaceId(Value, fields="kind m")`.

    Each subclass gets `_fields` and `__match_args__`, a C-speed reader per
    field (the one namedtuple uses) and a keyword `__repr__` unless it
    writes its own.  `__getnewargs__` makes copy and pickle rebuild a value
    through its class's `__new__`.  A value equals only a value of its own
    class with equal fields, never a plain tuple, and hashes as the tuple of
    its fields does.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: str, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(fields.split())
        cls._fields = cls.__match_args__ = names
        for i, name in enumerate(names):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))
        if "__repr__" not in vars(cls):
            shape = f"{cls.__name__}({', '.join(f'{name}=%r' for name in names)})"

            def __repr__(self: Value) -> str:
                return shape % self

            cls.__repr__ = __repr__

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is type(self) and tuple.__eq__(self, other))

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class AbGroup2(Value, fields="free_rank torsion"):
    """Z^free_rank plus, for each pair (e, k) in torsion, k summands Z/2^e.

    `torsion` is the canonical form: pairs sorted by exponent, each
    exponent >= 1 and each multiplicity >= 1.  Every operation works on
    the pairs, so its cost grows with the number of distinct exponents,
    not with the number of summands.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int = 0, torsion_exponents: "Iterable[int]" = ()) -> "AbGroup2":
        """The group Z^free_rank plus one Z/2^e per entry e of torsion_exponents.
        An exponent that is not an int (bool included) is refused here, before
        counting would merge True or 1.0 into 1."""
        counts: dict[int, int] = {}
        for e in torsion_exponents:
            if type(e) is not int:
                raise TypeError(f"torsion exponents must be ints, got {e!r}")
            counts[e] = counts.get(e, 0) + 1
        return tuple.__new__(cls, (free_rank, tuple(sorted(counts.items()))))

    def __init__(self, free_rank: int = 0, torsion_exponents: "Iterable[int]" = ()) -> None:
        """Refuse a free rank that is not an int (bool included), a negative
        free rank or a non-positive exponent.  The check sits here, not in
        __new__, so that each public construction runs __init__, which the
        benchmark's tracer counts (`abelian.groups_built`)."""
        if type(free_rank) is not int:
            raise TypeError(f"free rank must be an int, got {free_rank!r}")
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
        """The exponent list while the group has at most _REPR_SUMMANDS
        summands; beyond that the canonical pairs, as __reduce__ rebuilds
        them, so the text stays short whatever the rank."""
        if self.mult2_kernel_rank > _REPR_SUMMANDS:
            return f"AbGroup2._of({self.free_rank!r}, {self.torsion!r})"
        return (
            f"AbGroup2(free_rank={self.free_rank!r}, "
            f"torsion_exponents={self.torsion_exponents!r})"
        )

    @property
    def torsion_exponents(self) -> tuple[int, ...]:
        """One exponent per cyclic summand, ascending.  It is as long as the
        group has summands: code that only counts reads the rank properties."""
        exponents = []
        for e, k in self.torsion:
            exponents += (e,) * k
        return tuple(exponents)

    # -- constructors ------------------------------------------------------

    @classmethod
    def elementary(cls, k: int) -> "AbGroup2":
        """<k>: elementary abelian 2-group of rank k, one shared instance per k."""
        g = _ELEMENTARY.get(k) if type(k) is int else None
        if g is None:
            _check_rank(k)
            g = _ELEMENTARY[k] = cls._of(0, ((1, k),) if k else ())
        return g

    @classmethod
    def elementary_with_z4(cls, k: int) -> "AbGroup2":
        """{k}: <k> plus one Z/4 summand, one shared instance per k."""
        g = _ELEMENTARY_WITH_Z4.get(k) if type(k) is int else None
        if g is None:
            _check_rank(k)
            g = _ELEMENTARY_WITH_Z4[k] = cls._of(0, ((1, k), (2, 1)) if k else ((2, 1),))
        return g

    @classmethod
    def cyclic(cls, exponent: int) -> "AbGroup2":
        if type(exponent) is not int:
            raise TypeError(f"torsion exponents must be ints, got {exponent!r}")
        if exponent < 1:
            raise ValueError("torsion exponents must be positive")
        return cls._of(0, ((exponent, 1),))

    # -- basic structure ---------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    # The rank properties sum their pairs in plain loops: a generator under
    # sum() costs a frame per call, and the closed forms read these often.

    @property
    def torsion_order_log2(self) -> int:
        n = 0
        for e, k in self.torsion:
            n += e * k
        return n

    @property
    def z4_count(self) -> int:
        n = 0
        for e, k in self.torsion:
            if e >= 2:
                n += k
        return n

    @property
    def two_rank_tensor(self) -> int:
        """Rank of G tensor Z/2."""
        return self.free_rank + self.mult2_kernel_rank

    @property
    def mult2_kernel_rank(self) -> int:
        """Rank of the kernel of multiplication by 2 on G."""
        n = 0
        for _, k in self.torsion:
            n += k
        return n

    # A part that is the whole group is the group itself, and an empty part
    # is the shared ZERO.

    def torsion_part(self) -> "AbGroup2":
        if not self.free_rank:
            return self
        return AbGroup2._of(0, self.torsion) if self.torsion else ZERO

    def free_part(self) -> "AbGroup2":
        if not self.torsion:
            return self
        return AbGroup2._of(self.free_rank, ()) if self.free_rank else ZERO

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "AbGroup2") -> "AbGroup2":
        """Direct sum.  A trivial summand gives back the other summand itself."""
        if not (other.free_rank or other.torsion):
            return self
        if not (self.free_rank or self.torsion):
            return other
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
        """The free part (Z or Z^r), then <k>, {k} ({0} is a lone Z/4) or, for
        any other torsion, one Zn per summand, joined by " + "; 0 if trivial."""
        free, torsion = self
        head = "Z" if free == 1 else f"Z^{free}" if free else ""
        if not torsion:
            return head or "0"
        ones = torsion[0][1] if torsion[0][0] == 1 else 0
        rest = torsion[1:] if ones else torsion
        if not rest:
            tail = f"<{ones}>"
        elif rest == ((2, 1),):
            tail = f"{{{ones}}}"
        else:
            tail = "".join(f"Z{1 << e} + " * k for e, k in torsion)[:-3]
        return f"{head} + {tail}" if head else tail


# The most summands a repr lists one exponent at a time
_REPR_SUMMANDS = 16

# rank -> <rank> and rank -> {rank}, filled by the constructors on first use
_ELEMENTARY: dict[int, AbGroup2] = {}
_ELEMENTARY_WITH_Z4: dict[int, AbGroup2] = {}

ZERO = AbGroup2()
Z = AbGroup2(free_rank=1)


# ---------------------------------------------------------------------------
# Smith normal form of integer matrices
# ---------------------------------------------------------------------------


def smith_normal_form(rows: "Sequence[Sequence[int]]") -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | dr of the matrix with these rows,
    plus the rank r.

    Classic row/column reduction with a minimal-absolute-value pivot;
    divisibility of the diagonal is restored afterwards by gcd/lcm passes.
    """
    a = [list(r) for r in rows]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    if any(len(r) != n_cols for r in a):
        raise ValueError("ragged rows")
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
                    g, r = diag[i], diag[j]
                    while r:  # Euclid's gcd; the pivots are positive
                        g, r = r, g % r
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return diag, len(diag)


def group_from_presentation(rows: "Sequence[Sequence[int]]") -> AbGroup2:
    """Cokernel of the matrix with these rows as a map Z^cols -> Z^rows,
    in canonical form."""
    diag, rank = smith_normal_form(rows)
    exps = []
    for d in diag:
        if d == 1:
            continue
        e = d.bit_length() - 1
        if 2**e != d:
            raise NonTwoPrimaryError(f"invariant factor {d} is not a 2-power")
        exps.append(e)
    return AbGroup2(len(rows) - rank, tuple(exps))


# ---------------------------------------------------------------------------
# Graded groups and universal coefficients
# ---------------------------------------------------------------------------


class GradedGroups(Value, fields="groups"):
    """The group of each degree 0..support_bound, in degree order; every
    other degree holds the zero group."""

    __slots__ = ()

    def __new__(cls, groups: "Iterable[AbGroup2]" = ()) -> "GradedGroups":
        return tuple.__new__(cls, (tuple(groups),))

    @property
    def support_bound(self) -> int:
        return len(self.groups) - 1

    def group(self, degree: int) -> AbGroup2:
        groups = self.groups
        return groups[degree] if 0 <= degree < len(groups) else ZERO

    def total_free_rank(self) -> int:
        return sum(g.free_rank for g in self.groups)


def uct_homology(coh: GradedGroups) -> GradedGroups:
    """Homology table from a full cohomology table.

    H_i has the free rank of H^i and the torsion of H^(i+1).  Where those
    two degrees have the same free rank, H_i equals H^(i+1), and the row is
    H^(i+1)'s own object, so a table of shared groups stays shared.  Only
    the other rows (degree 0 and around a free class) are built, in place,
    as `_of` builds them, without a call per row.
    """
    groups = coh.groups
    new = tuple.__new__
    return GradedGroups(
        [
            up if g.free_rank == up.free_rank else new(AbGroup2, (g.free_rank, up.torsion))
            for g, up in zip(groups, groups[1:] + (ZERO,))
        ]
    )


def uct_cohomology(hom: GradedGroups) -> GradedGroups:
    """Inverse of uct_homology: H^i gets free(H_i) and torsion(H_(i-1))."""
    groups = hom.groups
    return GradedGroups(
        AbGroup2._of(g.free_rank, down.torsion) for down, g in zip((ZERO,) + groups, groups)
    )
