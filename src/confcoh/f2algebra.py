"""Degreewise linear algebra for finitely presented graded F2-algebras.

A presentation is a list of generators with degrees and a list of
homogeneous relation polynomials.  Each ring grows one Groebner basis of
its relation ideal degree by degree, on demand.  The standard monomials of
a degree (divisible by no lead) form the quotient basis, and full
reduction gives coordinates in it.  On top of that sits the
degree-raising derivation Sq1 (squaring on degree-1 generators, extended
by the Leibniz rule) and its homology, the first page of the mod-2
Bockstein tower, with ranks from a pivot map of int bitsets.

Monomials are exponent tuples, ordered by weighted degree and then
lexicographically, so the lead of a homogeneous polynomial is its largest
tuple; bases are listed descending, reproducible run to run.  With the relation
x^2 = x*x1 declared on the leading generator this order also guarantees
that basis monomials carry x-exponent at most 1, which is what the
R / x*R splitting below relies on.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

Monomial = tuple[int, ...]
Poly = frozenset  # frozenset[Monomial] over F2


class IllDefinedDerivationError(ValueError):
    """Sq1 of a relation is not in the ideal: no induced derivation."""


class NotApplicableError(ValueError):
    """Operation not defined for these parameters."""


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 by the bitwise rule (Lucas at p = 2)."""
    if k < 0 or k > n:
        return 0
    return 1 if (k & (n - k)) == 0 else 0


# ---------------------------------------------------------------------------
# GF(2) row reduction on int bitsets
# ---------------------------------------------------------------------------


def _set_bits(v: int) -> Iterator[int]:
    """Positions of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b for a monomial b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


class F2Echelon:
    """Echelon basis over GF(2) as a map from pivot to row; rows are int
    bitmasks and the pivot of a row is its lowest set bit.

    Rows are not back-substituted, so a row may be nonzero on the pivots of
    rows added after it; the rank and the pivot set still depend only on
    the span.
    """

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        rows = self.rows
        while v:
            p = (v & -v).bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = v
                return True
            v ^= row
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def f2_rank(columns: list[int]) -> int:
    ech = F2Echelon()
    for c in columns:
        ech.add(c)
    return ech.rank


# ---------------------------------------------------------------------------
# Presented algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeBasis:
    """Ordered monomial basis of one graded piece of the quotient."""

    degree: int
    basis_monomials: tuple[Monomial, ...]
    index: dict  # Monomial -> position in basis_monomials

    def __len__(self) -> int:
        return len(self.basis_monomials)


class PresentedF2Algebra:
    def __init__(
        self,
        generators: list[tuple[str, int]],
        relations: list[Poly],
        sq1_on_generators: dict[int, Poly] | None = None,
    ) -> None:
        self.generators = tuple(generators)
        self.degrees = tuple(d for _, d in generators)
        if any(d < 1 for d in self.degrees):
            raise ValueError("generator degrees must be >= 1")
        self.relations = tuple(frozenset(r) for r in relations)
        for r in self.relations:
            if not r:
                raise ValueError("zero relation")
            degs = {self.monomial_degree(m) for m in r}
            if len(degs) != 1:
                raise ValueError(f"relation {set(r)} is not homogeneous")
        self.sq1_on_generators = dict(sq1_on_generators or {})
        for g, poly in self.sq1_on_generators.items():
            want = self.degrees[g] + 1
            if any(self.monomial_degree(m) != want for m in poly):
                raise ValueError("Sq1 image of a generator has the wrong degree")
        self._sq1_checked_through = -1
        self._groebner: list[tuple[Monomial, Poly]] = []  # (lead, polynomial)
        self._groebner_through = -1
        self._pending: dict[int, list[Poly]] = {}  # degree -> polys to reduce
        for r in self.relations:
            self._pending.setdefault(self.monomial_degree(min(r)), []).append(r)
        self._basis_cache: dict[int, DegreeBasis] = {}
        self._sq1_matrix_cache: dict[int, list[int]] = {}

    # -- monomial bookkeeping ---------------------------------------------

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    @staticmethod
    def mono_mul(a: Monomial, b: Monomial) -> Monomial:
        return tuple(x + y for x, y in zip(a, b))

    def poly_mul_mono(self, poly: Poly, mono: Monomial) -> Poly:
        return frozenset(self.mono_mul(m, mono) for m in poly)

    # -- Groebner basis and quotient bases ------------------------------------

    def _normal_form(self, poly) -> Poly:
        """Full reduction of a homogeneous polynomial by the Groebner basis
        as grown so far: no monomial of the result is divisible by a lead."""
        todo = set(poly)
        out = []
        while todo:
            mono = max(todo)
            for lead, g in self._groebner:
                if _divides(lead, mono):
                    todo ^= self.poly_mul_mono(g, _quotient(mono, lead))
                    break
            else:
                todo.remove(mono)
                out.append(mono)
        return frozenset(out)

    def _extend(self, d: int) -> None:
        """Grow the Groebner basis until it is complete through degree d.

        Homogeneous Buchberger: degree by degree, keep the nonzero normal
        forms of the relations and S-polynomials of that degree.  A new
        element is reduced, so no older lead divides its lead and its
        S-polynomials lie in higher degrees.  Pairs with coprime leads are
        skipped: their S-polynomials reduce to zero.
        """
        gb = self._groebner
        for e in range(self._groebner_through + 1, d + 1):
            for poly in self._pending.pop(e, ()):
                poly = self._normal_form(poly)
                if not poly:
                    continue
                lead = max(poly)
                for other, g in gb:
                    if any(a and b for a, b in zip(lead, other)):
                        lcm = tuple(map(max, lead, other))
                        self._pending.setdefault(self.monomial_degree(lcm), []).append(
                            self.poly_mul_mono(poly, _quotient(lcm, lead))
                            ^ self.poly_mul_mono(g, _quotient(lcm, other))
                        )
                gb.append((lead, poly))
            self._groebner_through = e

    def quotient_dimension(self, d: int) -> int:
        return len(self.degree_basis(d))

    def degree_basis(self, d: int) -> DegreeBasis:
        """Standard monomials of degree d (divisible by no lead), descending.

        Standard monomials are closed under division, so each one is a
        generator times a standard monomial of lower degree.
        """
        if d < 0:
            return DegreeBasis(d, (), {})
        cache = self._basis_cache
        if d not in cache:
            self._extend(d)
            leads = [lead for lead, _ in self._groebner]
            for e in range(len(cache), d + 1):
                candidates = {
                    u[:i] + (u[i] + 1,) + u[i + 1 :]
                    for i, g in enumerate(self.degrees)
                    if g <= e
                    for u in cache[e - g].basis_monomials
                }
                if e == 0:
                    candidates = {(0,) * len(self.degrees)}
                basis = sorted(
                    (v for v in candidates if not any(_divides(a, v) for a in leads)),
                    reverse=True,
                )
                cache[e] = DegreeBasis(e, tuple(basis), {m: i for i, m in enumerate(basis)})
        return cache[d]

    def coords(self, poly, d: int) -> int:
        """Coordinates of a degree-d polynomial in the quotient basis, as bits."""
        index = self.degree_basis(d).index
        return sum(1 << index[mono] for mono in self._normal_form(poly))

    # -- Sq1 -----------------------------------------------------------------

    def sq1_free(self, mono: Monomial) -> Poly:
        """Leibniz expansion of Sq1 on a free monomial (char 2)."""
        out: set[Monomial] = set()
        for i, e in enumerate(mono):
            if e % 2 == 0:
                continue
            image = self.sq1_on_generators.get(i)
            if not image:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
            for im in image:
                out ^= {self.mono_mul(lowered, im)}
        return frozenset(out)

    def sq1_poly_free(self, poly: Poly) -> Poly:
        out: set[Monomial] = set()
        for mono in poly:
            out ^= set(self.sq1_free(mono))
        return frozenset(out)

    def check_sq1_well_defined(self, through_degree: int) -> None:
        """Verify Sq1(relation) lies in the ideal degreewise, up to a bound."""
        if not self.sq1_on_generators:
            raise IllDefinedDerivationError("no Sq1 declared on generators")
        if through_degree <= self._sq1_checked_through:
            return
        self._extend(through_degree)
        for rel in self.relations:
            target = self.monomial_degree(next(iter(rel))) + 1
            if target > through_degree:
                continue
            if self._normal_form(self.sq1_poly_free(rel)):
                raise IllDefinedDerivationError(
                    f"Sq1 of relation {set(rel)} is not in the ideal"
                )
        self._sq1_checked_through = through_degree

    def sq1_matrix(self, d: int) -> list[int]:
        """Matrix of Sq1 from the degree-d basis to the degree-(d+1) basis.

        Returned as one bit-column per degree-d basis monomial, bits indexed
        by the degree-(d+1) basis.
        """
        if d in self._sq1_matrix_cache:
            return self._sq1_matrix_cache[d]
        self.check_sq1_well_defined(d + 1)
        cols = [
            self.coords(self.sq1_free(mono), d + 1)
            for mono in self.degree_basis(d).basis_monomials
        ]
        self._sq1_matrix_cache[d] = cols
        return cols

    def sq1_homology_rank(self, d: int) -> int:
        """dim ker(Sq1 at d) - rank(Sq1 at d-1)."""
        if d < 0:
            return 0
        dim_d = self.quotient_dimension(d)
        rank_out = f2_rank(self.sq1_matrix(d)) if dim_d else 0
        rank_in = 0
        if d >= 1 and self.quotient_dimension(d - 1):
            rank_in = f2_rank(self.sq1_matrix(d - 1))
        return dim_d - rank_out - rank_in

    def sq1_square_is_zero(self, d: int) -> bool:
        """Check Sq1(d+1) . Sq1(d) = 0 on the computed bases."""
        first = self.sq1_matrix(d)
        second = self.sq1_matrix(d + 1)
        for col in first:
            acc = 0
            for i in _set_bits(col):
                acc ^= second[i]
            if acc:
                return False
        return True


# ---------------------------------------------------------------------------
# The concrete presentations used by the configuration-space computations
# ---------------------------------------------------------------------------


def dihedral_mod2_ring() -> PresentedF2Algebra:
    """F2[x, x1, x2] / (x^2 + x*x1): the mod-2 cohomology of the dihedral
    group of order 8, with Sq1 x = x^2, Sq1 x1 = x1^2, Sq1 x2 = x1*x2."""
    rel = frozenset({(2, 0, 0), (1, 1, 0)})
    sq1 = {
        0: frozenset({(2, 0, 0)}),
        1: frozenset({(0, 2, 0)}),
        2: frozenset({(0, 1, 1)}),
    }
    return PresentedF2Algebra([("x", 1), ("x1", 1), ("x2", 2)], [rel], sq1)


def unordered_config_ring(m: int) -> PresentedF2Algebra:
    """Mod-2 cohomology ring of the unordered two-point configuration space
    of P^m: F2[x, x1, x2] modulo

        x^2 + x*x1,
        sum_{0 <= i <= m/2}   C(m-i, i)   x1^(m-2i)   x2^i,
        sum_{0 <= i <= (m+1)/2} C(m+1-i, i) x1^(m+1-2i) x2^i.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rel1 = frozenset({(2, 0, 0), (1, 1, 0)})

    def dual_class_relation(n: int) -> Poly:
        monos = set()
        for i in range(0, n // 2 + 1):
            if binom_mod2(n - i, i):
                monos.add((0, n - 2 * i, i))
        return frozenset(monos)

    sq1 = {
        0: frozenset({(2, 0, 0)}),
        1: frozenset({(0, 2, 0)}),
        2: frozenset({(0, 1, 1)}),
    }
    return PresentedF2Algebra(
        [("x", 1), ("x1", 1), ("x2", 2)],
        [rel1, dual_class_relation(m), dual_class_relation(m + 1)],
        sq1,
    )


def ordered_config_ring(m: int) -> PresentedF2Algebra:
    """Mod-2 cohomology ring of the ordered two-point configuration space of
    P^m: F2[x1, y1] / (x1^(m+1), y1^(m+1), sum_{i+j=m} x1^i y1^j)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rels = [
        frozenset({(m + 1, 0)}),
        frozenset({(0, m + 1)}),
        frozenset({(i, m - i) for i in range(m + 1)}),
    ]
    sq1 = {0: frozenset({(2, 0)}), 1: frozenset({(0, 2)})}
    return PresentedF2Algebra([("x1", 1), ("y1", 1)], rels, sq1)


def two_variable_poly_ring() -> PresentedF2Algebra:
    """Free F2[x1, y1] with the squaring Sq1; mod-2 cohomology of a product
    of two infinite projective spaces."""
    sq1 = {0: frozenset({(2, 0)}), 1: frozenset({(0, 2)})}
    return PresentedF2Algebra([("x1", 1), ("y1", 1)], [], sq1)


@lru_cache(maxsize=None)
def _cached_unordered_ring(m: int) -> PresentedF2Algebra:
    return unordered_config_ring(m)


@lru_cache(maxsize=None)
def _cached_ordered_ring(m: int) -> PresentedF2Algebra:
    return ordered_config_ring(m)


def config_mod2_ring(kind: str, m: int) -> PresentedF2Algebra:
    """Shared presented ring for the 'F' (ordered) or 'B' (unordered) space."""
    if kind == "B":
        return _cached_unordered_ring(m)
    if kind == "F":
        return _cached_ordered_ring(m)
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# Splitting of the unordered ring into R and x*R
# ---------------------------------------------------------------------------


def _restrict_matrix(
    cols: list[int], src_positions: list[int], dst_positions: list[int]
) -> list[int]:
    dst_map = {p: i for i, p in enumerate(dst_positions)}
    out = []
    for pos in src_positions:
        new = 0
        for i in _set_bits(cols[pos]):
            if i not in dst_map:
                raise AssertionError("Sq1 does not preserve the splitting")
            new ^= 1 << dst_map[i]
        out.append(new)
    return out


def split_sq1_homology(m: int, d: int) -> tuple[int, int]:
    """Sq1-homology ranks at degree d of the two summands R and x*R of the
    unordered configuration ring, for m = 4a + 3.

    R is spanned by the basis monomials with x-exponent 0 and x*R by those
    with x-exponent 1; the leading relation keeps basis exponents below 2.
    """
    if m % 4 != 3:
        raise NotApplicableError("splitting is used for m = 3 mod 4 only")
    ring = config_mod2_ring("B", m)

    def positions(degree: int, want_x: int) -> list[int]:
        basis = ring.degree_basis(degree).basis_monomials
        for mono in basis:
            if mono[0] > 1:
                raise AssertionError("basis monomial with x-exponent above 1")
        return [i for i, mono in enumerate(basis) if mono[0] == want_x]

    ranks = []
    for want_x in (0, 1):
        here = positions(d, want_x)
        above = positions(d + 1, want_x)
        rank_out = (
            f2_rank(_restrict_matrix(ring.sq1_matrix(d), here, above)) if here else 0
        )
        rank_in = 0
        if d >= 1:
            below = positions(d - 1, want_x)
            if below:
                rank_in = f2_rank(
                    _restrict_matrix(ring.sq1_matrix(d - 1), below, here)
                )
        ranks.append(len(here) - rank_out - rank_in)
    return ranks[0], ranks[1]
