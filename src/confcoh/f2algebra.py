"""Degreewise linear algebra for finitely presented graded F2-algebras.

A presentation is a list of generators with degrees and a list of
homogeneous relation polynomials.  Each ring grows, one degree at a time
and on demand, the Groebner basis of its relation ideal and the quotient
basis of that degree: its standard monomials (divisible by no lead).
S-pairs wait, as their lcm and the two leads, until their degree is
reached, and the Gebauer-Moller criteria (J. Symbolic Comput. 6 (1988)
275-286) drop those whose S-polynomial would reduce to zero.  No scan of
the basis is needed: a monomial is non-standard iff it is a lead or one of
its immediate divisors (one exponent lowered by one) is non-standard, and
an immediate divisor lies in a lower degree, whose basis is complete.
Coordinates in the quotient basis are memoised per monomial as bitsets,
from lower ones: a standard monomial is its own bit, a lead has the bits of
the rest of its basis element, and any other monomial w those of h*v over
the standard v of a non-standard immediate divisor w/h.  Polynomials are
reduced only while a degree grows, by the same rules through the memo.  On
top of that sits the degree-raising derivation Sq1 (squaring on degree-1
generators, extended by the Leibniz rule): its matrices are XORs of those
bitsets, and so is the check, once per relation, that it is well defined.
Its homology is the first page of the mod-2 Bockstein tower, with each
matrix ranked once by a pivot map of bitsets.

Inside a ring a monomial is one int, in the packed layout of Monagan and
Pearce (J. Symbolic Comput. 46 (2011) 807-822): each exponent has a field of
FIELD_BITS bits whose top bit is a guard and stays clear, the first
generator's field highest, and the weighted degree sits above them all.
Integer order is then the order by weighted degree and then
lexicographically, so the lead of a homogeneous polynomial is its largest
int; bases are listed descending, reproducible run to run.  A product by a
generator adds its packed unit and an immediate divisor subtracts it;
divisibility is one subtraction tested against the guard bits.  Exponents
fit up to MAX_EXPONENT, so every degree up to MAX_DEGREE can be grown; a
presentation or monomial that does not fit, or a degree past that bound, is
refused with ValueError rather than wrapped.  Exponent tuples appear only at
the public boundary: the presentations, degree_basis, coords and sq1_free.
With the relation x^2 = x*x1 declared on the leading generator this order
also guarantees that basis monomials carry x-exponent at most 1, which is
what the R / x*R splitting below relies on.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from functools import lru_cache
from operator import mul

Monomial = tuple[int, ...]
Poly = frozenset  # frozenset[Monomial] over F2

FIELD_BITS = 16  # bits per packed exponent, the top one a guard
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
MAX_DEGREE = MAX_EXPONENT  # no exponent of a monomial exceeds its degree


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
        self.sq1_on_generators = dict(sq1_on_generators or {})
        n = len(self.degrees)
        for g in self.sq1_on_generators:
            if not 0 <= g < n:
                raise ValueError(f"Sq1 declared on generator {g} of {n}")
        # generator i's exponent field starts at bit _shifts[i], the first
        # generator's highest; the weighted degree starts at _degree_shift
        self._shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self._degree_shift = FIELD_BITS * n
        self._units = tuple(
            g << self._degree_shift | 1 << s for g, s in zip(self.degrees, self._shifts)
        )
        self._exponent_bits = sum(MAX_EXPONENT << s for s in self._shifts)
        self._guards = sum(1 << s + FIELD_BITS - 1 for s in self._shifts)
        # (exponent field, unit) of each generator, for _step_down
        self._steps = tuple(
            (MAX_EXPONENT << s, unit) for s, unit in zip(self._shifts, self._units)
        )
        self._pending: dict[int, list[frozenset[int]]] = {}  # degree -> to reduce
        self._sq1_unchecked: dict[frozenset[int], int] = {}  # relation -> degree
        for r in self.relations:
            if not r:
                raise ValueError("zero relation")
            packed = frozenset(map(self._pack, r))
            degs = {v >> self._degree_shift for v in packed}
            if len(degs) != 1:
                raise ValueError(f"relation {set(r)} is not homogeneous")
            (d,) = degs
            self._pending.setdefault(d, []).append(packed)
            self._sq1_unchecked[packed] = d
        # (parity bit of g, a monomial of Sq1 g over g): Sq1 of a monomial
        # with an odd power of g has a term that monomial plus the shift
        self._sq1_shifts: list[tuple[int, int]] = []
        for g, poly in self.sq1_on_generators.items():
            unit = self._units[g]
            for m in poly:
                v = self._pack(m)
                if v >> self._degree_shift != self.degrees[g] + 1:
                    raise ValueError("Sq1 image of a generator has the wrong degree")
                self._sq1_shifts.append((1 << self._shifts[g], v - unit))
        self._groebner: dict[int, frozenset[int]] = {}  # lead -> polynomial
        self._lead_exponents: dict[int, Monomial] = {}  # lead -> its exponents
        # degree -> S-pairs (lcm, a, b), a and b leads keying _groebner
        self._pairs: dict[int, list[tuple[int, int, int]]] = {}
        self._coords_memo: dict[int, int] = {}  # complete degrees only
        self._basis_cache: dict[int, list[int]] = {}  # degree -> basis, descending
        self._position: dict[int, int] = {}  # standard monomial -> place in basis
        self._sq1_matrix_cache: dict[int, list[int]] = {}
        self._rank_cache: dict[tuple[int, int, int], int] = {}  # (e, src, dst)

    # -- monomial bookkeeping ---------------------------------------------

    def _pack(self, mono: Monomial) -> int:
        """The packed form of an exponent tuple, refused unless it has one
        exponent per generator, each in 0..MAX_EXPONENT."""
        if len(mono) != len(self._units) or not (
            0 <= min(mono, default=0) and max(mono, default=0) <= MAX_EXPONENT
        ):
            raise ValueError(
                f"{mono} is not {len(self._units)} exponents in 0..{MAX_EXPONENT}"
            )
        return sum(map(mul, mono, self._units))

    def _unpack(self, v: int) -> Monomial:
        """The exponent tuple of a packed monomial."""
        return tuple(v >> s & MAX_EXPONENT for s in self._shifts)

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.degrees))

    @staticmethod
    def mono_mul(a: Monomial, b: Monomial) -> Monomial:
        return tuple(x + y for x, y in zip(a, b))

    # -- Groebner basis and quotient bases ------------------------------------

    def _step_down(self, w: int) -> tuple[int, int] | None:
        """(unit of generator i, w / generator i) for the first generator i
        whose quotient is non-standard, or None if every immediate divisor
        of w is standard; every degree below w's must be complete."""
        position = self._position
        for field, unit in self._steps:
            if w & field and (u := w - unit) not in position:
                return unit, u
        return None

    def _lift(self, unit: int, u: int, bits: int) -> list[int]:
        """unit times each standard monomial of u's degree set in bits."""
        below = self._basis_cache[u >> self._degree_shift]
        return [below[p] + unit for p in _set_bits(bits)]

    def _normal_form(self, poly) -> frozenset[int]:
        """Full reduction of a polynomial of the frontier degree by the
        Groebner basis as grown so far.  The largest remaining monomial w
        becomes the sum of h*v over the standard v in the coordinates of a
        non-standard immediate divisor w/h, if it has one; else, a lead, the
        rest of its basis element; else it is standard and moves to the
        result."""
        todo = set(poly)
        out = []
        while todo:
            w = max(todo)
            step = self._step_down(w)
            if step is not None:
                unit, u = step
                todo.remove(w)
                todo.symmetric_difference_update(
                    self._lift(unit, u, self._mono_coords(u))
                )
            elif w in self._groebner:
                todo ^= self._groebner[w]
            else:
                todo.remove(w)
                out.append(w)
        return frozenset(out)

    def _add_to_groebner(self, poly: frozenset[int]) -> None:
        """Add a nonzero reduced polynomial to the Groebner basis and queue
        its pairs, pruned by the Gebauer-Moller criteria.

        Of the new pairs, none is kept whose lcm is properly divided by
        another new pair's lcm (M), one is kept per lcm (F), and none of an
        lcm shared with a pair of coprime leads, whose S-polynomial reduces
        to zero.  Older pairs are not revisited (criterion B): elements join
        at the growth frontier, and the configuration rings never have a
        pair waiting then, so B would drop nothing.
        """
        lead = max(poly)
        exponents = self._unpack(lead)
        units = self._units
        partner: dict[int, int] = {}  # new lcm -> first older lead
        coprime: set[int] = set()  # new lcms of a pair with coprime leads
        for other, other_exponents in self._lead_exponents.items():
            # packed as _pack does, unchecked: each exponent is a lead's
            lcm = sum(map(mul, map(max, other_exponents, exponents), units))
            partner.setdefault(lcm, other)
            if not any(map(min, other_exponents, exponents)):
                coprime.add(lcm)
        shift, guards = self._degree_shift, self._guards
        degree = {lcm: lcm >> shift for lcm in partner}
        minimal: list[int] = []  # new lcms divisible by no smaller one
        # sorted stably by degree alone, so pairs queue in partner order
        for lcm in sorted(partner, key=degree.__getitem__):
            for low in minimal:
                if not (lcm - low) & guards:  # low divides lcm: no borrow
                    break
            else:
                minimal.append(lcm)
                if lcm not in coprime:
                    self._pairs.setdefault(degree[lcm], []).append((lcm, partner[lcm], lead))
        self._groebner[lead] = poly
        self._lead_exponents[lead] = exponents

    def _grow(self, d: int) -> None:
        """Grow the Groebner basis and the quotient bases through degree d;
        the frontier is the number of bases built.

        Homogeneous Buchberger, degree by degree: the nonzero normal forms
        of the relations and of the S-polynomials of that degree join the
        basis.  An S-pair waits as (lcm, a, b), a and b the leads of its two
        elements, and is pruned by the Gebauer-Moller criteria when the
        later element joins; its S-polynomial is formed only when its
        degree is reached.
        A new element is reduced, so no older lead divides its lead and its
        pairs lie in higher degrees.

        The basis of a degree is its standard monomials (divisible by no
        lead), descending, each mapped to its position in that order.
        Standard monomials are closed under division, so each one is a
        generator times a standard monomial of lower degree, and a monomial
        is standard iff it is not a lead and each immediate divisor is in
        the basis of its degree: as many as its nonzero exponents, which
        are the guard bits set by adding MAX_EXPONENT to every field.
        """
        if d > MAX_DEGREE:
            raise ValueError(f"degree {d} is past the packing bound {MAX_DEGREE}")
        gb = self._groebner
        cache = self._basis_cache
        exponents, guards = self._exponent_bits, self._guards
        for e in range(len(cache), d + 1):
            for poly in self._pending.pop(e, ()):
                poly = self._normal_form(poly)
                if poly:
                    self._add_to_groebner(poly)
            for lcm, a, b in self._pairs.pop(e, ()):
                qa, qb = lcm - a, lcm - b
                poly = self._normal_form({t + qa for t in gb[a]} ^ {t + qb for t in gb[b]})
                if poly:
                    self._add_to_groebner(poly)
            # how many immediate divisors of each candidate are standard
            found = Counter()
            for g, unit in zip(self.degrees, self._units):
                if g <= e:
                    found.update(map(unit.__add__, cache[e - g]))
            if e == 0:
                found = {0: 0}
            basis = sorted(
                (
                    v
                    for v, n in found.items()
                    if n == (((v & exponents) + exponents) & guards).bit_count()
                    and v not in gb
                ),
                reverse=True,
            )
            cache[e] = basis
            self._position.update(zip(basis, range(len(basis))))
            self._coords_memo.update(zip(basis, map((1).__lshift__, range(len(basis)))))

    def _basis(self, d: int) -> list[int]:
        """Standard monomials of degree d, packed, descending."""
        if d < 0:
            return []
        self._grow(d)
        return self._basis_cache[d]

    def quotient_dimension(self, d: int) -> int:
        return len(self._basis(d))

    def degree_basis(self, d: int) -> dict[Monomial, int]:
        """Standard monomials of degree d, descending, each mapped to its
        position in that order; a new dict on each call."""
        return {self._unpack(v): i for i, v in enumerate(self._basis(d))}

    def coords(self, poly, d: int) -> int:
        """Coordinates of a degree-d polynomial in the quotient basis, as bits:
        the XOR of the memoised coordinates of its monomials."""
        self._grow(d)
        bits = 0
        for mono in poly:
            v = self._pack(mono)
            if v >> self._degree_shift != d:
                raise ValueError(f"{mono} is not of degree {d}")
            bits ^= self._mono_coords(v)
        return bits

    def _mono_coords(self, mono: int) -> int:
        """Coordinates of a monomial of a complete degree, as bits.

        The memo holds the coordinates of monomials of complete degrees: a
        standard monomial's own bit from when its basis is built, and the
        rest as the walk finds them.  A lead has the coordinates of the
        rest of its Groebner basis element.  Any other non-standard w has a
        non-standard immediate divisor w/h, found by _step_down, and has
        the coordinates of the sum of h*v over the standard v set in those
        of w/h.  Every monomial named on the right is smaller than w,
        so the walk ends; it runs on an explicit stack, not by recursion.
        """
        memo = self._coords_memo
        if mono in memo:
            return memo[mono]
        gb = self._groebner
        stack = [mono]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
                continue
            if w in gb:
                parts = [v for v in gb[w] if v != w]
            else:
                unit, u = self._step_down(w)
                if u not in memo:
                    stack.append(u)
                    continue
                parts = self._lift(unit, u, memo[u])
            missing = [v for v in parts if v not in memo]
            if missing:
                stack.extend(missing)
                continue
            bits = 0
            for v in parts:
                bits ^= memo[v]
            memo[w] = bits
            stack.pop()
        return memo[mono]

    # -- Sq1 -----------------------------------------------------------------

    def _sq1_terms(self, v: int) -> list[int]:
        """Terms of the Leibniz expansion of Sq1 on a free packed monomial:
        for each generator g with an odd exponent, v / g times each
        monomial of Sq1 g.  Over F2 a term listed twice cancels."""
        return [v + shift for bit, shift in self._sq1_shifts if v & bit]

    def sq1_free(self, mono: Monomial) -> list[Monomial]:
        """Terms of the Leibniz expansion of Sq1 on a free monomial, as
        exponent tuples (see _sq1_terms); refused if one has an exponent
        past MAX_EXPONENT."""
        terms = self._sq1_terms(self._pack(mono))
        if any(t & self._guards for t in terms):
            raise ValueError(f"Sq1 {mono} has an exponent past {MAX_EXPONENT}")
        return [self._unpack(t) for t in terms]

    def _check_sq1_well_defined(self, through_degree: int) -> None:
        """Verify that Sq1 of each relation of degree below through_degree
        has zero coordinates, once per relation; one that fails stays
        unchecked and raises again.  Needs the bases grown that far."""
        if not self.sq1_on_generators:
            raise IllDefinedDerivationError("no Sq1 declared on generators")
        for rel, d in list(self._sq1_unchecked.items()):
            if d >= through_degree:
                continue
            bits = 0
            for v in rel:
                for t in self._sq1_terms(v):
                    bits ^= self._mono_coords(t)
            if bits:
                raise IllDefinedDerivationError(
                    f"Sq1 of relation {set(map(self._unpack, rel))} is not in the ideal"
                )
            del self._sq1_unchecked[rel]

    def sq1_matrix(self, d: int) -> list[int]:
        """Matrix of Sq1 from the degree-d basis to the degree-(d+1) basis.

        Returned as one bit-column per degree-d basis monomial, bits indexed
        by the degree-(d+1) basis.
        """
        if d in self._sq1_matrix_cache:
            return self._sq1_matrix_cache[d]
        self._grow(d + 1)
        self._check_sq1_well_defined(d + 1)
        memo = self._coords_memo
        cols = []
        for v in self._basis(d):
            bits = 0
            for t in self._sq1_terms(v):
                c = memo.get(t)
                bits ^= self._mono_coords(t) if c is None else c
            cols.append(bits)
        self._sq1_matrix_cache[d] = cols
        return cols

    def sq1_homology_rank(self, d: int) -> int:
        """dim ker(Sq1 at d) - rank(Sq1 at d-1)."""
        return self._summand_sq1_homology_rank(
            d, lambda e: (1 << self.quotient_dimension(e)) - 1
        )

    def _summand_sq1_homology_rank(self, d: int, mask: Callable[[int], int]) -> int:
        """Sq1-homology rank at degree d of a summand that Sq1 maps to itself;
        its basis positions in degree e are the set bits of mask(e)."""

        def rank_out(e: int, src: int) -> int:
            """Rank of Sq1 out of degree e on the src positions, taken and
            checked to land in the dst positions once per (e, src, dst); the
            rank ignores how the bits are numbered."""
            if not src:
                return 0
            dst = mask(e + 1)
            key = (e, src, dst)
            if key not in self._rank_cache:
                cols = [c for i, c in enumerate(self.sq1_matrix(e)) if src >> i & 1]
                if any(c & ~dst for c in cols):
                    raise AssertionError("Sq1 does not preserve the splitting")
                self._rank_cache[key] = f2_rank(cols)
            return self._rank_cache[key]

        here = mask(d)
        return here.bit_count() - rank_out(d, here) - rank_out(d - 1, mask(d - 1))

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


def two_variable_poly_ring() -> PresentedF2Algebra:
    """Free F2[x1, y1] with the squaring Sq1; mod-2 cohomology of a product
    of two infinite projective spaces."""
    sq1 = {0: frozenset({(2, 0)}), 1: frozenset({(0, 2)})}
    return PresentedF2Algebra([("x1", 1), ("y1", 1)], [], sq1)


def _modulo(ring: PresentedF2Algebra, relations: list[Poly]) -> PresentedF2Algebra:
    """The ring modulo further relations, listed after its own, same Sq1."""
    return PresentedF2Algebra(
        list(ring.generators), [*ring.relations, *relations], ring.sq1_on_generators
    )


def unordered_config_ring(m: int) -> PresentedF2Algebra:
    """Mod-2 cohomology ring of the unordered two-point configuration space
    of P^m: the dihedral ring modulo the dual classes w_m and w_{m+1},

        w_n = sum_{0 <= i <= n/2} C(n-i, i) x1^(n-2i) x2^i.
    """
    if m < 1:
        raise ValueError("m must be >= 1")

    def dual_class_relation(n: int) -> Poly:
        monos = set()
        for i in range(0, n // 2 + 1):
            if binom_mod2(n - i, i):
                monos.add((0, n - 2 * i, i))
        return frozenset(monos)

    return _modulo(
        dihedral_mod2_ring(), [dual_class_relation(m), dual_class_relation(m + 1)]
    )


def ordered_config_ring(m: int) -> PresentedF2Algebra:
    """Mod-2 cohomology ring of the ordered two-point configuration space of
    P^m: F2[x1, y1] / (x1^(m+1), y1^(m+1), sum_{i+j=m} x1^i y1^j)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _modulo(
        two_variable_poly_ring(),
        [
            frozenset({(m + 1, 0)}),
            frozenset({(0, m + 1)}),
            frozenset({(i, m - i) for i in range(m + 1)}),
        ],
    )


@lru_cache(maxsize=2)
def config_mod2_ring(kind: str, m: int) -> PresentedF2Algebra:
    """Shared presented ring for the 'F' (ordered) or 'B' (unordered) space;
    the cache holds one m's pair, as run_suites runs all suites m by m."""
    if kind == "B":
        return unordered_config_ring(m)
    if kind == "F":
        return ordered_config_ring(m)
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# Splitting of the unordered ring into R and x*R
# ---------------------------------------------------------------------------


def split_sq1_homology(m: int, d: int) -> tuple[int, int]:
    """Sq1-homology ranks at degree d of the two summands R and x*R of the
    unordered configuration ring, for m = 4a + 3.

    R is spanned by the basis monomials with x-exponent 0 and x*R by those
    with x-exponent 1; the leading relation keeps basis exponents below 2.
    """
    if m % 4 != 3:
        raise NotApplicableError("splitting is used for m = 3 mod 4 only")
    ring = config_mod2_ring("B", m)

    def mask(degree: int, want_x: int) -> int:
        """Bit mask of the basis positions in degree whose x-exponent is want_x."""
        bits = 0
        for mono, i in ring.degree_basis(degree).items():
            if mono[0] > 1:
                raise AssertionError("basis monomial with x-exponent above 1")
            if mono[0] == want_x:
                bits |= 1 << i
        return bits

    return (
        ring._summand_sq1_homology_rank(d, lambda e: mask(e, 0)),
        ring._summand_sq1_homology_rank(d, lambda e: mask(e, 1)),
    )
