import functools
import gc
import hashlib
import itertools
import math
import operator
import random
import re
import weakref
from functools import reduce

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confcoh import bockstein, f2algebra, suites
from confcoh.f2algebra import (
    MAX_DEGREE,
    MAX_EXPONENT,
    F2Echelon,
    IllDefinedDerivationError,
    PresentedF2Algebra,
    SplitRing,
    binom_mod2,
    config_mod2_ring,
    dihedral_mod2_ring,
    grassmannian_ring,
    ordered_config_ring,
    two_variable_poly_ring,
    unordered_config_ring,
)

FRESH = {"B": unordered_config_ring, "F": ordered_config_ring}  # uncached builders


def x1_first(ring):
    """The same presentation with x1 listed before x2, the listing that the
    older pins of B's rings were taken on: generators, relation exponents
    and Sq1 images permuted alike."""
    names = [name for name, _ in ring.generators]
    order = sorted(range(len(names)), key=lambda i: ("x", "x1", "x2").index(names[i]))

    def mono(e):
        return tuple(e[i] for i in order)

    images = sorted(
        (order.index(g), frozenset(map(mono, image)))
        for g, image in ring.sq1_on_generators.items()
    )
    return PresentedF2Algebra(
        [ring.generators[i] for i in order],
        [frozenset(map(mono, rel)) for rel in ring.relations],
        dict(images),
    )


def x1_of(ring):
    """The index of the generator x1, the twist of x*R's differential."""
    return [name for name, _ in ring.generators].index("x1")


def x1_y1_listing(m):
    """F's ring over x1 and y1, as the library presented it before it moved
    to u = x1 + y1 and x1: F2[x1, y1] / (x1^(m+1), y1^(m+1), sum_{i+j=m}
    x1^i y1^j), with the squaring Sq1.  The older pins of F's rings were
    taken on it."""
    return PresentedF2Algebra(
        [("x1", 1), ("y1", 1)],
        [
            frozenset({(m + 1, 0)}),
            frozenset({(0, m + 1)}),
            frozenset({(i, m - i) for i in range(m + 1)}),
        ],
        {0: frozenset({(2, 0)}), 1: frozenset({(0, 2)})},
    )


# uncached builders of B's three-generator ring as it was listed ("B", x1
# first) and as the library lists it (x2 first), and of F's ring as it was
# presented ("F", over x1 and y1) and as the library presents it (over u =
# x1 + y1 and x1, u first)
LISTINGS = {
    "B": lambda m: x1_first(unordered_config_ring(m)),
    "B-x2-first": unordered_config_ring,
    "F": x1_y1_listing,
    "F-u-first": ordered_config_ring,
}


def engine_ring(kind, m):
    """The three-generator ring for 'B', and the shared engine rings that
    config_mod2_ring sweeps: the Grassmannian ring R of B for 'R', F's ring
    for 'F'."""
    if kind == "B":
        return unordered_config_ring(m)
    ring = config_mod2_ring("B" if kind == "R" else kind, m)
    return ring.grassmannian if kind == "R" else ring


# ---------------------------------------------------------------------------
# Binomial coefficients mod 2
# ---------------------------------------------------------------------------


def test_binom_examples():
    assert binom_mod2(4, 2) == 0
    assert binom_mod2(6, 1) == 0  # (m - i, i) for m = 7, i = 1
    assert binom_mod2(1, 1) == 1  # (a - j, j) for a = 2, j = 1
    assert binom_mod2(3, 5) == 0


def test_binom_against_math_comb():
    for n in range(64):
        for k in range(64):
            want = (math.comb(n, k) % 2) if k <= n else 0
            assert binom_mod2(n, k) == want, (n, k)


def test_relation_coefficient_vanishing():
    # exponents killed mod 2 in the two defining relations when m = 4a + 3
    for a in range(0, 6):
        m = 4 * a + 3
        for i in range(0, m // 2 + 1):
            if i % 4 != 0:
                assert binom_mod2(m - i, i) == 0, (m, i)
        for i in range(0, (m + 1) // 2 + 1):
            if i % 4 == 3:
                assert binom_mod2(m + 1 - i, i) == 0, (m, i)


def test_rewritten_relation_coefficients():
    # C(4(a-j)+3, 4j) reduces to C(a-j, j) mod 2
    for a in range(0, 9):
        for j in range(0, a + 1):
            assert binom_mod2(4 * (a - j) + 3, 4 * j) == binom_mod2(a - j, j)


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def test_dihedral_ring_dimensions():
    ring = dihedral_mod2_ring()
    for d in range(22):
        assert ring.quotient_dimension(d) == d + 1
    assert ring.quotient_dimension(5) == 6


def test_two_variable_ring_dimensions():
    ring = two_variable_poly_ring()
    for d in range(22):
        assert ring.quotient_dimension(d) == d + 1
    assert ring.quotient_dimension(3) == 4


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("kind", ["B", "F"])
def test_config_ring_dimension_pattern(kind, m):
    ring = config_mod2_ring(kind, m)
    for d in range(2 * m + 3):
        if d <= m - 1:
            want = d + 1
        elif d <= 2 * m - 1:
            want = 2 * m - d
        else:
            want = 0
        assert ring.quotient_dimension(d) == want, (kind, m, d)


def test_unordered_p4_degree_6():
    assert unordered_config_ring(4).quotient_dimension(6) == 2


def test_dimension_zero_above_top_degree():
    # the top degree is 2m - 1 = 5; every degree above it is asked for and zero
    ring = unordered_config_ring(3)
    for d in range(6, 15):
        assert ring.quotient_dimension(d) == 0, d


def test_basis_deterministic():
    a = unordered_config_ring(5)
    b = unordered_config_ring(5)
    for d in range(11):
        assert tuple(a.degree_basis(d)) == tuple(b.degree_basis(d))


def test_basis_x_exponent_at_most_one():
    ring = unordered_config_ring(7)
    for d in range(15):
        for mono in ring.degree_basis(d):
            assert mono[0] <= 1


# ---------------------------------------------------------------------------
# Echelon against a brute-force span
# ---------------------------------------------------------------------------


def span_of(vectors):
    """Every XOR of a subset of vectors."""
    return {
        reduce(operator.xor, subset, 0)
        for k in range(len(vectors) + 1)
        for subset in itertools.combinations(vectors, k)
    }


BITS12 = st.integers(0, (1 << 12) - 1)


@given(st.lists(BITS12, max_size=8))
def test_echelon_against_span_oracle(vectors):
    ech = F2Echelon()
    for i, w in enumerate(vectors):
        grows = len(span_of(vectors[: i + 1])) > len(span_of(vectors[:i]))
        assert ech.add(w) == grows
    span = span_of(vectors)
    assert 1 << ech.rank == len(span)
    assert set(ech.rows) == {(w & -w).bit_length() - 1 for w in span if w}


@given(st.lists(BITS12, max_size=8), st.lists(st.integers(0, 8), max_size=4))
def test_rank_is_the_same_with_and_without_zero_columns(vectors, places):
    padded = list(vectors)
    for k in places:
        padded.insert(min(k, len(padded)), 0)
    nonzero = [v for v in vectors if v]
    assert f2algebra.f2_rank(padded) == f2algebra.f2_rank(nonzero) == span_rank(vectors)


def test_rank_offers_no_zero_column(monkeypatch):
    offered = []
    add = F2Echelon.add
    monkeypatch.setattr(F2Echelon, "add", lambda self, v: offered.append(v) or add(self, v))
    assert f2algebra.f2_rank([0, 6, 0, 3, 5, 0]) == 2
    assert offered == [6, 3, 5]


# ---------------------------------------------------------------------------
# Groebner engine against the relation span and against sympy
# ---------------------------------------------------------------------------


def free_monomials(degrees, d):
    """Every exponent tuple of weighted degree d, lexicographically descending."""
    if not degrees:
        return [()] if d == 0 else []
    return [
        (e,) + rest
        for e in range(d // degrees[0], -1, -1)
        for rest in free_monomials(degrees[1:], d - e * degrees[0])
    ]


def echelon_add(rows, v):
    """Insert v into a pivot map keyed by lowest set bit."""
    while v:
        p = (v & -v).bit_length() - 1
        if p not in rows:
            rows[p] = v
            return
        v ^= rows[p]


def span_rank(columns):
    rows = {}
    for v in columns:
        echelon_add(rows, v)
    return len(rows)


class SpanOracle:
    """Each graded piece from the span of every monomial multiple of every
    relation, as bitset rows over the free monomials of that degree, in
    echelon form by lowest set bit (the lexicographically largest monomial)."""

    def __init__(self, ring):
        self.ring = ring

    def degree(self, mono):
        return sum(map(operator.mul, mono, self.ring.degrees))

    @staticmethod
    def mul(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sq1(self, mono):
        """Terms of the Leibniz expansion of Sq1 on a free monomial, read
        from the declared images alone: for each generator g with an odd
        exponent, mono / g times each monomial of Sq1 g.  A term listed
        twice cancels in coords."""
        return [
            self.mul(image, mono[:g] + (mono[g] - 1,) + mono[g + 1 :])
            for g, images in self.ring.sq1_on_generators.items()
            if mono[g] % 2
            for image in images
        ]

    @functools.cache
    def span(self, d):
        """(free monomials of degree d, their positions, pivot map of the span)"""
        ring = self.ring
        monos = free_monomials(ring.degrees, d)
        index = {mono: i for i, mono in enumerate(monos)}
        rows = {}
        for rel in ring.relations:
            for u in free_monomials(ring.degrees, d - self.degree(min(rel))):
                echelon_add(rows, sum(1 << index[self.mul(mono, u)] for mono in rel))
        return monos, index, rows

    @functools.cache
    def basis(self, d):
        monos, _, rows = self.span(d)
        return tuple(m for i, m in enumerate(monos) if i not in rows)

    def coords(self, poly, d):
        monos, index, rows = self.span(d)
        v = 0
        for mono in poly:
            v ^= 1 << index[mono]
        normal = []
        while v:
            p = (v & -v).bit_length() - 1
            if p in rows:
                v ^= rows[p]
            else:
                normal.append(monos[p])
                v ^= 1 << p
        basis = self.basis(d)
        return sum(1 << basis.index(mono) for mono in normal)

    @functools.cache
    def sq1_matrix(self, d, twist=None):
        """Columns of Sq1, or of Sq1 plus the product by generator twist."""
        unit = tuple(int(i == twist) for i in range(len(self.ring.degrees)))
        return [
            self.coords(self.sq1(m) + [self.mul(unit, m)] * (twist is not None), d + 1)
            for m in self.basis(d)
        ]

    def homology(self, d, keep=lambda mono: True, twist=None):
        """Sq1-homology rank at d on the span of the kept basis monomials."""

        def columns(e):
            if e < 0:
                return []
            return [c for m, c in zip(self.basis(e), self.sq1_matrix(e, twist)) if keep(m)]

        here = sum(1 for m in self.basis(d) if keep(m))
        return here - span_rank(columns(d)) - span_rank(columns(d - 1))


@pytest.mark.parametrize("m", range(2, 25))
@pytest.mark.parametrize("kind", ["B", "R", "F"])
def test_engine_against_span_oracle(kind, m):
    # R with both of its differentials, Sq1 and Sq1 + x1; B's split against
    # the three-generator ring's spans of x-exponent 0 and 1
    ring = engine_ring(kind, m)
    oracle = SpanOracle(ring)
    for d in range(2 * m + 2):
        assert tuple(ring.degree_basis(d)) == oracle.basis(d), d
        for twist in (None, x1_of(ring)) if kind == "R" else (None,):
            assert ring.sq1_matrix(d, twist) == oracle.sq1_matrix(d, twist), (d, twist)
            assert ring.sq1_homology_rank(d, twist) == oracle.homology(d, twist=twist), d
        if kind == "B":
            want = tuple(oracle.homology(d, lambda mono: mono[0] == x) for x in (0, 1))
            assert config_mod2_ring("B", m).split_sq1_homology_rank(d) == want, d


@pytest.mark.parametrize("kind", ["B", "R", "F"])
def test_basis_against_sympy_groebner(kind):
    # The ideals are homogeneous, so sympy's lex leads span the same leading
    # ideal as the engine's order (weighted degree, then lex).
    for m in range(2, 25):
        ring = engine_ring(kind, m)
        gens = sympy.symbols(f"g0:{len(ring.degrees)}")
        rels = [
            sympy.Add(*(sympy.Mul(*(g**e for g, e in zip(gens, mono))) for mono in rel))
            for rel in ring.relations
        ]
        groebner = sympy.groebner(rels, *gens, modulus=2, order="lex")
        leads = [p.monoms(order="lex")[0] for p in groebner.polys]
        for d in range(2 * m + 2):
            want = tuple(
                mono
                for mono in free_monomials(ring.degrees, d)
                if not any(all(a <= b for a, b in zip(lead, mono)) for lead in leads)
            )
            assert tuple(ring.degree_basis(d)) == want, (kind, m, d)


@st.composite
def random_presentations(draw):
    """Generator degrees (2-3 of them, each 1 or 2), 1-4 random homogeneous
    relations of degree at most 5, and a degree d <= 8 with a random
    polynomial of that degree."""
    degrees = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        # degree 2 always has monomials, whatever the generator degrees
        d = draw(st.sampled_from([d for d in range(1, 6) if free_monomials(degrees, d)]))
        monos = free_monomials(degrees, d)
        relations.append(frozenset(draw(st.sets(st.sampled_from(monos), min_size=1))))
    d = draw(st.sampled_from([d for d in range(9) if free_monomials(degrees, d)]))
    poly = draw(st.sets(st.sampled_from(free_monomials(degrees, d))))
    return degrees, relations, d, frozenset(poly)


# Two ideals in F2[x, y, z] whose pairs share lcms, so that one degree
# reduces several S-polynomials of one lcm, some to zero and some to a new
# element.  (xy, xz + y^2, yz): every pair of leads has lcm xyz.
TRIANGLE = (
    [1, 1, 1],
    [frozenset({(1, 1, 0)}), frozenset({(1, 0, 1), (0, 2, 0)}), frozenset({(0, 1, 1)})],
    3,
    frozenset({(0, 3, 0)}),
)
# (xy^2, xz^2 + y^3, y^2z): the new pair (xz^2, y^2z) has the lcm xy^2z^2
# of the pair (xy^2, y^2z).
CHAIN = (
    [1, 1, 1],
    [frozenset({(1, 2, 0)}), frozenset({(1, 0, 2), (0, 3, 0)}), frozenset({(0, 2, 1)})],
    5,
    frozenset({(0, 5, 0)}),
)


# F2[a, c, b] with c of degree 3 listed between a and b of degree 1,
# modulo (a b^2 + c, a^3 + b^3): from degree 3 to 5 a basis joins three tail
# groups of generators of different degrees, a times degree e - 1, then c
# times degree e - 3, then b times degree e - 1 (in degree 4: ac, cb, b^4).
INTERLEAVED = (
    [1, 3, 1],
    [frozenset({(1, 0, 2), (0, 1, 0)}), frozenset({(3, 0, 0), (0, 0, 3)})],
    7,
    frozenset({(0, 2, 1), (1, 2, 0), (4, 1, 0)}),
)


# F2[a, b, c] with b of degree 2 listed between a and c of degree 1, modulo
# (a^2 + a c, b^2 + b c^2 + c^4): a^2 and b^2 are leads, so from degree 3
# a's candidates are a times the tail past its group a, the monomials of b
# and c, and from degree 4 b's are b times the monomials of c alone.
SQUARE_LEAD = (
    [1, 2, 1],
    [frozenset({(2, 0, 0), (1, 0, 1)}), frozenset({(0, 2, 0), (0, 1, 2), (0, 0, 4)})],
    8,
    frozenset({(0, 4, 0), (1, 3, 1), (0, 1, 6), (2, 1, 4)}),
)
# F2[a, b] with b of degree 2, modulo (a b): group a drops a b in degree 3,
# and in no other degree below 5, so in degree 5 the test by b runs on
# group a, read two degrees down, and drops a b^2.
DROPPED_TWO_DOWN = (
    [1, 2],
    [frozenset({(1, 1)})],
    5,
    frozenset({(1, 2), (5, 0), (3, 1)}),
)


@given(random_presentations())
@example(TRIANGLE)
@example(CHAIN)
@example(INTERLEAVED)
@example(SQUARE_LEAD)
@example(DROPPED_TWO_DOWN)
@settings(max_examples=300, deadline=None)
def test_engine_on_random_presentations(case):
    # Random ideals reach lead shapes and pairs that the configuration
    # rings never produce.  Coordinates come from per-monomial bitsets
    # (standard, lead tail, or a non-standard immediate divisor); every
    # free monomial is asked for, the highest degree first so that each
    # walk starts cold, with degree-2 generators and lead shapes that the
    # configuration rings lack.  Each basis is grown descending, with no
    # sort.
    degrees, relations, d, poly = case
    ring = PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], relations)
    oracle = SpanOracle(ring)
    for e in range(8, -1, -1):
        for mono in free_monomials(degrees, e):
            assert ring.coords({mono}, e) == oracle.coords({mono}, e), (e, mono)
    for e in range(9):
        assert tuple(ring.degree_basis(e)) == oracle.basis(e), e
    for e, basis in ring._basis_cache.items():
        assert all(a > b for a, b in zip(basis, basis[1:])), e
    assert ring.coords(poly, d) == oracle.coords(poly, d)


def scanned_starts(ring, basis):
    """For each generator i, the first index in basis whose monomial has no
    exponent below generator i's set, or len(basis), and then len(basis): a
    scan, not the running lengths that _grow stores."""
    exponents = [ring._unpack(v) for v in basis]
    starts = [
        next((k for k, e in enumerate(exponents) if not any(e[:i])), len(basis))
        for i in range(len(ring.degrees))
    ]
    return (*starts, len(basis))


def assert_starts_match_a_scan(ring):
    assert ring._starts.keys() == ring._basis_cache.keys()
    for d, basis in ring._basis_cache.items():
        assert ring._starts[d] == scanned_starts(ring, basis), d


@pytest.mark.parametrize("m", range(2, 25))
@pytest.mark.parametrize("kind", ["R", "B", "F"])
def test_stored_starts_match_a_scan(kind, m):
    ring = {"R": grassmannian_ring, **FRESH}[kind](m)
    ring._grow(2 * m + 2)
    assert_starts_match_a_scan(ring)


@given(random_presentations())
@example(TRIANGLE)
@example(INTERLEAVED)
@settings(max_examples=100, deadline=None)
def test_stored_starts_on_random_presentations(case):
    degrees, relations, _, _ = case
    ring = PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], relations)
    ring._grow(8)
    assert_starts_match_a_scan(ring)


def recounted_dropped(ring, e):
    """Bit i set iff group i of degree e offered a candidate that is not in
    the basis: g_i*t for a t of degree e - g_i with no exponent below g_i's,
    and none of g_i if g_i^2 is a lead.  A recount over exponent tuples,
    not the bitmask that _grow stores."""
    leads = set(map(ring._unpack, ring._groebner))
    kept = ring.degree_basis(e)
    out = 0
    for i, g in enumerate(ring.degrees):
        square = tuple(2 * (k == i) for k in range(len(ring.degrees))) in leads
        for t in ring.degree_basis(e - g) if g <= e else ():
            if any(t[:i]) or square and t[i]:
                continue
            if (*t[:i], t[i] + 1, *t[i + 1 :]) not in kept:
                out |= 1 << i
                break
    return out


def assert_dropped_match_a_recount(ring):
    assert ring._dropped.keys() == ring._basis_cache.keys()
    for e in ring._basis_cache:
        assert ring._dropped[e] == recounted_dropped(ring, e), e


@pytest.mark.parametrize("m", range(2, 25))
@pytest.mark.parametrize("kind", ["R", "B", "F"])
def test_stored_dropped_groups_match_a_recount(kind, m):
    ring = {"R": grassmannian_ring, **FRESH}[kind](m)
    ring._grow(2 * m + 2)
    assert_dropped_match_a_recount(ring)


@given(random_presentations())
@example(SQUARE_LEAD)
@example(DROPPED_TWO_DOWN)
@settings(max_examples=100, deadline=None)
def test_stored_dropped_groups_on_random_presentations(case):
    degrees, relations, _, _ = case
    ring = PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], relations)
    ring._grow(8)
    assert_dropped_match_a_recount(ring)


@pytest.mark.parametrize("m", [17, 24])
@pytest.mark.parametrize("kind", ["B", "R", "F"])
def test_memo_against_span_oracle(kind, m):
    # After a full sweep (R with both differentials, B the three-generator
    # ring), each memoised non-standard monomial has the coordinates that
    # the oracle's reduction of it gives.
    ring = {"B": unordered_config_ring, "R": grassmannian_ring, "F": ordered_config_ring}[kind](m)
    for twist in (None, x1_of(ring)) if kind == "R" else (None,):
        for d in range(2 * m + 1):
            ring.sq1_homology_rank(d, twist)
    oracle = SpanOracle(ring)
    assert ring._coords_memo
    for v, bits in ring._coords_memo.items():
        mono, d = ring._unpack(v), v >> ring._degree_shift
        assert bits == oracle.coords({mono}, d), (d, mono)


def test_cold_coords_high_up_needs_no_recursion():
    # In F2[x, y] / (x^2) the bitset of x^1500 is found by walking down x
    # 1500 times; a recursive walk would exceed the interpreter's limit.
    ring = PresentedF2Algebra([("x", 1), ("y", 1)], [frozenset({(2, 0)})])
    assert ring.coords(frozenset({(1500, 0)}), 1500) == 0
    assert ring.coords(frozenset({(1, 1499), (0, 1500)}), 1500) == 0b11


@pytest.mark.parametrize(
    "kind, m, most, most_zero",
    # B's three-generator ring listed x1 first has m + 2 Groebner elements,
    # almost every two of them a pair, so most of its normal forms are zero.
    # Listed x2 first, as the library has it, the ring has 4 elements.
    [("B", 64, 1059, 993), ("B-x2-first", 64, 5, 1), ("F", 40, 3, 1)],
)
def test_pair_criteria_fire(monkeypatch, kind, m, most, most_zero):
    ring = LISTINGS[kind](m)
    forms = []
    normal_form = PresentedF2Algebra._normal_form

    def counted(self, poly):
        forms.append(normal_form(self, poly))
        return forms[-1]

    monkeypatch.setattr(PresentedF2Algebra, "_normal_form", counted)
    ring._grow(2 * m + 1)
    assert len(forms) <= most
    assert sum(not f for f in forms) <= most_zero


# Exponents biased to the ends of a field, where a borrow or a carry would
# cross into the next one.
EXPONENTS = st.one_of(st.sampled_from([0, 1, MAX_EXPONENT]), st.integers(0, MAX_EXPONENT))


@st.composite
def exponent_pairs(draw):
    """1-4 generator degrees and two exponent vectors of that length."""
    n = draw(st.integers(1, 4))
    degrees = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    a = tuple(draw(st.lists(EXPONENTS, min_size=n, max_size=n)))
    b = tuple(draw(st.lists(EXPONENTS, min_size=n, max_size=n)))
    return degrees, a, b


@given(exponent_pairs())
@settings(max_examples=300)
def test_packed_pair_arithmetic_against_tuples(case):
    degrees, a, b = case
    ring = PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], [])
    exponents, guards = ring._exponent_bits, ring._guards
    pa, pb = ring._pack(a), ring._pack(b)
    ea, eb = pa & exponents, pb & exponents
    lcm = ring._pack(tuple(map(max, a, b)))
    assert f2algebra._packed_max(ea, eb, guards) == lcm & exponents
    support = functools.partial(f2algebra._support, exponents=exponents, guards=guards)
    assert support(pa) == support(ea)
    assert (not support(ea) & support(eb)) == (not any(map(min, a, b)))


def coprime_reference(ring, older, lead):
    """The pairs (lcm, older lead) queued when lead joins the older leads,
    as exponent tuples, and how many older leads are coprime to it: one
    pair for each older lead that shares a generator with lead."""
    new = ring._unpack(lead)
    pairs, coprime = [], 0
    for other in older:
        old = ring._unpack(other)
        if any(map(min, old, new)):
            pairs.append((tuple(map(max, old, new)), old))
        else:
            coprime += 1
    return pairs, coprime


def grow_checking_pairs(ring, d):
    """Grow ring through degree d, checking that each insertion into its
    Groebner basis queues exactly the pairs that coprime_reference names,
    with the new lead last; returns how many pairs were queued and how
    many the coprime rule left out."""
    add = ring._add_to_groebner
    queued = coprime = 0

    def checked(poly):
        nonlocal queued, coprime
        older = list(ring._groebner)
        before = {e: len(pairs) for e, pairs in ring._pairs.items()}
        add(poly)
        lead = max(poly)
        got = []
        for e, pairs in ring._pairs.items():
            for lcm, a, b in pairs[before.get(e, 0) :]:
                assert b == lead
                assert lcm == ring._pack(ring._unpack(lcm)) and lcm >> ring._degree_shift == e
                got.append((ring._unpack(lcm), ring._unpack(a)))
        want, left_out = coprime_reference(ring, older, lead)
        assert sorted(got) == sorted(want)
        queued += len(want)
        coprime += left_out

    ring._add_to_groebner = checked  # shadows the method for this ring only
    ring._grow(d)
    return queued, coprime


@pytest.mark.parametrize("kind", ["B", "F"])
def test_queued_pairs_against_tuple_criteria(kind):
    # Both kinds leave out pairs of coprime leads.  F's two leads, u^m
    # and x1^(m+1), are coprime, so F queues no pair at all.
    queued = coprime = 0
    for m in range(2, 13):
        pairs, left_out = grow_checking_pairs(FRESH[kind](m), 2 * m + 1)
        queued += pairs
        coprime += left_out
    assert coprime and (queued > 0) == (kind == "B")


@given(random_presentations())
@example(TRIANGLE)
@example(CHAIN)
@settings(max_examples=300, deadline=None)
def test_queued_pairs_on_random_presentations(case):
    # Random ideals reach lead shapes that the configuration rings do not.
    degrees, relations, _, _ = case
    ring = PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], relations)
    grow_checking_pairs(ring, 8)


@pytest.mark.parametrize("m", range(2, 25))
@pytest.mark.parametrize("kind", ["B", "F"])
def test_standard_monomials_have_one_home(kind, m):
    # After a full sweep the coordinate memo holds non-standard monomials
    # only: a standard monomial's coordinates are the bit of its position.
    ring = FRESH[kind](m)
    for d in range(2 * m + 1):
        ring.sq1_homology_rank(d)
        ring.sq1_square_is_zero(d)
    assert not ring._coords_memo.keys() & ring._position.keys()
    own = [1 << p for p in ring._position.values()]
    assert ring._coords_of(ring._position, f2algebra._OWN) == own
    oracle = SpanOracle(ring)
    rng = random.Random(f"{kind} {m}")
    for d in range(2 * m + 2):
        monos = free_monomials(ring.degrees, d)
        for _ in range(2):
            poly = frozenset(mono for mono in monos if rng.random() < 0.5)
            assert ring.coords(poly, d) == oracle.coords(poly, d), (d, poly)
    assert not ring._coords_memo.keys() & ring._position.keys()


@pytest.mark.parametrize(
    "kind, m",
    # reducing each Sq1 image as a polynomial took 4163 normal forms at
    # B m = 64 and 1643 at F m = 40; the relation check reads coordinates
    [("B", 64), ("F", 40)],
)
def test_sq1_sweep_reduces_no_images(monkeypatch, kind, m):
    ring = FRESH[kind](m)
    ring._grow(2 * m + 2)
    calls = []
    normal_form = PresentedF2Algebra._normal_form

    def counted(self, poly):
        calls.append(poly)
        return normal_form(self, poly)

    monkeypatch.setattr(PresentedF2Algebra, "_normal_form", counted)
    for d in range(2 * m + 2):
        ring.sq1_matrix(d)
    assert calls == []


def test_sq1_sweep_ranks_each_matrix_once(monkeypatch):
    # B m = 64 has 128 nonzero Sq1 matrices, out of degrees 0..127; each
    # is the map out of d for one rank and the map into d + 1 for the next
    ring = unordered_config_ring(64)
    calls = []
    rank = f2algebra.f2_rank

    def counted(columns):
        calls.append(len(columns))
        return rank(columns)

    monkeypatch.setattr(f2algebra, "f2_rank", counted)
    for d in range(2 * 64 + 1):
        ring.sq1_homology_rank(d)
    assert len(calls) <= 128


@pytest.mark.parametrize("kind", ["R", "B", "F"])
def test_sq1_sweep_grows_at_most_three_times_per_degree(monkeypatch, kind):
    # The rank, the matrix and the dimension of each degree ask for growth;
    # a rank already taken, or a basis already grown, asks for none.
    ring = {"R": grassmannian_ring, **FRESH}[kind](20)
    calls = []
    grow = PresentedF2Algebra._grow

    def counted(self, d):
        calls.append(d)
        grow(self, d)

    monkeypatch.setattr(PresentedF2Algebra, "_grow", counted)
    degrees = range(2 * 20 + 1)
    for d in degrees:
        ring.sq1_homology_rank(d)
    assert len(calls) <= 3 * len(degrees), len(calls)


# ---------------------------------------------------------------------------
# Sq1
# ---------------------------------------------------------------------------


def test_sq1_on_free_two_variable_ring():
    ring = two_variable_poly_ring()
    basis1 = tuple(ring.degree_basis(1))
    assert basis1 == ((1, 0), (0, 1))
    cols = ring.sq1_matrix(1)
    basis2 = ring.degree_basis(2)
    # x1 -> x1^2 and y1 -> y1^2, read off in basis coordinates
    assert cols[0] == 1 << basis2[(2, 0)]
    assert cols[1] == 1 << basis2[(0, 2)]


def test_sq1_terms_met_twice_cancel():
    # Sq1 a = ab and Sq1 b = b^2: both Leibniz terms of Sq1(ab) are ab^2
    ring = PresentedF2Algebra(
        [("a", 1), ("b", 1)], [], {0: frozenset({(1, 1)}), 1: frozenset({(0, 2)})}
    )
    basis2 = ring.degree_basis(2)
    assert ring.sq1_matrix(1) == [1 << basis2[(1, 1)], 1 << basis2[(0, 2)]]
    assert ring.sq1_matrix(2)[basis2[(1, 1)]] == 0


def test_sq1_parity_rule_on_unordered_ring():
    # Sq1(x^i x1^i1 x2^i2) is zero for even i+i1+i2 and bumps the exponent
    # of x1 for odd totals.
    ring = unordered_config_ring(5)
    oracle = SpanOracle(ring)
    for d in range(2, 10):
        cols = ring.sq1_matrix(d)
        for mono, col in zip(oracle.basis(d), cols, strict=True):
            i, i2, i1 = mono
            if (i + i1 + i2) % 2 == 0:
                assert col == 0, mono
            else:
                bumped = (i, i2, i1 + 1)
                want = oracle.coords({bumped}, d + 1)
                assert col == want, mono


def test_sq1_squares_to_zero_everywhere():
    # (ring, number of degrees d checked from 0)
    rings = [
        (dihedral_mod2_ring(), 12),
        (two_variable_poly_ring(), 12),
        (config_mod2_ring("B", 4), 8),
        (config_mod2_ring("F", 4), 8),
        (config_mod2_ring("B", 7), 12),
        (config_mod2_ring("F", 7), 12),
    ]
    for ring, n_degrees in rings:
        for d in range(n_degrees):
            assert ring.sq1_square_is_zero(d), (ring, d)


def test_ill_defined_derivation_detected():
    # relation b = 0 with Sq1 b = a^3 not in the ideal
    ring = PresentedF2Algebra(
        [("a", 1), ("b", 2)],
        [frozenset({(0, 1)})],
        {0: frozenset({(2, 0)}), 1: frozenset({(3, 0)})},
    )
    dims = [ring.quotient_dimension(d) for d in range(5)]
    assert dims == [1, 1, 1, 1, 1]
    # Sq1 b lies in degree 3, so the matrix out of degree 1 does not see it
    assert ring.sq1_matrix(1) == [1]
    # the failed degree stays unchecked: every later call raises again
    for _ in range(2):
        with pytest.raises(IllDefinedDerivationError):
            ring.sq1_matrix(2)
    assert [ring.quotient_dimension(d) for d in range(5)] == dims


@pytest.mark.parametrize(
    "e, above",
    [
        *(pytest.param(e, [], id=str(e)) for e in (2, 3, 5, 8)),
        pytest.param(3, [5], id="3-below-a-bad-5-listed-first"),
    ],
)
def test_a_bad_relation_gates_sq1_from_its_degree(e, above):
    # F2[a, b] / (b), b of degree e, with Sq1 a = a^2 and Sq1 b = a^(e+1),
    # which is not in the ideal: below degree e the matrices are those of
    # F2[a] (Sq1 a^d = d a^(d+1)), and from degree e on every one raises,
    # whatever was asked before, and again when asked again.  With above, a
    # generator c of that higher degree joins, with Sq1 c = a^(deg c + 1)
    # and the relation c, as bad, listed before b: the ring is still F2[a],
    # and every error names b, the relation of the lowest failing degree.
    degrees = [1, e, *above]
    n = len(degrees)

    def power(i, k):
        return tuple(k if j == i else 0 for j in range(n))

    def make():
        sq1 = {i: frozenset({power(0, g + 1)}) for i, g in enumerate(degrees)}
        relations = [frozenset({power(i, 1)}) for i in range(n - 1, 0, -1)]
        return PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], relations, sq1)

    names_b = re.escape(f"Sq1 of relation {({power(1, 1)})} is not in the ideal")
    high_first = make()
    for d in range(e + 3, e - 1, -1):
        with pytest.raises(IllDefinedDerivationError, match=names_b):
            high_first.sq1_matrix(d)
    for ring in (make(), high_first):
        for d in range(e):
            assert ring.sq1_matrix(d) == [d % 2], d
        for d in [*range(e, e + 4), e]:
            with pytest.raises(IllDefinedDerivationError, match=names_b):
                ring.sq1_matrix(d)


@st.composite
def random_sq1_presentations(draw):
    """Generators and relations as in random_presentations, and on each
    generator a random Sq1 of one degree higher, possibly zero."""
    degrees, relations, _, _ = draw(random_presentations())
    sq1 = {}
    for g, deg in enumerate(degrees):
        # degree 3 has no monomial when every generator has degree 2
        monos = free_monomials(degrees, deg + 1)
        sq1[g] = frozenset(draw(st.sets(st.sampled_from(monos))) if monos else ())
    return degrees, relations, sq1


@given(random_sq1_presentations())
@example(  # the dihedral ring: Sq1 is well defined
    (
        [1, 1, 2],
        [frozenset({(2, 0, 0), (1, 1, 0)})],
        {0: frozenset({(2, 0, 0)}), 1: frozenset({(0, 2, 0)}), 2: frozenset({(0, 1, 1)})},
    )
)
@example(  # Sq1 of the relation a^2 + b^2 is 0, of b^3 it is b^4, in the ideal
    (
        [1, 1],
        [frozenset({(2, 0), (0, 2)}), frozenset({(0, 3)})],
        {0: frozenset({(2, 0)}), 1: frozenset({(0, 2)})},
    )
)
@settings(max_examples=200, deadline=None)
def test_sq1_relation_check_against_span_oracle(case):
    # sq1_matrix(d) raises exactly when a relation of degree at most d has
    # a Sq1 image outside the span, and gives the oracle's columns otherwise
    degrees, relations, sq1 = case
    ring = PresentedF2Algebra(
        [(f"g{i}", g) for i, g in enumerate(degrees)], relations, sq1
    )
    oracle = SpanOracle(ring)
    outside = []  # degrees of the relations whose Sq1 image is outside the span
    for rel in ring.relations:
        e = oracle.degree(min(rel))
        if oracle.coords([t for mono in rel for t in oracle.sq1(mono)], e + 1):
            outside.append(e)
    for d in range(7):
        if any(e <= d for e in outside):
            with pytest.raises(IllDefinedDerivationError):
                ring.sq1_matrix(d)
        else:
            assert ring.sq1_matrix(d) == oracle.sq1_matrix(d), d


@st.composite
def unreduced_sq1_presentations(draw):
    """A presentation as in random_sq1_presentations with each Sq1 image in
    normal form, and then each image plus a random sum of monomial
    multiples of the relations of its degree, if there are any."""
    degrees, relations, sq1 = draw(random_sq1_presentations())
    oracle = SpanOracle(
        PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], relations)
    )
    reduced, unreduced = {}, {}
    for g, image in sq1.items():
        e = degrees[g] + 1
        bits = oracle.coords(image, e)
        reduced[g] = frozenset(mono for i, mono in enumerate(oracle.basis(e)) if bits >> i & 1)
        multiples = [
            frozenset(oracle.mul(u, mono) for mono in rel)
            for rel in relations
            for u in free_monomials(degrees, e - oracle.degree(min(rel)))
        ]
        extra = draw(st.sets(st.sampled_from(multiples), min_size=1)) if multiples else ()
        unreduced[g] = reduce(operator.xor, extra, reduced[g])
    return degrees, relations, reduced, unreduced


@given(unreduced_sq1_presentations())
@example(  # the dihedral ring, generators x, x1, x2: Sq1 x = x^2 reduces to x*x1
    (
        [1, 1, 2],
        [frozenset({(2, 0, 0), (1, 1, 0)})],
        {0: frozenset({(1, 1, 0)}), 1: frozenset({(0, 2, 0)}), 2: frozenset({(0, 1, 1)})},
        {0: frozenset({(2, 0, 0)}), 1: frozenset({(0, 2, 0)}), 2: frozenset({(0, 1, 1)})},
    )
)
@example(  # F at m = 2: x1^2 is a lead and Sq1 x1 = x1^2 reduces to x1*y1 + y1^2
    (
        [1, 1],
        [frozenset({(3, 0)}), frozenset({(0, 3)}), frozenset({(2, 0), (1, 1), (0, 2)})],
        {0: frozenset({(1, 1), (0, 2)}), 1: frozenset({(0, 2)})},
        {0: frozenset({(2, 0)}), 1: frozenset({(0, 2)})},
    )
)
@settings(max_examples=200, deadline=None)
def test_unreduced_images_give_the_reduced_images_sq1(case):
    # The engine reads each Sq1 image as its normal form: declared with
    # images that are not reduced, a ring has the span oracle's Sq1 and Sq1
    # + t matrices for each degree-1 generator t, which the oracle expands
    # from those images, and the same matrices, or the same refusal, as
    # the ring declared with the reduced images.
    degrees, relations, reduced, unreduced = case
    generators = [(f"g{i}", g) for i, g in enumerate(degrees)]
    ring = PresentedF2Algebra(generators, relations, unreduced)
    same = PresentedF2Algebra(generators, relations, reduced)
    oracle = SpanOracle(ring)
    outside = []  # degrees of the relations whose Sq1 image is outside the span
    for rel in ring.relations:
        e = oracle.degree(min(rel))
        if oracle.coords([t for mono in rel for t in oracle.sq1(mono)], e + 1):
            outside.append(e)
    twists = [None, *(i for i, g in enumerate(degrees) if g == 1)]
    for d in range(7):
        for twist in twists:
            if any(e <= d for e in outside):
                for r in (ring, same):
                    with pytest.raises(IllDefinedDerivationError):
                        r.sq1_matrix(d, twist)
            else:
                want = oracle.sq1_matrix(d, twist)
                assert ring.sq1_matrix(d, twist) == same.sq1_matrix(d, twist) == want, (d, twist)


def test_three_generator_ring_reads_one_product():
    # Sq1 x = x^2 reads as its normal form x*x1, so Sq1 of each generator
    # is x1 times it: the table has one product, x1, carried by all three,
    # and reads it on the values of v & mask with an odd number of bits.
    # After the benchmark's full sweep at m = 18, the memo holds at most 40
    # monomials (35 when this was written); reading x^2*t, as the declared
    # image gives, left 205 there, 161 of them x^2*t.
    m = 18
    ring = unordered_config_ring(m)
    for d in range(2 * m + 1):
        ring.sq1_homology_rank(d)
    for d in range(2 * m - 1):
        ring.sq1_square_is_zero(d)
    x1 = ring._units[x1_of(ring)]
    mask, reads = ring._sq1_tables[None]
    assert mask == sum(1 << s for s in ring._shifts)
    assert reads == {s: (x1,) if s.bit_count() % 2 else () for s in f2algebra._submasks(mask)}
    assert len(ring._coords_memo) <= 40
    # a twist by x1 flips that entry; a twist by x, no product, adds one
    x = [name for name, _ in ring.generators].index("x")
    flipped = {s: () if s.bit_count() % 2 else (x1,) for s in reads}
    assert ring._sq1_table(x1_of(ring)) == (mask, flipped)
    assert ring._sq1_table(x) == (mask, {s: (*ps, ring._units[x]) for s, ps in reads.items()})


@pytest.mark.parametrize(
    "generators, relations, sq1",
    [
        pytest.param([("a", 1), ("b", 1)], [{(2,)}], None, id="short-monomial"),
        pytest.param([("a", 1), ("b", 1)], [{(3, -1)}], None, id="negative-exponent"),
        pytest.param([("a", 1)], [], {3: {(2,)}}, id="no-such-generator"),
        pytest.param([("a", 1), ("b", 1)], [], {-1: {(0, 2)}}, id="negative-generator"),
        pytest.param([("a", 1), ("b", 1)], [], {0: {(2, 0, 0)}}, id="long-sq1-image"),
        pytest.param([("a", 0)], [], None, id="degree-zero-generator"),
        pytest.param([("a", 1), ("b", 1)], [{(2, 0), (0, 1)}], None, id="inhomogeneous"),
        pytest.param([("a", 1)], [{(0,)}], None, id="degree-zero-relation"),
        pytest.param([("a", 1), ("b", 1)], [], {0: {(0, 1)}}, id="sq1-wrong-degree"),
        pytest.param(
            [("a", 1), ("b", 1)], [{(MAX_EXPONENT + 1, 0)}], None, id="exponent-past-field"
        ),
    ],
)
def test_malformed_presentation_rejected(generators, relations, sq1):
    with pytest.raises(ValueError):
        PresentedF2Algebra(generators, relations, sq1)


def test_packing_overflow_refused():
    # An exponent fills its field up to MAX_EXPONENT; past that a monomial
    # or a degree would carry into the next field, so each is refused
    # before the engine reads it.
    ring = two_variable_poly_ring()
    past = (MAX_EXPONENT + 1, 0)
    with pytest.raises(ValueError, match="exponents in 0.."):
        ring.coords({past}, 4)
    for request in (
        ring.degree_basis,
        ring.quotient_dimension,
        lambda d: ring.coords((), d),
        lambda d: ring.sq1_matrix(d - 1),
        ring.sq1_homology_rank,
    ):
        with pytest.raises(ValueError, match="packing bound"):
            request(MAX_DEGREE + 1)
    assert [ring.quotient_dimension(d) for d in range(4)] == [1, 2, 3, 4]


def test_a_ring_grows_to_exactly_max_degree():
    # The bound is inclusive: x^MAX_DEGREE fills its field and is grown,
    # one degree more is refused.
    ring = PresentedF2Algebra([("x", 1)], [])
    assert ring.quotient_dimension(MAX_DEGREE) == 1
    with pytest.raises(ValueError, match="packing bound"):
        ring.quotient_dimension(MAX_DEGREE + 1)


@pytest.mark.parametrize("bad", [True, 1.5, 2.0, "1", None], ids=repr)
def test_a_non_int_generator_degree_or_exponent_is_refused(bad):
    # Unchecked, a degree or exponent True would be read as 1, and a degree
    # of 1.5 or 2.0 would fail on a bit shift.
    with pytest.raises(TypeError, match=f"^generator degrees must be ints, got {re.escape(repr(bad))}$"):
        PresentedF2Algebra([("x", bad)], [])
    refusal = f"^exponents must be ints, got {re.escape(repr(bad))} in "
    with pytest.raises(TypeError, match=refusal):  # a relation
        PresentedF2Algebra([("x", 1), ("y", 1)], [{(bad, 1)}])
    with pytest.raises(TypeError, match=refusal):  # a Sq1 image
        PresentedF2Algebra([("x", 1), ("y", 1)], [], {0: {(1, bad)}})
    ring = two_variable_poly_ring()
    with pytest.raises(TypeError, match=refusal):
        ring.coords({(bad, 1)}, 2)
    assert ring.coords({(1, 1)}, 2) == 1 << 1


def test_coords_refuses_a_monomial_of_another_degree():
    ring = two_variable_poly_ring()
    with pytest.raises(ValueError, match="not of degree 3"):
        ring.coords({(1, 1)}, 3)


@pytest.mark.parametrize("twist", [0, -1, 2])
def test_a_twist_that_is_not_a_degree_1_generator_is_refused(twist):
    # In R, listed (x2, x1), x2 has degree 2: Sq1 + x2 would read x2*v two
    # degrees up, where nothing is grown yet.  -1 would name x1 by Python
    # indexing, and 2 names no generator.
    ring = grassmannian_ring(5)
    with pytest.raises(ValueError, match="not the index of a degree-1 generator"):
        ring.sq1_matrix(2, twist)
    assert ring.sq1_matrix(2, x1_of(ring)) == SpanOracle(ring).sq1_matrix(2, x1_of(ring))


# each public reader of a degree, called with that degree
DEGREE_READERS = {
    "quotient_dimension": lambda ring, d: ring.quotient_dimension(d),
    "degree_basis": lambda ring, d: ring.degree_basis(d),
    "coords": lambda ring, d: ring.coords({(1, 1)}, d),
    "sq1_matrix": lambda ring, d: ring.sq1_matrix(d),
    "sq1_homology_rank": lambda ring, d: ring.sq1_homology_rank(d),
    "sq1_square_is_zero": lambda ring, d: ring.sq1_square_is_zero(d),
}


@pytest.mark.parametrize("degree", [True, 2.0, "2", None], ids=repr)
@pytest.mark.parametrize("reader", DEGREE_READERS)
def test_a_non_int_degree_is_refused(reader, degree):
    # Refused before any cache lookup: on a cold ring, and on a ring whose
    # low degrees have their bases, Sq1 matrices and ranks cached, where
    # True would read degree 1's entries and 2.0 degree 2's.
    warm = two_variable_poly_ring()
    for d in range(4):
        warm.sq1_homology_rank(d)
        warm.sq1_square_is_zero(d)
    for ring in (two_variable_poly_ring(), warm):
        with pytest.raises(TypeError, match=re.escape(f"degree must be an int, got {degree!r}")):
            DEGREE_READERS[reader](ring, degree)


# each public reader of a twist, called with that twist at degree 3
TWIST_READERS = {
    "sq1_matrix": lambda ring, twist: ring.sq1_matrix(3, twist),
    "sq1_homology_rank": lambda ring, twist: ring.sq1_homology_rank(3, twist),
    "sq1_square_is_zero": lambda ring, twist: ring.sq1_square_is_zero(3, twist),
}


@pytest.mark.parametrize("twist", [True, False], ids=repr)
@pytest.mark.parametrize("reader", TWIST_READERS)
def test_a_bool_twist_is_refused(reader, twist):
    # As a cache key True is 1 and False is 0: on R, listed (x2, x1), True
    # would read the entries cached for twist 1, x1.  Refused before any
    # cache lookup, on a cold ring and on one whose Sq1 and Sq1 + x1
    # matrices and ranks are cached through degree 4.
    warm = grassmannian_ring(5)
    for d in range(5):
        for t in (None, x1_of(warm)):
            warm.sq1_homology_rank(d, t)
            warm.sq1_square_is_zero(d, t)
    refusal = f"twist must be a generator index or None, got {twist}"
    for ring in (grassmannian_ring(5), warm):
        with pytest.raises(TypeError, match=refusal):
            TWIST_READERS[reader](ring, twist)


# each ring builder, called with m
RING_BUILDERS = {
    "grassmannian_ring": grassmannian_ring,
    "unordered_config_ring": unordered_config_ring,
    "ordered_config_ring": ordered_config_ring,
    "config_mod2_ring-B": lambda m: config_mod2_ring("B", m),
    "config_mod2_ring-F": lambda m: config_mod2_ring("F", m),
}


@pytest.mark.parametrize("m", [True, 2.0, 2.5, "2", None], ids=repr)
@pytest.mark.parametrize("builder", RING_BUILDERS)
def test_a_non_int_m_is_refused(builder, m):
    # As SpaceId refuses it: True is not built as m = 1, nor 2.0 as m = 2.
    # config_mod2_ring refuses it before its lookup, which would take True
    # for a held m = 1 ring.
    try:
        RING_BUILDERS[builder](1)
        with pytest.raises(TypeError, match=f"^m must be an int, got {re.escape(repr(m))}$"):
            RING_BUILDERS[builder](m)
    finally:
        config_mod2_ring.cache_clear()


NO_SQ1_READERS = {
    "sq1_matrix(0)": lambda ring: ring.sq1_matrix(0),
    "sq1_matrix(3, 0)": lambda ring: ring.sq1_matrix(3, 0),
    "sq1_homology_rank(2)": lambda ring: ring.sq1_homology_rank(2),
    "sq1_square_is_zero(1)": lambda ring: ring.sq1_square_is_zero(1),
}


@pytest.mark.parametrize("reader", NO_SQ1_READERS)
def test_a_ring_with_no_sq1_is_refused_by_each_sq1_reader(reader):
    # Refused where the Sq1 table would be built, on every call, with
    # nothing cached on the way.
    ring = PresentedF2Algebra([("a", 1), ("b", 2)], [frozenset({(2, 1)})])
    for _ in range(2):
        with pytest.raises(IllDefinedDerivationError, match="no Sq1 declared"):
            NO_SQ1_READERS[reader](ring)
    assert ring._sq1_tables == ring._sq1_matrix_cache == ring._rank_cache == {}


def test_degree_basis_is_the_callers_own():
    # Each call decodes a new dict, so a caller that empties it leaves the
    # engine's bases, Sq1 matrices and ranks as a fresh ring has them.
    m = 9
    ring, fresh = unordered_config_ring(m), unordered_config_ring(m)
    for d in range(2 * m + 2):
        basis = ring.degree_basis(d)
        assert basis == fresh.degree_basis(d)
        basis.clear()
    for d in range(2 * m + 1):
        assert ring.sq1_matrix(d) == fresh.sq1_matrix(d), d
        assert ring.sq1_homology_rank(d) == fresh.sq1_homology_rank(d), d
    assert ring.degree_basis(m) == fresh.degree_basis(m) != {}


# sha256 of the reprs of tuple(degree_basis(d)) and of sq1_matrix(d), each
# over d = 0..2m+1; the span oracles above stop at m = 24.  The pins of "B"
# and "F" are as the exponent-tuple engine computed them before monomials
# were packed, "B" on the three-generator ring listed x1 first and "F" on
# the ring over x1 and y1, as they were then; "B-x2-first" and "F-u-first"
# pin the rings as the library presents them, and
# test_listings_have_conjugate_sq1 ties each two listings together.  F's
# two listings have the same exponent tuples in their bases, as x1^m and
# y1^(m+1) are leads of the one and u^m and x1^(m+1) of the other.
ENGINE_DIGESTS = {
    ("B", 40): (
        "60e0c49e2b90a8b7bc5c369a6ceb1c6dc34742d8ed3fbf4fdc2ca097dc57c6b0",
        "f9018f619528bb208b3462dc9357223f18ef7c4c361cce7e26469a1922f38ace",
    ),
    ("B", 64): (
        "231ab902153efdbc2734b83672abecf58216816e7fcdd365a4a2a13a23689424",
        "02697818c2db8515c7adde3f1d3bde8c7433f7e38aa3ffd9489955edbc77d270",
    ),
    ("B-x2-first", 40): (
        "2105de16866ec245e77d7e89b902d77a761e2238442bc549bd26c5fd73d1a892",
        "884a9c82f0ac1babc68142b3cb4ed85803e2253248b32a059073fcba121d8368",
    ),
    ("B-x2-first", 64): (
        "f1cee9b05d35ea47f0ab3e7f403b4c1f060d5c44cd7df52464f52043ae83e33d",
        "2c88a7b5a8e173fbb175a4608b47e916cb64ba2ec01eb1dab57dba45119e44f2",
    ),
    ("F", 40): (
        "c39da3624c84db483a762eea448dd079c9ba429a62b82090931415a101ffa1d1",
        "daf74249314808ae7b1f1a62c98ac60ed7fdfd1d79749d27cff95bfffd9c6538",
    ),
    ("F", 64): (
        "34d76f16300281ef8c36d51d1487e729a67f02233d9764f6554818032333b732",
        "095a764006de1839cba1c6d6adc7e12669393fc4bb3639d9f6e4e7250809c9c8",
    ),
    ("F-u-first", 40): (
        "c39da3624c84db483a762eea448dd079c9ba429a62b82090931415a101ffa1d1",
        "5b3bba32ee7caf6c55748b2f9df5a8ec4b16ddb3c4ffd9ed81f21c11703a221b",
    ),
    ("F-u-first", 64): (
        "34d76f16300281ef8c36d51d1487e729a67f02233d9764f6554818032333b732",
        "c229b54471f950bb29a402d591fd44aa4ef758b48a309f42262025e744a2964d",
    ),
}


# uncached builders of the listings of PAST_BOUND: B's Grassmannian ring R
# and three-generator ring, x2 first as the library lists them, and F's
# ring over x1 and y1 ("F") and over u = x1 + y1 and x1 ("F-u")
PAST_BOUND_LISTINGS = {
    "R": grassmannian_ring,
    "B": unordered_config_ring,
    "F": x1_y1_listing,
    "F-u": ordered_config_ring,
}

# The rings that CI's Sq1 sweep builds past the CLI bound, one row each,
# keyed (listing, m): whether the row checks Sq1-homology against page 1
# and Sq1^2 = 0 in every degree; the sha256 of the reprs of
# sq1_matrix(d, twist), d = 0..2m, for twist None and, on R, then x1; the
# Groebner basis size, which must fail here if a listing brings back R's
# staircase of m + 1 elements, not only run slower; and for R and B the
# same sha256 of the ring listed x1 first, on which their older pins were
# taken.  The m = 512 rows come last, so that the ru_maxrss CI prints
# through the m = 256 rows is the sweep's.
PAST_BOUND = {
    ("R", 256): (False, "8440710ea35c549539a5169d1d89e6aa58f045ff3b42626bf36fd84be17f2c71", 3, "52a2ae1e9051d945ff2b89164308080df9a0e0a048bf8274241ba598c6614207"),
    ("B", 96): (True, None, None, None),
    ("B", 128): (True, None, None, None),
    ("B", 256): (True, "8fb7c81f831c26b99bd2ef86539c5beeae5e3581e6b36de2b03f3ac86b7feb37", 4, "362f72f0adc7cd6cfb3ac72ff53d84b31f51072c34da499b4bc89e6573fa9235"),
    ("F", 96): (True, None, None, None),
    ("F", 128): (True, None, None, None),
    ("F", 256): (True, "24d2e098d1991220dfe704cb62a5e4e2ef93035b3f8a045887352d73ff833a13", 2, None),
    ("F-u", 96): (True, None, None, None),
    ("F-u", 128): (True, None, None, None),
    ("F-u", 256): (True, "6c2c9dbfedd43479a6bce523b4f35ce4a48dac278cc12a7de627ce865fd34366", 2, None),
    ("R", 512): (False, "4b53a2f3e3fef4a252ef5404c64a0fcd4fc644a9d3d7859c91d54ea5cb3c90bf", 3, None),
    ("F", 512): (False, "d8dca73868a0aa6d337389795a9ec909a84cd3a1003bcce49dd076a376ca9287", 2, None),
    ("F-u", 512): (False, "11da6e0f38a36e21eb83890859c5acc2239d34e7e608739b1f74e77a2e7afeac", 2, None),
}


@pytest.mark.parametrize("kind, m", ENGINE_DIGESTS)
def test_engine_digests_past_the_span_oracles(kind, m):
    ring = LISTINGS[kind](m)
    bases, matrices = hashlib.sha256(), hashlib.sha256()
    for d in range(2 * m + 2):
        bases.update(repr(tuple(ring.degree_basis(d))).encode())
        matrices.update(repr(ring.sq1_matrix(d)).encode())
    assert (bases.hexdigest(), matrices.hexdigest()) == ENGINE_DIGESTS[kind, m]


def times(columns, v):
    """The matrix of the given columns applied to the bitset v."""
    acc = 0
    while v:
        low = v & -v
        acc ^= columns[low.bit_length() - 1]
        v ^= low
    return acc


def assert_conjugate(ring, old, image, twists, m):
    """ring's Sq1, and Sq1 + t for each pair (t, t') of twists, are old's
    Sq1 and Sq1 + t' up to a change of basis: column j of T_d holds the
    coordinates in old of image(mono), mono ring's j-th basis monomial of
    degree d.  Each T_d has full rank, and T_(d+1) M(d) = M'(d) T_d for the
    matrices M of ring and M' of old, for each differential."""
    change = []
    for d in range(2 * m + 3):
        basis = ring.degree_basis(d)
        columns = [old.coords(image(mono), d) for mono in basis]
        assert f2algebra.f2_rank(columns) == len(columns) == old.quotient_dimension(d), d
        change.append(columns)
    for twist, old_twist in twists:
        for d in range(2 * m + 2):
            left = [times(change[d + 1], c) for c in ring.sq1_matrix(d, twist)]
            right = [times(old.sq1_matrix(d, old_twist), c) for c in change[d]]
            assert left == right, (d, twist)


def assert_conjugate_to_x1_first(ring, m):
    """ring's Sq1 and Sq1 + x1 are those of x1_first(ring) up to a change of
    basis (see assert_conjugate): each monomial is its own image, its
    exponents permuted.  Returns x1_first(ring), the ring it built."""
    old = x1_first(ring)
    order = [ring.generators.index(g) for g in old.generators]
    twists = ((None, None), (x1_of(ring), x1_of(old)))
    assert_conjugate(ring, old, lambda mono: {tuple(mono[i] for i in order)}, twists, m)
    return old


def assert_conjugate_to_x1_y1(ring, m):
    """F's Sq1 and Sq1 + x1 over u and x1 are those of x1_y1_listing(m) up
    to a change of basis (see assert_conjugate): u^a x1^b is (x1 + y1)^a
    x1^b, expanded mod 2."""
    old = x1_y1_listing(m)

    def image(mono):
        a, b = mono
        return {(k + b, a - k) for k in range(a + 1) if binom_mod2(a, k)}

    assert_conjugate(ring, old, image, ((None, None), (x1_of(ring), x1_of(old))), m)


@pytest.mark.parametrize("m", [40, 64])
@pytest.mark.parametrize("kind", ["R", "B", "F"])
def test_listings_have_conjugate_sq1(kind, m):
    # The library lists x2 before x1; the same rings listed x1 first have
    # other bases but conjugate Sq1 matrices, so the same Sq1-homology.
    # It presents F over u = x1 + y1 and x1; over x1 and y1 the Sq1
    # matrices are conjugate too.
    if kind == "F":
        assert_conjugate_to_x1_y1(ordered_config_ring(m), m)
    else:
        ring = (grassmannian_ring if kind == "R" else unordered_config_ring)(m)
        assert_conjugate_to_x1_first(ring, m)


@pytest.mark.parametrize("kind, most", [("R", 7), ("B", 8), ("F", 2)])
def test_groebner_bases_stay_small(kind, most):
    # The pairs are pruned by the coprime rule alone, which is cheap only
    # while the bases are small.  Listed x1 first, R's Groebner basis is
    # the staircase x1^(m-j) x2^j, j = 0..m: m + 1 elements, and the
    # three-generator ring adds x^2 + x*x1.  Listed x2 first, the largest
    # bases over m = 2..129 have 7 and 8 elements; F's always has 2.
    build = {"R": grassmannian_ring, **FRESH}[kind]
    sizes = []
    for m in range(2, 130):
        ring = build(m)
        ring._grow(2 * m + 2)
        sizes.append(len(ring._groebner))
    assert max(sizes) == most, sizes


@pytest.mark.parametrize(
    "kind, size", [(kind, size) for (kind, m), (_, _, size, _) in PAST_BOUND.items() if m == 256]
)
def test_groebner_bases_past_the_cli_bound(kind, size):
    ring = PAST_BOUND_LISTINGS[kind](256)
    ring._grow(2 * 256 + 2)
    assert len(ring._groebner) == size


def test_sq1_homology_examples():
    assert config_mod2_ring("B", 3).sq1_homology_rank(4) == 1
    assert config_mod2_ring("B", 5).sq1_homology_rank(4) == 1
    one_var = PresentedF2Algebra([("x1", 1)], [], {0: frozenset({(2,)})})
    assert one_var.sq1_homology_rank(0) == 1
    for d in range(1, 6):
        assert one_var.sq1_homology_rank(d) == 0


# ---------------------------------------------------------------------------
# R / x*R splitting
# ---------------------------------------------------------------------------


def test_split_examples():
    assert config_mod2_ring("B", 3).split_sq1_homology_rank(4) == (1, 0)
    assert config_mod2_ring("B", 3).split_sq1_homology_rank(0) == (1, 0)
    assert config_mod2_ring("B", 7).split_sq1_homology_rank(8) == (1, 0)


@pytest.mark.parametrize("m", range(2, 65))
def test_split_equals_the_three_generator_ring(m):
    assert_split_equals_the_three_generator_ring(m)


def assert_split_equals_the_three_generator_ring(m):
    """The three-generator ring read as R + x*R by the x-exponents of its
    basis, all below 2: Sq1 keeps the span of each exponent, and the
    dimensions and the Sq1-homology ranks of the two spans and of the whole
    ring are the split's."""
    ring, split = f2algebra.unordered_config_ring(m), config_mod2_ring("B", m)
    r = split.grassmannian
    exponents = [[mono[0] for mono in ring.degree_basis(e)] for e in range(2 * m + 3)]
    assert max(map(max, filter(None, exponents))) == 1

    def rank_out(e, x):
        if e < 0:
            return 0
        columns = [c for c, ex in zip(ring.sq1_matrix(e), exponents[e]) if ex == x]
        for c in columns:
            assert all(exponents[e + 1][i] == x for i in range(c.bit_length()) if c >> i & 1)
        return span_rank(columns)

    for d in range(2 * m + 2):
        dims = r.quotient_dimension(d), r.quotient_dimension(d - 1)
        assert [exponents[d].count(x) for x in (0, 1)] == list(dims), d
        assert ring.quotient_dimension(d) == split.quotient_dimension(d) == sum(dims), d
        masked = tuple(exponents[d].count(x) - rank_out(d, x) - rank_out(d - 1, x) for x in (0, 1))
        assert split.split_sq1_homology_rank(d) == masked, d
        assert ring.sq1_homology_rank(d) == split.sq1_homology_rank(d) == sum(masked), d
        assert ring.sq1_square_is_zero(d) and split.sq1_square_is_zero(d), d


# ---------------------------------------------------------------------------
# Ring lifetime
# ---------------------------------------------------------------------------


def test_rings_live_for_one_m(monkeypatch):
    # run_suites goes m by m, so each of the B and F rings of m = 2..12 is
    # built once (22 builds) and at most one m's pair is kept alive.
    built = []
    for name in ("grassmannian_ring", "ordered_config_ring"):

        def counted(m, build=getattr(f2algebra, name)):
            ring = build(m)
            built.append(weakref.ref(ring))
            return ring

        monkeypatch.setattr(f2algebra, name, counted)
    config_mod2_ring.cache_clear()
    suites.run_suites(list(suites.SUITE_NAMES), range(2, 13))
    gc.collect()
    assert len(built) == 22
    assert sum(ref() is not None for ref in built) <= 2


@pytest.mark.parametrize("m", [2, 7, 12])
def test_one_m_builds_two_rings(monkeypatch, m):
    # Every suite at one m reads the same B and F rings, and nothing else
    # builds a ring.
    built = []
    init = PresentedF2Algebra.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PresentedF2Algebra, "__init__", counted)
    config_mod2_ring.cache_clear()
    suites.run_suites(list(suites.SUITE_NAMES), [m])
    config_mod2_ring.cache_clear()
    assert len(built) == 2


@pytest.mark.parametrize("a", [0, 1, 3, 7])
def test_split_check_sweeps_no_low_degree(a):
    # A split check alone reads the ranks at degree m + 1 of R and m of the
    # twisted complex: no matrix or rank out of a degree below m - 1 is
    # cached.
    m = 4 * a + 3
    config_mod2_ring.cache_clear()
    report = bockstein.sq1_split_check(a)
    assert report.checks and all(c.passed for c in report.checks)
    ring = config_mod2_ring("B", m).grassmannian
    for cache in (ring._sq1_matrix_cache, ring._rank_cache):
        assert min(d for d, _ in cache) == m - 1
    config_mod2_ring.cache_clear()


# ---------------------------------------------------------------------------
# Rings started from another ring
# ---------------------------------------------------------------------------


def swept(ring, kind, m):
    """A configuration space's engine ring (R for B) after a full sweep of
    each differential: its bases, Groebner basis, pairs, Sq1 matrices,
    ranks and Sq1^2 checks, and B's split check for m = 3 mod 4."""
    twists = (None, x1_of(ring)) if kind == "B" else (None,)
    ranks = [ring.sq1_homology_rank(d, t) for t in twists for d in range(2 * m + 1)]
    squares = [ring.sq1_square_is_zero(d, t) for t in twists for d in range(2 * m + 1)]
    split = None
    if kind == "B" and m % 4 == 3:
        report = bockstein.sq1_split_check((m - 3) // 4)
        split = [(c.label, c.expected, c.got, c.passed) for c in report.checks]
    return (
        [tuple(ring.degree_basis(d)) for d in range(2 * m + 3)],
        list(ring._groebner.items()),
        ring._pairs,
        [ring.sq1_matrix(d, t) for t in twists for d in range(2 * m + 2)],
        ranks,
        squares,
        split,
    )


@functools.cache
def swept_fresh(kind, m):
    ring = (grassmannian_ring if kind == "B" else ordered_config_ring)(m)
    shared = SplitRing(ring) if kind == "B" else ring
    with pytest.MonkeyPatch.context() as patch:  # the split check reads this ring
        patch.setattr(f2algebra, "config_mod2_ring", lambda kind, m: shared)
        return swept(ring, kind, m)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_shared_rings_equal_fresh_ones(order):
    # Each ring of config_mod2_ring holds the last swept ring's bases below
    # the lower of their two m, where both are free, and ends as a fresh
    # ring does.
    ms = list(range(1, 41))
    if order == "descending":
        ms.reverse()
    elif order == "shuffled":
        random.Random(0).shuffle(ms)
    config_mod2_ring.cache_clear()
    last = {}
    for m in ms:
        for kind in "BF":
            ring = engine_ring("R" if kind == "B" else kind, m)
            assert swept(ring, kind, m) == swept_fresh(kind, m), (kind, m)
            if kind in last:
                before, other = last[kind]
                low = min(m, before)
                assert all(ring._basis_cache[d] is other._basis_cache[d] for d in range(low))
                assert all(ring._starts[d] is other._starts[d] for d in range(low))
                assert ring._basis_cache[low] is not other._basis_cache[low]
                assert_starts_match_a_scan(ring)
                assert_dropped_match_a_recount(ring)
            last[kind] = m, ring
    config_mod2_ring.cache_clear()


def sq1_matrix_or_error(ring, d):
    try:
        return ring.sq1_matrix(d)
    except IllDefinedDerivationError as error:
        return str(error)


@st.composite
def two_quotients(draw):
    """A presentation with Sq1 as in random_sq1_presentations, two lists of
    0-3 further random relations of degree 1..6, and a degree 0..8 that the
    first quotient is grown to."""
    degrees, relations, sq1 = draw(random_sq1_presentations())

    def further():
        out = []
        for _ in range(draw(st.integers(0, 3))):
            d = draw(st.sampled_from([d for d in range(1, 7) if free_monomials(degrees, d)]))
            monos = free_monomials(degrees, d)
            out.append(frozenset(draw(st.sets(st.sampled_from(monos), min_size=1))))
        return out

    return degrees, relations, sq1, further(), further(), draw(st.integers(0, 8))


@given(two_quotients())
@example(  # the donor holds a pair (x^2y, yz^3) in degree 6; the ring takes degrees 0..2
    (
        [1, 1, 1],
        [frozenset({(2, 1, 0)}), frozenset({(0, 1, 3)})],
        {0: frozenset({(2, 0, 0)}), 1: frozenset({(0, 2, 0)}), 2: frozenset({(0, 0, 2)})},
        [],
        [frozenset({(2, 0, 3)})],
        5,
    )
)
@settings(max_examples=200, deadline=None)
def test_started_ring_on_random_presentations(case):
    # A quotient grown part way, with its Sq1 matrices taken until one
    # raises, starts another quotient of the same presentation; that one
    # then grows and checks Sq1 as a fresh one does, and the donor is left
    # as it was.
    degrees, relations, sq1, donor_further, further, depth = case
    generators = [(f"g{i}", g) for i, g in enumerate(degrees)]

    def donor():
        ring = PresentedF2Algebra(generators, relations + donor_further, sq1)
        ring._grow(depth)
        for d in range(depth):
            if isinstance(sq1_matrix_or_error(ring, d), str):
                break
        return ring

    other, twin = donor(), donor()
    ring = PresentedF2Algebra(generators, relations + further, sq1)
    fresh = PresentedF2Algebra(generators, relations + further, sq1)
    assert ring._start_from(other)
    for d in range(8):
        assert sq1_matrix_or_error(ring, d) == sq1_matrix_or_error(fresh, d), d
    for e in range(10):
        assert ring.degree_basis(e) == fresh.degree_basis(e), e
    assert list(ring._groebner.items()) == list(fresh._groebner.items())
    assert ring._pairs == fresh._pairs
    assert ring._dropped == fresh._dropped
    assert ring._relations == fresh._relations
    assert ring._sq1_checked == fresh._sq1_checked
    assert ring._sq1_tables == fresh._sq1_tables
    assert other.__dict__ == twin.__dict__


def dihedral_with(relations, sq1=None):
    generators, _, dihedral_sq1 = f2algebra._DIHEDRAL
    return PresentedF2Algebra(generators, relations, dihedral_sq1 if sq1 is None else sq1)


def grown(ring):
    ring._grow(1)
    return ring


W8 = unordered_config_ring(8).relations[1:]  # w_8 and w_9


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: grown(unordered_config_ring(8)), id="ring-already-grown"),
        pytest.param(
            lambda: PresentedF2Algebra(
                [("y", 1), ("x2", 2), ("x1", 1)],
                unordered_config_ring(8).relations,
                unordered_config_ring(8).sq1_on_generators,
            ),
            id="other-generators",
        ),
        pytest.param(
            lambda: dihedral_with(
                [*dihedral_mod2_ring().relations, *W8],
                {**dihedral_mod2_ring().sq1_on_generators, 1: frozenset({(1, 1, 0)})},
            ),
            id="other-sq1",
        ),
    ],
)
def test_start_from_refuses(make):
    # Against the dihedral ring swept through degree 5 (frontier 6), each
    # ring stays as it is and grows as a fresh one does.
    ring, fresh = make(), make()
    state = ring.__dict__.copy()
    assert not ring._start_from(swept_dihedral())
    assert ring.__dict__ == state
    assert_grows_as_fresh(ring, fresh)


def swept_dihedral():
    """The dihedral ring with Sq1 ranks through degree 4: frontier 6."""
    ring = dihedral_mod2_ring()
    for d in range(5):
        ring.sq1_homology_rank(d)
    return ring


def assert_grows_as_fresh(ring, fresh):
    for d in range(12):
        assert ring.degree_basis(d) == fresh.degree_basis(d), d
        assert sq1_matrix_or_error(ring, d) == sq1_matrix_or_error(fresh, d), d
    assert list(ring._groebner.items()) == list(fresh._groebner.items())
    assert ring._position == fresh._position
    assert ring._starts == fresh._starts
    assert ring._dropped == fresh._dropped


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda: dihedral_with([frozenset({(2, 0, 0), (0, 0, 2)}), *W8]),
            id="other-relation-in-degree-2",
        ),
        pytest.param(lambda: unordered_config_ring(3), id="relation-below-the-frontier"),
        pytest.param(lambda: unordered_config_ring(8), id="relations-above-the-frontier"),
    ],
)
def test_started_ring_takes_the_free_degrees(make):
    # The dihedral ring's relation x^2 + x*x1 has degree 2, so from it any
    # ring takes the bases of degrees 0 and 1 and the Sq1 matrix and rank
    # out of degree 0, and nothing else, then grows as a fresh one does.
    other = swept_dihedral()
    ring, fresh = make(), make()
    assert ring._start_from(other)
    assert list(ring._basis_cache) == list(ring._starts) == list(ring._dropped) == [0, 1]
    assert all(ring._basis_cache[d] is other._basis_cache[d] for d in (0, 1))
    assert all(ring._starts[d] is other._starts[d] for d in (0, 1))
    assert all(ring._dropped[d] == other._dropped[d] for d in (0, 1))
    assert set(ring._sq1_matrix_cache) == set(ring._rank_cache) == {(0, None)}
    assert ring._sq1_matrix_cache[0, None] is other._sq1_matrix_cache[0, None]
    assert not ring._groebner and not ring._pairs and not ring._coords_memo
    assert not ring._sq1_tables  # the images of x2 lie in degree 3
    assert ring._relations == fresh._relations
    assert ring._sq1_checked == fresh._sq1_checked == 0
    assert_grows_as_fresh(ring, fresh)


def test_a_shared_ring_takes_the_sq1_tables_below_its_relations():
    # F's images lie in degree 2.  At m = 2, u^2 is a lead, so Sq1 u = u^2
    # reads as u*x1 + x1^2 and F(3), started from F(2), builds its own
    # table; from m = 3 on the rings are free through degree 2, so each
    # later ring takes its donor's.
    config_mod2_ring.cache_clear()
    try:
        rings = []
        for m in range(2, 7):
            ring = config_mod2_ring("F", m)
            for d in range(2 * m + 1):
                ring.sq1_homology_rank(d)
            rings.append(ring)
    finally:
        config_mod2_ring.cache_clear()
    tables = [ring._sq1_tables[None] for ring in rings]
    assert tables[1] != tables[0]
    assert all(table is tables[1] for table in tables[2:])


def test_cache_clear_empties_the_rings():
    config_mod2_ring.cache_clear()
    config_mod2_ring("B", 6)
    config_mod2_ring("F", 6)
    assert {kind: held[0] for kind, held in f2algebra._rings.items()} == {"B": 6, "F": 6}
    config_mod2_ring.cache_clear()
    assert not f2algebra._rings
