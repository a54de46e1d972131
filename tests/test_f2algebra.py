import functools
import hashlib
import itertools
import math
import operator
from functools import reduce

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confcoh import f2algebra, suites
from confcoh.f2algebra import (
    MAX_DEGREE,
    MAX_EXPONENT,
    F2Echelon,
    IllDefinedDerivationError,
    NotApplicableError,
    PresentedF2Algebra,
    binom_mod2,
    config_mod2_ring,
    dihedral_mod2_ring,
    ordered_config_ring,
    split_sq1_homology,
    two_variable_poly_ring,
    unordered_config_ring,
)


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

    @functools.cache
    def span(self, d):
        """(free monomials of degree d, their positions, pivot map of the span)"""
        ring = self.ring
        monos = free_monomials(ring.degrees, d)
        index = {mono: i for i, mono in enumerate(monos)}
        rows = {}
        for rel in ring.relations:
            for u in free_monomials(ring.degrees, d - ring.monomial_degree(min(rel))):
                echelon_add(rows, sum(1 << index[ring.mono_mul(mono, u)] for mono in rel))
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
    def sq1_matrix(self, d):
        return [self.coords(self.ring.sq1_free(m), d + 1) for m in self.basis(d)]

    def homology(self, d, keep=lambda mono: True):
        """Sq1-homology rank at d on the span of the kept basis monomials."""

        def columns(e):
            if e < 0:
                return []
            return [c for m, c in zip(self.basis(e), self.sq1_matrix(e)) if keep(m)]

        here = sum(1 for m in self.basis(d) if keep(m))
        return here - span_rank(columns(d)) - span_rank(columns(d - 1))


@pytest.mark.parametrize("m", range(2, 25))
@pytest.mark.parametrize("kind", ["B", "F"])
def test_engine_against_span_oracle(kind, m):
    ring = config_mod2_ring(kind, m)
    oracle = SpanOracle(ring)
    for d in range(2 * m + 2):
        assert tuple(ring.degree_basis(d)) == oracle.basis(d), d
        assert ring.sq1_matrix(d) == oracle.sq1_matrix(d), d
        assert ring.sq1_homology_rank(d) == oracle.homology(d), d
        if kind == "B" and m % 4 == 3:
            want = tuple(oracle.homology(d, lambda mono: mono[0] == x) for x in (0, 1))
            assert split_sq1_homology(m, d) == want, d


@pytest.mark.parametrize("kind", ["B", "F"])
def test_basis_against_sympy_groebner(kind):
    # The ideals are homogeneous, so sympy's lex leads span the same leading
    # ideal as the engine's order (weighted degree, then lex).
    for m in range(2, 25):
        ring = config_mod2_ring(kind, m)
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


# Two ideals in F2[x, y, z] where the chain criterion must keep an older
# pair (a, b) with lcm L although the new lead divides L, because L is also
# lcm(b, new lead); its S-polynomial is then a new element.
# (xy, xz + y^2, yz): every pair of leads has lcm xyz, and criterion F keeps
# only one of the two new pairs with yz.
TRIANGLE = (
    [1, 1, 1],
    [frozenset({(1, 1, 0)}), frozenset({(1, 0, 1), (0, 2, 0)}), frozenset({(0, 1, 1)})],
    3,
    frozenset({(0, 3, 0)}),
)
# (xy^2, xz^2 + y^3, y^2z): criterion M drops the new pair (xz^2, y^2z),
# whose lcm xy^2z^2 is the older pair's, for (xy^2, y^2z).
CHAIN = (
    [1, 1, 1],
    [frozenset({(1, 2, 0)}), frozenset({(1, 0, 2), (0, 3, 0)}), frozenset({(0, 2, 1)})],
    5,
    frozenset({(0, 5, 0)}),
)


@given(random_presentations())
@example(TRIANGLE)
@example(CHAIN)
@settings(max_examples=300, deadline=None)
def test_engine_on_random_presentations(case):
    # The pair criteria prune by lead shapes that the configuration rings
    # never produce; random ideals reach them.  Coordinates come from
    # per-monomial bitsets (standard, lead tail, or a non-standard immediate
    # divisor); every free monomial is asked for, the highest degree first
    # so that each walk starts cold, with degree-2 generators and lead
    # shapes that the configuration rings lack.
    degrees, relations, d, poly = case
    ring = PresentedF2Algebra([(f"g{i}", g) for i, g in enumerate(degrees)], relations)
    oracle = SpanOracle(ring)
    for e in range(8, -1, -1):
        for mono in free_monomials(degrees, e):
            assert ring.coords({mono}, e) == oracle.coords({mono}, e), (e, mono)
    for e in range(9):
        assert tuple(ring.degree_basis(e)) == oracle.basis(e), e
    assert ring.coords(poly, d) == oracle.coords(poly, d)


def test_cold_coords_high_up_needs_no_recursion():
    # In F2[x, y] / (x^2) the bitset of x^1500 is found by walking down x
    # 1500 times; a recursive walk would exceed the interpreter's limit.
    ring = PresentedF2Algebra([("x", 1), ("y", 1)], [frozenset({(2, 0)})])
    assert ring.coords(frozenset({(1500, 0)}), 1500) == 0
    assert ring.coords(frozenset({(1, 1499), (0, 1500)}), 1500) == 0b11


@pytest.mark.parametrize(
    "kind, m, most, most_zero",
    # the parent engine, with coprime leads as its only criterion, did 1059
    # normal forms (993 zero) at B m = 64
    [("B", 64, 67, 1), ("F", 40, 3, 1)],
)
def test_pair_criteria_fire(monkeypatch, kind, m, most, most_zero):
    ring = config_mod2_ring.__wrapped__(kind, m)
    forms = []
    normal_form = PresentedF2Algebra._normal_form

    def counted(self, poly):
        forms.append(normal_form(self, poly))
        return forms[-1]

    monkeypatch.setattr(PresentedF2Algebra, "_normal_form", counted)
    ring._grow(2 * m + 1)
    assert len(forms) <= most
    assert sum(not f for f in forms) <= most_zero


@pytest.mark.parametrize(
    "kind, m",
    # reducing each Sq1 image as a polynomial took 4163 normal forms at
    # B m = 64 and 1643 at F m = 40; the relation check reads coordinates
    [("B", 64), ("F", 40)],
)
def test_sq1_sweep_reduces_no_images(monkeypatch, kind, m):
    ring = config_mod2_ring.__wrapped__(kind, m)
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
    ring = config_mod2_ring.__wrapped__("B", 64)
    calls = []
    rank = f2algebra.f2_rank

    def counted(columns):
        calls.append(len(columns))
        return rank(columns)

    monkeypatch.setattr(f2algebra, "f2_rank", counted)
    for d in range(2 * 64 + 1):
        ring.sq1_homology_rank(d)
    assert len(calls) <= 128


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
    assert list(ring.sq1_free((1, 1))) == [(1, 2), (1, 2)]
    basis2 = ring.degree_basis(2)
    assert ring.sq1_matrix(1) == [1 << basis2[(1, 1)], 1 << basis2[(0, 2)]]
    assert ring.sq1_matrix(2)[basis2[(1, 1)]] == 0

def test_sq1_parity_rule_on_unordered_ring():
    # Sq1(x^i x1^i1 x2^i2) is zero for even i+i1+i2 and bumps the middle
    # exponent for odd totals.
    ring = config_mod2_ring("B", 5)
    for d in range(2, 10):
        basis = ring.degree_basis(d)
        cols = ring.sq1_matrix(d)
        for mono, col in zip(basis, cols):
            i, i1, i2 = mono
            if (i + i1 + i2) % 2 == 0:
                assert col == 0, mono
            else:
                bumped = (i, i1 + 1, i2)
                want = ring.coords(frozenset({bumped}), d + 1)
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
            assert ring.sq1_square_is_zero(d), (ring.generators, d)


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
    # the failed relation stays unchecked: every later call raises again
    for _ in range(2):
        with pytest.raises(IllDefinedDerivationError):
            ring.sq1_matrix(2)
    assert [ring.quotient_dimension(d) for d in range(5)] == dims


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
        e = ring.monomial_degree(min(rel))
        if oracle.coords([t for mono in rel for t in ring.sq1_free(mono)], e + 1):
            outside.append(e)
    for d in range(7):
        if any(e <= d for e in outside):
            with pytest.raises(IllDefinedDerivationError):
                ring.sq1_matrix(d)
        else:
            assert ring.sq1_matrix(d) == oracle.sq1_matrix(d), d


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
    # An exponent fills its field up to MAX_EXPONENT; past that a monomial,
    # a Sq1 term or a degree would carry into the next field, so each is
    # refused before the engine reads it.
    ring = two_variable_poly_ring()
    past = (MAX_EXPONENT + 1, 0)
    with pytest.raises(ValueError, match="exponents in 0.."):
        ring.coords({past}, 4)
    with pytest.raises(ValueError, match="exponents in 0.."):
        ring.sq1_free(past)
    assert ring.sq1_free((MAX_EXPONENT - 1, 1)) == [(MAX_EXPONENT - 1, 2)]
    with pytest.raises(ValueError, match="exponent past"):
        ring.sq1_free((MAX_EXPONENT, 0))  # Sq1 x1 = x1^2
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


def test_coords_refuses_a_monomial_of_another_degree():
    ring = two_variable_poly_ring()
    with pytest.raises(ValueError, match="not of degree 3"):
        ring.coords({(1, 1)}, 3)


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
# over d = 0..2m+1, as the exponent-tuple engine computed them before
# monomials were packed; the span oracles above stop at m = 24.
ENGINE_DIGESTS = {
    ("B", 40): (
        "60e0c49e2b90a8b7bc5c369a6ceb1c6dc34742d8ed3fbf4fdc2ca097dc57c6b0",
        "f9018f619528bb208b3462dc9357223f18ef7c4c361cce7e26469a1922f38ace",
    ),
    ("B", 64): (
        "231ab902153efdbc2734b83672abecf58216816e7fcdd365a4a2a13a23689424",
        "02697818c2db8515c7adde3f1d3bde8c7433f7e38aa3ffd9489955edbc77d270",
    ),
    ("F", 40): (
        "c39da3624c84db483a762eea448dd079c9ba429a62b82090931415a101ffa1d1",
        "daf74249314808ae7b1f1a62c98ac60ed7fdfd1d79749d27cff95bfffd9c6538",
    ),
    ("F", 64): (
        "34d76f16300281ef8c36d51d1487e729a67f02233d9764f6554818032333b732",
        "095a764006de1839cba1c6d6adc7e12669393fc4bb3639d9f6e4e7250809c9c8",
    ),
}


@pytest.mark.parametrize("kind, m", ENGINE_DIGESTS)
def test_engine_digests_past_the_span_oracles(kind, m):
    ring = (unordered_config_ring if kind == "B" else ordered_config_ring)(m)
    bases, matrices = hashlib.sha256(), hashlib.sha256()
    for d in range(2 * m + 2):
        bases.update(repr(tuple(ring.degree_basis(d))).encode())
        matrices.update(repr(ring.sq1_matrix(d)).encode())
    assert (bases.hexdigest(), matrices.hexdigest()) == ENGINE_DIGESTS[kind, m]


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
    assert split_sq1_homology(3, 4) == (1, 0)
    assert split_sq1_homology(3, 0) == (1, 0)
    assert split_sq1_homology(7, 8) == (1, 0)


def test_split_requires_3_mod_4():
    with pytest.raises(NotApplicableError):
        split_sq1_homology(5, 4)


@pytest.mark.parametrize("m", [3, 7, 11, 15, 19])
def test_split_sums_to_total(m):
    # Sq1 preserves R + x*R, so the ranks of the two summands add up.
    ring = config_mod2_ring("B", m)
    for d in range(2 * m + 1):
        assert sum(split_sq1_homology(m, d)) == ring.sq1_homology_rank(d), (m, d)


# ---------------------------------------------------------------------------
# Ring lifetime
# ---------------------------------------------------------------------------


def test_rings_live_for_one_m():
    # run_suites goes m by m, so each of the B and F rings of m = 2..12 is
    # built once (22 misses) and at most one m's pair is kept.
    config_mod2_ring.cache_clear()
    suites.run_suites(list(suites.SUITE_NAMES), range(2, 13))
    info = config_mod2_ring.cache_info()
    assert info.misses == 22
    assert info.currsize <= 2
