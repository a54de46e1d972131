import functools
import itertools
import math
import operator
from functools import reduce

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from confcoh.f2algebra import (
    F2Echelon,
    IllDefinedDerivationError,
    NotApplicableError,
    PresentedF2Algebra,
    binom_mod2,
    config_mod2_ring,
    dihedral_mod2_ring,
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
        assert a.degree_basis(d).basis_monomials == b.degree_basis(d).basis_monomials


def test_basis_x_exponent_at_most_one():
    ring = unordered_config_ring(7)
    for d in range(15):
        for mono in ring.degree_basis(d).basis_monomials:
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
        v = sum(1 << index[mono] for mono in poly)
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
        assert ring.degree_basis(d).basis_monomials == oracle.basis(d), d
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
            assert ring.degree_basis(d).basis_monomials == want, (kind, m, d)


# ---------------------------------------------------------------------------
# Sq1
# ---------------------------------------------------------------------------


def test_sq1_on_free_two_variable_ring():
    ring = two_variable_poly_ring()
    basis1 = ring.degree_basis(1).basis_monomials
    assert basis1 == ((1, 0), (0, 1))
    cols = ring.sq1_matrix(1)
    basis2 = ring.degree_basis(2).basis_monomials
    # x1 -> x1^2 and y1 -> y1^2, read off in basis coordinates
    assert cols[0] == 1 << basis2.index((2, 0))
    assert cols[1] == 1 << basis2.index((0, 2))


def test_sq1_parity_rule_on_unordered_ring():
    # Sq1(x^i x1^i1 x2^i2) is zero for even i+i1+i2 and bumps the middle
    # exponent for odd totals.
    ring = config_mod2_ring("B", 5)
    for d in range(2, 10):
        basis = ring.degree_basis(d).basis_monomials
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
    with pytest.raises(IllDefinedDerivationError):
        ring.sq1_matrix(2)


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


@pytest.mark.parametrize("m", [3, 7])
def test_split_sums_to_total(m):
    ring = config_mod2_ring("B", m)
    for d in range(2 * m + 1):
        r, xr = split_sq1_homology(m, d)
        assert r + xr == ring.sq1_homology_rank(d), (m, d)
