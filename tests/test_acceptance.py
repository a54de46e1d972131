"""Acceptance criteria, one test per criterion, each printing a PASS line.

All comparisons are exact (the underlying results are closed-form group
computations); run with -s to see the per-criterion lines.
"""

import random

from confcoh import cli
from confcoh.abelian import smith_normal_form
from confcoh.bockstein import (
    closed_form_rank,
    page1_compare,
    rank_recursion,
    sq1_split_check,
)
from confcoh.cartan_leray import (
    fragment_check_3mod4,
    m3_scenarios,
    run_1mod4,
    run_even,
    run_ordered,
)
from confcoh.configcoh import (
    PStarBehavior,
    SpaceId,
    cohomology,
    cohomology_table,
    duality_symmetry_check,
    mod2_dimension,
    p_star_profile,
)
from confcoh.f2algebra import config_mod2_ring
from confcoh.groupcoh import CoeffId, GroupId, classifying_cohomology
from confcoh import stiefel

from test_abelian import _minor_gcd_invariant_factors


def _announce(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# Frozen expectation for the summary table: torsion entries of the
# unordered tables for m = 2, 4, 6, 8 in degrees 2..14.
TABLE1_EXPECTED = {
    2: {2: "<2>"},
    4: {2: "<2>", 3: "<1>", 4: "{2}", 5: "<1>", 6: "<2>"},
    6: {
        2: "<2>", 3: "<1>", 4: "{2}", 5: "<2>", 6: "<4>", 7: "<2>",
        8: "{2}", 9: "<1>", 10: "<2>",
    },
    8: {
        2: "<2>", 3: "<1>", 4: "{2}", 5: "<2>", 6: "<4>", 7: "<3>",
        8: "{4}", 9: "<3>", 10: "<4>", 11: "<2>", 12: "{2}", 13: "<1>",
        14: "<2>",
    },
}


def test_criterion_01_table_reproduction():
    cells = cli.table1_cells()
    for m in (2, 4, 6, 8):
        for col in range(2, 15):
            want = TABLE1_EXPECTED[m].get(col, "")
            assert cells[m][col] == want, (m, col)
    assert cli.render_table1() == cli.render_table1()
    _announce(1, "summary-table torsion entries byte-exact for m = 2, 4, 6, 8")


def test_criterion_02_mod2_dimension_oracle():
    for m in range(1, 13):
        for kind in ("B", "F"):
            ring = config_mod2_ring(kind, m)
            for d in range(2 * m + 3):
                want = mod2_dimension(SpaceId(kind, m), d)
                assert ring.quotient_dimension(d) == want, (kind, m, d)
    _announce(2, "presented-ring dimensions match the mod-2 pattern, m <= 12")


def test_criterion_03_uct_mod2_consistency():
    for m in range(1, 13):
        for kind in ("B", "F"):
            s = SpaceId(kind, m)
            for i in range(2 * m + 3):
                lhs = (
                    cohomology(s, i).two_rank_tensor
                    + cohomology(s, i + 1).mult2_kernel_rank
                )
                assert lhs == mod2_dimension(s, i), (kind, m, i)
    _announce(3, "mod-2 universal-coefficient count holds degreewise, m <= 12")


def test_criterion_04_bockstein_page_one():
    for m in range(2, 11):
        for kind in ("B", "F"):
            report = page1_compare(SpaceId(kind, m))
            assert report.passed, report.failures()
    for a in (0, 1, 2):
        m = 4 * a + 3
        assert config_mod2_ring("B", m).split_sq1_homology_rank(m + 1) == (1, 0), a
        assert sq1_split_check(a).passed
    _announce(4, "Sq1-homology equals the Bockstein page-1 ranks, m <= 10")


def test_criterion_05_rank_recursions():
    for m in range(2, 13):
        for kind in ("B", "F"):
            s = SpaceId(kind, m)
            seq = rank_recursion(s)
            for i, r in seq.items():
                assert r == cohomology(s, i).mult2_kernel_rank, (s, i)
                want = closed_form_rank(s, i)
                if want is not None:
                    assert r == want, (s, i)
    _announce(5, "multiplication-by-2 rank recursion matches the closed forms")


def test_criterion_06_duality_symmetry():
    for m in range(2, 13):
        for kind in ("B", "F"):
            report = duality_symmetry_check(SpaceId(kind, m))
            assert report.passed, report.failures()
    _announce(6, "linking-form torsion symmetry holds for 2 <= m <= 12")


def test_criterion_07_chart_executors():
    for m in (2, 4, 6, 8, 10, 12):
        abutment, report = run_even(m, GroupId.D8)
        assert report.passed, report.failures()
        assert abutment == cohomology_table(SpaceId("B", m))
    for m in (5, 9):
        abutment, report = run_1mod4(m)
        assert report.passed, report.failures()
        table = cohomology_table(SpaceId("B", m))
        for t in range(2 * m):
            assert abutment.group(t).torsion_part() == table.group(t).torsion_part()
    for m in range(2, 13):
        abutment, report = run_ordered(m)
        assert report.passed, report.failures()
        assert abutment == cohomology_table(SpaceId("F", m))
    report = m3_scenarios()
    assert report.passed, report.failures()
    degree4 = [
        c for c in report.checks if c.label == "degree-4 torsion order"
    ]
    assert len(degree4) == 2 and all(c.got == "4" for c in degree4)
    for a in (0, 1, 2):
        assert fragment_check_3mod4(a).passed
    _announce(7, "spectral-sequence executors reproduce both closed-form tables")


def test_criterion_08_classifying_map_profiles():
    for m in range(2, 13):
        for g in GroupId:
            s = SpaceId("B" if g is GroupId.D8 else "F", m)
            open_band = g is GroupId.D8 and m % 4 == 3
            for i in range(m + 1, 2 * m):
                prof = p_star_profile(g, m, i)
                if open_band:
                    assert prof.behavior is PStarBehavior.OPEN, (g, m, i)
                    assert prof.kernel_rank is None
                elif m % 2 == 0:
                    assert prof.kernel_rank == i - m, (g, m, i)
                else:
                    assert prof.kernel_rank == i - m + (-1) ** i, (g, m, i)
            for i in range(0, m - 1):
                assert p_star_profile(g, m, i).behavior is PStarBehavior.ISO
                assert cohomology(s, i) == classifying_cohomology(
                    g, CoeffId.INTEGER_TRIVIAL, i
                ), (g, m, i)
    _announce(8, "classifying-map kernel ranks and iso ranges verified, m <= 12")


def test_criterion_09_stiefel_suite():
    for n in range(3, 21):
        abutment = stiefel.sphere_bundle_abutment(n)
        for q in range(2 * n - 2):
            assert abutment.group(q) == stiefel.stiefel_cohomology(n, q), (n, q)
        grass = stiefel.oriented_grassmannian_groups(n)
        for d in range(2 * n - 3):
            g = grass.group(d)
            assert g.torsion_exponents == ()
            if d % 2 == 1:
                assert g.is_trivial
        if n % 2 == 0:
            assert grass.group(n - 2).free_rank == 2
        assert grass.total_free_rank() == (n - 1 if n % 2 == 1 else n)
        assert stiefel.quotient_orientable(n) is (n % 2 == 1)
        assert stiefel.grassmannian_orientable(n) is (n % 2 == 0)
    _announce(9, "fibre cohomology, Grassmannian and orientability, 3 <= n <= 20")


def test_criterion_10_headless_properties(capsys):
    code = cli.main(["verify", "--suite", "all", "--m-range", "2..10"])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    rng = random.Random(987654321)
    for _ in range(500):
        rows_n = rng.randint(1, 6)
        cols_n = rng.randint(1, 6)
        rows = [[rng.randint(-8, 8) for _ in range(cols_n)] for _ in range(rows_n)]
        want = _minor_gcd_invariant_factors(rows, rows_n, cols_n)
        got, rank = smith_normal_form(rows)
        assert got == want and rank == len(want)
    for m in (3, 4, 5, 6):
        for kind in ("B", "F"):
            ring = config_mod2_ring(kind, m)
            for d in range(2 * m):
                assert ring.sq1_square_is_zero(d), (kind, m, d)
    _announce(10, "headless verify exits 0; SNF oracle (500 matrices); Sq1^2 = 0")
