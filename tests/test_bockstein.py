import pytest

from confcoh.abelian import AbGroup2
from confcoh.bockstein import (
    closed_form_rank,
    page1_compare,
    page1_expected,
    rank_profile_check,
    rank_recursion,
    sq1_split_check,
)
from confcoh.configcoh import SpaceId, cohomology


B = lambda m: SpaceId("B", m)
F = lambda m: SpaceId("F", m)


def test_rank_recursion_examples():
    assert rank_recursion(B(6)).rank(10) == 2  # l = 2, even m
    assert rank_recursion(B(5)).rank(8) == 1  # l = 2, odd m
    assert rank_recursion(B(7)).rank(8) == 3  # 2a + 1 at degree m + 1


def test_rank_recursion_against_closed_forms():
    for m in range(2, 13):
        for s in (B(m), F(m)):
            seq = rank_recursion(s)
            for i, r in seq.ranks.items():
                known = closed_form_rank(s, i)
                if known is not None:
                    assert r == known, (s, i)


def test_rank_recursion_against_tables():
    for m in range(2, 13):
        for s in (B(m), F(m)):
            for i, r in rank_recursion(s).ranks.items():
                assert r == cohomology(s, i).stats().mult2_kernel_rank, (s, i)


def test_rank_profile_reports():
    for m in (2, 5, 6, 7, 11, 12):
        for s in (B(m), F(m)):
            assert rank_profile_check(s).passed


def test_page1_expected_examples():
    assert page1_expected(B(5), 4) == 1
    assert page1_expected(B(5), 3) == 1
    assert page1_expected(F(5), 5) == 1
    # unordered m = 3 profile: the middle value is 2 (free rank of H^3 plus
    # the Z/4 in H^4)
    assert [page1_expected(B(3), d) for d in range(7)] == [1, 0, 0, 2, 1, 0, 0]


def test_page1_sum_rule():
    for m in range(2, 11):
        for s in (B(m), F(m)):
            total = sum(page1_expected(s, d) for d in range(2 * m + 1))
            z4 = sum(cohomology(s, i).z4_count for i in range(2 * m))
            free = sum(cohomology(s, i).free_rank for i in range(2 * m))
            assert total == 2 * z4 + free, s


@pytest.mark.parametrize(
    "kind,m",
    [(kind, m) for kind in "BF" for m in range(2, 17)]
    # beyond the CLI's m <= 32
    + [("B", 48), ("B", 64), ("F", 128)],
)
def test_page1_compare_small(kind, m):
    report = page1_compare(SpaceId(kind, m))
    assert report.passed, report.failures()
    assert len(report.checks) == 2 * m + 1


def test_sq1_split_checks():
    for a in (0, 1):
        report = sq1_split_check(a)
        assert report.passed, report.failures()


def test_split_forces_single_z4():
    # the conclusion pinned by the splitting argument
    assert cohomology(B(3), 4) == AbGroup2.cyclic(2)
    assert cohomology(B(7), 8) == AbGroup2.elementary_with_z4(2)
    assert cohomology(B(11), 12) == AbGroup2.elementary_with_z4(4)
