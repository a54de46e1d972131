import re

import pytest

from confcoh import cartan_leray
from confcoh.abelian import AbGroup2, Z
from confcoh.cartan_leray import (
    InconsistentOrdersError,
    RangeError,
    build_e2,
    even_cokernel,
    fragment_check_3mod4,
    m3_scenarios,
    run_1mod4,
    run_even,
    run_odd_ordered,
    run_ordered,
)
from confcoh.configcoh import SpaceId, cohomology, cohomology_table
from confcoh.groupcoh import GROUPS, GroupId


def elem(k):
    return AbGroup2.elementary(k)


def brace(k):
    return AbGroup2.elementary_with_z4(k)


# ---------------------------------------------------------------------------
# Starting pages
# ---------------------------------------------------------------------------


def line_degrees(page):
    return sorted({q for _, q in page})


def test_build_e2_unordered_m2():
    e2 = build_e2(GroupId.D8, 2)
    assert e2[0, 2] == elem(1)
    assert e2[3, 0] == elem(1)
    assert e2[1, 2] == elem(2)
    assert e2[2, 2] == elem(3)  # mod-2 line grows linearly
    assert line_degrees(e2) == [0, 2, 3]


def test_build_e2_unordered_m5():
    e2 = build_e2(GroupId.D8, 5)
    assert e2[2, 4] == AbGroup2.cyclic(2)
    assert e2[0, 5] == Z
    assert line_degrees(e2) == [0, 4, 5, 9]


def test_build_e2_ordered_m4():
    e2 = build_e2(GroupId.Z2xZ2, 4)
    for p in range(6):
        assert e2[p, 4] == elem(p + 1)
    assert line_degrees(e2) == [0, 4, 7]


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("case", ["z4", "sources-too-large"])
def test_run_odd_ordered_refuses_inconsistent_orders(monkeypatch, m, case):
    # Both at ell = 1: the target (2m - 1, 0) gains a Z/4, or the page-m
    # source (m - 1, m - 1) outgrows it.
    if case == "z4":
        key, group = (2 * m - 1, 0), AbGroup2.cyclic(2)
        text = "unexpected Z/4 in the ordered case"
    else:
        key, group = (m - 1, m - 1), AbGroup2.elementary(m + 10)
        text = f"sources larger than target in degree {2 * m - 1}"
    true_build = cartan_leray.build_e2

    def tampered(g, m, p_max=None):
        e2 = true_build(g, m, p_max)
        e2[key] = group
        return e2

    monkeypatch.setattr(cartan_leray, "build_e2", tampered)
    with pytest.raises(InconsistentOrdersError, match=f"^{re.escape(text)}$"):
        run_odd_ordered(m)


def test_line_invariants():
    for m in (2, 3, 4, 5, 6, 7):
        for g in GROUPS:
            e2 = build_e2(g, m)
            assert all(p >= 0 and not e.is_trivial for (p, _), e in e2.items())
            if m % 2 == 0:
                assert set(line_degrees(e2)) <= {0, m, 2 * m - 1}
            else:
                assert set(line_degrees(e2)) <= {0, m - 1, m, 2 * m - 1}


# ---------------------------------------------------------------------------
# Even executor
# ---------------------------------------------------------------------------


def test_even_cokernel_examples():
    assert even_cokernel(6, 4) == brace(2)
    assert even_cokernel(4, 3) == elem(1)
    assert even_cokernel(8, 2) == elem(2)


def test_even_cokernel_range():
    with pytest.raises(RangeError):
        even_cokernel(5, 2)
    with pytest.raises(RangeError):
        even_cokernel(6, 6)


def test_even_cokernel_matches_table():
    for m in (4, 6, 8, 10, 12):
        for ell in range(2, m):
            assert even_cokernel(m, ell) == cohomology(SpaceId("B", m), 2 * m - ell)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_run_even_unordered(m):
    abutment, report = run_even(m, GroupId.D8)
    assert report.passed, report.failures()
    assert abutment == cohomology_table(SpaceId("B", m))


def test_run_even_spot_values():
    abutment, _ = run_even(2)
    assert abutment.group(2) == elem(2) and abutment.group(3) == Z
    abutment, _ = run_even(4)
    assert abutment.group(5) == elem(1) and abutment.group(6) == elem(2)


# ---------------------------------------------------------------------------
# Odd executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [5, 9])
def test_run_1mod4(m):
    abutment, report = run_1mod4(m)
    assert report.passed, report.failures()
    table = cohomology_table(SpaceId("B", m))
    for t in range(2 * m):
        assert abutment.group(t).torsion_part() == table.group(t).torsion_part()
        assert abutment.group(t).free_rank == table.group(t).free_rank


def test_run_1mod4_order_equation_degree_8():
    # |E3 base at (8,0)| = |{4}| = 2^6 splits as 2^2 * 2^2 * |Z/4|
    from confcoh.groupcoh import CoeffId, classifying_cohomology

    target = classifying_cohomology(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 8)
    src_mid = classifying_cohomology(GroupId.D8, CoeffId.INTEGER_TWISTED, 3).halve_z4s()
    src_top = classifying_cohomology(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 2).halve_z4s()
    coker = cohomology(SpaceId("B", 5), 8)
    assert target.torsion_order_log2 == 6
    assert (
        src_mid.torsion_order_log2 + src_top.torsion_order_log2 + coker.torsion_order_log2
        == 6
    )


def test_run_1mod4_top_degree():
    abutment, _ = run_1mod4(5)
    assert abutment.group(9) == elem(1)


@pytest.mark.parametrize("m", range(2, 13))
def test_run_ordered_matches_table(m):
    abutment, report = run_ordered(m)
    assert report.passed, report.failures()
    assert abutment == cohomology_table(SpaceId("F", m))


@pytest.mark.parametrize(
    "run, args",
    [
        pytest.param(run, args, id="-".join([run.__name__, *map(str, args)]))
        for run, args in [
            *[(run_even, (m,)) for m in (0, 1, 3, 5)],
            (run_even, (3, GroupId.Z2xZ2)),
            *[(run_1mod4, (m,)) for m in (1, 3, 6, 7)],
            *[(run_odd_ordered, (m,)) for m in (1, 2, 4)],
        ]
    ],
)
def test_executors_refuse_m_past_their_edges(run, args):
    # m below each executor's first case, or of another residue
    with pytest.raises(RangeError, match=f"^{run.__name__} needs "):
        run(*args)


# ---------------------------------------------------------------------------
# The m = 3 special cases
# ---------------------------------------------------------------------------


def test_m3_scenarios():
    report = m3_scenarios()
    assert report.passed, report.failures()
    by_label = {}
    for c in report.checks:
        by_label.setdefault((c.suite, c.label, c.degree), c)
    # both options give total torsion of order 4 in degree 4
    for option in ("A", "B"):
        check = by_label[(f"clss-m3-{option}", "degree-4 torsion order", 4)]
        assert check.expected == "4" and check.got == "4"
    check = by_label[("clss-m3-A", "degree-4 extension", 4)]
    assert check.expected == check.got == "2"
    # Option B halves the q = 3 line on page 2; without that the diagonal
    # balances read 4, 8, 5, 9, 7 and still pass.
    got = [by_label[("clss-m3-B", "diagonal balance", t)].got for t in range(6, 11)]
    assert got == ["4", "7", "6", "8", "8"]


def test_fragment_checks():
    for a in (0, 1, 2):
        report = fragment_check_3mod4(a)
        assert report.passed, report.failures()


def test_fragment_fails_a_box_without_z2(monkeypatch):
    # a wrong page whose box at (m + 1, 0) has no Z/2 for d_m to inject:
    # failed checks, not a ValueError from removing a missing summand
    def wrong_e2(group, m):
        return build_e2(group, m) | {(m + 1, 0): AbGroup2.cyclic(2)}

    monkeypatch.setattr(cartan_leray, "build_e2", wrong_e2)
    failed = {c.label for c in fragment_check_3mod4(0).failures()}
    assert {"base at m+1", "page-m cokernel"} <= failed


def test_fragment_range():
    # m = 15..31: past the CLI's m <= 12 and the old m <= 15 window
    for a in range(3, 8):
        report = fragment_check_3mod4(a)
        assert report.passed, report.failures()
        assert report.checks and {c.m for c in report.checks} == {4 * a + 3}
