import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcoh import cli, configcoh
from confcoh.abelian import AbGroup2, GradedGroups, Z, ZERO
from confcoh.configcoh import (
    DegreeOutOfRangeError,
    PStarBehavior,
    SpaceId,
    cohomology,
    cohomology_line,
    cohomology_table,
    duality_symmetry_check,
    global_checks,
    homology,
    is_orientable,
    mod2_dimension,
    p_star_profile,
    twisted_cohomology,
)
from confcoh.bockstein import rank_profile_check
from confcoh.groupcoh import GROUPS, CoeffId, GroupId, classifying_cohomology


def elem(k):
    return AbGroup2.elementary(k)


def brace(k):
    return AbGroup2.elementary_with_z4(k)


B = lambda m: SpaceId("B", m)
F = lambda m: SpaceId("F", m)


# ---------------------------------------------------------------------------
# Golden tables (torsion rows match the published summary table)
# ---------------------------------------------------------------------------

GOLDEN_UNORDERED = {
    2: {0: "Z", 1: "0", 2: "<2>", 3: "Z"},
    4: {0: "Z", 1: "0", 2: "<2>", 3: "<1>", 4: "{2}", 5: "<1>", 6: "<2>", 7: "Z"},
    6: {
        0: "Z", 1: "0", 2: "<2>", 3: "<1>", 4: "{2}", 5: "<2>", 6: "<4>",
        7: "<2>", 8: "{2}", 9: "<1>", 10: "<2>", 11: "Z",
    },
    8: {
        0: "Z", 1: "0", 2: "<2>", 3: "<1>", 4: "{2}", 5: "<2>", 6: "<4>",
        7: "<3>", 8: "{4}", 9: "<3>", 10: "<4>", 11: "<2>", 12: "{2}",
        13: "<1>", 14: "<2>", 15: "Z",
    },
    3: {0: "Z", 1: "0", 2: "<2>", 3: "Z + <1>", 4: "{0}", 5: "<1>"},
    5: {
        0: "Z", 1: "0", 2: "<2>", 3: "<1>", 4: "{2}", 5: "Z + <2>",
        6: "<2>", 7: "<2>", 8: "{0}", 9: "<1>",
    },
    7: {
        0: "Z", 1: "0", 2: "<2>", 3: "<1>", 4: "{2}", 5: "<2>", 6: "<4>",
        7: "Z + <3>", 8: "{2}", 9: "<3>", 10: "<2>", 11: "<2>", 12: "{0}",
        13: "<1>",
    },
}

GOLDEN_ORDERED = {
    2: {0: "Z", 1: "0", 2: "<2>", 3: "Z"},
    3: {0: "Z", 1: "0", 2: "<2>", 3: "Z + <1>", 4: "<1>", 5: "<1>"},
    4: {0: "Z", 1: "0", 2: "<2>", 3: "<1>", 4: "<3>", 5: "<1>", 6: "<2>", 7: "Z"},
    5: {
        0: "Z", 1: "0", 2: "<2>", 3: "<1>", 4: "<3>", 5: "Z + <2>",
        6: "<2>", 7: "<2>", 8: "<1>", 9: "<1>",
    },
}


@pytest.mark.parametrize("m,row", sorted(GOLDEN_UNORDERED.items()))
def test_unordered_tables(m, row):
    for i, want in row.items():
        assert str(cohomology(B(m), i)) == want, (m, i)
    assert cohomology(B(m), 2 * m).is_trivial


@pytest.mark.parametrize("m,row", sorted(GOLDEN_ORDERED.items()))
def test_ordered_tables(m, row):
    for i, want in row.items():
        assert str(cohomology(F(m), i)) == want, (m, i)
    assert cohomology(F(m), 2 * m).is_trivial


def test_spot_values():
    assert cohomology(B(6), 8) == brace(2)
    assert cohomology(B(5), 8) == AbGroup2.cyclic(2)
    assert cohomology(F(5), 5) == Z + elem(2)
    assert cohomology(B(3), 4) == AbGroup2.cyclic(2)
    assert cohomology(F(1), 1) == Z
    assert cohomology(B(1), 1) == Z
    assert cohomology(B(1), 0) == Z
    assert cohomology(B(1), 2).is_trivial
    assert cohomology(B(6), -1).is_trivial and cohomology(F(5), -2).is_trivial


def test_mod2_dimension():
    assert mod2_dimension(B(4), 6) == 2
    assert mod2_dimension(F(5), 0) == 1
    assert mod2_dimension(B(6), 12) == 0
    assert [mod2_dimension(B(1), i) for i in range(-2, 4)] == [0, 0, 1, 1, 0, 0]


def test_ordered_tables_have_no_z4():
    for m in range(1, 13):
        for i in range(2 * m + 1):
            assert all(e == 1 for e in cohomology(F(m), i).torsion_exponents)


def test_unordered_z4_placement():
    # exactly one Z/4, in each degree divisible by 4 strictly inside the
    # support, and nowhere else
    for m in range(2, 13):
        for i in range(2 * m + 1):
            z4 = cohomology(B(m), i).z4_count
            if 0 < i < 2 * m - 1 and i % 4 == 0:
                assert z4 == 1, (m, i)
            else:
                assert z4 == 0, (m, i)


# ---------------------------------------------------------------------------
# Homology and twisted coefficients
# ---------------------------------------------------------------------------


def test_homology_examples():
    assert homology(B(2)).group(3) == Z
    assert homology(F(5)).group(1) == elem(2)
    assert homology(B(1)).group(1) == Z


def test_orientability():
    # quotients of V_{m+1,2}: orientable iff m + 1 is odd
    for m in range(2, 12):
        assert is_orientable(B(m)) is (m % 2 == 0)
        assert is_orientable(F(m)) is (m % 2 == 0)


def test_twisted_examples():
    got = twisted_cohomology(B(5), 2)
    assert got == AbGroup2.cyclic(2)
    assert got == classifying_cohomology(GroupId.D8, CoeffId.INTEGER_TWISTED, 2)
    got = twisted_cohomology(F(5), 3)
    assert got.torsion_part() == elem(2)
    assert got.torsion_part() == classifying_cohomology(
        GroupId.Z2xZ2, CoeffId.INTEGER_TWISTED, 3
    )
    assert twisted_cohomology(B(4), 5) == cohomology(B(4), 5) == elem(1)


def test_twisted_degree_range():
    with pytest.raises(DegreeOutOfRangeError):
        twisted_cohomology(B(4), 8)


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2", None], ids=repr)
@pytest.mark.parametrize("read", [cohomology, mod2_dimension, twisted_cohomology, cohomology_line])
@pytest.mark.parametrize("s", [B(3), F(4)], ids=str)
def test_a_non_int_degree_is_refused(s, read, bad):
    # as SpaceId refuses a non-int m: a bool is not read as 0 or 1, nor a
    # float as the int it equals
    with pytest.raises(TypeError, match=f"degree must be an int, got {re.escape(repr(bad))}"):
        read(s, bad)


def test_twisted_free_ranks_nonorientable():
    # the two integral classes sit in degrees m - 1 and 2m - 1 after twisting
    for m in (3, 5, 7):
        for s in (B(m), F(m)):
            frees = {
                j: twisted_cohomology(s, j).free_rank
                for j in range(2 * m)
                if twisted_cohomology(s, j).free_rank
            }
            assert frees == {m - 1: 1, 2 * m - 1: 1}, s


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("kind", ["B", "F"])
def test_duality_symmetry(kind, m):
    report = duality_symmetry_check(SpaceId(kind, m))
    assert report.passed, report.failures()


def test_duality_spot_checks():
    assert cohomology(B(6), 3).torsion_part() == cohomology(B(6), 9).torsion_part() == elem(1)
    assert cohomology(B(5), 9).torsion_part() == classifying_cohomology(
        GroupId.D8, CoeffId.INTEGER_TWISTED, 1
    )
    assert cohomology(F(4), 2).torsion_part() == cohomology(F(4), 6).torsion_part() == elem(2)


# ---------------------------------------------------------------------------
# Classifying-map profiles
# ---------------------------------------------------------------------------


def test_p_star_examples():
    prof = p_star_profile(GroupId.D8, 6, 8)
    assert prof.behavior == PStarBehavior.EPI_NONZERO_KERNEL and prof.kernel_rank == 2
    prof = p_star_profile(GroupId.D8, 5, 8)
    assert prof.behavior == PStarBehavior.EPI_NONZERO_KERNEL and prof.kernel_rank == 4
    assert p_star_profile(GroupId.D8, 6, 3).behavior == PStarBehavior.ISO
    assert p_star_profile(GroupId.D8, 7, 10).behavior == PStarBehavior.OPEN
    assert p_star_profile(GroupId.D8, 7, 7).behavior == PStarBehavior.MONO_ONTO_TORSION
    assert p_star_profile(GroupId.D8, 6, 14).behavior == PStarBehavior.ZERO


def test_p_star_kernel_rank_closed_forms():
    for m in range(2, 13):
        for g in GROUPS:
            for i in range(m + 1, 2 * m):
                prof = p_star_profile(g, m, i)
                if prof.behavior == PStarBehavior.OPEN:
                    assert g == GroupId.D8 and m % 4 == 3
                    continue
                if m % 2 == 0:
                    assert prof.kernel_rank == i - m, (g, m, i)
                else:
                    assert prof.kernel_rank == i - m + (-1) ** i, (g, m, i)


def test_p_star_iso_range_literal_equality():
    for m in range(2, 13):
        for g in GROUPS:
            s = SpaceId("B" if g == GroupId.D8 else "F", m)
            top = m if m % 2 == 0 else m - 1
            for i in range(0, top + 1):
                if i == m and m % 2 == 1:
                    continue
                assert cohomology(s, i) == classifying_cohomology(
                    g, CoeffId.INTEGER_TRIVIAL, i
                ), (g, m, i)


def test_p_star_mono_onto_torsion():
    for m in (3, 5, 7, 9, 11):
        for g in GROUPS:
            s = SpaceId("B" if g == GroupId.D8 else "F", m)
            assert p_star_profile(g, m, m).behavior == PStarBehavior.MONO_ONTO_TORSION
            assert cohomology(s, m).torsion_part() == classifying_cohomology(
                g, CoeffId.INTEGER_TRIVIAL, m
            ).torsion_part()


@pytest.mark.parametrize("m", [2, 3, 4, 7])
@pytest.mark.parametrize("g", ["Q8", "bogus", "d8"])
def test_p_star_profile_refuses_an_unknown_group_in_every_degree(g, m):
    # Degrees that read no classifying group (i <= m, i >= 2m - 1) are
    # refused too, with the error that classifying_cohomology raises.
    with pytest.raises(ValueError) as want:
        classifying_cohomology(g, CoeffId.INTEGER_TRIVIAL, 0)
    for i in range(2 * m + 2):
        with pytest.raises(ValueError) as got:
            p_star_profile(g, m, i)
        assert str(got.value) == str(want.value) == f"unknown group {g!r}", i


def test_p_star_profiles_of_the_known_groups_are_unchanged():
    # Every profile of D8 and Z2xZ2 over m = 2..12 and degrees 0..2m+1,
    # as their reprs, pinned before unknown groups were refused.
    cases = [(g, m, i) for g in GROUPS for m in range(2, 13) for i in range(2 * m + 2)]
    text = repr([(*case, p_star_profile(*case)) for case in cases])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "d81af445598aace16fb9de98cb4852348ef88e98f77b2b9d39b31470a67323c7"


# ---------------------------------------------------------------------------
# Global table checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("kind", ["B", "F"])
def test_global_checks(kind, m):
    report = global_checks(SpaceId(kind, m))
    assert report.passed, report.failures()


@pytest.mark.parametrize("m", [2, 3, 10, 11, 1000])
@pytest.mark.parametrize("kind", ["B", "F"])
def test_global_checks_build_each_group_once(kind, m, monkeypatch):
    # read through the closed form of the space's kind, which the line
    # looks up in the module globals
    calls = []
    closed_form = "_ordered" if kind == "F" else "_unordered"
    original = getattr(configcoh, closed_form)

    def counted(m, i):
        calls.append(i)
        return original(m, i)

    monkeypatch.setattr(configcoh, closed_form, counted)
    report = global_checks(SpaceId(kind, m))
    assert report.passed, report.failures()
    assert calls == list(range(2 * m + 3))


@pytest.mark.parametrize("m", [1, 2, 3, 6, 7, 40])
@pytest.mark.parametrize("kind", ["B", "F"])
def test_cohomology_line_is_the_degrees_in_turn(kind, m):
    s = SpaceId(kind, m)
    for top in range(-2, 2 * m + 4):
        assert cohomology_line(s, top) == [cohomology(s, i) for i in range(top + 1)], top
    assert GradedGroups(cohomology_line(s, 2 * m - 1)) == cohomology_table(s)


@pytest.mark.parametrize("m", [1, 2, 3, 10, 11, 877, 1000, 1001, 1999, 2001])
@pytest.mark.parametrize("kind", ["B", "F"])
def test_twisted_table_builds_each_group_once(kind, m, monkeypatch):
    # The closed forms and is_orientable are read through the module
    # globals, so a patched one (as the closed-form and duality-wrong-branch
    # mutants are) reaches the CLI's table.
    calls, orientations = [], []

    def counted(closed_form):
        def spy(m, i):
            calls.append(i)
            return closed_form(m, i)

        return spy

    def counted_orientation(s):
        orientations.append(s)
        return is_orientable(s)

    monkeypatch.setattr(configcoh, "_ordered", counted(configcoh._ordered))
    monkeypatch.setattr(configcoh, "_unordered", counted(configcoh._unordered))
    monkeypatch.setattr(configcoh, "is_orientable", counted_orientation)
    s = SpaceId(kind, m)
    table = cli._table_for(s, "twisted", False)
    assert len(orientations) == 1
    assert 2 * m <= len(calls) <= 2 * m + 1 and len(set(calls)) == len(calls)
    monkeypatch.undo()
    assert table == GradedGroups(twisted_cohomology(s, j) for j in range(s.support_bound + 1))


# One space at m = 10^4 takes ~0.8 s for the three families.
@settings(max_examples=5, deadline=None)
@given(st.integers(2, 10**4))
def test_table_checks_far_past_the_verify_range(m):
    for s in (B(m), F(m)):
        for check in (global_checks, duality_symmetry_check, rank_profile_check):
            report = check(s)
            assert report.passed, report.failures()


def test_table_support():
    table = cohomology_table(B(6))
    assert table.support_bound == 11
    assert table.group(0) == Z and table.group(11) == Z
