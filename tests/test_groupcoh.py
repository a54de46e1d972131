import re

import pytest

from confcoh.abelian import AbGroup2, Z
from confcoh.groupcoh import (
    COEFFS,
    GROUPS,
    CoeffId,
    GroupId,
    classifying_cohomology,
    classifying_table,
    uct_mod2_check,
)


@pytest.mark.parametrize(
    "gid, cid, message",
    [
        ("Q8", CoeffId.INTEGER_TRIVIAL, "unknown group 'Q8'"),
        ("Q8", "bogus", "unknown group 'Q8'"),
        (None, CoeffId.MOD_TWO, "unknown group None"),
        (GroupId.D8, "bogus", "unknown coefficients 'bogus'"),
        (GroupId.Z2xZ2, "Z/2", "unknown coefficients 'Z/2'"),
        (GroupId.D8, 1, "unknown coefficients 1"),
    ],
    ids=["Q8-Z", "Q8-bogus", "None-F2", "D8-bogus", "Z2xZ2-Z/2", "D8-1"],
)
@pytest.mark.parametrize("i", [-1, 0, 4, 2.0])  # checked before the degree
def test_unknown_group_or_coefficients_refused(gid, cid, message, i):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classifying_cohomology(gid, cid, i)


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2", None], ids=repr)
@pytest.mark.parametrize("cid", COEFFS)
@pytest.mark.parametrize("gid", GROUPS)
def test_a_non_int_degree_is_refused(gid, cid, bad):
    # True is not read as degree 1, nor 2.0 as 2
    with pytest.raises(TypeError, match=f"^degree must be an int, got {re.escape(repr(bad))}$"):
        classifying_cohomology(gid, cid, bad)


@pytest.mark.parametrize("cid", COEFFS)
@pytest.mark.parametrize("gid", GROUPS)
def test_classifying_table_is_the_line_of_degrees(gid, cid):
    for n in range(-1, 65):
        want = [classifying_cohomology(gid, cid, i) for i in range(n + 1)]
        assert classifying_table(gid, cid, n) == want, n


@pytest.mark.parametrize(
    "gid, cid, n, error, message",
    [
        ("Q8", "bogus", 2.0, ValueError, "unknown group 'Q8'"),
        (None, CoeffId.MOD_TWO, 3, ValueError, "unknown group None"),
        (GroupId.D8, "bogus", True, ValueError, "unknown coefficients 'bogus'"),
        (GroupId.Z2xZ2, 1, -1, ValueError, "unknown coefficients 1"),
        (GroupId.D8, CoeffId.INTEGER_TRIVIAL, True, TypeError, "degree must be an int, got True"),
        (GroupId.Z2xZ2, CoeffId.MOD_TWO, 4.0, TypeError, "degree must be an int, got 4.0"),
        (GroupId.D8, CoeffId.INTEGER_TWISTED, "4", TypeError, "degree must be an int, got '4'"),
    ],
    ids=["Q8-bogus", "None-F2", "D8-bogus", "Z2xZ2-1", "D8-True", "Z2xZ2-4.0", "D8-'4'"],
)
def test_classifying_table_refuses_as_classifying_cohomology(gid, cid, n, error, message):
    # an unknown group first, then unknown coefficients, then the degree
    for read in (classifying_table, classifying_cohomology):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            read(gid, cid, n)


def test_groups_and_coefficients_given_as_their_strings():
    # The constants are the strings themselves: "D8" with "Z" is the
    # dihedral integral group, not the twisted one, and "D8" is not Z2xZ2.
    assert g("D8", "Z", 4) == g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 4)
    assert g(GroupId.D8, "Z", 4) == AbGroup2.elementary_with_z4(2)
    assert g("D8", CoeffId.INTEGER_TRIVIAL, 4) == AbGroup2.elementary_with_z4(2)
    assert g("Z2xZ2", "Z_alpha", 4) == AbGroup2.elementary(2)
    assert g("D8", "F2", 4) == g("Z2xZ2", "F2", 4) == AbGroup2.elementary(5)


def g(gid, cid, i):
    return classifying_cohomology(gid, cid, i)


def test_dihedral_integral_values():
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, -1) == AbGroup2()
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 0) == Z
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 1) == AbGroup2()
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 2) == AbGroup2.elementary(2)
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 3) == AbGroup2.elementary(1)
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 4) == AbGroup2.elementary_with_z4(2)
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 8) == AbGroup2.elementary_with_z4(4)


def test_dihedral_twisted_values():
    assert g(GroupId.D8, CoeffId.INTEGER_TWISTED, 2) == AbGroup2.cyclic(2)
    assert g(GroupId.D8, CoeffId.INTEGER_TWISTED, 1) == AbGroup2.elementary(1)
    assert g(GroupId.D8, CoeffId.INTEGER_TWISTED, 3) == AbGroup2.elementary(2)
    assert g(GroupId.D8, CoeffId.INTEGER_TWISTED, 4) == AbGroup2.elementary(2)


def test_product_of_projective_spaces_values():
    assert g(GroupId.Z2xZ2, CoeffId.INTEGER_TRIVIAL, 6) == AbGroup2.elementary(4)
    assert g(GroupId.Z2xZ2, CoeffId.INTEGER_TRIVIAL, 0) == Z
    assert g(GroupId.Z2xZ2, CoeffId.INTEGER_TRIVIAL, 3) == AbGroup2.elementary(1)
    assert g(GroupId.Z2xZ2, CoeffId.INTEGER_TWISTED, 5) == AbGroup2.elementary(3)
    assert g(GroupId.Z2xZ2, CoeffId.INTEGER_TWISTED, 4) == AbGroup2.elementary(2)


def test_mod2_dimension_is_linear():
    for gid in GROUPS:
        for i in range(-2, 30):
            got = g(gid, CoeffId.MOD_TWO, i)
            assert got == AbGroup2.elementary(max(i + 1, 0))


def test_twisted_vanishes_in_degree_zero():
    for gid in GROUPS:
        assert g(gid, CoeffId.INTEGER_TWISTED, 0).is_trivial


def test_uct_mod2_consistency_through_degree_40():
    for gid in GROUPS:
        report = uct_mod2_check(gid, 40)
        assert report.passed, report.failures()


def test_uct_examples():
    # degree-4 check for the dihedral group: 3 + 2 = 5 = 4 + 1
    h4 = g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 4).two_rank_tensor
    h5 = g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 5).mult2_kernel_rank
    assert (h4, h5) == (3, 2) and h4 + h5 == 5
    # degree-3 check for the elementary group: 1 + 3 = 4
    h3 = g(GroupId.Z2xZ2, CoeffId.INTEGER_TRIVIAL, 3).two_rank_tensor
    h4 = g(GroupId.Z2xZ2, CoeffId.INTEGER_TRIVIAL, 4).mult2_kernel_rank
    assert (h3, h4) == (1, 3) and h3 + h4 == 4
    # degree-0 check: 1 + 0 = 1
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 0).two_rank_tensor == 1
    assert g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 1).mult2_kernel_rank == 0


def test_dihedral_periodicity():
    # shifting the degree by 4 adds two elementary summands and keeps the
    # Z/4 count, per residue class
    for i in range(1, 36):
        here = g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, i)
        there = g(GroupId.D8, CoeffId.INTEGER_TRIVIAL, i + 4)
        ones_here = sum(1 for e in here.torsion_exponents if e == 1)
        ones_there = sum(1 for e in there.torsion_exponents if e == 1)
        assert ones_there == ones_here + 2
        assert there.z4_count == here.z4_count
