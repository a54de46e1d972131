"""Closed-form graded cohomology of the two relevant classifying spaces.

The groups are the dihedral group of order 8 and its rank-2 elementary
abelian subgroup (whose classifying space is a product of two infinite
real projective spaces).  Coefficients are the integers, the sign
representation twisted by the orientation character (written Z_alpha),
or the field with two elements.
"""

from .abelian import AbGroup2, Z, ZERO
from .report import VerificationReport


class GroupId:
    D8 = "D8"
    Z2xZ2 = "Z2xZ2"


GROUPS = (GroupId.D8, GroupId.Z2xZ2)


class CoeffId:
    INTEGER_TRIVIAL = "Z"
    INTEGER_TWISTED = "Z_alpha"
    MOD_TWO = "F2"


COEFFS = (CoeffId.INTEGER_TRIVIAL, CoeffId.INTEGER_TWISTED, CoeffId.MOD_TWO)


def _d8_integral(i: int) -> AbGroup2:
    if i == 0:
        return Z
    a, b = divmod(i, 4)
    if b == 0:
        return AbGroup2.elementary_with_z4(2 * a)  # a > 0 here
    if b == 1:
        return AbGroup2.elementary(2 * a)
    if b == 2:
        return AbGroup2.elementary(2 * a + 2)
    return AbGroup2.elementary(2 * a + 1)


def _d8_twisted(i: int) -> AbGroup2:
    a, b = divmod(i, 4)
    if b == 0:
        return AbGroup2.elementary(2 * a)
    if b == 1:
        return AbGroup2.elementary(2 * a + 1)
    if b == 2:
        return AbGroup2.elementary_with_z4(2 * a)
    return AbGroup2.elementary(2 * a + 2)


def _z2z2_integral(i: int) -> AbGroup2:
    if i == 0:
        return Z
    if i % 2 == 0:
        return AbGroup2.elementary(i // 2 + 1)
    return AbGroup2.elementary((i - 1) // 2)


def _z2z2_twisted(i: int) -> AbGroup2:
    if i % 2 == 0:
        return AbGroup2.elementary(i // 2)
    return AbGroup2.elementary((i + 1) // 2)


def classifying_cohomology(g: str, c: str, i: int) -> AbGroup2:
    """H^i of the classifying space of g with coefficients c; a group
    outside GROUPS or a coefficient outside COEFFS is refused, and then a
    degree that is not an int, bool included."""
    if g not in GROUPS:
        raise ValueError(f"unknown group {g!r}")
    if c not in COEFFS:
        raise ValueError(f"unknown coefficients {c!r}")
    if type(i) is not int:
        raise TypeError(f"degree must be an int, got {i!r}")
    if i < 0:
        return ZERO
    if c == CoeffId.MOD_TWO:
        return AbGroup2.elementary(i + 1)
    if g == GroupId.D8:
        return _d8_integral(i) if c == CoeffId.INTEGER_TRIVIAL else _d8_twisted(i)
    return _z2z2_integral(i) if c == CoeffId.INTEGER_TRIVIAL else _z2z2_twisted(i)


def uct_mod2_check(g: str, i_max: int) -> VerificationReport:
    """Mod-2 universal-coefficient consistency of the integral closed forms.

    dim(H^i tensor F2) + #(2-torsion of H^(i+1)) must equal the mod-2
    Betti number i + 1 in every degree.
    """
    report = VerificationReport(f"uct-mod2-{g}")
    for i in range(i_max + 1):
        lhs = (
            classifying_cohomology(g, CoeffId.INTEGER_TRIVIAL, i).two_rank_tensor
            + classifying_cohomology(g, CoeffId.INTEGER_TRIVIAL, i + 1).mult2_kernel_rank
        )
        dim = classifying_cohomology(g, CoeffId.MOD_TWO, i).mult2_kernel_rank
        report.add("tensor+tor vs mod-2 dim", dim, lhs, degree=i)
    return report
