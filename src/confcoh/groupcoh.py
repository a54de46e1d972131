"""Closed-form graded cohomology of the two relevant classifying spaces.

The groups are the dihedral group of order 8 and its rank-2 elementary
abelian subgroup (whose classifying space is a product of two infinite
real projective spaces).  Coefficients are the integers, the sign
representation twisted by the orientation character (written Z_alpha),
or the field with two elements.

One dispatch, _closed_form, maps (group, coefficients) to the closed form
of that pair; it refuses an unknown group, then unknown coefficients, and
reads the forms from the module globals when it is called.  Through it
classifying_cohomology reads one degree, and classifying_table a whole
line: the pair is looked up, and the top degree checked, once per line.
"""

from .abelian import AbGroup2, Z, ZERO, require_int
from .report import VerificationReport

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


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


def _mod_two(i: int) -> AbGroup2:
    return AbGroup2.elementary(i + 1)


def _closed_form(g: str, c: str) -> "Callable[[int], AbGroup2]":
    """The closed form of H^i(Bg; c) for i >= 0; a group outside GROUPS is
    refused, then a coefficient outside COEFFS."""
    if g not in GROUPS:
        raise ValueError(f"unknown group {g!r}")
    if c not in COEFFS:
        raise ValueError(f"unknown coefficients {c!r}")
    if c == CoeffId.MOD_TWO:
        return _mod_two
    if g == GroupId.D8:
        return _d8_integral if c == CoeffId.INTEGER_TRIVIAL else _d8_twisted
    return _z2z2_integral if c == CoeffId.INTEGER_TRIVIAL else _z2z2_twisted


def classifying_cohomology(g: str, c: str, i: int) -> AbGroup2:
    """H^i of the classifying space of g with coefficients c; a group
    outside GROUPS or a coefficient outside COEFFS is refused, and then a
    degree that is not an int, bool included."""
    form = _closed_form(g, c)
    if type(i) is not int:
        raise TypeError(f"degree must be an int, got {i!r}")
    return form(i) if i >= 0 else ZERO


def classifying_table(g: str, c: str, n: int) -> list[AbGroup2]:
    """[classifying_cohomology(g, c, i) for i in range(n + 1)], refused as
    classifying_cohomology refuses it, with n for the degree: the closed
    form is looked up, and n checked, once for the whole line."""
    form = _closed_form(g, c)
    if type(n) is not int:
        raise TypeError(f"degree must be an int, got {n!r}")
    return [form(i) for i in range(n + 1)]


def uct_mod2_check(g: str, i_max: int) -> VerificationReport:
    """Mod-2 universal-coefficient consistency of the integral closed forms.

    dim(H^i tensor F2) + #(2-torsion of H^(i+1)) must equal the mod-2
    Betti number i + 1 in every degree i <= i_max, an int (bool refused).
    """
    require_int("i_max", i_max)
    report = VerificationReport(f"uct-mod2-{g}")
    integral = classifying_table(g, CoeffId.INTEGER_TRIVIAL, i_max + 1)
    mod_two = classifying_table(g, CoeffId.MOD_TWO, i_max)
    for i, dim in enumerate(mod_two):
        lhs = integral[i].two_rank_tensor + integral[i + 1].mult2_kernel_rank
        report.add("tensor+tor vs mod-2 dim", dim.mult2_kernel_rank, lhs, degree=i)
    return report
