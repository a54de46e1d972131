"""Closed-form cohomology of two-point configuration spaces of P^m.

The ordered space F(P^m, 2) and the unordered space B(P^m, 2) are closed
(2m-1)-manifolds up to homotopy (they deformation-retract onto quotients
of the Stiefel manifold V_{m+1,2}).  This module holds their integral
cohomology tables in all degrees, the mod-2 Betti numbers, homology via
universal coefficients, twisted cohomology via (twisted) Poincare duality
and the torsion linking pairing, and the degreewise behaviour of the map
to the relevant classifying space.

Notation used throughout: <k> is an elementary abelian 2-group of rank k
and {k} is <k> plus one Z/4 summand.
"""

from __future__ import annotations

from .abelian import AbGroup2, GradedGroups, Members, Value, Z, ZERO, uct_homology
from .groupcoh import CoeffId, GroupId, classifying_cohomology
from .report import VerificationReport
from . import stiefel

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


class DegreeOutOfRangeError(ValueError):
    pass


class SpaceId(Value, fields="kind m"):
    """kind is "F" (ordered pairs) or "B" (unordered pairs)."""

    __slots__ = ()

    def __new__(cls, kind: str, m: int) -> "SpaceId":
        if kind not in ("F", "B"):
            raise ValueError("kind must be 'F' or 'B'")
        if m < 1:
            raise ValueError("m must be >= 1")
        return tuple.__new__(cls, (kind, m))

    @property
    def support_bound(self) -> int:
        return 2 * self.m - 1

    @property
    def group(self) -> GroupId:
        return GroupId.D8 if self.kind == "B" else GroupId.Z2xZ2

    def __str__(self) -> str:
        return f"{self.kind}(P^{self.m},2)"


# ---------------------------------------------------------------------------
# The integral tables
# ---------------------------------------------------------------------------


def _ordered(m: int, i: int) -> AbGroup2:
    """H^i of F(P^m, 2) for i >= 0."""
    if i == 0:
        return Z
    if i < m or i == m and m % 2 == 0:  # below the middle dimension
        if i % 2 == 0:
            return AbGroup2.elementary(i // 2 + 1)
        return AbGroup2.elementary(i // 2)
    if m % 2 == 0:
        if i < 2 * m - 1:
            if i % 2 == 0:
                return AbGroup2.elementary(m + 1 - i // 2)
            return AbGroup2.elementary(m - 1 - i // 2)
        return Z if i == 2 * m - 1 else ZERO
    if i == m:  # odd m: the free class
        return Z + AbGroup2.elementary(m // 2)
    if i < 2 * m:
        return AbGroup2.elementary(m - i // 2)
    return ZERO


def _unordered(m: int, i: int) -> AbGroup2:
    """H^i of B(P^m, 2) for i >= 0."""
    if i == 0:
        return Z
    a, b = divmod(i, 4)
    if i < m or i == m and m % 2 == 0:  # below the middle dimension
        if b == 0:
            return AbGroup2.elementary_with_z4(2 * a)
        if b == 1:
            return AbGroup2.elementary(2 * a)
        if b == 2:
            return AbGroup2.elementary(2 * a + 2)
        return AbGroup2.elementary(2 * a + 1)
    if m % 2 == 0:
        if i < 2 * m - 1:
            if b == 0:
                return AbGroup2.elementary_with_z4(m - 2 * a)
            if b == 1:
                return AbGroup2.elementary(m - 2 * a - 1)
            if b == 2:
                return AbGroup2.elementary(m - 2 * a)
            return AbGroup2.elementary(m - 2 * a - 2)
        return Z if i == 2 * m - 1 else ZERO
    if i == m:  # odd m: the free class
        return Z + AbGroup2.elementary(m // 2)
    if i < 2 * m:
        if b == 0:
            return AbGroup2.elementary_with_z4(m - 1 - 2 * a)
        if b == 1:
            return AbGroup2.elementary(m - 2 * a)
        return AbGroup2.elementary(m - 1 - 2 * a)
    return ZERO


def cohomology(s: SpaceId, i: int) -> AbGroup2:
    """Integral cohomology H^i of the configuration space."""
    if i < 0:
        return ZERO
    return _ordered(s.m, i) if s.kind == "F" else _unordered(s.m, i)


def cohomology_table(s: SpaceId) -> GradedGroups:
    return GradedGroups(cohomology(s, i) for i in range(s.support_bound + 1))


def mod2_dimension(s: SpaceId, i: int) -> int:
    """Mod-2 Betti number: i+1 up to the middle, then 2m-i, then 0."""
    if i < 0:
        return 0
    if i <= s.m - 1:
        return i + 1
    if i <= 2 * s.m - 1:
        return 2 * s.m - i
    return 0


def homology(s: SpaceId) -> GradedGroups:
    return uct_homology(cohomology_table(s))


def is_orientable(s: SpaceId) -> bool:
    """Both spaces retract onto quotients of V_{m+1,2}; orientable iff
    m + 1 is odd."""
    return stiefel.quotient_orientable(s.m + 1)


def _twisted_dual(m: int, j: int, h: Callable[[int], AbGroup2]) -> AbGroup2:
    """Twisted H^j of a non-orientable space, from its integral groups h(i):
    Poincare duality against the (2m-1)-manifold gives the free rank of
    H^(2m-1-j), and the torsion linking pairing the torsion of H^(2m-j)."""
    return AbGroup2._of(h(2 * m - 1 - j).free_rank, h(2 * m - j).torsion)


def twisted_cohomology(s: SpaceId, j: int) -> AbGroup2:
    """H^j with coefficients twisted by the orientation character.

    Orientable case: the twist is trivial.  Non-orientable case: see
    `_twisted_dual`.
    """
    if j < 0 or j > s.support_bound:
        raise DegreeOutOfRangeError(f"degree {j} outside 0..{s.support_bound}")
    if is_orientable(s):
        return cohomology(s, j)
    return _twisted_dual(s.m, j, lambda i: cohomology(s, i))


def twisted_cohomology_table(s: SpaceId) -> GradedGroups:
    """The twisted groups in every degree, with the orientation read once.

    Non-orientable case: row j reads H^(2m-1-j), then H^(2m-j), which row
    j - 1 read first.  So each integral group is computed once and held
    only until its second read.
    """
    if is_orientable(s):
        return cohomology_table(s)
    held = {}

    def h(i: int) -> AbGroup2:
        g = held.pop(i, None)
        if g is None:
            g = held[i] = cohomology(s, i)
        return g

    return GradedGroups(_twisted_dual(s.m, j, h) for j in range(s.support_bound + 1))


def duality_symmetry_check(s: SpaceId) -> VerificationReport:
    """Torsion symmetry forced by the linking pairing.

    Orientable (even m): torsion of H^i equals torsion of H^(2m-i).
    Non-orientable (odd m): below the connectivity bound the twisted groups
    are the classifying-space ones, so torsion of H^(2m-j) must equal the
    twisted classifying group in degree j for j <= m - 2.
    """
    m = s.m
    report = VerificationReport("duality", m)
    if is_orientable(s):
        for i in range(2 * m):
            report.add(
                f"torsion H^{i} vs H^{2 * m - i}",
                cohomology(s, i).torsion_part(),
                cohomology(s, 2 * m - i).torsion_part(),
                degree=i,
            )
    else:
        for j in range(m - 1):
            report.add(
                f"torsion H^{2 * m - j} vs twisted classifying H^{j}",
                classifying_cohomology(s.group, CoeffId.INTEGER_TWISTED, j),
                cohomology(s, 2 * m - j).torsion_part(),
                degree=j,
            )
    return report


# ---------------------------------------------------------------------------
# Behaviour of the classifying map
# ---------------------------------------------------------------------------


class PStarBehavior(Members):
    ISO = "iso"
    EPI_NONZERO_KERNEL = "epi"
    MONO_ONTO_TORSION = "mono-onto-torsion"
    ZERO = "zero"
    OPEN = "open"


class PStarProfile(Value, fields="behavior kernel_rank"):
    """The behaviour of the classifying map in one degree, with the rank of
    its kernel where that is known."""

    __slots__ = ()

    def __new__(cls, behavior: PStarBehavior, kernel_rank: int | None = None) -> PStarProfile:
        return tuple.__new__(cls, (behavior, kernel_rank))


def p_star_profile(g: GroupId, m: int, i: int) -> PStarProfile:
    """Degreewise behaviour of the classifying map on integral cohomology.

    For the dihedral group with m = 3 mod 4 the surjectivity above the
    middle dimension is not settled; those degrees come back OPEN and no
    suite asserts anything there.
    """
    s = SpaceId("B" if g is GroupId.D8 else "F", m)
    open_band = g is GroupId.D8 and m % 4 == 3 and m > 1

    def rank_of_kernel() -> int | None:
        bg = classifying_cohomology(g, CoeffId.INTEGER_TRIVIAL, i)
        space = cohomology(s, i)
        return bg.torsion_order_log2 - space.torsion_order_log2

    if m % 2 == 0:
        if i <= m:
            return PStarProfile(PStarBehavior.ISO)
        if i < 2 * m - 1:
            return PStarProfile(PStarBehavior.EPI_NONZERO_KERNEL, rank_of_kernel())
        if i == 2 * m - 1:
            return PStarProfile(PStarBehavior.ZERO, rank_of_kernel())
        return PStarProfile(PStarBehavior.ZERO)
    if i < m:
        return PStarProfile(PStarBehavior.ISO)
    if i == m:
        return PStarProfile(PStarBehavior.MONO_ONTO_TORSION)
    if i <= 2 * m - 1:
        if open_band:
            return PStarProfile(PStarBehavior.OPEN)
        return PStarProfile(PStarBehavior.EPI_NONZERO_KERNEL, rank_of_kernel())
    return PStarProfile(PStarBehavior.ZERO)


def global_checks(s: SpaceId) -> VerificationReport:
    """Whole-table sanity: free ranks sit at 0 and at 2m-1 (even m) or m
    (odd m); the top group matches the orientability of the quotient; the
    mod-2 universal-coefficient count holds degreewise; the Euler
    characteristic vanishes; and no torsion exceeds order 4 (order 2 for
    the ordered space)."""
    if s.m < 2:
        raise ValueError("global checks need m >= 2")
    m = s.m
    report = VerificationReport("global", m)
    table = [cohomology(s, i) for i in range(2 * m + 3)]  # H^0 .. H^(2m+2)
    free_degree = 2 * m - 1 if m % 2 == 0 else m
    free_profile = {i: g.free_rank for i, g in enumerate(table[: 2 * m]) if g.free_rank}
    report.add("free ranks", {0: 1, free_degree: 1}, free_profile)
    report.add(
        "top group vs quotient orientability",
        stiefel.top_group_V_quotient(m + 1),
        table[2 * m - 1],
        degree=2 * m - 1,
    )
    for i in range(2 * m + 2):
        lhs = table[i].two_rank_tensor + table[i + 1].mult2_kernel_rank
        report.add("mod-2 UCT", mod2_dimension(s, i), lhs, degree=i)
    euler = sum((-1) ** i * g.free_rank for i, g in enumerate(table[: 2 * m]))
    report.add("Euler characteristic", 0, euler)
    bound = 2 if s.kind == "B" else 1
    worst = max((e for g in table[: 2 * m] for e, _ in g.torsion), default=0)
    report.add_bool(
        f"torsion exponent <= {bound}",
        worst <= bound,
        expected=f"<= {bound}",
        got=worst,
    )
    return report
