"""Bockstein bookkeeping for the configuration-space tables.

Three independent consistency layers on top of the closed forms:

* the 2-rank recursion coming from the long exact sequence of
  multiplication by 2, solved top-down from the orientability boundary
  condition and compared against known closed forms;
* the first Bockstein page, whose rank in each degree is free rank plus
  neighbouring Z/4 counts, compared against the Sq1-homology computed by
  the presented-algebra engine;
* the splitting argument in degree m + 1 for m = 4a + 3, which pins the
  single Z/4 summand there.
"""

from .abelian import AbGroup2, require_int
from .configcoh import SpaceId, cohomology, cohomology_line, cohomology_table, mod2_dimension
from .f2algebra import config_mod2_ring
from .report import VerificationReport


class InconsistentRecursionError(ValueError):
    """The downward rank solve produced a negative rank."""


def _free_rank(s: SpaceId, i: int) -> int:
    """Free rank of H^i for 2 <= i <= 2m - 2, the degrees rank_recursion asks for."""
    return 1 if s.m % 2 and i == s.m else 0


def rank_recursion(s: SpaceId) -> dict[int, int]:
    """2-rank of the torsion of H^i for 2 <= i <= 2m-1, ascending in i.

    Solves coker(2_i) + ker(2_(i+1)) = mod-2 Betti number downwards.

    Grounded at the top: multiplication by 2 on H^(2m-1) has trivial kernel
    when the space is orientable (even m, H^(2m-1) = Z) and kernel of rank
    one otherwise (odd m, H^(2m-1) = Z/2).
    """
    m = s.m
    if m < 2:
        raise ValueError("rank recursion needs m >= 2")
    ranks: dict[int, int] = {}
    ranks[2 * m - 1] = 0 if m % 2 == 0 else 1
    for i in range(2 * m - 2, 1, -1):
        r = mod2_dimension(s, i) - ranks[i + 1] - _free_rank(s, i)
        if r < 0:
            raise InconsistentRecursionError(f"negative rank at degree {i}")
        ranks[i] = r
    return dict(sorted(ranks.items()))


def closed_form_rank(s: SpaceId, i: int) -> int | None:
    """Published closed form for the rank of H^(2m-l), 2 <= l <= m-1; a
    degree i that is not an int, bool included, is refused."""
    if type(i) is not int:
        raise TypeError(f"degree must be an int, got {i!r}")
    m = s.m
    ell = 2 * m - i
    if not 2 <= ell <= m - 1:
        return None
    if m % 2 == 0:
        return ell // 2 + 1 if ell % 2 == 0 else ell // 2
    return (ell + 1) // 2


def page1_expected(s: SpaceId, d: int) -> int:
    """Rank of the first Bockstein page in degree d, from the closed forms:
    free rank of H^d plus the Z/4 counts of H^d and H^(d+1)."""
    if d < 0 or d > 2 * s.m:
        raise ValueError(f"degree {d} outside 0..{2 * s.m}")
    return _page1_rank(cohomology(s, d), cohomology(s, d + 1))


def _page1_rank(here: AbGroup2, above: AbGroup2) -> int:
    """The first Bockstein page's rank in the degree of here, above being
    the group one degree up."""
    return here.free_rank + here.z4_count + above.z4_count


def page1_compare(s: SpaceId) -> VerificationReport:
    """Sq1-homology of the presented mod-2 ring against page1_expected.

    This re-derives the placement of every Z/4 summand in the integral
    tables from the ring presentations alone.
    """
    ring = config_mod2_ring(s.kind, s.m)
    report = VerificationReport("bockstein-page1", s.m)
    line = cohomology_line(s, 2 * s.m + 1)
    for d in range(2 * s.m + 1):
        report.add(
            "Sq1-homology rank",
            _page1_rank(line[d], line[d + 1]),
            ring.sq1_homology_rank(d),
            degree=d,
        )
    return report


def rank_profile_check(s: SpaceId) -> VerificationReport:
    """rank_recursion against both the closed forms and the tables."""
    report = VerificationReport("bockstein-ranks", s.m)
    table = cohomology_table(s).groups
    for i, r in rank_recursion(s).items():
        report.add("recursion vs table", table[i].mult2_kernel_rank, r, degree=i)
        known = closed_form_rank(s, i)
        if known is not None:
            report.add("recursion vs closed form", known, r, degree=i)
    return report


def sq1_split_check(a: int) -> VerificationReport:
    """For m = 4a + 3: degree-(m+1) Sq1-homology of the R summand is one-
    dimensional and the x*R summand is acyclic there, which forces
    H^(m+1) of the unordered space to be {2a}.  a is an int (bool
    refused)."""
    require_int("a", a)
    if a < 0:
        raise ValueError("a must be >= 0")
    m = 4 * a + 3
    report = VerificationReport("sq1-split", m)
    report.add(
        f"split ranks at degree {m + 1}",
        (1, 0),
        config_mod2_ring("B", m).split_sq1_homology_rank(m + 1),
        degree=m + 1,
    )
    report.add(
        f"H^{m + 1} of the unordered space",
        AbGroup2.elementary_with_z4(2 * a),
        cohomology(SpaceId("B", m), m + 1),
        degree=m + 1,
    )
    return report
