"""Named verification suites driven by the command-line runner.

Each suite checks one m >= 2; run_suites loops over m and then the names.
"""

from . import bockstein, cartan_leray, configcoh, stiefel
from .configcoh import SpaceId
from .f2algebra import config_mod2_ring
from .groupcoh import GROUPS, GroupId, uct_mod2_check
from .report import VerificationReport


def _spaces(m: int) -> tuple[SpaceId, SpaceId]:
    return SpaceId("B", m), SpaceId("F", m)


def suite_uct(m: int) -> VerificationReport:
    report = VerificationReport()
    for s in _spaces(m):
        report.extend(configcoh.global_checks(s))
    return report


def suite_bockstein(m: int) -> VerificationReport:
    report = VerificationReport()
    for s in _spaces(m):
        report.extend(bockstein.rank_profile_check(s))
        report.extend(bockstein.page1_compare(s))
    return report


def suite_duality(m: int) -> VerificationReport:
    report = VerificationReport()
    for s in _spaces(m):
        report.extend(configcoh.duality_symmetry_check(s))
    return report


def suite_clss(m: int) -> VerificationReport:
    report = VerificationReport("clss", m)
    if m % 2 == 0:
        report.extend(cartan_leray.run_even(m, GroupId.D8)[1])
    elif m % 4 == 1:
        report.extend(cartan_leray.run_1mod4(m)[1])
    else:
        report.add_skip("unordered executor (page-2 pattern open)")
        if m == 3:
            report.extend(cartan_leray.m3_scenarios())
        report.extend(cartan_leray.fragment_check_3mod4((m - 3) // 4))
    report.extend(cartan_leray.run_ordered(m)[1])
    return report


def suite_sq1(m: int) -> VerificationReport:
    report = VerificationReport("sq1", m)
    if m % 4 == 3:
        report.extend(bockstein.sq1_split_check((m - 3) // 4))
    for s in _spaces(m):
        ring = config_mod2_ring(s.kind, m)
        ok = all(ring.sq1_square_is_zero(d) for d in range(2 * m))
        report.add_bool("Sq1 squares to zero", ok)
    return report


def suite_stiefel(m: int) -> VerificationReport:
    report = VerificationReport("stiefel", m)
    n = m + 1
    got = stiefel.sphere_bundle_abutment(n)
    for q in range(2 * n - 2):
        want = stiefel.stiefel_cohomology(n, q)
        report.add("sphere-bundle abutment", want, got.group(q), degree=q)
    gr = stiefel.oriented_grassmannian_groups(n)
    ok = all(
        gr.group(d).torsion_order_log2 == 0 for d in range(2 * n - 3)
    ) and all(gr.group(d).is_trivial for d in range(1, 2 * n - 4, 2))
    report.add_bool("oriented Grassmannian torsion-free on even degrees", ok)
    expected_total = n - 1 if n % 2 else n
    report.add("oriented Grassmannian total rank", expected_total, gr.total_free_rank())
    # by D8, by Z2xZ2 (one predicate answers both) and by O(2)
    finite = stiefel.quotient_orientable(n)
    report.add(
        "orientability",
        (n % 2 == 1, n % 2 == 1, n % 2 == 0),
        (finite, finite, stiefel.grassmannian_orientable(n)),
    )
    return report


_SUITES = {
    "uct": suite_uct,
    "bockstein": suite_bockstein,
    "duality": suite_duality,
    "clss": suite_clss,
    "sq1": suite_sq1,
    "stiefel": suite_stiefel,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names: list[str], m_range: range) -> VerificationReport:
    """Run each named suite for every m >= 2 in m_range, m by m, so that each
    m's rings are built once; each suite's checks are listed in turn.

    The uct suite first checks the classifying spaces once, through degree
    2 * max(m_range) + 2, unless m_range is empty.
    """
    parts = [VerificationReport() for _ in names]
    for name, part in zip(names, parts):
        if name == "uct" and m_range:
            for g in GROUPS:
                part.extend(uct_mod2_check(g, 2 * max(m_range) + 2))
    for m in (m for m in m_range if m >= 2):
        for name, part in zip(names, parts):
            part.extend(_SUITES[name](m))
    return VerificationReport(checks=[c for part in parts for c in part.checks])
