"""Named verification suites driven by the command-line runner."""

from __future__ import annotations

from . import bockstein, cartan_leray, configcoh, stiefel
from .configcoh import SpaceId
from .f2algebra import config_mod2_ring
from .groupcoh import GroupId, uct_mod2_check
from .report import VerificationReport

SUITE_NAMES = ("uct", "bockstein", "duality", "clss", "sq1", "stiefel")


def _spaces(m: int) -> tuple[SpaceId, SpaceId]:
    return SpaceId("B", m), SpaceId("F", m)


def suite_uct(m_range: range) -> VerificationReport:
    report = VerificationReport()
    for g in GroupId:
        report.extend(uct_mod2_check(g, 2 * max(m_range) + 2))
    for m in m_range:
        if m >= 2:
            for s in _spaces(m):
                report.extend(configcoh.global_checks(s))
    return report


def suite_bockstein(m_range: range) -> VerificationReport:
    report = VerificationReport()
    for m in m_range:
        if m < 2:
            continue
        for s in _spaces(m):
            report.extend(bockstein.rank_profile_check(s))
            report.extend(bockstein.page1_compare(s))
    return report


def suite_duality(m_range: range) -> VerificationReport:
    report = VerificationReport()
    for m in m_range:
        if m < 2:
            continue
        for s in _spaces(m):
            report.extend(configcoh.duality_symmetry_check(s))
    return report


def suite_clss(m_range: range) -> VerificationReport:
    report = VerificationReport()
    for m in m_range:
        if m < 2:
            continue
        if m % 2 == 0:
            report.extend(cartan_leray.run_even(m, GroupId.D8)[1])
        elif m % 4 == 1:
            report.extend(cartan_leray.run_1mod4(m)[1])
        else:
            report.add_skip(
                "clss", "unordered executor (page-2 pattern open)", m=m
            )
            if m == 3:
                report.extend(cartan_leray.m3_scenarios())
            if (m - 3) % 4 == 0:
                report.extend(cartan_leray.fragment_check_3mod4((m - 3) // 4))
        report.extend(cartan_leray.run_ordered(m)[1])
    return report


def suite_sq1(m_range: range) -> VerificationReport:
    report = VerificationReport()
    for m in m_range:
        if m % 4 == 3:
            report.extend(bockstein.sq1_split_check((m - 3) // 4))
        if m >= 2:
            for s in _spaces(m):
                ring = config_mod2_ring(s.kind, m)
                ok = all(ring.sq1_square_is_zero(d) for d in range(2 * m))
                report.add_bool("sq1", "Sq1 squares to zero", ok, m=m)
    return report


def suite_stiefel(m_range: range) -> VerificationReport:
    report = VerificationReport()
    for m in m_range:
        n = m + 1
        if n < 3:
            continue
        want = {
            q: stiefel.stiefel_cohomology(n, q) for q in range(2 * n - 2)
        }
        got = stiefel.sphere_bundle_abutment(n)
        for q in range(2 * n - 2):
            report.add(
                "stiefel", "sphere-bundle abutment", want[q], got.group(q), m=m, degree=q
            )
        gr = stiefel.oriented_grassmannian_groups(n)
        ok = all(
            gr.group(d).torsion_order_log2 == 0 for d in range(2 * n - 3)
        ) and all(gr.group(d).is_trivial for d in range(1, 2 * n - 4, 2))
        report.add_bool(
            "stiefel", "oriented Grassmannian torsion-free on even degrees", ok, m=m
        )
        expected_total = n - 1 if n % 2 else n
        report.add(
            "stiefel",
            "oriented Grassmannian total rank",
            expected_total,
            gr.total_free_rank(),
            m=m,
        )
        report.add(
            "stiefel",
            "orientability",
            (n % 2 == 1, n % 2 == 1, n % 2 == 0),
            (
                stiefel.quotient_orientable(n, stiefel.Subgroup.D8),
                stiefel.quotient_orientable(n, stiefel.Subgroup.Z2xZ2),
                stiefel.quotient_orientable(n, stiefel.Subgroup.O2),
            ),
            m=m,
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


def run_suites(names: list[str], m_range: range) -> VerificationReport:
    report = VerificationReport()
    for name in names:
        report.extend(_SUITES[name](m_range))
    return report
