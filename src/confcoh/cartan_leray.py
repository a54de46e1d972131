"""Chart executors for the covering spectral sequences of the two quotients.

The free action of the dihedral group (or its rank-2 elementary subgroup)
on the Stiefel manifold V_{m+1,2} gives a first-quadrant spectral sequence
converging to the cohomology of the corresponding configuration space.
Its pages are concentrated on at most four horizontal lines, and all the
differentials that matter are injections whose effect is pinned by order
and 2-rank bookkeeping.  The executors here replay that bookkeeping on
pages held as plain data: each differential is written out where it acts,
as its source and target coordinates (a page-r differential maps (p, q) to
(p + r, q - r + 1)), every round checks the order arithmetic, and the
resulting abutment is compared against the closed-form tables.

The unordered case with m = 3 mod 4 has no general executor (the page-2
differential pattern is undecided); only the low-degree fragment and both
fixed m = 3 evolutions are replayed.
"""

from __future__ import annotations

from .abelian import AbGroup2, GradedGroups, Z, ZERO
from .chart import Chart, ChartLine
from .configcoh import SpaceId, cohomology, cohomology_table
from .bockstein import RankSequence, rank_recursion
from .groupcoh import CoeffId, GroupId, classifying_cohomology
from .report import VerificationReport


class RangeError(ValueError):
    pass


class InconsistentOrdersError(ValueError):
    """Order bookkeeping of a differential round failed."""


def _bg(g: GroupId, c: CoeffId, i: int) -> AbGroup2:
    return classifying_cohomology(g, c, i)


def build_e2(g: GroupId, m: int, p_max: int | None = None) -> Chart:
    """Starting page of the covering spectral sequence for V_{m+1,2}.

    Even m: integral lines at q = 0 and q = 2m-1 and a mod-2 line at q = m.
    Odd m: integral lines at q = 0 and q = m, twisted lines at q = m-1 and
    q = 2m-1 (the twist is the sign action on the cohomology of the fibre).
    """
    if m < 2:
        raise RangeError("m must be >= 2")
    if p_max is None:
        p_max = 2 * m + 1

    def line(c: CoeffId) -> ChartLine:
        return ChartLine.from_dict(
            c.value, {p: _bg(g, c, p) for p in range(p_max + 1)}
        )

    if m % 2 == 0:
        lines = {
            0: line(CoeffId.INTEGER_TRIVIAL),
            m: line(CoeffId.MOD_TWO),
            2 * m - 1: line(CoeffId.INTEGER_TRIVIAL),
        }
    else:
        lines = {
            0: line(CoeffId.INTEGER_TRIVIAL),
            m - 1: line(CoeffId.INTEGER_TWISTED),
            m: line(CoeffId.INTEGER_TRIVIAL),
            2 * m - 1: line(CoeffId.INTEGER_TWISTED),
        }
    return Chart.from_dict(2, lines)


def even_cokernel(m: int, ell: int) -> AbGroup2:
    """Cokernel of the injection <m-ell> -> H^(2m-ell)(BD8) that computes
    H^(2m-ell) of the unordered space for even m:

        {ell/2}        for ell = 0 mod 4,
        <ell/2 + 1>    for ell = 2 mod 4,
        <(ell-1)/2>    for odd ell.
    """
    if m % 2 != 0 or not 2 <= ell <= m - 1:
        raise RangeError(f"need even m and 2 <= ell <= m-1, got m={m}, ell={ell}")
    if ell % 4 == 0:
        coker = AbGroup2.elementary_with_z4(ell // 2)
    elif ell % 4 == 2:
        coker = AbGroup2.elementary(ell // 2 + 1)
    else:
        coker = AbGroup2.elementary((ell - 1) // 2)
    target = _bg(GroupId.D8, CoeffId.INTEGER_TRIVIAL, 2 * m - ell)
    if target.torsion_order_log2 != (m - ell) + coker.torsion_order_log2:
        raise InconsistentOrdersError(
            f"order mismatch for (m, ell) = ({m}, {ell})"
        )
    return coker


def _odd_closed_form(ell: int) -> AbGroup2:
    """Upper-half groups for the unordered space when m = 1 mod 4:
    <ell/2> (ell = 0 mod 4), {ell/2 - 1} (ell = 2 mod 4), <(ell+1)/2> (odd)."""
    if ell % 4 == 0:
        return AbGroup2.elementary(ell // 2)
    if ell % 4 == 2:
        return AbGroup2.elementary_with_z4(ell // 2 - 1)
    return AbGroup2.elementary((ell + 1) // 2)


def _compare_abutment(
    report: VerificationReport,
    suite: str,
    s: SpaceId,
    abutment: GradedGroups,
    torsion_only: bool = False,
) -> None:
    table = cohomology_table(s)
    for t in range(s.support_bound + 1):
        want, got = table.group(t), abutment.group(t)
        if torsion_only:
            report.add(
                suite, "abutment torsion", want.torsion_part(), got.torsion_part(),
                m=s.m, degree=t,
            )
            report.add(
                suite, "abutment free rank", want.free_rank, got.free_rank,
                m=s.m, degree=t,
            )
        else:
            report.add(suite, "abutment group", want, got, m=s.m, degree=t)


def _check_cokernel(
    report: VerificationReport,
    suite: str,
    m: int,
    ell: int,
    target: AbGroup2,
    image_log2: int,
    coker: AbGroup2,
    ranks: RankSequence,
) -> None:
    """Bookkeeping of one injection round into the base entry at 2m - ell:
    orders balance, Z/4 counts pass to the cokernel, and the cokernel's
    2-rank agrees with the rank recursion."""
    t = 2 * m - ell
    report.add(
        suite, "order balance", target.torsion_order_log2,
        image_log2 + coker.torsion_order_log2, m=m, degree=t,
    )
    # A Z/4 generator is never hit twice, so Z/4 counts pass to the cokernel.
    report.add(suite, "Z4 preserved", target.z4_count, coker.z4_count, m=m, degree=t)
    if ell >= 2:
        report.add(
            suite, "cokernel 2-rank vs rank recursion", ranks.rank(t),
            coker.stats().mult2_kernel_rank, m=m, degree=t,
        )


def _image_log2(src_mid: AbGroup2, src_top: AbGroup2) -> int:
    """log2 of the joint image order of the page-m source src_mid and the
    page-(m+1) source src_top; an integral class maps with image of order 2."""
    return src_mid.torsion_order_log2 + (
        1 if src_top.free_rank else src_top.torsion_order_log2
    )


def run_even(m: int, group: GroupId = GroupId.D8) -> tuple[GradedGroups, VerificationReport]:
    """Replay the even-m collapse: one round of injections off the mod-2
    line into the base line, cokernels by closed form, top degree from the
    surviving integral class of the fibre."""
    if m < 2 or m % 2:
        raise RangeError("run_even needs even m >= 2")
    s = SpaceId("B" if group is GroupId.D8 else "F", m)
    e2 = build_e2(group, m)
    ranks = rank_recursion(s)
    report = VerificationReport()
    suite = f"clss-even-{group.value}"
    groups: dict[int, AbGroup2] = {t: e2.entry(t, 0) for t in range(m + 1)}
    for ell in range(1, m):
        t = 2 * m - ell
        # d_(m+1): (m - ell - 1, m) -> (t, 0) injects <m - ell>.
        image_rank = m - ell
        source = e2.entry(m - ell - 1, m)
        target = e2.entry(t, 0)
        report.add(
            suite, "source rank", image_rank, source.stats().two_rank_tensor, m=m, degree=t
        )
        if ell == 1:
            coker = ZERO
        elif group is GroupId.D8:
            coker = even_cokernel(m, ell)
        else:
            coker = AbGroup2.elementary(target.stats().two_rank_tensor - image_rank)
        _check_cokernel(report, suite, m, ell, target, image_rank, coker, ranks)
        groups[t] = coker
    groups[2 * m - 1] = Z  # the fibre class at (0, 2m-1) survives
    abutment = GradedGroups.from_dict(s.support_bound, groups)
    _compare_abutment(report, suite, s, abutment)
    return abutment, report


def _halve_line(line: ChartLine) -> ChartLine:
    return ChartLine.from_dict(
        line.coefficient, {p: g.halve_z4s() for p, g in line.entries.items()}
    )


def run_1mod4(m: int) -> tuple[GradedGroups, VerificationReport]:
    """Replay the unordered case for m = 1 mod 4: the page-2 round halves
    every Z/4 on the two middle lines, then two rounds of injections hit
    the base line and the cokernels follow by order arithmetic."""
    if m < 5 or m % 4 != 1:
        raise RangeError("run_1mod4 needs m = 1 mod 4, m >= 5")
    s = SpaceId("B", m)
    e2 = build_e2(GroupId.D8, m)
    ranks = rank_recursion(s)
    report = VerificationReport()
    suite = "clss-1mod4"
    # Page 2: d2(kappa^i x_m) = 2 kappa^i alpha2 halves both middle lines;
    # the integral class at (0, m) survives with its generator doubled.
    lines = dict(e2.lines)
    lines[m - 1] = _halve_line(e2.line(m - 1))
    lines[m] = _halve_line(e2.line(m))
    e3 = Chart.from_dict(3, lines)
    groups: dict[int, AbGroup2] = {t: e3.entry(t, 0) for t in range(m)}
    groups[m] = Z + e3.entry(m, 0)  # fibre class at (0, m) plus the base
    for ell in range(1, m):
        t = 2 * m - ell
        # d_m: (m - ell, m - 1) -> (t, 0) and d_(m+1): (m - ell - 1, m) -> (t, 0).
        src_mid = e3.entry(m - ell, m - 1)
        src_top = e3.entry(m - ell - 1, m)
        report.add_bool(
            suite, "sources elementary after halving",
            src_mid.z4_count == 0 and src_top.z4_count == 0,
            m=m, degree=t,
        )
        coker = _odd_closed_form(ell)
        _check_cokernel(
            report, suite, m, ell, e3.entry(t, 0), _image_log2(src_mid, src_top),
            coker, ranks,
        )
        groups[t] = coker
    abutment = GradedGroups.from_dict(s.support_bound, groups)
    _compare_abutment(report, suite, s, abutment, torsion_only=True)
    return abutment, report


def run_odd_ordered(m: int) -> tuple[GradedGroups, VerificationReport]:
    """Replay the ordered case for odd m.  No page-2 step is needed (there
    is no Z/4 anywhere), so both injection rounds are forced by counting
    and the upper-half groups fall out of the order equations."""
    if m < 3 or m % 2 == 0:
        raise RangeError("run_odd_ordered needs odd m >= 3")
    s = SpaceId("F", m)
    e2 = build_e2(GroupId.Z2xZ2, m)
    report = VerificationReport()
    suite = "clss-odd-Z2xZ2"
    groups: dict[int, AbGroup2] = {t: e2.entry(t, 0) for t in range(m)}
    groups[m] = Z + e2.entry(m, 0)
    for ell in range(1, m):
        t = 2 * m - ell
        # d_m: (m - ell, m - 1) -> (t, 0) and d_(m+1): (m - ell - 1, m) -> (t, 0).
        src_mid = e2.entry(m - ell, m - 1)
        src_top = e2.entry(m - ell - 1, m)
        target = e2.entry(t, 0)
        if target.z4_count or src_mid.z4_count or src_top.z4_count:
            raise InconsistentOrdersError("unexpected Z/4 in the ordered case")
        coker_log2 = target.torsion_order_log2 - _image_log2(src_mid, src_top)
        if coker_log2 < 0:
            raise InconsistentOrdersError(
                f"sources larger than target in degree {t}"
            )
        groups[t] = AbGroup2.elementary(coker_log2)
    abutment = GradedGroups.from_dict(s.support_bound, groups)
    _compare_abutment(report, suite, s, abutment)
    return abutment, report


def run_ordered(m: int) -> tuple[GradedGroups, VerificationReport]:
    """Ordered-space executor for any m >= 2."""
    if m % 2 == 0:
        return run_even(m, GroupId.Z2xZ2)
    return run_odd_ordered(m)


# ---------------------------------------------------------------------------
# The two undecided evolutions for the unordered space of P^3
# ---------------------------------------------------------------------------

_WINDOW = 13  # filtration window wide enough to exhibit the periodic pattern


def _line_groups(chart: Chart, q: int) -> dict[int, AbGroup2]:
    return {p: chart.entry(p, q) for p in range(_WINDOW + 1)}


def _torsion_bits_on_diagonal(lines: dict[int, dict[int, AbGroup2]], t: int) -> tuple[int, int]:
    """(total torsion bits, torsion bits off the base line) on p + q = t."""
    total = off_base = 0
    for q, row in lines.items():
        p = t - q
        if p < 0 or p > _WINDOW:
            continue
        bits = row.get(p, ZERO).torsion_order_log2
        total += bits
        if q > 0:
            off_base += bits
    return total, off_base


def m3_scenarios() -> VerificationReport:
    """Replay both admissible evolutions of the m = 3 chart.

    The page-2 differential out of the integral fibre class is either zero
    (option A) or twice the canonical projection onto the Z/4 above the
    base (option B).  Both evolutions must converge to the known table; in
    particular total degree 4 carries torsion of order exactly 4 either as
    a nontrivial extension of two Z/2 entries (A) or as a genuine Z/4
    cokernel on the base line (B).
    """
    report = VerificationReport()
    s = SpaceId("B", 3)
    e2 = build_e2(GroupId.D8, 3, p_max=_WINDOW)
    table = cohomology_table(s)

    for option in ("A", "B"):
        suite = f"clss-m3-{option}"
        base = _line_groups(e2, 0)
        q2 = _line_groups(e2, 2)
        q3 = _line_groups(e2, 3)
        q5 = _line_groups(e2, 5)
        if option == "B":
            # Page 2 acts as in the 1 mod 4 case: both middle lines halve.
            q2 = {p: g.halve_z4s() for p, g in q2.items()}
            q3 = {p: g.halve_z4s() if p else g for p, g in q3.items()}

        try:
            if option == "A":
                survivors = _run_m3_option_a(base, q2, q3, q5, report, suite)
            else:
                survivors = _run_m3_option_b(base, q2, q3, q5, report, suite)
        except (ValueError, InconsistentOrdersError) as exc:
            report.add_bool(suite, f"evolution bookkeeping: {exc}", False, m=3)
            continue

        totals: dict[int, int] = {}
        frees: dict[int, int] = {}
        for (p, q), g in survivors.items():
            t = p + q
            totals[t] = totals.get(t, 0) + g.torsion_order_log2
            frees[t] = frees.get(t, 0) + g.free_rank
        for t in range(6):
            want = table.group(t)
            report.add(
                suite, "torsion order", 2**want.torsion_order_log2,
                2 ** totals.get(t, 0), m=3, degree=t,
            )
            report.add(
                suite, "free rank", want.free_rank, frees.get(t, 0), m=3, degree=t
            )
        report.add(
            suite, "degree-4 torsion order", 4, 2 ** totals.get(4, 0), m=3, degree=4
        )
    return report


def _run_m3_option_a(
    base: dict[int, AbGroup2],
    q2: dict[int, AbGroup2],
    q3: dict[int, AbGroup2],
    q5: dict[int, AbGroup2],
    report: VerificationReport,
    suite: str,
) -> dict[tuple[int, int], AbGroup2]:
    """Option A: trivial page-2 differential.  One page-3 round maps the
    twisted lines into the integral lines (injective after tensoring with
    Z/2, kernel exactly the doubled Z/4 part), then a page-4 round of
    isomorphisms clears everything except the known survivors."""
    # Page 3: (p, 2) -> (p+3, 0) and (p, 5) -> (p+3, 3), vertically in step.
    new_base, new_q3 = dict(base), dict(q3)
    new_q2 = {p: AbGroup2.elementary(g.z4_count) for p, g in q2.items()}
    new_q5 = {p: AbGroup2.elementary(g.z4_count) for p, g in q5.items()}
    for p in range(_WINDOW + 1):
        for src_row, dst in ((q2, new_base), (q5, new_q3)):
            src = src_row.get(p, ZERO)
            if src.is_trivial or p + 3 > _WINDOW:
                continue
            image_rank = src.stats().two_rank_tensor
            target = dst[p + 3]
            coker = target.without_elementary(image_rank)
            if coker.z4_count != target.z4_count:
                raise InconsistentOrdersError("page-3 image hit a Z/4 twice")
            dst[p + 3] = coker
    # Page 4: (p, 3) -> (p+4, 0) for p >= 2 and (p, 5) -> (p+4, 2) must be
    # isomorphisms; the integral class at (0, 3) maps with image of order 4.
    for p in range(2, _WINDOW + 1):
        if p + 4 > _WINDOW:
            new_q3[p] = ZERO  # cleared beyond the window
            continue
        report.add(
            suite,
            "page-4 isomorphism",
            new_base[p + 4],
            new_q3[p],
            m=3,
            degree=p + 3,
        )
        new_base[p + 4] = ZERO
        new_q3[p] = ZERO
    for p in range(_WINDOW + 1):
        if new_q5.get(p, ZERO).is_trivial:
            continue
        if p + 4 <= _WINDOW:
            report.add(
                suite, "page-4 isomorphism (upper)", new_q2[p + 4], new_q5[p],
                m=3, degree=p + 5,
            )
            new_q2[p + 4] = ZERO
        new_q5[p] = ZERO
    # d4: (0, 3) -> (4, 0) out of the fibre class, image a Z/4.
    target = new_base[4]
    report.add_bool(
        suite, "page-4 image of the fibre class is a Z/4",
        target.z4_count >= 1, m=3, degree=4,
    )
    new_base[4] = target.without_cyclic(2)
    report.add(
        suite, "degree-4 extension", 2,
        new_base[4].torsion_order_log2 + new_q2[2].torsion_order_log2,
        m=3, degree=4,
    )
    survivors: dict[tuple[int, int], AbGroup2] = {(0, 3): Z}
    for p, g in new_base.items():
        if not g.is_trivial:
            survivors[(p, 0)] = g
    for p, g in new_q2.items():
        if not g.is_trivial:
            survivors[(p, 2)] = g
    for p, g in new_q3.items():
        if not g.is_trivial and p != 0:
            survivors[(p, 3)] = g
    for p, g in new_q5.items():
        if not g.is_trivial:
            survivors[(p, 5)] = g
    return survivors


def _run_m3_option_b(
    base: dict[int, AbGroup2],
    q2: dict[int, AbGroup2],
    q3: dict[int, AbGroup2],
    q5: dict[int, AbGroup2],
    report: VerificationReport,
    suite: str,
) -> dict[tuple[int, int], AbGroup2]:
    """Option B: the page-2 differential halves the middle lines (done by
    the caller).  The low total degrees are then forced one differential at
    a time; above total degree 5 the elements pair off exactly, which is
    checked by a torsion-order balance along the diagonals."""
    new_base = dict(base)
    # (1,2) -> (4,0) and (2,2) -> (5,0), injectively.
    new_base[4] = new_base[4].without_elementary(q2[1].stats().two_rank_tensor)
    new_base[5] = new_base[5].without_elementary(q2[2].stats().two_rank_tensor)
    # (3,2) and (2,3) together exactly clear (6,0).
    report.add(
        suite,
        "total degree 6 pairing",
        base[6].torsion_order_log2,
        q2[3].torsion_order_log2 + q3[2].torsion_order_log2,
        m=3,
        degree=6,
    )
    # The undecided page-4 differential out of the integral fibre class:
    # its image has order 2, leaving a genuine Z/4 on the base.
    # d4: (0, 3) -> (4, 0) out of the fibre class, kernel 2Z.
    new_base[4] = new_base[4].without_elementary(1)
    report.add(
        suite, "degree-4 cokernel of the fibre differential",
        AbGroup2.cyclic(2), new_base[4], m=3, degree=4,
    )
    # Diagonal balance above total degree 5: sources on each diagonal must
    # exactly absorb what the previous diagonal left over.
    lines = {0: base, 2: q2, 3: q3, 5: q5}
    away = q2[3].torsion_order_log2 + q3[2].torsion_order_log2
    for t in range(6, 11):
        total, off_base = _torsion_bits_on_diagonal(lines, t)
        need = total - away
        report.add_bool(
            suite,
            "diagonal balance",
            0 <= need <= off_base,
            m=3,
            degree=t,
            expected=f"0..{off_base}",
            got=need,
        )
        away = need
    return {
        (0, 0): Z,
        (2, 0): new_base[2],
        (3, 0): new_base[3],
        (4, 0): new_base[4],
        (5, 0): new_base[5],
        (0, 3): Z,
    }


def fragment_check_3mod4(a: int) -> VerificationReport:
    """Low-degree fragment of the unordered chart for m = 4a + 3.

    Checks the three distinguished base entries, the forced injection on
    page m with cokernel {2a+1}, the 2-rank accounting that forces both
    differentials into degree m + 1 to be nonzero, and the resulting
    identification of the torsion of H^m.
    """
    m = 4 * a + 3
    s = SpaceId("B", m)
    report = VerificationReport()
    suite = "clss-3mod4-fragment"
    e2 = build_e2(GroupId.D8, m)
    star = e2.entry(m - 1, 0)
    bullet = e2.entry(m, 0)
    box = e2.entry(m + 1, 0)
    report.add(suite, "base at m-1", AbGroup2.elementary(2 * a + 2), star, m=m, degree=m - 1)
    report.add(suite, "base at m", AbGroup2.elementary(2 * a + 1), bullet, m=m, degree=m)
    report.add(
        suite, "base at m+1", AbGroup2.elementary_with_z4(2 * a + 2), box, m=m, degree=m + 1
    )
    report.add(
        suite, "twisted entries", (AbGroup2.elementary(1), AbGroup2.cyclic(2)),
        (e2.entry(1, m - 1), e2.entry(2, m - 1)), m=m,
    )
    # Torsion of H^(m+1) has 2-rank 2a+1, two less than the box: both the
    # page-m and the page-(m+1) differential must be nonzero.
    target_rank = rank_recursion(s).rank(m + 1)
    report.add(suite, "2-rank of H^(m+1)", 2 * a + 1, target_rank, m=m, degree=m + 1)
    # d_m: (1, m - 1) -> (m + 1, 0) injects <1>.
    dm_coker = box.without_elementary(1)
    report.add(
        suite, "page-m cokernel", AbGroup2.elementary_with_z4(2 * a + 1), dm_coker,
        m=m, degree=m + 1,
    )
    report.add(
        suite,
        "each differential drops the 2-rank by one",
        (box.stats().mult2_kernel_rank - 1, box.stats().mult2_kernel_rank - 2),
        (dm_coker.stats().mult2_kernel_rank, target_rank),
        m=m,
        degree=m + 1,
    )
    # The two admissible cokernels of the second differential.
    candidates = {dm_coker.without_elementary(1), dm_coker.without_cyclic(2)}
    report.add_bool(
        suite,
        "H^(m+1) among the two admissible cokernels",
        cohomology(s, m + 1) in candidates,
        m=m,
        degree=m + 1,
        expected="|".join(sorted(str(c) for c in candidates)),
        got=cohomology(s, m + 1),
    )
    # Injectivity of the page-m differential empties (1, m-1), so the base
    # entry at p = m is exactly the torsion of H^m.
    report.add(
        suite,
        "torsion of H^m is the classifying group",
        bullet,
        cohomology(s, m).torsion_part(),
        m=m,
        degree=m,
    )
    report.add(
        suite, "fibre class survives", Z, cohomology(s, m).free_part(), m=m, degree=m
    )
    return report
