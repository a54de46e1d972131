"""Executors for the covering spectral sequences of the two quotients.

The free action of the dihedral group (or its rank-2 elementary subgroup)
on the Stiefel manifold V_{m+1,2} gives a first-quadrant spectral sequence
converging to the cohomology of the corresponding configuration space.
Its pages are concentrated on at most four horizontal lines, and all the
differentials that matter are injections whose effect is pinned by order
and 2-rank bookkeeping.  The executors here replay that bookkeeping on
pages held as plain data: each differential is written out where it acts,
as its source and target coordinates (a page-r differential maps (p, q) to
(p + r, q - r + 1)), every round checks the order arithmetic, and the
resulting abutment is compared against the closed-form tables.  The
even, 1 mod 4 and odd-ordered executors share one round loop and differ
only in their page and round rule.

A page is a dict from (p, q) to its entry; a missing key stands for the
zero group.

The unordered case with m = 3 mod 4 has no general executor (the page-2
differential pattern is undecided); only the low-degree fragment and both
fixed m = 3 evolutions are replayed.
"""

from . import stiefel
from .abelian import AbGroup2, GradedGroups, Z, ZERO, require_int
from .configcoh import SpaceId, cohomology, cohomology_table
from .bockstein import rank_recursion
from .groupcoh import CoeffId, GroupId, classifying_table
from .report import VerificationReport

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


Page = dict[tuple[int, int], AbGroup2]


class RangeError(ValueError):
    pass


class InconsistentOrdersError(ValueError):
    """Order bookkeeping of a differential round failed."""


def build_e2(g: str, m: int, p_max: int | None = None) -> Page:
    """Starting page of the covering spectral sequence for V_{m+1,2}:
    E2^{p,q} = H^p(BG; H^q(V_{m+1,2})), one line per nonzero fibre group,
    each read as one classifying line through column p_max.

    A Z/2 in the fibre gives a mod-2 line; a Z gives an integral line, twisted
    where the dihedral action on it has sign MINUS.
    """
    require_int("m", m)
    if m < 2:
        raise RangeError("m must be >= 2")
    if p_max is None:
        p_max = 2 * m + 1
    require_int("p_max", p_max)
    n = m + 1
    page = {}
    for q in range(2 * n - 2):
        fibre = stiefel.stiefel_cohomology(n, q)
        if fibre == AbGroup2.elementary(1):
            c = CoeffId.MOD_TWO
        elif fibre == Z:
            plus = stiefel.d8_action_sign(n, q) == stiefel.ActionSign.PLUS
            c = CoeffId.INTEGER_TRIVIAL if plus else CoeffId.INTEGER_TWISTED
        else:
            continue
        for p, entry in enumerate(classifying_table(g, c, p_max)):
            if not entry.is_trivial:
                page[p, q] = entry
    return page


def even_cokernel(m: int, ell: int) -> AbGroup2:
    """Cokernel of the injection <m-ell> -> H^(2m-ell)(BD8) that computes
    H^(2m-ell) of the unordered space for even m:

        {ell/2}        for ell = 0 mod 4,
        <ell/2 + 1>    for ell = 2 mod 4,
        <(ell-1)/2>    for odd ell.

    m and ell are ints (bool refused).
    """
    require_int("m", m)
    require_int("ell", ell)
    if m % 2 != 0 or not 2 <= ell <= m - 1:
        raise RangeError(f"need even m and 2 <= ell <= m-1, got m={m}, ell={ell}")
    if ell % 4 == 0:
        return AbGroup2.elementary_with_z4(ell // 2)
    if ell % 4 == 2:
        return AbGroup2.elementary(ell // 2 + 1)
    return AbGroup2.elementary((ell - 1) // 2)


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
    s: SpaceId,
    abutment: GradedGroups,
    torsion_only: bool = False,
) -> None:
    table = cohomology_table(s)
    for t in range(s.support_bound + 1):
        want, got = table.group(t), abutment.group(t)
        if torsion_only:
            report.add(
                "abutment torsion", want.torsion_part(), got.torsion_part(), degree=t
            )
            report.add("abutment free rank", want.free_rank, got.free_rank, degree=t)
        else:
            report.add("abutment group", want, got, degree=t)


def _check_cokernel(
    report: VerificationReport,
    m: int,
    ell: int,
    target: AbGroup2,
    image_log2: int,
    coker: AbGroup2,
    ranks: dict[int, int],
) -> None:
    """Bookkeeping of one injection round into the base entry at 2m - ell:
    orders balance, Z/4 counts pass to the cokernel, and the cokernel's
    2-rank agrees with the rank recursion."""
    t = 2 * m - ell
    report.add(
        "order balance", target.torsion_order_log2,
        image_log2 + coker.torsion_order_log2, degree=t,
    )
    # A Z/4 generator is never hit twice, so Z/4 counts pass to the cokernel.
    report.add("Z4 preserved", target.z4_count, coker.z4_count, degree=t)
    if ell >= 2:
        report.add(
            "cokernel 2-rank vs rank recursion", ranks[t], coker.mult2_kernel_rank,
            degree=t,
        )


def _image_log2(src_mid: AbGroup2, src_top: AbGroup2) -> int:
    """log2 of the joint image order of the page-m source src_mid and the
    page-(m+1) source src_top; an integral class maps with image of order 2."""
    return src_mid.torsion_order_log2 + (
        1 if src_top.free_rank else src_top.torsion_order_log2
    )


def _halve_middle_lines(page: Page, m: int) -> Page:
    """The page after d2(kappa^i x_m) = 2 kappa^i alpha2: every Z/4 on the
    two middle lines q = m - 1 and q = m halves, and the integral class at
    (0, m) survives with its generator doubled."""
    return {(p, q): g.halve_z4s() if q in (m - 1, m) else g for (p, q), g in page.items()}


def _replay_rounds(
    family: str, s: SpaceId, page: Page, rule: "Callable[..., AbGroup2]",
    torsion_only: bool = False,
) -> tuple[GradedGroups, VerificationReport]:
    """Replay the injection rounds of page into the base line.  Degrees 0..m
    keep the base plus the free part of (0, m), the fibre class at odd m.
    For ell = 1..m-1, in order, rule(report, ell, src_mid, src_top, target)
    adds the family's checks and returns H^(2m-ell).  (0, 2m-1) survives."""
    m = s.m
    report = VerificationReport(family, m)
    groups = [page.get((t, 0), ZERO) for t in range(m + 1)]
    groups[m] += page.get((0, m), ZERO).free_part()
    groups += [ZERO] * (m - 1)  # degrees m + 1 .. 2m - 1, filled in below
    for ell in range(1, m):
        t = 2 * m - ell
        # d_m: (m - ell, m - 1) -> (t, 0) and d_(m+1): (m - ell - 1, m) -> (t, 0).
        src_mid = page.get((m - ell, m - 1), ZERO)
        src_top = page.get((m - ell - 1, m), ZERO)
        groups[t] = rule(report, ell, src_mid, src_top, page.get((t, 0), ZERO))
    groups[2 * m - 1] += page.get((0, 2 * m - 1), ZERO)
    abutment = GradedGroups(groups)
    _compare_abutment(report, s, abutment, torsion_only)
    return abutment, report


def run_even(m: int, group: str = GroupId.D8) -> tuple[GradedGroups, VerificationReport]:
    """Replay the even-m collapse: one round of injections off the mod-2
    line into the base line, cokernels by closed form, top degree from the
    surviving integral class of the fibre."""
    if m < 2 or m % 2:
        raise RangeError("run_even needs even m >= 2")
    s = SpaceId("B" if group == GroupId.D8 else "F", m)
    ranks = rank_recursion(s)

    def rule(report, ell, src_mid, src_top, target):
        # Only d_(m+1) acts: it injects <m - ell>.
        image_rank = m - ell
        report.add("source rank", image_rank, src_top.two_rank_tensor, degree=2 * m - ell)
        if ell == 1:
            coker = ZERO
        elif group == GroupId.D8:
            coker = even_cokernel(m, ell)
        else:
            coker = AbGroup2.elementary(target.two_rank_tensor - image_rank)
        _check_cokernel(report, m, ell, target, image_rank, coker, ranks)
        return coker

    return _replay_rounds(f"clss-even-{group}", s, build_e2(group, m), rule)


def run_1mod4(m: int) -> tuple[GradedGroups, VerificationReport]:
    """Replay the unordered case for m = 1 mod 4: the page-2 round halves
    every Z/4 on the two middle lines, then two rounds of injections hit
    the base line and the cokernels follow by order arithmetic."""
    if m < 5 or m % 4 != 1:
        raise RangeError("run_1mod4 needs m = 1 mod 4, m >= 5")
    s = SpaceId("B", m)
    e3 = _halve_middle_lines(build_e2(GroupId.D8, m), m)
    ranks = rank_recursion(s)

    def rule(report, ell, src_mid, src_top, target):
        report.add_bool(
            "sources elementary after halving",
            src_mid.z4_count == 0 and src_top.z4_count == 0,
            degree=2 * m - ell,
        )
        coker = _odd_closed_form(ell)
        image_log2 = _image_log2(src_mid, src_top)
        _check_cokernel(report, m, ell, target, image_log2, coker, ranks)
        return coker

    return _replay_rounds("clss-1mod4", s, e3, rule, torsion_only=True)


def run_odd_ordered(m: int) -> tuple[GradedGroups, VerificationReport]:
    """Replay the ordered case for odd m.  No page-2 step is needed (there
    is no Z/4 anywhere), so both injection rounds are forced by counting
    and the upper-half groups fall out of the order equations."""
    if m < 3 or m % 2 == 0:
        raise RangeError("run_odd_ordered needs odd m >= 3")

    def rule(report, ell, src_mid, src_top, target):
        if target.z4_count or src_mid.z4_count or src_top.z4_count:
            raise InconsistentOrdersError("unexpected Z/4 in the ordered case")
        coker_log2 = target.torsion_order_log2 - _image_log2(src_mid, src_top)
        if coker_log2 < 0:
            raise InconsistentOrdersError(
                f"sources larger than target in degree {2 * m - ell}"
            )
        return AbGroup2.elementary(coker_log2)

    page = build_e2(GroupId.Z2xZ2, m)
    return _replay_rounds("clss-odd-Z2xZ2", SpaceId("F", m), page, rule)


def run_ordered(m: int) -> tuple[GradedGroups, VerificationReport]:
    """Ordered-space executor for any m >= 2, an int (bool refused)."""
    require_int("m", m)
    if m % 2 == 0:
        return run_even(m, GroupId.Z2xZ2)
    return run_odd_ordered(m)


# ---------------------------------------------------------------------------
# The two undecided evolutions for the unordered space of P^3
# ---------------------------------------------------------------------------

_WINDOW = 13  # filtration window wide enough to exhibit the periodic pattern


def _torsion_bits_on_diagonal(page: Page, t: int) -> tuple[int, int]:
    """(total torsion bits, torsion bits off the base line) on p + q = t."""
    total = off_base = 0
    for (p, q), g in page.items():
        if p + q == t:
            total += g.torsion_order_log2
            if q > 0:
                off_base += g.torsion_order_log2
    return total, off_base


def m3_scenarios() -> VerificationReport:
    """Replay both admissible evolutions of the m = 3 page.

    The page-2 differential out of the integral fibre class is either zero
    (option A) or twice the canonical projection onto the Z/4 above the
    base (option B).  Both evolutions must converge to the known table; in
    particular total degree 4 carries torsion of order exactly 4 either as
    a nontrivial extension of two Z/2 entries (A) or as a genuine Z/4
    cokernel on the base line (B).
    """
    s = SpaceId("B", 3)
    e2 = build_e2(GroupId.D8, 3, p_max=_WINDOW)
    table = cohomology_table(s)

    parts = []
    for option, run in (("A", _run_m3_option_a), ("B", _run_m3_option_b)):
        report = VerificationReport(f"clss-m3-{option}", 3)
        parts.append(report)
        try:
            survivors = run(e2, report)
        except ValueError as exc:
            report.add_bool(f"evolution bookkeeping: {exc}", False)
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
                "torsion order", 2**want.torsion_order_log2, 2 ** totals.get(t, 0),
                degree=t,
            )
            report.add("free rank", want.free_rank, frees.get(t, 0), degree=t)
        report.add("degree-4 torsion order", 4, 2 ** totals.get(4, 0), degree=4)
    return VerificationReport(checks=[c for part in parts for c in part.checks])


def _run_m3_option_a(page: Page, report: VerificationReport) -> Page:
    """Option A: trivial page-2 differential.  One page-3 round maps the
    twisted lines into the integral lines (injective after tensoring with
    Z/2, kernel exactly the doubled Z/4 part), then a page-4 round of
    isomorphisms clears everything except the known survivors."""
    # Page 3: (p, 2) -> (p+3, 0) and (p, 5) -> (p+3, 3), vertically in step.
    new = {
        (p, q): AbGroup2.elementary(g.z4_count) if q in (2, 5) else g
        for (p, q), g in page.items()
    }
    for p in range(_WINDOW + 1):
        for q in (2, 5):
            src = page.get((p, q), ZERO)
            if src.is_trivial or p + 3 > _WINDOW:
                continue
            target = new.get((p + 3, q - 2), ZERO)
            coker = target.without_elementary(src.two_rank_tensor)
            new[p + 3, q - 2] = coker
    # Page 4: (p, 3) -> (p+4, 0) for p >= 2 and (p, 5) -> (p+4, 2) must be
    # isomorphisms; the integral class at (0, 3) maps with image of order 4.
    # Sources whose target lies beyond the window are just cleared.
    for p in range(2, _WINDOW + 1):
        src = new.pop((p, 3), ZERO)
        if p + 4 <= _WINDOW:
            report.add(
                "page-4 isomorphism", new.pop((p + 4, 0), ZERO), src, degree=p + 3
            )
    for p in range(_WINDOW + 1):
        src = new.pop((p, 5), ZERO)
        if not src.is_trivial and p + 4 <= _WINDOW:
            report.add(
                "page-4 isomorphism (upper)", new.pop((p + 4, 2), ZERO), src,
                degree=p + 5,
            )
    # d4: (0, 3) -> (4, 0) out of the fibre class, image a Z/4.
    target = new.get((4, 0), ZERO)
    report.add_bool(
        "page-4 image of the fibre class is a Z/4", target.z4_count >= 1, degree=4
    )
    new[4, 0] = target.without_cyclic(2)
    report.add(
        "degree-4 extension", 2,
        new[4, 0].torsion_order_log2 + new.get((2, 2), ZERO).torsion_order_log2,
        degree=4,
    )
    return new


def _run_m3_option_b(page: Page, report: VerificationReport) -> Page:
    """Option B: the page-2 differential halves the middle lines.  The low
    total degrees are then forced one differential at a time; above total
    degree 5 the elements pair off exactly, which is checked by a
    torsion-order balance along the diagonals."""
    page = _halve_middle_lines(page, 3)  # as in the 1 mod 4 case
    new = dict(page)
    # (1,2) -> (4,0) and (2,2) -> (5,0), injectively.
    for p in (1, 2):
        new[p + 3, 0] = page.get((p + 3, 0), ZERO).without_elementary(
            page.get((p, 2), ZERO).two_rank_tensor
        )
    # (3,2) and (2,3) together exactly clear (6,0).
    away = (
        page.get((3, 2), ZERO).torsion_order_log2
        + page.get((2, 3), ZERO).torsion_order_log2
    )
    report.add(
        "total degree 6 pairing",
        page.get((6, 0), ZERO).torsion_order_log2,
        away,
        degree=6,
    )
    # The undecided page-4 differential out of the integral fibre class:
    # its image has order 2, leaving a genuine Z/4 on the base.
    # d4: (0, 3) -> (4, 0) out of the fibre class, kernel 2Z.
    new[4, 0] = new[4, 0].without_elementary(1)
    report.add(
        "degree-4 cokernel of the fibre differential", AbGroup2.cyclic(2), new[4, 0],
        degree=4,
    )
    # Diagonal balance above total degree 5: sources on each diagonal must
    # exactly absorb what the previous diagonal left over.
    for t in range(6, 11):
        total, off_base = _torsion_bits_on_diagonal(page, t)
        need = total - away
        report.add_bool(
            "diagonal balance",
            0 <= need <= off_base,
            degree=t,
            expected=f"0..{off_base}",
            got=need,
        )
        away = need
    # The base line up to degree 5 and the fibre class at (0, 3) survive.
    base = {(p, q): g for (p, q), g in new.items() if q == 0 and p <= 5}
    return base | {(0, 3): page.get((0, 3), ZERO)}


def _less_one_summand(group: AbGroup2, exponent: int) -> AbGroup2 | None:
    """group less one Z/2^exponent summand, or None if it has none (on a
    wrong page)."""
    if exponent not in dict(group.torsion):
        return None
    return group.without_cyclic(exponent)


def fragment_check_3mod4(a: int) -> VerificationReport:
    """Low-degree fragment of the unordered page for m = 4a + 3, a an int
    (bool refused).

    Checks the three distinguished base entries, the forced injection on
    page m with cokernel {2a+1}, the 2-rank accounting that forces both
    differentials into degree m + 1 to be nonzero, and the resulting
    identification of the torsion of H^m.
    """
    require_int("a", a)
    m = 4 * a + 3
    s = SpaceId("B", m)
    report = VerificationReport("clss-3mod4-fragment", m)
    e2 = build_e2(GroupId.D8, m)
    star = e2.get((m - 1, 0), ZERO)
    bullet = e2.get((m, 0), ZERO)
    box = e2.get((m + 1, 0), ZERO)
    report.add("base at m-1", AbGroup2.elementary(2 * a + 2), star, degree=m - 1)
    report.add("base at m", AbGroup2.elementary(2 * a + 1), bullet, degree=m)
    report.add("base at m+1", AbGroup2.elementary_with_z4(2 * a + 2), box, degree=m + 1)
    report.add(
        "twisted entries", (AbGroup2.elementary(1), AbGroup2.cyclic(2)),
        (e2.get((1, m - 1), ZERO), e2.get((2, m - 1), ZERO)),
    )
    # Torsion of H^(m+1) has 2-rank 2a+1, two less than the box: both the
    # page-m and the page-(m+1) differential must be nonzero.
    target_rank = rank_recursion(s)[m + 1]
    report.add("2-rank of H^(m+1)", 2 * a + 1, target_rank, degree=m + 1)
    # d_m: (1, m - 1) -> (m + 1, 0) injects <1>.  A wrong page may lack the
    # summand a differential removes: that is a failed check, not an error.
    dm_coker = _less_one_summand(box, 1)
    report.add(
        "page-m cokernel", AbGroup2.elementary_with_z4(2 * a + 1), dm_coker,
        degree=m + 1,
    )
    if dm_coker is not None:
        report.add(
            "each differential drops the 2-rank by one",
            (box.mult2_kernel_rank - 1, box.mult2_kernel_rank - 2),
            (dm_coker.mult2_kernel_rank, target_rank),
            degree=m + 1,
        )
        # The two admissible cokernels of the second differential.
        candidates = {
            c for c in (_less_one_summand(dm_coker, e) for e in (1, 2)) if c is not None
        }
        report.add_bool(
            "H^(m+1) among the two admissible cokernels",
            cohomology(s, m + 1) in candidates,
            degree=m + 1,
            expected="|".join(sorted(str(c) for c in candidates)),
            got=cohomology(s, m + 1),
        )
    # Injectivity of the page-m differential empties (1, m-1), so the base
    # entry at p = m is exactly the torsion of H^m.
    report.add(
        "torsion of H^m is the classifying group",
        bullet,
        cohomology(s, m).torsion_part(),
        degree=m,
    )
    report.add(
        "fibre class survives", e2.get((0, m), ZERO), cohomology(s, m).free_part(),
        degree=m,
    )
    return report
