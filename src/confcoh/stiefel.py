"""Cohomology of the Stiefel manifold of 2-frames and its finite quotients.

Covers the integral cohomology of V_{n,2}, the signs of the induced
dihedral action, the two-row Serre page of the sphere bundle over the
sphere, orientability of the quotients, and the graded groups of the
oriented Grassmannian of 2-planes computed from its presented ring.
"""

from .abelian import AbGroup2, GradedGroups, Z, ZERO, group_from_presentation


class ActionSign:
    PLUS = 1
    MINUS = -1


class UnsupportedDegreeError(ValueError):
    """The action sign is only defined on a nontrivial cohomology group."""


def _check_n(n: int) -> None:
    """Refuse an n that is not an int, bool included, before any range
    check compares it: 5.0 and True would pass those checks."""
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")


def stiefel_cohomology(n: int, q: int) -> AbGroup2:
    """H^q(V_{n,2}).  Exterior on classes of degrees n-2 and n-1 for even n;
    for odd n only degrees 0 and 2n-3 carry a Z, with a Z2 in degree n-1.
    An n or q that is not an int, bool included, is refused."""
    _check_n(n)
    if type(q) is not int:
        raise TypeError(f"degree must be an int, got {q!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        # V_{2,2} is two disjoint circles.
        return AbGroup2(free_rank=2) if q in (0, 1) else ZERO
    if n % 2 == 0:
        return Z if q in (0, n - 2, n - 1, 2 * n - 3) else ZERO
    if q in (0, 2 * n - 3):
        return Z
    if q == n - 1:
        return AbGroup2.elementary(1)
    return ZERO


def d8_action_sign(n: int, q: int) -> int:
    """Common sign of the three reflection-type generators on H^q(V_{n,2})."""
    _check_n(n)
    if n < 3:
        raise ValueError("n must be >= 3")
    if stiefel_cohomology(n, q).is_trivial:
        raise UnsupportedDegreeError(f"H^{q}(V_({n},2)) is trivial")
    if n % 2 == 0 and q in (n - 2, 2 * n - 3):
        return ActionSign.MINUS
    return ActionSign.PLUS


def sphere_bundle_sss_e2(n: int) -> tuple[dict[tuple[int, int], AbGroup2], int]:
    """Two-row page for the unit tangent bundle of the (n-1)-sphere, as a
    dict from (p, q) to its entries.

    Four Z entries; the only candidate differential is multiplication by
    the Euler characteristic of the base sphere (0 for even n, 2 for odd).
    """
    _check_n(n)
    if n < 3:
        raise ValueError("n must be >= 3")
    page = {(p, q): Z for q in (0, n - 2) for p in (0, n - 1)}
    coefficient = 0 if n % 2 == 0 else 2
    return page, coefficient


def sphere_bundle_abutment(n: int) -> GradedGroups:
    """Total cohomology the two-row page converges to."""
    page, coefficient = sphere_bundle_sss_e2(n)
    groups = [ZERO] * (2 * n - 2)
    for (p, q), g in page.items():
        if coefficient and (p, q) == (0, n - 2):
            continue  # injects into the base row
        if coefficient and (p, q) == (n - 1, 0):
            g = AbGroup2.elementary(1)  # cokernel of multiplication by 2
        groups[p + q] += g
    return GradedGroups(groups)


def quotient_orientable(n: int) -> bool:
    """Is the quotient of V_{n,2} by D8, or by its subgroup Z2xZ2, an
    orientable manifold?  The two quotients give the same answer."""
    _check_n(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        return True  # the quotient is a circle
    return n % 2 == 1


def grassmannian_orientable(n: int) -> bool:
    """Is the quotient of V_{n,2} by O(2), the unoriented Grassmannian of
    2-planes in R^n, orientable?  Exactly when n is even."""
    _check_n(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    return n % 2 == 0


def top_group_V_quotient(n: int) -> AbGroup2:
    """Top cohomology group (degree 2n-3) of V_{n,2} modulo D8 or Z2xZ2."""
    _check_n(n)
    if n < 3:
        raise ValueError("n must be >= 3")
    return Z if quotient_orientable(n) else AbGroup2.elementary(1)


def _quadric_ring(n: int) -> tuple[list[int], list[dict[tuple[int, int], int]]]:
    """Generator degrees and relations of the oriented-Grassmannian ring.

    Relations are integer polynomials in two generators u (the high-degree
    class) and z (the Euler class), encoded {(i, j): coefficient} for the
    monomial u^i z^j.
    """
    if n % 2 == 1:
        a = (n - 1) // 2
        degrees = [n - 1, 2]  # u = the middle-degree class, z
        relations = [
            {(2, 0): 1},  # u^2
            {(1, a): 1},  # u z^a
            {(0, a): 1, (1, 0): -2},  # z^a - 2u
        ]
    else:
        a = n // 2
        eps = 1 if a % 2 == 1 else 0
        degrees = [2 * a - 2, 2]  # u = the Poincare-dual class, z
        rel1 = {(2, 0): 1}
        if eps:
            rel1[(1, a - 1)] = -1  # u^2 - u z^(a-1)
        relations = [
            rel1,
            {(0, a): 1, (1, 1): -2},  # z^a - 2 u z
        ]
    return degrees, relations


def oriented_grassmannian_groups(n: int) -> GradedGroups:
    """Integral cohomology groups of the Grassmannian of oriented 2-planes
    in R^n, computed degreewise from the presented ring by Smith reduction."""
    _check_n(n)
    if n < 3:
        raise ValueError("n must be >= 3")
    degrees, relations = _quadric_ring(n)
    top = 2 * n - 4

    def monomials(d: int) -> list[tuple[int, int]]:
        out = []
        for i in range(d // degrees[0] + 1):
            rest = d - i * degrees[0]
            if rest % degrees[1] == 0:
                out.append((i, rest // degrees[1]))
        return sorted(out, reverse=True)

    groups = []
    for d in range(top + 1):
        monos = monomials(d)
        if not monos:
            groups.append(ZERO)
            continue
        index = {mono: k for k, mono in enumerate(monos)}
        rows = []
        for rel in relations:
            rel_deg = max(i * degrees[0] + j * degrees[1] for (i, j) in rel)
            if rel_deg > d:
                continue
            for u in monomials(d - rel_deg):
                row = [0] * len(monos)
                for (i, j), c in rel.items():
                    row[index[(i + u[0], j + u[1])]] += c
                rows.append(row)
        if rows:
            # Generators are the monomials, one presentation column per relation.
            groups.append(group_from_presentation(list(zip(*rows))))
        else:
            groups.append(AbGroup2(free_rank=len(monos)))
    return GradedGroups(groups)
