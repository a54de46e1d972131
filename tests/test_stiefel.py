import pytest

from confcoh.abelian import AbGroup2, Z
from confcoh.stiefel import (
    ActionSign,
    UnsupportedDegreeError,
    d8_action_sign,
    grassmannian_orientable,
    oriented_grassmannian_groups,
    quotient_orientable,
    sphere_bundle_abutment,
    sphere_bundle_sss_e2,
    stiefel_cohomology,
    top_group_V_quotient,
)


def test_stiefel_cohomology_examples():
    assert stiefel_cohomology(5, 4) == AbGroup2.elementary(1)
    assert stiefel_cohomology(4, 5) == Z
    assert stiefel_cohomology(6, 1) == AbGroup2()
    assert stiefel_cohomology(2, 0) == AbGroup2(free_rank=2)
    assert stiefel_cohomology(2, 1) == AbGroup2(free_rank=2)


def test_action_sign_examples():
    assert d8_action_sign(4, 2) is ActionSign.MINUS
    assert d8_action_sign(4, 3) is ActionSign.PLUS
    assert d8_action_sign(5, 7) is ActionSign.PLUS
    with pytest.raises(UnsupportedDegreeError):
        d8_action_sign(6, 1)


def test_action_sign_trivial_on_order_two_groups():
    for n in range(3, 21, 2):
        assert d8_action_sign(n, n - 1) is ActionSign.PLUS


def test_sphere_bundle_page():
    page, coeff = sphere_bundle_sss_e2(4)
    assert coeff == 0
    assert page[0, 0] == Z and page[3, 2] == Z
    page, coeff = sphere_bundle_sss_e2(5)
    assert coeff == 2
    assert sorted({q for _, q in page}) == [0, 3]


@pytest.mark.parametrize("n", range(3, 21))
def test_sphere_bundle_abutment_matches_closed_form(n):
    got = sphere_bundle_abutment(n)
    for q in range(2 * n - 2):
        assert got.group(q) == stiefel_cohomology(n, q), (n, q)


def test_abutment_examples():
    ab = sphere_bundle_abutment(3)
    assert ab.group(0) == Z and ab.group(3) == Z
    assert ab.group(2) == AbGroup2.elementary(1)
    ab = sphere_bundle_abutment(4)
    assert [q for q in range(6) if not ab.group(q).is_trivial] == [0, 2, 3, 5]


def test_euler_characteristic_vanishes():
    for n in range(3, 21):
        chi = sum(
            (-1) ** q * stiefel_cohomology(n, q).free_rank for q in range(2 * n - 2)
        )
        assert chi == 0


def test_orientability_predicates():
    assert quotient_orientable(5) is True
    assert grassmannian_orientable(6) is True
    assert quotient_orientable(6) is False
    assert quotient_orientable(2) is True
    for n in range(3, 21):
        assert quotient_orientable(n) is (n % 2 == 1)
        assert grassmannian_orientable(n) is (n % 2 == 0)


def test_top_group_examples():
    assert top_group_V_quotient(5) == Z
    assert top_group_V_quotient(6) == AbGroup2.elementary(1)
    assert top_group_V_quotient(4) == AbGroup2.elementary(1)


def test_oriented_grassmannian_small_cases():
    # n = 3: the 2-sphere
    gr = oriented_grassmannian_groups(3)
    assert gr.group(0) == Z and gr.group(2) == Z and gr.group(1).is_trivial
    # n = 5: Z in degrees 0, 2, 4, 6
    gr = oriented_grassmannian_groups(5)
    for d in range(7):
        want = Z if d in (0, 2, 4, 6) else AbGroup2()
        assert gr.group(d) == want
    # n = 6: rank two in the middle degree
    gr = oriented_grassmannian_groups(6)
    assert gr.group(4) == AbGroup2(free_rank=2)
    for d in (0, 2, 6, 8):
        assert gr.group(d) == Z


@pytest.mark.parametrize("n", range(3, 13))
def test_oriented_grassmannian_structure(n):
    gr = oriented_grassmannian_groups(n)
    total = 0
    for d in range(2 * n - 3):
        group = gr.group(d)
        assert group.torsion_exponents == (), (n, d)
        if d % 2 == 1 or d > 2 * n - 4:
            assert group.is_trivial
        total += group.free_rank
    # rank 2 occurs exactly once, in the middle degree, and only for even n
    ranks = [gr.group(d).free_rank for d in range(2 * n - 3)]
    if n % 2 == 0:
        assert ranks[n - 2] == 2
        assert sum(1 for r in ranks if r == 2) == 1
    else:
        assert all(r <= 1 for r in ranks)
    assert total == (n - 1 if n % 2 == 1 else n)
