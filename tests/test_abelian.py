import math
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confcoh import abelian
from confcoh.abelian import (
    AbGroup2,
    GradedGroups,
    NonTwoPrimaryError,
    Z,
    ZERO,
    group_from_presentation,
    smith_normal_form,
    uct_cohomology,
    uct_homology,
)


def elem(k):
    return AbGroup2.elementary(k)


def brace(k):
    return AbGroup2.elementary_with_z4(k)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_cyclic_presentation():
    assert smith_normal_form([[2]]) == ([2], 1)


def test_snf_already_diagonal():
    assert smith_normal_form([[2, 0], [0, 4]]) == ([2, 4], 2)


def test_snf_upper_triangular():
    # by-hand row/column reduction: [[2,2],[0,4]] -> diag(2, 4)
    assert smith_normal_form([[2, 2], [0, 4]]) == ([2, 4], 2)


def test_snf_empty_matrix():
    assert smith_normal_form([]) == ([], 0)
    assert smith_normal_form([[], [], []]) == ([], 0)


@pytest.mark.parametrize("reader", [smith_normal_form, group_from_presentation])
@pytest.mark.parametrize(
    "rows",
    [[[2, 0], [4]], [[2], [0, 4]], [[2], []], [[], [2]]],
    ids=["short-row", "long-row", "empty-after-full", "full-after-empty"],
)
def test_snf_rejects_ragged_rows(reader, rows):
    with pytest.raises(ValueError, match="ragged rows"):
        reader(rows)


def _det_expansion(mat):
    size = len(mat)
    if size == 0:
        return 1
    if size == 1:
        return mat[0][0]
    total = 0
    for j in range(size):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * _det_expansion(minor)
    return total


def _minor_gcd_invariant_factors(rows, n, m):
    """Independent oracle: d_k = gcd of all k-by-k minors, factors d_k/d_(k-1)."""
    factors = []
    prev = 1
    for k in range(1, min(n, m) + 1):
        g = 0
        for rsel in combinations(range(n), k):
            for csel in combinations(range(m), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(_det_expansion(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


# A shape of 0..6 rows by 0..6 columns, empty matrices included, and the rows.
matrices = st.integers(0, 6).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(st.integers(-8, 8), min_size=cols, max_size=cols), max_size=6),
        st.just(cols),
    )
)


@settings(max_examples=500, deadline=None)
@given(matrices)
def test_snf_against_minor_gcd_oracle(matrix):
    rows, cols = matrix
    expected = _minor_gcd_invariant_factors(rows, len(rows), cols)
    got, rank = smith_normal_form(rows)
    assert got == expected
    assert rank == len(expected)


def test_snf_idempotent_on_own_diagonal():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        diag, rank = smith_normal_form(rows)
        square = [[0] * rank for _ in range(rank)]
        for i, d in enumerate(diag):
            square[i][i] = d
        again, _ = smith_normal_form(square)
        assert again == diag


# ---------------------------------------------------------------------------
# Groups from presentations
# ---------------------------------------------------------------------------


def test_presentation_examples():
    assert group_from_presentation([[2]]) == elem(1)
    assert group_from_presentation([[4]]) == AbGroup2.cyclic(2)
    # one generator, no relations
    assert group_from_presentation([[]]) == Z


def test_presentation_rejects_odd_torsion():
    with pytest.raises(NonTwoPrimaryError):
        group_from_presentation([[6]])
    with pytest.raises(NonTwoPrimaryError):
        group_from_presentation([[3]])


def test_presentation_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        g = AbGroup2(
            rng.randint(0, 3),
            tuple(rng.choice((1, 1, 2)) for _ in range(rng.randint(0, 4))),
        )
        # 2^e on the diagonal for each Z/2^e, then one zero row per Z
        exponents = g.torsion_exponents
        n = len(exponents)
        rows = [[2**e if j == i else 0 for j in range(n)] for i, e in enumerate(exponents)]
        rows += [[0] * n for _ in range(g.free_rank)]
        assert group_from_presentation(rows) == g


# ---------------------------------------------------------------------------
# Group arithmetic
# ---------------------------------------------------------------------------


def test_direct_sum_examples():
    assert elem(2) + AbGroup2.cyclic(2) == brace(2)
    assert Z + elem(2) == AbGroup2(1, (1, 1))
    assert ZERO + brace(3) == brace(3)


def test_canonical_equality():
    assert AbGroup2(0, (2, 1, 1)) == AbGroup2(0, (1, 1, 2))
    assert AbGroup2(0, (1, 2)) != AbGroup2(0, (1, 1))


def stats(g):
    return g.two_rank_tensor, g.mult2_kernel_rank, g.torsion_order_log2, g.z4_count


def test_stats_examples():
    assert stats(brace(2)) == (3, 3, 4, 1)
    assert stats(Z + elem(2)) == (3, 2, 2, 0)
    assert stats(brace(4)) == (5, 5, 6, 1)


def test_shorthand_round_trip():
    assert elem(3).torsion_exponents == (1, 1, 1)
    assert brace(3).torsion_exponents == (1, 1, 1, 2)
    assert str(elem(3)) == "<3>"
    assert str(brace(3)) == "{3}"
    assert str(AbGroup2.cyclic(2)) == "{0}"
    assert str(Z + elem(2)) == "Z + <2>"
    assert str(AbGroup2(2)) == "Z^2"
    assert str(ZERO) == "0"


def test_repr_text_pinned():
    # verify output prints tuples of groups, and so their repr
    assert repr(ZERO) == "AbGroup2(free_rank=0, torsion_exponents=())"
    assert repr(elem(1)) == "AbGroup2(free_rank=0, torsion_exponents=(1,))"
    assert repr(AbGroup2.cyclic(2)) == "AbGroup2(free_rank=0, torsion_exponents=(2,))"
    assert repr(Z + brace(2)) == "AbGroup2(free_rank=1, torsion_exponents=(1, 1, 2))"
    assert repr(AbGroup2(3, (3, 1, 3))) == "AbGroup2(free_rank=3, torsion_exponents=(1, 3, 3))"
    assert str((elem(1), AbGroup2.cyclic(2))) == (
        "(AbGroup2(free_rank=0, torsion_exponents=(1,)), "
        "AbGroup2(free_rank=0, torsion_exponents=(2,)))"
    )


def test_values_are_immutable():
    g = brace(2)
    with pytest.raises(AttributeError):
        g.free_rank = 1
    with pytest.raises(AttributeError):
        del g.torsion
    assert g == brace(2)


# ---------------------------------------------------------------------------
# The value layer against a reference model
#
# The model of a group is a free rank and a plain ascending tuple with one
# exponent per cyclic summand, the representation the values had before
# they stored exponent multiplicities.
# ---------------------------------------------------------------------------


def _model(g):
    return g.free_rank, g.torsion_exponents


def _model_str(free, exps):
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    if exps:
        ones = sum(1 for e in exps if e == 1)
        if all(e == 1 for e in exps):
            parts.append(f"<{ones}>")
        elif exps == (1,) * ones + (2,):
            parts.append(f"{{{ones}}}")
        else:
            parts.extend(f"Z{2**e}" for e in exps)
    return " + ".join(parts) if parts else "0"


def _str_frozen(g):
    """AbGroup2.__str__ as it read before it wrote the common shapes in one
    pass: a list of parts, and the exponent-1 count read through a dict."""
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    if g.torsion:
        ones = dict(g.torsion).get(1, 0)
        rest = g.torsion[1:] if ones else g.torsion
        if not rest:
            parts.append(f"<{ones}>")
        elif rest == ((2, 1),):
            parts.append(f"{{{ones}}}")
        else:
            for e, k in g.torsion:
                parts += [f"Z{2**e}"] * k
    return " + ".join(parts) if parts else "0"


@settings(max_examples=300)
@given(st.integers(0, 3), st.dictionaries(st.integers(1, 5), st.integers(0, 6)))
@example(0, {2: 1})  # a lone Z/4: {0}
@example(2, {1: 4, 2: 1})  # Z^2 + {4}
@example(1, {1: 2, 2: 2, 5: 1})  # summand by summand
def test_str_matches_the_frozen_formatting(free, multiplicities):
    g = AbGroup2(free, [e for e, k in multiplicities.items() for _ in range(k)])
    assert str(g) == _str_frozen(g)


# Exponents above 2 come out of Smith normal form; 1 and 2 are the paper's.
exponent_lists = st.lists(st.sampled_from((1, 1, 1, 2, 2, 3, 5)), max_size=12)
models = st.tuples(st.integers(0, 3), exponent_lists.map(lambda es: tuple(sorted(es))))


def _group(model):
    return AbGroup2(*model)


@given(models)
def test_model_construction_and_stats(model):
    free, exps = model
    g = _group(model)
    assert _model(g) == model
    assert AbGroup2(free, exps[::-1]) == g
    assert g.is_trivial == (free == 0 and not exps)
    assert g.torsion_order_log2 == sum(exps)
    assert g.z4_count == sum(1 for e in exps if e >= 2)
    assert g.two_rank_tensor == free + len(exps)
    assert g.mult2_kernel_rank == len(exps)
    assert _model(g.torsion_part()) == (0, exps)
    assert _model(g.free_part()) == (free, ())
    assert str(g) == _model_str(free, exps)
    assert repr(g) == f"AbGroup2(free_rank={free}, torsion_exponents={exps!r})"
    assert pickle.loads(pickle.dumps(g)) == g


@given(st.integers(0, 20), st.integers(1, 6))
def test_model_constructors(k, e):
    assert _model(AbGroup2.elementary(k)) == (0, (1,) * k)
    assert _model(AbGroup2.elementary_with_z4(k)) == (0, (1,) * k + (2,))
    assert _model(AbGroup2.cyclic(e)) == (0, (e,))


@pytest.mark.parametrize(
    "build",
    [AbGroup2.elementary, AbGroup2.elementary_with_z4, elem(3).without_elementary],
)
def test_negative_ranks_refused(build):
    with pytest.raises(ValueError, match="non-negative"):
        build(-1)


# ---------------------------------------------------------------------------
# Interned <k> and {k}, and the loop-summed rank properties
# ---------------------------------------------------------------------------

INTERNED = {
    "elementary": (
        AbGroup2.elementary,
        "_ELEMENTARY",
        lambda k: AbGroup2._of(0, ((1, k),) if k else ()),
    ),
    "elementary_with_z4": (
        AbGroup2.elementary_with_z4,
        "_ELEMENTARY_WITH_Z4",
        lambda k: AbGroup2._of(0, ((1, k), (2, 1)) if k else ((2, 1),)),
    ),
}


@pytest.mark.parametrize("name", INTERNED)
def test_interned_constructors_share_one_instance_per_rank(name):
    # Only plain values reach the asserts: a failing assert that names a
    # group makes pytest print its repr, one exponent per summand, and at
    # rank 2**40 that does not fit in memory.
    build, _, canonical = INTERNED[name]
    for k in [*range(65), 10**6, 2**40]:
        g = build(k)
        found = (type(g) is AbGroup2, g == canonical(k), build(k) is g)
        assert found == (True, True, True), k


@pytest.mark.parametrize("name", INTERNED)
def test_negative_rank_refused_on_cold_and_warm_tables(monkeypatch, name):
    build, table, _ = INTERNED[name]
    monkeypatch.setattr(abelian, table, {})
    with pytest.raises(ValueError, match="^rank must be non-negative, got -1$"):
        build(-1)
    assert getattr(abelian, table) == {}
    build(0), build(1), build(2)
    with pytest.raises(ValueError, match="^rank must be non-negative, got -1$"):
        build(-1)
    assert sorted(getattr(abelian, table)) == [0, 1, 2]


@pytest.mark.parametrize("rank", [True, 1.0, 1.5, "3"], ids=repr)
@pytest.mark.parametrize("name", INTERNED)
def test_non_int_ranks_refused_on_cold_and_warm_tables(monkeypatch, name, rank):
    build, table, _ = INTERNED[name]
    monkeypatch.setattr(abelian, table, {})
    with pytest.raises(TypeError, match="rank must be an int"):
        build(rank)
    assert getattr(abelian, table) == {}
    one = build(1)
    with pytest.raises(TypeError, match="rank must be an int"):
        build(rank)
    assert getattr(abelian, table) == {1: one}


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "3"], ids=repr)
def test_non_int_free_ranks_and_exponents_refused(bad):
    with pytest.raises(TypeError, match="free rank must be an int"):
        AbGroup2(free_rank=bad)
    with pytest.raises(TypeError, match="torsion exponents must be ints"):
        AbGroup2(0, (1, bad))
    with pytest.raises(TypeError, match="rank must be an int"):
        elem(3).without_elementary(bad)


def _ranks_frozen(g):
    """torsion_order_log2, z4_count and mult2_kernel_rank as they read
    before they summed in plain loops: sum() over generators."""
    return (
        sum(e * k for e, k in g.torsion),
        sum(k for e, k in g.torsion if e >= 2),
        sum(k for _, k in g.torsion),
    )


@settings(max_examples=300)
@given(st.integers(0, 3), st.dictionaries(st.integers(1, 9), st.integers(0, 2**40)))
@example(0, {})
@example(0, {1: 10**12, 2: 1})  # {10^12}
def test_rank_properties_match_the_frozen_sums(free, multiplicities):
    g = AbGroup2._of_counts(free, multiplicities)
    got = (g.torsion_order_log2, g.z4_count, g.mult2_kernel_rank)
    want = _ranks_frozen(g)  # apart from the assert, whose report would repr g
    assert got == want


@given(models)
def test_parts_are_self_exactly_when_nothing_is_dropped(model):
    g = _group(model)
    torsion, free = g.torsion_part(), g.free_part()
    assert torsion == AbGroup2._of(0, g.torsion)
    assert free == AbGroup2._of(g.free_rank, ())
    assert (torsion is g) == (g.free_rank == 0)
    assert (free is g) == (not g.torsion)


@given(models, models)
def test_model_sum_and_equality(a, b):
    g, h = _group(a), _group(b)
    assert _model(g + h) == (a[0] + b[0], tuple(sorted(a[1] + b[1])))
    assert (g == h) == (a == b)
    if a == b:
        assert hash(g) == hash(h)
    assert g + h == h + g


@given(models, st.integers(0, 12), st.sampled_from((1, 2, 3, 5)))
def test_model_removals(model, k, e):
    free, exps = model
    g = _group(model)
    ones = exps.count(1)
    if k > ones:
        with pytest.raises(ValueError):
            g.without_elementary(k)
    else:
        rest = tuple(x for x in exps if x > 1)
        assert _model(g.without_elementary(k)) == (free, (1,) * (ones - k) + rest)
    if e in exps:
        left = list(exps)
        left.remove(e)
        assert _model(g.without_cyclic(e)) == (free, tuple(left))
    else:
        with pytest.raises(ValueError):
            g.without_cyclic(e)
    halved = tuple(sorted(max(x - 1, 1) for x in exps))
    assert _model(g.halve_z4s()) == (free, halved)


def test_operations_never_expand_the_summands(monkeypatch):
    # 10^12 summands: any per-summand loop would not return
    def expanded(self):
        pytest.fail("torsion_exponents read")

    monkeypatch.setattr(AbGroup2, "torsion_exponents", property(expanded))
    huge = AbGroup2.elementary(10**12) + AbGroup2.elementary_with_z4(3)
    assert str(huge) == "{1000000000003}"
    assert str(Z + huge.without_elementary(10**12)) == "Z + {3}"
    assert str(huge.without_cyclic(2)) == "<1000000000003>"
    assert huge.halve_z4s() == AbGroup2.elementary(10**12 + 4)
    assert huge.torsion_part() == huge and huge.free_part() == ZERO
    assert (huge.z4_count, huge.mult2_kernel_rank) == (1, 10**12 + 4)
    assert (huge.two_rank_tensor, huge.torsion_order_log2) == (10**12 + 4, 10**12 + 5)
    assert not huge.is_trivial
    assert hash(huge) == hash(huge + ZERO)


# ---------------------------------------------------------------------------
# Universal coefficients
# ---------------------------------------------------------------------------


def test_uct_homology_unordered_p4():
    # hand oracle from the closed-form table of the unordered space, m = 4
    coh = GradedGroups((Z, ZERO, elem(2), elem(1), brace(2), elem(1), elem(2), Z))
    hom = uct_homology(coh)
    expected = {
        0: Z,
        1: elem(2),
        2: elem(1),
        3: brace(2),
        4: elem(1),
        5: elem(2),
        6: ZERO,
        7: Z,
    }
    for i in range(8):
        assert hom.group(i) == expected[i], i


def test_uct_homology_ordered_p5_degree_one():
    from confcoh.configcoh import SpaceId, homology

    assert homology(SpaceId("F", 5)).group(1) == elem(2)


def test_uct_torsion_free_input():
    coh = GradedGroups((Z, ZERO, AbGroup2(2), Z))
    hom = uct_homology(coh)
    for i in range(4):
        assert hom.group(i).torsion_exponents == ()


def test_uct_double_application_is_identity():
    from confcoh.configcoh import SpaceId, cohomology_table

    for kind in "FB":
        for m in (2, 3, 4, 5, 6, 7):
            table = cohomology_table(SpaceId(kind, m))
            assert uct_cohomology(uct_homology(table)) == table


@given(st.integers(0, 3), st.lists(models, max_size=10))
def test_uct_round_trip_over_drawn_tables(free0, higher):
    # H^0 must be free: there is no H_(-1) to carry its torsion.
    table = GradedGroups((AbGroup2(free0), *map(_group, higher)))
    assert uct_cohomology(uct_homology(table)) == table
