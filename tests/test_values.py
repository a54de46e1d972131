"""The value types behave as values: equal only to their own class with
equal fields, hashed alike when equal, immutable, picklable, and shown in
the keyword repr that the verify output prints."""

import pickle
import re
from collections import namedtuple

import pytest

from confcoh.abelian import ZERO, AbGroup2, GradedGroups, Value, Z
from confcoh.bockstein import closed_form_rank, sq1_split_check
from confcoh.cartan_leray import build_e2, even_cokernel, fragment_check_3mod4, run_ordered
from confcoh.configcoh import (
    PStarBehavior,
    PStarProfile,
    SpaceId,
    cohomology_table,
    global_checks,
    p_star_profile,
)
from confcoh.f2algebra import PresentedF2Algebra, config_mod2_ring, grassmannian_ring
from confcoh.groupcoh import GROUPS, CoeffId, GroupId, uct_mod2_check
from confcoh.report import CheckResult, VerificationReport
from confcoh.stiefel import ActionSign


# name -> (builder of one value, a value that differs in one field)
VALUES = {
    "AbGroup2": (
        lambda: AbGroup2(free_rank=1, torsion_exponents=(2, 1, 1)),
        AbGroup2(1, (1, 2)),
    ),
    "GradedGroups": (
        lambda: GradedGroups(groups=(Z, ZERO, AbGroup2.cyclic(2))),
        GradedGroups((Z, ZERO, AbGroup2.cyclic(1))),
    ),
    "SpaceId": (lambda: SpaceId(kind="B", m=3), SpaceId("F", 3)),
    "PStarProfile": (
        lambda: PStarProfile(behavior=PStarBehavior.EPI_NONZERO_KERNEL, kernel_rank=2),
        PStarProfile(PStarBehavior.EPI_NONZERO_KERNEL),
    ),
    "CheckResult": (
        lambda: CheckResult("uct", "open case", "open", "open", True, m=7, skipped=True),
        CheckResult("uct", "open case", "open", "open", True, m=7),
    ),
    "VerificationReport": (
        lambda: VerificationReport("duality", 4, [CheckResult("duality", "x", "1", "1", True)]),
        VerificationReport("duality", 4),
    ),
}

FIELDS = {
    "AbGroup2": "free_rank torsion",
    "GradedGroups": "groups",
    "SpaceId": "kind m",
    "PStarProfile": "behavior kernel_rank",
    "CheckResult": "suite label expected got passed m degree skipped",
    "VerificationReport": "suite m checks",
}
HASHABLE = ["AbGroup2", "GradedGroups", "SpaceId", "PStarProfile", "CheckResult"]


@pytest.mark.parametrize("name", VALUES)
def test_equal_only_to_own_class_with_equal_fields(name):
    build, other = VALUES[name]
    value = build()
    assert value == build() and not value != build()
    assert value != other and not value == other
    plain = tuple(getattr(value, f) for f in FIELDS[name].split())
    assert value != plain and plain != value
    assert not value == plain and not plain == value
    # A foreign tuple subclass compares first when it is on the left,
    # as a tuple; with the value on the left the value decides.
    look_alike = namedtuple(name, FIELDS[name])(*plain)
    assert value != look_alike and not value == look_alike
    assert value != object()


@pytest.mark.parametrize("name", VALUES)
def test_identity_shortcut_keeps_values_apart_from_look_alikes(name):
    # value == value returns on identity before the type test; no other
    # object with the same fields may take that way
    value = VALUES[name][0]()
    assert value == value and not value != value
    plain = tuple(value)
    twin = tuple.__new__(type(name, (Value,), {}, fields=FIELDS[name]), plain)
    assert twin == twin and twin != plain and twin != value
    for other in (plain, twin, namedtuple(name, FIELDS[name])(*plain)):
        assert value != other and not value == other
    shared = AbGroup2.elementary(3)
    assert shared == AbGroup2.elementary(3) and shared is AbGroup2.elementary(3)
    assert shared != tuple(shared) and tuple(shared) != shared


def test_report_records_equal_checks_built_by_the_constructor():
    report = VerificationReport("uct", 5)
    report.add("equal", AbGroup2.elementary(2), AbGroup2.elementary(2), degree=3)
    report.add_bool("flag", 0, expected="<= 2", got=3)
    report.add_skip("open case")
    assert report.checks == [
        CheckResult("uct", "equal", "<2>", "<2>", True, 5, 3),
        CheckResult("uct", "flag", "<= 2", "3", False, 5),
        CheckResult("uct", "open case", "open", "open", True, 5, skipped=True),
    ]
    assert all(type(c) is CheckResult for c in report.checks)


@pytest.mark.parametrize("name", VALUES)
def test_hash_follows_equality(name):
    value = VALUES[name][0]()
    if name in HASHABLE:
        assert hash(value) == hash(VALUES[name][0]())
        assert {value: 1}[VALUES[name][0]()] == 1
    else:  # a list of checks inside
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("name", VALUES)
def test_frozen_values_refuse_attribute_changes(name):
    value = VALUES[name][0]()
    field = FIELDS[name].split()[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == VALUES[name][0]()


@pytest.mark.parametrize("name", VALUES)
def test_pickle_round_trip(name):
    value = VALUES[name][0]()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value


def test_pickle_round_trip_of_a_report_with_checks():
    report = VerificationReport("uct", 5)
    report.add("equal", AbGroup2.elementary(2), AbGroup2.elementary(2), degree=3)
    report.add_bool("flag", 0, expected="<= 2", got=3)
    report.add_skip("open case")
    back = pickle.loads(pickle.dumps(report))
    assert type(back) is VerificationReport and back == report
    assert [type(c) for c in back.checks] == [CheckResult] * 3
    # the copy holds a list of its own, which grows apart from the original's
    back.add("later", 1, 1)
    assert len(back.checks) == 4 and len(report.checks) == 3


def test_reprs_keep_the_keyword_format():
    reprs = {
        "AbGroup2": "AbGroup2(free_rank=1, torsion_exponents=(1, 1, 2))",
        "GradedGroups": (
            "GradedGroups(groups=(AbGroup2(free_rank=1, torsion_exponents=()), "
            "AbGroup2(free_rank=0, torsion_exponents=()), "
            "AbGroup2(free_rank=0, torsion_exponents=(2,))))"
        ),
        "SpaceId": "SpaceId(kind='B', m=3)",
        "PStarProfile": "PStarProfile(behavior='epi', kernel_rank=2)",
        "CheckResult": (
            "CheckResult(suite='uct', label='open case', expected='open', got='open', "
            "passed=True, m=7, degree=None, skipped=True)"
        ),
        "VerificationReport": (
            "VerificationReport(suite='duality', m=4, checks=[CheckResult(suite='duality', "
            "label='x', expected='1', got='1', passed=True, m=None, degree=None, skipped=False)])"
        ),
    }
    assert {name: repr(build()) for name, (build, _) in VALUES.items()} == reprs
    assert repr(PStarProfile(PStarBehavior.ISO)) == "PStarProfile(behavior='iso', kernel_rank=None)"
    assert str(SpaceId("F", 5)) == "F(P^5,2)"
    assert str(PStarProfile(PStarBehavior.ZERO)) == repr(PStarProfile(PStarBehavior.ZERO))


def test_defaults_and_keywords():
    assert AbGroup2() == AbGroup2(0, ()) and AbGroup2(free_rank=1) == Z
    assert GradedGroups().groups == () and GradedGroups().support_bound == -1
    assert GradedGroups(iter([Z, ZERO])) == GradedGroups(groups=(Z, ZERO))
    check = CheckResult("s", "l", "e", "g", False)
    assert (check.m, check.degree, check.skipped) == (None, None, False)
    report = VerificationReport()
    assert (report.suite, report.m, report.checks) == ("", None, [])
    assert VerificationReport().checks is not report.checks


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, "3", None], ids=repr)
def test_space_id_refuses_a_non_int_m(bad):
    with pytest.raises(TypeError, match=f"m must be an int, got {re.escape(repr(bad))}"):
        SpaceId("B", bad)
    with pytest.raises(TypeError, match="m must be an int"):
        SpaceId("F", bad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SpaceId("C", 3), "kind must be 'F' or 'B'"),
        (lambda: SpaceId("B", 0), "m must be >= 1"),
        (lambda: AbGroup2(-1), "free rank must be non-negative"),
        (lambda: AbGroup2(0, (2, 0)), "torsion exponents must be positive"),
        (lambda: PresentedF2Algebra([("x", 1)], [set()]), "^zero relation$"),
        (lambda: grassmannian_ring(0), "^m must be >= 1$"),
        (lambda: config_mod2_ring("C", 3), "^unknown space kind 'C'$"),
        (lambda: build_e2(GroupId.D8, 1), "^m must be >= 2$"),
        (lambda: global_checks(SpaceId("B", 1)), "^global checks need m >= 2$"),
    ],
)
def test_validation_errors_unchanged(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# (reader, args, keyword args, refusal) of the sweep entry points given a
# bound that is not an int
SWEEP_REFUSALS = [
    (build_e2, (GroupId.D8, 5.0), {}, "m must be an int, got 5.0"),
    (build_e2, (GroupId.Z2xZ2, True), {}, "m must be an int, got True"),
    (build_e2, (GroupId.D8, 3), {"p_max": 2.5}, "p_max must be an int, got 2.5"),
    (build_e2, (GroupId.D8, 3), {"p_max": True}, "p_max must be an int, got True"),
    (run_ordered, (3.0,), {}, "m must be an int, got 3.0"),
    (uct_mod2_check, (GroupId.D8, 3.0), {}, "i_max must be an int, got 3.0"),
    (uct_mod2_check, (GroupId.Z2xZ2, True), {}, "i_max must be an int, got True"),
    (fragment_check_3mod4, (True,), {}, "a must be an int, got True"),
    (fragment_check_3mod4, (0.0,), {}, "a must be an int, got 0.0"),
    (sq1_split_check, (True,), {}, "a must be an int, got True"),
    (sq1_split_check, (0.0,), {}, "a must be an int, got 0.0"),
    (even_cokernel, (4.0, 2), {}, "m must be an int, got 4.0"),
    (even_cokernel, (4, 2.0), {}, "ell must be an int, got 2.0"),
    (p_star_profile, (GroupId.D8, 5, 3.0), {}, "degree must be an int, got 3.0"),
    (closed_form_rank, (SpaceId("B", 5), 7.0), {}, "degree must be an int, got 7.0"),
]


@pytest.mark.parametrize(
    "read, args, kwargs, message",
    SWEEP_REFUSALS,
    ids=[f"{read.__name__}{args}{kwargs or ''}" for read, args, kwargs, _ in SWEEP_REFUSALS],
)
def test_sweep_entry_points_refuse_a_non_int_bound(read, args, kwargs, message):
    # 5.0 would pass the range checks, and True would be read as 1
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        read(*args, **kwargs)


def test_constant_sets_hold_their_values():
    # The constant sets are plain classes whose attributes are the values
    # themselves: strings, and the two signs as ints.
    got = {
        cls.__name__: {k: v for k, v in vars(cls).items() if not k.startswith("_")}
        for cls in (GroupId, CoeffId, ActionSign, PStarBehavior)
    }
    assert got == {
        "GroupId": {"D8": "D8", "Z2xZ2": "Z2xZ2"},
        "CoeffId": {"INTEGER_TRIVIAL": "Z", "INTEGER_TWISTED": "Z_alpha", "MOD_TWO": "F2"},
        "ActionSign": {"PLUS": 1, "MINUS": -1},
        "PStarBehavior": {
            "ISO": "iso",
            "EPI_NONZERO_KERNEL": "epi",
            "MONO_ONTO_TORSION": "mono-onto-torsion",
            "ZERO": "zero",
            "OPEN": "open",
        },
    }
    assert GROUPS == ("D8", "Z2xZ2")
    assert all(type(v) is int for v in got["ActionSign"].values())


@pytest.mark.parametrize("name", VALUES)
def test_value_fields_and_match_args(name):
    value = VALUES[name][0]()
    cls = type(value)
    fields = tuple(FIELDS[name].split())
    assert cls._fields == cls.__match_args__ == fields
    assert tuple(getattr(value, f) for f in fields) == tuple(value)


def test_graded_groups_are_zero_outside_their_support():
    table = GradedGroups((Z, AbGroup2.elementary(2), Z))
    assert table.support_bound == 2
    got = [table.group(d) for d in range(-2, 5)]
    assert got == [ZERO, ZERO, Z, AbGroup2.elementary(2), Z, ZERO, ZERO]
    assert table.groups[-1] == Z  # a bare index from the end reads the top group


@pytest.mark.parametrize(
    "table",
    [
        GradedGroups(),
        GradedGroups((Z,)),
        GradedGroups((ZERO, AbGroup2.cyclic(3))),
        cohomology_table(SpaceId("B", 3)),
    ],
    ids=["empty", "one-degree", "zero-at-the-bottom", "B-3"],
)
def test_graded_groups_read_each_degree_by_index(table):
    n = len(table.groups)
    assert table.support_bound == n - 1
    assert [table.group(d) for d in range(n)] == list(table.groups)
    assert [table.group(d) for d in (-n - 1, -n, -1, n, n + 1)] == [ZERO] * 5
    assert hash(table) == hash(GradedGroups(list(table.groups)))


def test_values_match_positional_patterns():
    match SpaceId("B", 3), PStarProfile(PStarBehavior.ISO):
        case SpaceId(kind, m), PStarProfile(behavior, kernel_rank):
            assert (kind, m, behavior, kernel_rank) == ("B", 3, PStarBehavior.ISO, None)
        case _:
            pytest.fail("no positional match")
