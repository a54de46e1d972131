"""The value types behave as values: equal only to their own class with
equal fields, hashed alike when equal, immutable, picklable, and shown in
the keyword repr that the verify output prints."""

import copy
import pickle
from collections import namedtuple

import pytest

from confcoh.abelian import ZERO, AbGroup2, GradedGroups, Members, Value, Z
from confcoh.configcoh import PStarBehavior, PStarProfile, SpaceId, cohomology_table
from confcoh.groupcoh import CoeffId, GroupId
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
FROZEN = [name for name in VALUES if name != "VerificationReport"]
HASHABLE = ["AbGroup2", "GradedGroups", "SpaceId", "PStarProfile", "CheckResult"]


@pytest.mark.parametrize("name", VALUES)
def test_equal_only_to_own_class_with_equal_fields(name):
    build, other = VALUES[name]
    value = build()
    assert value == build() and not value != build()
    assert value != other and not value == other
    if name in FROZEN:
        plain = tuple(getattr(value, f) for f in FIELDS[name].split())
        assert value != plain and plain != value
        assert not value == plain and not plain == value
        # A foreign tuple subclass compares first when it is on the left,
        # as a tuple; with the value on the left the value decides.
        look_alike = namedtuple(name, FIELDS[name])(*plain)
        assert value != look_alike and not value == look_alike
    assert value != object()


@pytest.mark.parametrize("name", FROZEN)
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


@pytest.mark.parametrize("name", FROZEN)
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


def test_reprs_keep_the_keyword_format():
    reprs = {
        "AbGroup2": "AbGroup2(free_rank=1, torsion_exponents=(1, 1, 2))",
        "GradedGroups": (
            "GradedGroups(groups=(AbGroup2(free_rank=1, torsion_exponents=()), "
            "AbGroup2(free_rank=0, torsion_exponents=()), "
            "AbGroup2(free_rank=0, torsion_exponents=(2,))))"
        ),
        "SpaceId": "SpaceId(kind='B', m=3)",
        "PStarProfile": (
            "PStarProfile(behavior=<PStarBehavior.EPI_NONZERO_KERNEL: 'epi'>, kernel_rank=2)"
        ),
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
    assert repr(PStarProfile(PStarBehavior.ISO)) == (
        "PStarProfile(behavior=<PStarBehavior.ISO: 'iso'>, kernel_rank=None)"
    )
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SpaceId("C", 3), "kind must be 'F' or 'B'"),
        (lambda: SpaceId("B", 0), "m must be >= 1"),
        (lambda: AbGroup2(-1), "free rank must be non-negative"),
        (lambda: AbGroup2(0, (2, 0)), "torsion exponents must be positive"),
    ],
)
def test_validation_errors_unchanged(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# name -> (constant set, its members as (name, value) in declaration order)
CONSTANT_SETS = {
    "GroupId": (GroupId, [("D8", "D8"), ("Z2xZ2", "Z2xZ2")]),
    "CoeffId": (
        CoeffId,
        [("INTEGER_TRIVIAL", "Z"), ("INTEGER_TWISTED", "Z_alpha"), ("MOD_TWO", "F2")],
    ),
    "ActionSign": (ActionSign, [("PLUS", 1), ("MINUS", -1)]),
    "PStarBehavior": (
        PStarBehavior,
        [
            ("ISO", "iso"),
            ("EPI_NONZERO_KERNEL", "epi"),
            ("MONO_ONTO_TORSION", "mono-onto-torsion"),
            ("ZERO", "zero"),
            ("OPEN", "open"),
        ],
    ),
}


@pytest.mark.parametrize("name", CONSTANT_SETS)
def test_constant_sets_behave_as_enums(name):
    cls, members = CONSTANT_SETS[name]
    assert [(c.name, c.value) for c in cls] == members
    assert len(cls) == len(members)
    for key, value in members:
        member = getattr(cls, key)
        assert type(member) is cls and isinstance(member, cls)
        assert (member.name, member.value) == (key, value)
        assert repr(member) == f"<{name}.{key}: {value!r}>"
        assert str(member) == f"{name}.{key}" == f"{member}"
        assert cls(value) is member
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, proto)) is member
        assert copy.copy(member) is member and copy.deepcopy(member) is member
        with pytest.raises(AttributeError):
            member.value = None
    assert [a == b for a in cls for b in cls] == [
        i == j for i in range(len(members)) for j in range(len(members))
    ]
    for unknown in ("unknown", 0, 2):
        with pytest.raises(ValueError, match=f"{unknown!r} is not a valid {name}"):
            cls(unknown)


def test_constant_set_class_methods_are_not_members():
    class Parity(Members):
        EVEN = 0
        ODD = 1

        @classmethod
        def of(cls, n: int) -> "Parity":
            return cls(n % 2)

    assert Parity.of(4) is Parity.EVEN and Parity.of(7) is Parity.ODD
    assert [c.name for c in Parity] == ["EVEN", "ODD"]


@pytest.mark.parametrize("name", FROZEN)
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
