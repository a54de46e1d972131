"""The value types behave as values: equal only to their own class with
equal fields, hashed alike when equal, immutable, picklable, and shown in
the keyword repr that the verify output prints."""

import pickle
from collections import namedtuple

import pytest

from confcoh.abelian import AbGroup2, GradedGroups, IntMatrix, Z
from confcoh.configcoh import PStarBehavior, PStarProfile, SpaceId
from confcoh.report import CheckResult, VerificationReport


# name -> (builder of one value, a value that differs in one field)
VALUES = {
    "AbGroup2": (
        lambda: AbGroup2(free_rank=1, torsion_exponents=(2, 1, 1)),
        AbGroup2(1, (1, 2)),
    ),
    "IntMatrix": (
        lambda: IntMatrix(rows=1, cols=2, entries=(2, 0)),
        IntMatrix(1, 2, (4, 0)),
    ),
    "GradedGroups": (
        lambda: GradedGroups(support_bound=3, groups={0: Z, 2: AbGroup2.cyclic(2)}),
        GradedGroups(3, {0: Z}),
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
    "IntMatrix": "rows cols entries",
    "GradedGroups": "support_bound groups",
    "SpaceId": "kind m",
    "PStarProfile": "behavior kernel_rank",
    "CheckResult": "suite label expected got passed m degree skipped",
    "VerificationReport": "suite m checks",
}
FROZEN = [name for name in VALUES if name != "VerificationReport"]
HASHABLE = ["AbGroup2", "IntMatrix", "SpaceId", "PStarProfile", "CheckResult"]


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


@pytest.mark.parametrize("name", VALUES)
def test_hash_follows_equality(name):
    value = VALUES[name][0]()
    if name in HASHABLE:
        assert hash(value) == hash(VALUES[name][0]())
        assert {value: 1}[VALUES[name][0]()] == 1
    else:  # a dict or a list of checks inside
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
        "IntMatrix": "IntMatrix(rows=1, cols=2, entries=(2, 0))",
        "GradedGroups": (
            "GradedGroups(support_bound=3, groups={0: AbGroup2(free_rank=1, "
            "torsion_exponents=()), 2: AbGroup2(free_rank=0, torsion_exponents=(2,))})"
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
    assert GradedGroups(5).groups == {}
    assert GradedGroups(3, {3: AbGroup2(), 1: Z}).groups == {1: Z}
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
        (lambda: IntMatrix(2, 2, (1, 2, 3)), "entry count does not match dimensions"),
        (lambda: IntMatrix(-1, 0, ()), "negative dimensions"),
        (lambda: GradedGroups(3, {4: Z}), r"degree 4 outside \[0, 3\]"),
        (lambda: GradedGroups(3, {-1: Z}), r"degree -1 outside \[0, 3\]"),
        (lambda: AbGroup2(-1), "free rank must be non-negative"),
        (lambda: AbGroup2(0, (2, 0)), "torsion exponents must be positive"),
    ],
)
def test_validation_errors_unchanged(build, message):
    with pytest.raises(ValueError, match=message):
        build()
