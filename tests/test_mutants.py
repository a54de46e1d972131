"""Mutants of the presented mod-2 rings and of the closed forms, each
killed by the suites.

A ring mutant changes one relation or one Sq1 generator image of the B or F
presentation.  Running the bockstein and sq1 suites over m = 2..12 on the
mutated rings must then fail a check or find the presentation broken
(Sq1 of a relation outside the ideal, or the R / x*R splitting lost).

F's relation y1^(m+1) is not mutated: (x1 + y1) * sum x1^i y1^(m-i) =
x1^(m+1) + y1^(m+1), so it already lies in the ideal of the other two and
dropping it changes nothing.

A closed-form mutant changes one group in one degree of a configuration
space table branch or a classifying-space formula.  Every suite over
m = 2..12 then runs, and the test pins the check families that fail, or
the error that stops the run.
"""

import pytest

from confcoh import configcoh, f2algebra, groupcoh, suites
from confcoh.abelian import AbGroup2
from confcoh.f2algebra import IllDefinedDerivationError, PresentedF2Algebra


def drop_term(rel):
    """The relation without its lexicographically smallest term, if it
    has another one."""
    return rel - {min(rel)} if len(rel) > 1 else rel


def replace(items, i, new):
    return items[:i] + [new] + items[i + 1 :]


# name -> (space kind, (relations, Sq1 on generators) -> mutated pair)
MUTANTS = {
    "B-drop-term-w_m": (  # w_m: sum C(m-i, i) x1^(m-2i) x2^i
        "B",
        lambda rels, sq1: (replace(rels, 1, drop_term(rels[1])), sq1),
    ),
    "B-drop-term-w_m+1": (
        "B",
        lambda rels, sq1: (replace(rels, 2, drop_term(rels[2])), sq1),
    ),
    "B-x^2+x1^2": (  # in place of x^2 + x*x1
        "B",
        lambda rels, sq1: (replace(rels, 0, frozenset({(2, 0, 0), (0, 2, 0)})), sq1),
    ),
    "F-drop-term-sum": (  # sum x1^i y1^(m-i)
        "F",
        lambda rels, sq1: (replace(rels, 2, drop_term(rels[2])), sq1),
    ),
    "B-Sq1-x2=x*x2": (
        "B",
        lambda rels, sq1: (rels, {**sq1, 2: frozenset({(1, 0, 1)})}),
    ),
    "F-Sq1-y1=x1*y1": (
        "F",
        lambda rels, sq1: (rels, {**sq1, 1: frozenset({(1, 1)})}),
    ),
}

BUILDERS = {"B": "unordered_config_ring", "F": "ordered_config_ring"}


def clear_ring_caches():
    f2algebra._cached_unordered_ring.cache_clear()
    f2algebra._cached_ordered_ring.cache_clear()


@pytest.fixture
def install(monkeypatch):
    """Install a mutation of one space's presentation for the test."""

    def apply(kind, mutate):
        original = getattr(f2algebra, BUILDERS[kind])

        def mutant(m):
            ring = original(m)
            rels, sq1 = mutate(list(ring.relations), ring.sq1_on_generators)
            return PresentedF2Algebra(list(ring.generators), rels, sq1)

        monkeypatch.setattr(f2algebra, BUILDERS[kind], mutant)
        clear_ring_caches()

    yield apply
    clear_ring_caches()


def run_route():
    """The bockstein and sq1 suites over 2..12; False if they reject the ring."""
    try:
        return suites.run_suites(["bockstein", "sq1"], range(2, 13)).passed
    except (IllDefinedDerivationError, AssertionError):
        return False


@pytest.mark.parametrize("kind", ["B", "F"])
def test_unmutated_rings_pass(install, kind):
    install(kind, lambda rels, sq1: (rels, sq1))
    assert run_route()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(install, name):
    install(*MUTANTS[name])
    assert not run_route()


E, E4 = AbGroup2.elementary, AbGroup2.elementary_with_z4

# name -> (module, function, arguments, wrong value, what kills it)
CLOSED_FORM_MUTANTS = {
    "B-even-lower": (  # B(P^6, 2), H^4 = <2> + Z/4: the Z/4 split
        configcoh,
        "_unordered_even",
        (3, 4),
        E(4),
        {"bockstein-page1", "bockstein-ranks", "clss-even-D8", "duality", "global"},
    ),
    "B-even-upper": (  # B(P^6, 2), H^8 = <2> + Z/4: the Z/4 split
        configcoh,
        "_unordered_even",
        (3, 8),
        E(4),
        {"bockstein-page1", "bockstein-ranks", "clss-even-D8", "duality", "global"},
    ),
    "B-odd-lower": (  # B(P^5, 2), H^4 = <2> + Z/4: the Z/4 split
        configcoh,
        "_unordered_odd",
        (2, 4),
        E(4),
        {"bockstein-page1", "bockstein-ranks", "clss-1mod4", "global"},
    ),
    "B-odd-upper-open": (  # B(P^7, 2), m = 3 mod 4, H^10 = <2> becomes Z/4
        configcoh,
        "_unordered_odd",
        (3, 10),
        E4(0),
        {"bockstein-page1", "bockstein-ranks", "duality", "global"},
    ),
    "F-even-lower": (  # F(P^4, 2), H^2 = <2> gains a Z/2
        configcoh,
        "_ordered_even",
        (2, 2),
        E(3),
        {"bockstein-ranks", "clss-even-Z2xZ2", "duality", "global"},
    ),
    "F-even-upper": (  # F(P^8, 2), H^10 = <4> loses a Z/2
        configcoh,
        "_ordered_even",
        (4, 10),
        E(3),
        {"bockstein-ranks", "clss-even-Z2xZ2", "duality", "global"},
    ),
    "F-odd-lower": (  # F(P^7, 2), H^5 = <2> gains a Z/2
        configcoh,
        "_ordered_odd",
        (3, 5),
        E(3),
        {"bockstein-ranks", "clss-odd-Z2xZ2", "global"},
    ),
    "F-odd-upper": (  # F(P^9, 2), H^12 = <3> loses a Z/2
        configcoh,
        "_ordered_odd",
        (4, 12),
        E(2),
        {"bockstein-ranks", "clss-odd-Z2xZ2", "duality", "global"},
    ),
    "D8-integral": (  # H^8 = <4> + Z/4: the Z/4 split
        groupcoh,
        "_d8_integral",
        (8,),
        E(5),
        {"InconsistentOrdersError"},
    ),
    "D8-twisted": (  # H^6 = <2> + Z/4 gains a Z/2
        groupcoh,
        "_d8_twisted",
        (6,),
        E4(3),
        {"clss-1mod4", "clss-m3-A", "duality"},
    ),
    "Z2xZ2-integral": (  # H^4 = <3> loses a Z/2
        groupcoh,
        "_z2z2_integral",
        (4,),
        E(2),
        {"clss-even-Z2xZ2", "clss-odd-Z2xZ2", "uct-mod2-Z2xZ2"},
    ),
    "Z2xZ2-twisted": (  # H^3 = <2> gains a Z/2
        groupcoh,
        "_z2z2_twisted",
        (3,),
        E(3),
        {"clss-odd-Z2xZ2", "duality"},
    ),
}


def killing_families():
    """Families of the failing checks of every suite over 2..12, or the
    name of the error that stopped the run."""
    try:
        report = suites.run_suites(list(suites.SUITE_NAMES), range(2, 13))
    except ValueError as exc:
        return {type(exc).__name__}
    return {c.suite for c in report.checks if not c.passed}


def test_unmutated_closed_forms_pass():
    assert killing_families() == set()


@pytest.mark.parametrize("name", CLOSED_FORM_MUTANTS)
def test_closed_form_mutant_is_killed(monkeypatch, name):
    module, function, args, wrong, killers = CLOSED_FORM_MUTANTS[name]
    original = getattr(module, function)
    assert original(*args) != wrong
    monkeypatch.setattr(
        module, function, lambda *a: wrong if a == args else original(*a)
    )
    assert killing_families() == killers
