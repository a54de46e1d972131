"""Mutants of the presented mod-2 rings, each killed by the Sq1 route.

A mutant changes one relation or one Sq1 generator image of the B or F
presentation.  Running the bockstein and sq1 suites over m = 2..12 on the
mutated rings must then fail a check or find the presentation broken
(Sq1 of a relation outside the ideal, or the R / x*R splitting lost).

F's relation y1^(m+1) is not mutated: (x1 + y1) * sum x1^i y1^(m-i) =
x1^(m+1) + y1^(m+1), so it already lies in the ideal of the other two and
dropping it changes nothing.
"""

import pytest

from confcoh import f2algebra, suites
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
