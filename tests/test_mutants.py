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
space table branch or a classifying-space formula, or the sign of the
dihedral action on one degree of the fibre.  An executor mutant changes
one step of a spectral-sequence executor or the branch the duality check
takes, and an engine mutant one step of the F2 engine's Sq1 columns,
over its packed monomials.
Every suite over m = 2..12 then runs, and the test pins the check
families that fail, or the error that stops the run.
"""

from functools import reduce
from operator import xor

import pytest

from confcoh import cartan_leray, configcoh, f2algebra, groupcoh, stiefel, suites
from confcoh.abelian import ZERO, AbGroup2
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
    f2algebra.config_mod2_ring.cache_clear()


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
        "_unordered",
        (6, 4),
        E(4),
        {"bockstein-page1", "bockstein-ranks", "clss-even-D8", "duality", "global"},
    ),
    "B-even-upper": (  # B(P^6, 2), H^8 = <2> + Z/4: the Z/4 split
        configcoh,
        "_unordered",
        (6, 8),
        E(4),
        {"bockstein-page1", "bockstein-ranks", "clss-even-D8", "duality", "global"},
    ),
    "B-odd-lower": (  # B(P^5, 2), H^4 = <2> + Z/4: the Z/4 split
        configcoh,
        "_unordered",
        (5, 4),
        E(4),
        {"bockstein-page1", "bockstein-ranks", "clss-1mod4", "global"},
    ),
    "B-odd-upper-open": (  # B(P^7, 2), m = 3 mod 4, H^10 = <2> becomes Z/4
        configcoh,
        "_unordered",
        (7, 10),
        E4(0),
        {"bockstein-page1", "bockstein-ranks", "duality", "global"},
    ),
    "F-even-lower": (  # F(P^4, 2), H^2 = <2> gains a Z/2
        configcoh,
        "_ordered",
        (4, 2),
        E(3),
        {"bockstein-ranks", "clss-even-Z2xZ2", "duality", "global"},
    ),
    "F-even-upper": (  # F(P^8, 2), H^10 = <4> loses a Z/2
        configcoh,
        "_ordered",
        (8, 10),
        E(3),
        {"bockstein-ranks", "clss-even-Z2xZ2", "duality", "global"},
    ),
    "F-odd-lower": (  # F(P^7, 2), H^5 = <2> gains a Z/2
        configcoh,
        "_ordered",
        (7, 5),
        E(3),
        {"bockstein-ranks", "clss-odd-Z2xZ2", "global"},
    ),
    "F-odd-upper": (  # F(P^9, 2), H^12 = <3> loses a Z/2
        configcoh,
        "_ordered",
        (9, 12),
        E(2),
        {"bockstein-ranks", "clss-odd-Z2xZ2", "duality", "global"},
    ),
    "D8-integral": (  # H^8 = <4> + Z/4: the Z/4 split
        groupcoh,
        "_d8_integral",
        (8,),
        E(5),
        {"clss-1mod4", "clss-3mod4-fragment", "clss-even-D8", "clss-m3-A"},
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

PLUS, MINUS = stiefel.ActionSign.PLUS, stiefel.ActionSign.MINUS
# The clss families that run for m even, m = 1 mod 4, m = 3 mod 4, m = 3.
EVEN = {"clss-even-D8", "clss-even-Z2xZ2"}
ONE_MOD_4 = {"clss-1mod4", "clss-odd-Z2xZ2"}
THREE_MOD_4 = {"clss-3mod4-fragment", "clss-odd-Z2xZ2"}
M_IS_3 = {"clss-3mod4-fragment", "clss-m3-A", "clss-m3-B", "clss-odd-Z2xZ2"}

# The dihedral sign on one integral degree q of the fibre V_{n,2}, n = m + 1,
# flipped, for every such degree with n = 3..8 (m = 2..7, each m mod 4 with
# and without the m = 3 scenarios).  (n, q) -> (wrong sign, what kills it).
# The Z/2 degrees (3, 2), (5, 4), (7, 6) give mod-2 lines, which read no
# sign: those mutants are equivalent.
SIGN_MUTANTS = {
    (3, 0): (MINUS, EVEN),
    (3, 3): (MINUS, EVEN),  # m = 2: the top fibre class survives
    (4, 0): (MINUS, M_IS_3),  # the fragment finds no Z/4 to remove
    (4, 2): (PLUS, M_IS_3),
    (4, 3): (MINUS, M_IS_3),  # m = 3: the fibre class at (0, m)
    (4, 5): (PLUS, {"clss-m3-A", "clss-odd-Z2xZ2"}),
    (5, 0): (MINUS, EVEN),
    (5, 7): (MINUS, EVEN),
    (6, 0): (MINUS, ONE_MOD_4),
    (6, 4): (PLUS, ONE_MOD_4),
    (6, 5): (MINUS, ONE_MOD_4),
    (6, 9): (PLUS, ONE_MOD_4),  # m = 5: no fibre class at (0, 2m-1)
    (7, 0): (MINUS, EVEN),
    (7, 11): (MINUS, EVEN),
    (8, 0): (MINUS, THREE_MOD_4),
    (8, 6): (PLUS, THREE_MOD_4),
    (8, 7): (MINUS, THREE_MOD_4),
    # The unordered page for m = 3 mod 4 has no executor above the fragment.
    (8, 13): (PLUS, {"clss-odd-Z2xZ2"}),
}
CLOSED_FORM_MUTANTS.update(
    {
        f"sign-V{n},2-H{q}": (stiefel, "d8_action_sign", (n, q), wrong, killers)
        for (n, q), (wrong, killers) in SIGN_MUTANTS.items()
    }
)


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


# name -> (module, function, original -> mutated function, what kills it)
EXECUTOR_MUTANTS = {
    "image-ignores-page-m+1-source": (
        cartan_leray,
        "_image_log2",
        lambda original: lambda src_mid, src_top: original(src_mid, ZERO),
        {"clss-1mod4", "clss-odd-Z2xZ2"},
    ),
    # Killed by one family only: the closed form is read by run_1mod4 alone.
    "odd-closed-form-loses-Z4": (  # <ell/2 - 1> in place of {ell/2 - 1}
        cartan_leray,
        "_odd_closed_form",
        lambda original: lambda ell: (
            original(ell).without_cyclic(2) if ell % 4 == 2 else original(ell)
        ),
        {"clss-1mod4"},
    ),
    # Killed by one family only: even_cokernel is read by run_even alone,
    # and only for the dihedral group.
    "even-cokernel-loses-Z4": (  # <ell/2> in place of {ell/2}
        cartan_leray,
        "even_cokernel",
        lambda original: lambda m, ell: (
            original(m, ell).without_cyclic(2) if ell % 4 == 0 else original(m, ell)
        ),
        {"clss-even-D8"},
    ),
    # Killed by one family only: the m = 3 mod 4 fragment is the only
    # caller.
    "fragment-dm-removes-Z4": (  # a Z/4 removed where d_m injects a Z/2
        cartan_leray,
        "_less_one_summand",
        lambda original: lambda group, exponent: (
            original(group, 2 if exponent == 1 else exponent)
        ),
        {"clss-3mod4-fragment"},
    ),
    # Each m = 3 option is its own family by construction, so the next
    # two are killed by one family only.
    "m3-A-loses-fibre-class": (  # (0, 3) does not survive option A
        cartan_leray,
        "_run_m3_option_a",
        lambda original: lambda page, report: {
            pq: g for pq, g in original(page, report).items() if pq != (0, 3)
        },
        {"clss-m3-A"},
    ),
    "m3-B-diagonal-extra-bit": (  # one more torsion bit on each diagonal
        cartan_leray,
        "_torsion_bits_on_diagonal",
        lambda original: lambda page, t: (
            original(page, t)[0] + 1, original(page, t)[1]
        ),
        {"clss-m3-B"},
    ),
    # Killed by one family only: twisted_cohomology reads the same branch,
    # but no suite reads twisted_cohomology.
    "duality-wrong-branch": (  # orientable iff m is odd
        configcoh,
        "is_orientable",
        lambda original: lambda s: not original(s),
        {"duality"},
    ),
}


@pytest.mark.parametrize("name", EXECUTOR_MUTANTS)
def test_executor_mutant_is_killed(monkeypatch, name):
    module, function, mutate, killers = EXECUTOR_MUTANTS[name]
    monkeypatch.setattr(module, function, mutate(getattr(module, function)))
    assert killing_families() == killers


def sq1_columns(ring, d, terms):
    """Sq1 columns out of degree d of a ring whose degree d + 1 is grown:
    for each packed basis monomial v, the XOR of the coordinates of the
    packed monomials terms(v)."""
    return [
        reduce(xor, map(ring._mono_coords, terms(v)), 0) for v in ring._basis(d)
    ]


def sq1_drops_lead_terms(original):
    """sq1_matrix with every Sq1 term that is a Groebner lead dropped, as if
    the coordinates of a lead lost the rest of its basis element where the
    Sq1 columns read them."""

    def mutant(self, d):
        original(self, d)  # grows the bases and checks Sq1 on the relations
        return sq1_columns(
            self, d, lambda v: [t for t in self._sq1_terms(v) if t not in self._groebner]
        )

    return mutant


def sq1_parity_bit_one_high(original):
    """sq1_matrix with the Leibniz parity of each generator read from the
    bit above the low bit of its packed exponent field (exponent 2 or 3
    mod 4, not odd).  The relation check runs first with the right bits:
    read there as well, Sq1 of x^2 + x*x1 leaves the ideal and the run
    stops with IllDefinedDerivationError."""

    def mutant(self, d):
        original(self, d)
        right = self._sq1_shifts
        self._sq1_shifts = [(bit << 1, shift) for bit, shift in right]
        try:
            return sq1_columns(self, d, self._sq1_terms)
        finally:
            self._sq1_shifts = right

    return mutant


# name -> (PresentedF2Algebra method, original -> mutated method, what kills it)
ENGINE_MUTANTS = {
    # Killed by one family only: Sq1 x = x^2 then reads 0 in B, yet
    # Sq1^2 = 0 and the R / x*R splitting survive and only page-1 ranks move.
    "lead-bitset-drops-tail": (
        "sq1_matrix",
        sq1_drops_lead_terms,
        {"bockstein-page1"},
    ),
    "packed-parity-bit-one-high": (
        "sq1_matrix",
        sq1_parity_bit_one_high,
        {"bockstein-page1", "sq1", "sq1-split"},
    ),
}


@pytest.mark.parametrize("name", ENGINE_MUTANTS)
def test_engine_mutant_is_killed(monkeypatch, name):
    method, mutate, killers = ENGINE_MUTANTS[name]
    monkeypatch.setattr(
        PresentedF2Algebra, method, mutate(getattr(PresentedF2Algebra, method))
    )
    clear_ring_caches()
    try:
        assert killing_families() == killers
    finally:
        clear_ring_caches()
