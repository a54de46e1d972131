"""Mutants of the presented mod-2 rings and of the closed forms, each
killed by the suites.

A ring mutant changes one relation or one Sq1 generator image of the ring
that the suites sweep for B (the Grassmannian ring R of B = R + x*R) or of
F's ring.  Running the bockstein and sq1 suites over m = 2..12 on the
mutated rings must then fail a check or find the presentation broken (Sq1
of a relation outside the ideal).  A reference mutant changes the
three-generator presentation of B, which the suites no longer read; the
test that compares it with the split must then fail for some m in 2..12.

F's relation y1^(m+1) is not mutated: (x1 + y1) * sum x1^i y1^(m-i) =
x1^(m+1) + y1^(m+1), so it already lies in the ideal of the other two and
dropping it changes nothing.

A closed-form mutant changes one group in one degree of a configuration
space table branch or a classifying-space formula, or the sign of the
dihedral action on one degree of the fibre.  An executor mutant changes
one step of a spectral-sequence executor or the branch the duality check
takes, and an engine mutant one step of the F2 engine's Sq1 columns,
over its packed monomials, one line of its basis growth, or one entry of
its Sq1 shift table.
Every suite over m = 2..12 then runs, and the test pins the check
families that fail, or the error that stops the run.
"""

import __future__
import hashlib
import inspect
import sys
import textwrap

import pytest

from confcoh import abelian, cartan_leray, cli, configcoh, f2algebra, groupcoh, stiefel, suites
from confcoh.abelian import ZERO, AbGroup2
from confcoh.f2algebra import IllDefinedDerivationError, PresentedF2Algebra
from test_f2algebra import SpanOracle, assert_split_equals_the_three_generator_ring
from test_output_digests import DIGESTS


def drop_term(rel, term=min):
    """The relation without the term that term(rel) picks, by default its
    lexicographically smallest, if it has another one."""
    return rel - {term(rel)} if len(rel) > 1 else rel


X2 = [name for name, _ in f2algebra._ORTHOGONAL[0]].index("x2")  # in R


def top_x2(rel):
    """The term of w_n with the largest power of x2."""
    return max(rel, key=lambda e: e[X2])


def replace(items, i, new):
    return items[:i] + [new] + items[i + 1 :]


# name -> (space kind, (relations, Sq1 on generators) -> mutated pair)
MUTANTS = {
    "B-drop-term-w_m": (  # w_m: sum C(m-i, i) x1^(m-2i) x2^i
        "B",
        lambda rels, sq1: (replace(rels, 0, drop_term(rels[0], top_x2)), sq1),
    ),
    "B-drop-term-w_m+1": (
        "B",
        lambda rels, sq1: (replace(rels, 1, drop_term(rels[1], top_x2)), sq1),
    ),
    "F-drop-term-sum": (  # sum x1^i y1^(m-i)
        "F",
        lambda rels, sq1: (replace(rels, 2, drop_term(rels[2])), sq1),
    ),
    "B-Sq1-x2=0": (  # in place of x1*x2
        "B",
        lambda rels, sq1: (rels, {**sq1, X2: frozenset()}),
    ),
    "F-Sq1-y1=x1*y1": (
        "F",
        lambda rels, sq1: (rels, {**sq1, 1: frozenset({(1, 1)})}),
    ),
}

# the same, of the three-generator presentation of B
REFERENCE_MUTANTS = {
    "B-x^2+x1^2": (  # in place of x^2 + x*x1
        "B3",
        lambda rels, sq1: (replace(rels, 0, frozenset({(2, 0, 0), (0, 0, 2)})), sq1),
    ),
    "B-Sq1-x2=x*x2": (  # generators x, x2, x1
        "B3",
        lambda rels, sq1: (rels, {**sq1, 1: frozenset({(1, 1, 0)})}),
    ),
}

BUILDERS = {"B": "grassmannian_ring", "B3": "unordered_config_ring", "F": "ordered_config_ring"}


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


def reference_route():
    """The comparison of the three-generator ring with the split over
    2..12; False if it fails."""
    try:
        for m in range(2, 13):
            assert_split_equals_the_three_generator_ring(m)
    except (IllDefinedDerivationError, AssertionError):
        return False
    return True


def test_unmutated_reference_passes(install):
    install("B3", lambda rels, sq1: (rels, sq1))
    assert reference_route()


@pytest.mark.parametrize("name", REFERENCE_MUTANTS)
def test_reference_mutant_is_killed(install, name):
    install(*REFERENCE_MUTANTS[name])
    assert not reference_route()


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


def install_closed_form_mutant(monkeypatch, name):
    """Patch in the closed-form mutant and return the families that kill it."""
    module, function, args, wrong, killers = CLOSED_FORM_MUTANTS[name]
    original = getattr(module, function)
    assert original(*args) != wrong
    monkeypatch.setattr(
        module, function, lambda *a: wrong if a == args else original(*a)
    )
    return killers


@pytest.mark.parametrize("name", CLOSED_FORM_MUTANTS)
def test_closed_form_mutant_is_killed(monkeypatch, name):
    killers = install_closed_form_mutant(monkeypatch, name)
    assert killing_families() == killers


@pytest.mark.parametrize("name", ["B-odd-lower", "D8-twisted"])
def test_warm_intern_tables_hide_no_mutant(monkeypatch, name):
    # <k> and {k} are shared by rank: a run that has filled both tables
    # must leave a later mutated closed form to the same families
    assert killing_families() == set()
    assert abelian._ELEMENTARY and abelian._ELEMENTARY_WITH_Z4
    killers = install_closed_form_mutant(monkeypatch, name)
    assert killing_families() == killers


def recompiled(old, new):
    """original -> the same function or method compiled from its source
    with the one line fragment old replaced by new, in the globals of the
    module that defines it."""

    def mutate(original):
        module = sys.modules[original.__module__]
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(old) == 1, old
        namespace = {}
        # Annotations stay unevaluated, as in every confcoh module.
        flags = __future__.annotations.compiler_flag
        code = compile(source.replace(old, new), module.__file__, "exec", flags)
        exec(code, vars(module), namespace)
        return namespace[original.__name__]

    return mutate


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
    # four are killed by one family only.
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
    "m3-A-page-3-differential-zero": (  # the twisted lines hit nothing
        cartan_leray,
        "_run_m3_option_a",
        recompiled("new[p + 3, q - 2] = coker", "new[p + 3, q - 2] = target"),
        {"clss-m3-A"},
    ),
    "m3-B-drops-(2,2)-to-(5,0)": (  # only (1, 2) -> (4, 0) acts
        cartan_leray,
        "_run_m3_option_b",
        recompiled("for p in (1, 2):", "for p in (1,):"),
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


# The pinned m = 7 twisted groups outputs, B and F, as table, csv and json.
TWISTED_DIGESTS = [(argv, digest) for argv, _, digest in DIGESTS if "twisted" in argv]

# Mutants of the twisted tables: (module, function, original -> mutated).
TWISTED_MUTANTS = {
    "duality-wrong-branch": EXECUTOR_MUTANTS["duality-wrong-branch"][:3],
    # The twisted gap: the non-orientable branch reads the torsion of
    # H^(2m-j+1), not of H^(2m-j).  No suite reads the twisted tables, so
    # every family over 2..12 still passes; only the twisted digests catch it.
    "twisted-gap-torsion-one-up": (
        configcoh,
        "_twisted_dual",
        recompiled("h(2 * m - j).torsion", "h(2 * m - j + 1).torsion"),
    ),
}


@pytest.mark.parametrize("name", TWISTED_MUTANTS)
def test_twisted_mutant_changes_every_twisted_digest(monkeypatch, capsys, name):
    module, function, mutate = TWISTED_MUTANTS[name]
    monkeypatch.setattr(module, function, mutate(getattr(module, function)))
    assert len(TWISTED_DIGESTS) == 6
    for argv, digest in TWISTED_DIGESTS:
        assert cli.main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != digest, argv


def test_twisted_gap_mutant_passes_every_suite(monkeypatch):
    module, function, mutate = TWISTED_MUTANTS["twisted-gap-torsion-one-up"]
    monkeypatch.setattr(module, function, mutate(getattr(module, function)))
    assert killing_families() == set()


def sq1_columns(ring, d, twist):
    """Sq1 columns out of degree d, with the product by the generator twist
    added if it is given, of a ring whose degree d + 1 is grown, read
    through the ring's coordinate reader as it stands."""
    shifts = ring._sq1_shifts
    if twist is not None:
        shifts = [*shifts, (0, ring._units[twist])]
    return ring._coords_of(ring._basis(d), shifts)


def sq1_drops_lead_terms(original):
    """sq1_matrix with the coordinates of every Groebner lead read as 0,
    as if a lead lost the rest of its basis element where the Sq1 columns
    read it: the same as dropping each lead term of a column, since the
    right sq1_matrix has memoised every non-standard term first."""

    def mutant(self, d, twist=None):
        original(self, d, twist)  # grows the bases and checks Sq1 on the relations
        memo = self._coords_memo
        self._coords_memo = {**memo, **dict.fromkeys(self._groebner, 0)}
        try:
            return sq1_columns(self, d, twist)
        finally:
            self._coords_memo = memo

    return mutant


def sq1_parity_bit_one_high(original):
    """sq1_matrix with the Leibniz parity of each generator read from the
    bit above the low bit of its packed exponent field (exponent 2 or 3
    mod 4, not odd).  The relation check runs first with the right bits."""

    def mutant(self, d, twist=None):
        original(self, d, twist)
        right = self._sq1_shifts
        self._sq1_shifts = [(bit << 1, shift) for bit, shift in right]
        try:
            return sq1_columns(self, d, twist)
        finally:
            self._sq1_shifts = right

    return mutant


def sq1_untwisted(original):
    """sq1_matrix with the twist ignored: the x*R summand's differential
    without its x1 term."""
    return lambda self, d, twist=None: original(self, d)


# name -> (PresentedF2Algebra method, original -> mutated method, what kills it)
ENGINE_MUTANTS = {
    # Killed by one family only.  Listed x2 first, no Sq1 column of R has
    # a lead term at the split's m (3, 7 and 11), and the twisted columns
    # that have one keep the ranks the split reads at degree m + 1.  The
    # comparison with the three-generator ring kills it too
    # (test_lead_mutant_fails_the_reference).
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
    # Killed by one family only: both differentials square to zero, and
    # the split is read in degree m + 1 alone, where x*R's Sq1-homology
    # (R's at m) is 0 either way.  The comparison with the three-generator
    # ring kills it too (test_untwisted_split_fails_the_reference).
    "x*R-differential-drops-x1": (
        "sq1_matrix",
        sq1_untwisted,
        {"bockstein-page1"},
    ),
    # A candidate is kept without testing its immediate divisors by the
    # later generators, so non-standard monomials join the bases and Sq1
    # of w_m has nonzero coordinates at m = 2.
    "growth-skips-later-divisors": (
        "_grow",
        recompiled("for field, later in steps[i + 1 :]:", "for field, later in ():"),
        {"IllDefinedDerivationError"},
    ),
    # The tail bisection keeps a monomial equal to its limit, generator
    # i - 1 itself when the degree below is its degree, so generator i
    # times generator i - 1 joins the basis a second time (x2*x1 in R's
    # degree 3).
    "growth-tail-takes-its-limit": (
        "_grow",
        recompiled("if below[mid] < limit:", "if below[mid] <= limit:"),
        {"bockstein-page1", "sq1-split"},
    ),
    # Killed by one family only.  The first generator's Sq1 shift reads
    # the last generator's unit, so F's Sq1 x1 becomes x1*y1, while R's
    # table (Sq1 x2 = x2*x1) is unchanged, and so is the three-generator
    # ring's (Sq1 x = x*x1, which is x^2 in its quotient).  The span oracle
    # kills it too (test_span_oracle_rejects_the_shift_table_mutant).
    "shift-table-Sq1-x1=x1*y1-on-F": (
        "__init__",
        recompiled("v - unit))", "v - unit if g else self._units[-1]))"),
        {"bockstein-page1"},
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


def reference_rejects(monkeypatch, name):
    """Whether the comparison with the three-generator ring fails under
    the engine mutant name."""
    mutate = ENGINE_MUTANTS[name][1]
    monkeypatch.setattr(PresentedF2Algebra, "sq1_matrix", mutate(PresentedF2Algebra.sq1_matrix))
    clear_ring_caches()
    try:
        return not reference_route()
    finally:
        clear_ring_caches()


def test_untwisted_split_fails_the_reference(monkeypatch):
    assert reference_rejects(monkeypatch, "x*R-differential-drops-x1")


def test_lead_mutant_fails_the_reference(monkeypatch):
    assert reference_rejects(monkeypatch, "lead-bitset-drops-tail")


def test_span_oracle_rejects_the_shift_table_mutant(monkeypatch):
    # The oracle expands Sq1 from the declared images, not from the
    # engine's shift table, so it sees F's Sq1 x1 read as x1*y1.
    method, mutate, _ = ENGINE_MUTANTS["shift-table-Sq1-x1=x1*y1-on-F"]
    monkeypatch.setattr(
        PresentedF2Algebra, method, mutate(getattr(PresentedF2Algebra, method))
    )
    m = 5
    ring = f2algebra.ordered_config_ring(m)
    oracle = SpanOracle(ring)
    wrong = [d for d in range(2 * m + 1) if ring.sq1_matrix(d) != oracle.sq1_matrix(d)]
    assert wrong == list(range(1, 2 * m - 1))
