"""Mutants of the presented mod-2 rings, the closed forms, the executors and
the F2 engine, each pinned to the exact set of check families that kill it.

One table, MUTANTS, holds them all: name -> (layer, owner, attribute,
original -> mutated, killing families).  install patches owner.attribute
with the mutated value of its original; every suite then runs over
m = 2..12, and the families of the failing checks, or the name of the
error that stops the run, must be the row's set.  An identity row's set
is empty.  Each row is run under its layer's test name, so a failing id
says which layer was mutated:

- ring: one relation or one Sq1 generator image of a presentation.  The
  suites sweep B's Grassmannian ring R (of B = R + x*R) and F's ring; no
  suite reads B's three-generator ring, whose rows the comparison with
  the split kills instead;
- closed form: one group in one degree of a configuration space table
  branch, of a classifying-space formula or of the twisted table, or the
  sign of the dihedral action on one degree of the fibre;
- executor: one step of a spectral-sequence executor, or the branch the
  duality check takes;
- engine: one step of the F2 engine's Sq1 columns, over its packed
  monomials, one line of its basis growth, or one entry of its Sq1 shift
  table.

The other routes install rows by name: the comparison of the
three-generator ring with the split, the pinned twisted tables, and the
span oracle.

F's ring is presented over u = x1 + y1 and x1, and its relation (u +
x1)^(m+1), which is y1^(m+1), is not mutated: it is u times the third
relation plus the first, so it already lies in the ideal of the other two
and dropping it changes nothing.
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


def presentation(mutate):
    """original -> a ring builder that rebuilds each ring original(m) with
    mutate(relations, Sq1 on generators) as its presentation."""

    def wrap(original):
        def mutant(m):
            ring = original(m)
            rels, sq1 = mutate(list(ring.relations), ring.sq1_on_generators)
            return PresentedF2Algebra(list(ring.generators), rels, sq1)

        return mutant

    return wrap


AS_PRESENTED = presentation(lambda rels, sq1: (rels, sq1))


def wrong_at(args, wrong):
    """original -> the same function but for the value wrong at args, which
    the original must not return there."""

    def wrap(original):
        assert original(*args) != wrong
        return lambda *a: wrong if a == args else original(*a)

    return wrap


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


def sq1_columns(ring, d, table):
    """Columns out of degree d of a ring whose degree d + 1 is grown, read
    through a shift table by the ring's coordinate reader as it stands."""
    return ring._coords_of(ring._basis(d), table)


def sq1_drops_lead_terms(original):
    """sq1_matrix with the coordinates of every Groebner lead read as 0,
    as if a lead lost the rest of its basis element where Sq1 reads it:
    in the normal forms of the generators' images that its shift table is
    built from, and in the columns.  That is the same as dropping each lead
    term of an image and of a column, since the right sq1_matrix has
    memoised every non-standard term first."""

    def mutant(self, d, twist=None):
        original(self, d, twist)  # grows the bases and checks Sq1 on the relations
        memo, tables = self._coords_memo, self._sq1_tables
        self._coords_memo = {**memo, **dict.fromkeys(self._groebner, 0)}
        self._sq1_tables = {}
        try:
            return sq1_columns(self, d, self._sq1_table(twist))
        finally:
            self._coords_memo, self._sq1_tables = memo, tables

    return mutant


def sq1_parity_bit_one_high(original):
    """sq1_matrix with the Leibniz parity of each generator read from the
    bit above the low bit of its packed exponent field (exponent 2 or 3
    mod 4, not odd).  The relation check runs first with the right bits."""

    def mutant(self, d, twist=None):
        original(self, d, twist)
        mask, reads = self._sq1_table(twist)
        return sq1_columns(self, d, (mask << 1, {s << 1: adds for s, adds in reads.items()}))

    return mutant


def sq1_untwisted(original):
    """sq1_matrix with the twist ignored: the x*R summand's differential
    without its x1 term."""
    return lambda self, d, twist=None: original(self, d)


E, E4 = AbGroup2.elementary, AbGroup2.elementary_with_z4
PLUS, MINUS = stiefel.ActionSign.PLUS, stiefel.ActionSign.MINUS
R, B3, F = "grassmannian_ring", "unordered_config_ring", "ordered_config_ring"
RING, CLOSED_FORM, EXECUTOR, ENGINE = "ring", "closed form", "executor", "engine"

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
SIGNS = {
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

# name -> (layer, owner, attribute, original -> mutated, killing families)
MUTANTS = {
    "R-as-presented": (RING, f2algebra, R, AS_PRESENTED, set()),
    "F-as-presented": (RING, f2algebra, F, AS_PRESENTED, set()),
    "B3-as-presented": (RING, f2algebra, B3, AS_PRESENTED, set()),
    "B-drop-term-w_m": (  # w_m: sum C(m-i, i) x1^(m-2i) x2^i
        RING, f2algebra, R,
        presentation(lambda rels, sq1: (replace(rels, 0, drop_term(rels[0], top_x2)), sq1)),
        {"IllDefinedDerivationError"},
    ),
    "B-drop-term-w_m+1": (
        RING, f2algebra, R,
        presentation(lambda rels, sq1: (replace(rels, 1, drop_term(rels[1], top_x2)), sq1)),
        {"IllDefinedDerivationError"},
    ),
    # sum x1^i y1^(m-i) over u and x1: one term, u^m, when m + 1 is a power
    # of 2 (m = 3, 7), where it is left as it is.  Killed by one family only.
    "F-drop-term-sum": (
        RING, f2algebra, F,
        presentation(lambda rels, sq1: (replace(rels, 2, drop_term(rels[2])), sq1)),
        {"bockstein-page1"},
    ),
    "B-Sq1-x2=0": (  # in place of x1*x2
        RING, f2algebra, R,
        presentation(lambda rels, sq1: (rels, {**sq1, X2: frozenset()})),
        {"bockstein-page1", "sq1-split"},
    ),
    # Sq1 u = u*x1, as Sq1 x1 stays x1^2.  Killed by one family only.
    "F-Sq1-y1=x1*y1": (
        RING, f2algebra, F,
        presentation(lambda rels, sq1: (rels, {**sq1, 0: frozenset({(1, 1)})})),
        {"bockstein-page1"},
    ),
    # B's three-generator ring, generators x, x2, x1; no suite reads it
    "B-x^2+x1^2": (  # in place of x^2 + x*x1
        RING, f2algebra, B3,
        presentation(lambda rels, sq1: (replace(rels, 0, frozenset({(2, 0, 0), (0, 0, 2)})), sq1)),
        set(),
    ),
    "B-Sq1-x2=x*x2": (
        RING, f2algebra, B3,
        presentation(lambda rels, sq1: (rels, {**sq1, 1: frozenset({(1, 1, 0)})})),
        set(),
    ),
    "B-even-lower": (  # B(P^6, 2), H^4 = <2> + Z/4: the Z/4 split
        CLOSED_FORM, configcoh, "_unordered", wrong_at((6, 4), E(4)),
        {"bockstein-page1", "bockstein-ranks", "clss-even-D8", "duality", "global"},
    ),
    "B-even-upper": (  # B(P^6, 2), H^8 = <2> + Z/4: the Z/4 split
        CLOSED_FORM, configcoh, "_unordered", wrong_at((6, 8), E(4)),
        {"bockstein-page1", "bockstein-ranks", "clss-even-D8", "duality", "global"},
    ),
    "B-odd-lower": (  # B(P^5, 2), H^4 = <2> + Z/4: the Z/4 split
        CLOSED_FORM, configcoh, "_unordered", wrong_at((5, 4), E(4)),
        {"bockstein-page1", "bockstein-ranks", "clss-1mod4", "global"},
    ),
    "B-odd-upper-open": (  # B(P^7, 2), m = 3 mod 4, H^10 = <2> becomes Z/4
        CLOSED_FORM, configcoh, "_unordered", wrong_at((7, 10), E4(0)),
        {"bockstein-page1", "bockstein-ranks", "duality", "global"},
    ),
    "F-even-lower": (  # F(P^4, 2), H^2 = <2> gains a Z/2
        CLOSED_FORM, configcoh, "_ordered", wrong_at((4, 2), E(3)),
        {"bockstein-ranks", "clss-even-Z2xZ2", "duality", "global"},
    ),
    "F-even-upper": (  # F(P^8, 2), H^10 = <4> loses a Z/2
        CLOSED_FORM, configcoh, "_ordered", wrong_at((8, 10), E(3)),
        {"bockstein-ranks", "clss-even-Z2xZ2", "duality", "global"},
    ),
    "F-odd-lower": (  # F(P^7, 2), H^5 = <2> gains a Z/2
        CLOSED_FORM, configcoh, "_ordered", wrong_at((7, 5), E(3)),
        {"bockstein-ranks", "clss-odd-Z2xZ2", "global"},
    ),
    "F-odd-upper": (  # F(P^9, 2), H^12 = <3> loses a Z/2
        CLOSED_FORM, configcoh, "_ordered", wrong_at((9, 12), E(2)),
        {"bockstein-ranks", "clss-odd-Z2xZ2", "duality", "global"},
    ),
    "D8-integral": (  # H^8 = <4> + Z/4: the Z/4 split
        CLOSED_FORM, groupcoh, "_d8_integral", wrong_at((8,), E(5)),
        {"clss-1mod4", "clss-3mod4-fragment", "clss-even-D8", "clss-m3-A"},
    ),
    "D8-twisted": (  # H^6 = <2> + Z/4 gains a Z/2
        CLOSED_FORM, groupcoh, "_d8_twisted", wrong_at((6,), E4(3)),
        {"clss-1mod4", "clss-m3-A", "duality"},
    ),
    "Z2xZ2-integral": (  # H^4 = <3> loses a Z/2
        CLOSED_FORM, groupcoh, "_z2z2_integral", wrong_at((4,), E(2)),
        {"clss-even-Z2xZ2", "clss-odd-Z2xZ2", "uct-mod2-Z2xZ2"},
    ),
    "Z2xZ2-twisted": (  # H^3 = <2> gains a Z/2
        CLOSED_FORM, groupcoh, "_z2z2_twisted", wrong_at((3,), E(3)),
        {"clss-odd-Z2xZ2", "duality"},
    ),
    **{
        f"sign-V{n},2-H{q}": (CLOSED_FORM, stiefel, "d8_action_sign", wrong_at((n, q), sign), killers)
        for (n, q), (sign, killers) in SIGNS.items()
    },
    # The twisted gap: the non-orientable branch reads the torsion of
    # H^(2m-j+1), not of H^(2m-j).  No suite reads the twisted tables, so
    # every family still passes; only the twisted digests catch it.
    "twisted-gap-torsion-one-up": (
        CLOSED_FORM, configcoh, "_twisted_dual",
        recompiled("h(2 * m - j).torsion", "h(2 * m - j + 1).torsion"),
        set(),
    ),
    "image-ignores-page-m+1-source": (
        EXECUTOR, cartan_leray, "_image_log2",
        lambda original: lambda src_mid, src_top: original(src_mid, ZERO),
        ONE_MOD_4,
    ),
    # The even, 1 mod 4 and odd ordered executors replay their rounds in one
    # loop, so each edit of it reaches two families: the even pair, whose
    # top class survives and whose (0, m) is a Z/2, or the odd pair, which
    # alone have a page-m source.
    "rounds-drop-top-fibre-class": (
        EXECUTOR, cartan_leray, "_replay_rounds",
        recompiled("+= page.get((0, 2 * m - 1), ZERO)", "+= ZERO"),
        EVEN,
    ),
    "rounds-add-(0,m)-whole": (  # its torsion too, not only its free part
        EXECUTOR, cartan_leray, "_replay_rounds",
        recompiled("page.get((0, m), ZERO).free_part()", "page.get((0, m), ZERO)"),
        EVEN,
    ),
    "rounds-ignore-page-m-source": (
        EXECUTOR, cartan_leray, "_replay_rounds",
        recompiled("page.get((m - ell, m - 1), ZERO)", "ZERO"),
        ONE_MOD_4,
    ),
    # Killed by one family only: the closed form is read by run_1mod4 alone.
    "odd-closed-form-loses-Z4": (  # <ell/2 - 1> in place of {ell/2 - 1}
        EXECUTOR, cartan_leray, "_odd_closed_form",
        lambda original: lambda ell: (
            original(ell).without_cyclic(2) if ell % 4 == 2 else original(ell)
        ),
        {"clss-1mod4"},
    ),
    # Killed by one family only: even_cokernel is read by run_even alone,
    # and only for the dihedral group.
    "even-cokernel-loses-Z4": (  # <ell/2> in place of {ell/2}
        EXECUTOR, cartan_leray, "even_cokernel",
        lambda original: lambda m, ell: (
            original(m, ell).without_cyclic(2) if ell % 4 == 0 else original(m, ell)
        ),
        {"clss-even-D8"},
    ),
    # Killed by one family only: the m = 3 mod 4 fragment is the only
    # caller.
    "fragment-dm-removes-Z4": (  # a Z/4 removed where d_m injects a Z/2
        EXECUTOR, cartan_leray, "_less_one_summand",
        lambda original: lambda group, exponent: (
            original(group, 2 if exponent == 1 else exponent)
        ),
        {"clss-3mod4-fragment"},
    ),
    # Each m = 3 option is its own family by construction, so the next
    # four are killed by one family only.
    "m3-A-loses-fibre-class": (  # (0, 3) does not survive option A
        EXECUTOR, cartan_leray, "_run_m3_option_a",
        lambda original: lambda page, report: {
            pq: g for pq, g in original(page, report).items() if pq != (0, 3)
        },
        {"clss-m3-A"},
    ),
    "m3-B-diagonal-extra-bit": (  # one more torsion bit on each diagonal
        EXECUTOR, cartan_leray, "_torsion_bits_on_diagonal",
        lambda original: lambda page, t: (
            original(page, t)[0] + 1, original(page, t)[1]
        ),
        {"clss-m3-B"},
    ),
    "m3-A-page-3-differential-zero": (  # the twisted lines hit nothing
        EXECUTOR, cartan_leray, "_run_m3_option_a",
        recompiled("new[p + 3, q - 2] = coker", "new[p + 3, q - 2] = target"),
        {"clss-m3-A"},
    ),
    "m3-B-drops-(2,2)-to-(5,0)": (  # only (1, 2) -> (4, 0) acts
        EXECUTOR, cartan_leray, "_run_m3_option_b",
        recompiled("for p in (1, 2):", "for p in (1,):"),
        {"clss-m3-B"},
    ),
    # Killed by one family only: twisted_cohomology reads the same branch,
    # but no suite reads twisted_cohomology.
    "duality-wrong-branch": (  # orientable iff m is odd
        EXECUTOR, configcoh, "is_orientable",
        lambda original: lambda s: not original(s),
        {"duality"},
    ),
    # Killed by one family only.  Listed x2 first, no Sq1 column of R has
    # a lead term at the split's m (3, 7 and 11), and the twisted columns
    # that have one keep the ranks the split reads at degree m + 1.  The
    # comparison with the three-generator ring kills it too: that ring's
    # image Sq1 x = x^2 is a lead, so its table reads Sq1 x as 0.
    "lead-bitset-drops-tail": (
        ENGINE, PresentedF2Algebra, "sq1_matrix", sq1_drops_lead_terms,
        {"bockstein-page1"},
    ),
    "packed-parity-bit-one-high": (
        ENGINE, PresentedF2Algebra, "sq1_matrix", sq1_parity_bit_one_high,
        {"bockstein-page1", "sq1", "sq1-split"},
    ),
    # Killed by one family only: both differentials square to zero, and
    # the split is read in degree m + 1 alone, where x*R's Sq1-homology
    # (R's at m) is 0 either way.  The comparison with the three-generator
    # ring kills it too.
    "x*R-differential-drops-x1": (
        ENGINE, PresentedF2Algebra, "sq1_matrix", sq1_untwisted,
        {"bockstein-page1"},
    ),
    # A candidate is kept without testing its immediate divisors by the
    # later generators, so non-standard monomials join the bases and Sq1
    # of w_m has nonzero coordinates at m = 2.
    "growth-skips-later-divisors": (
        ENGINE, PresentedF2Algebra, "_grow",
        recompiled("for field, step, h in later:", "for field, step, h in ():"),
        {"IllDefinedDerivationError"},
    ),
    # Each tail after the first starts one monomial early, on the last
    # monomial of the group before, so generator i times that monomial
    # joins the basis a second time (x2*x1 in R's degree 3).  The bockstein
    # suite fails at m = 2, and at m = 3 Sq1 of w_4 has nonzero
    # coordinates, which stops the run.
    "growth-tail-starts-one-early": (
        ENGINE, PresentedF2Algebra, "_grow",
        recompiled(
            "first = starts[e - g][i + 1 if square in gb else i]",
            "first = max(starts[e - g][i + 1 if square in gb else i] - 1, 0)",
        ),
        {"IllDefinedDerivationError"},
    ),
    # Group i of each tail is skipped whether or not g_i^2 is a lead, and
    # the last generator offers nothing, so standard monomials such as F's
    # u^2 go missing from the bases.  The first walk that reaches one finds
    # no non-standard immediate divisor and stops the run.
    "growth-skips-tail-group-without-square-lead": (
        ENGINE, PresentedF2Algebra, "_grow",
        recompiled("i + 1 if square in gb else i]", "i + 1]"),
        {"RuntimeError"},
    ),
    # Killed by one family only.  Each product of the first generator's
    # Sq1 reads as the last generator, so F's Sq1 u becomes u*x1, while R's
    # table (Sq1 x2 = x2*x1) is unchanged, and so is the three-generator
    # ring's (Sq1 x = x^2, which reduces to x*x1).  The name is from F's
    # listing over x1 and y1, where the mutant read Sq1 x1 as x1*y1; over
    # u and x1 it reads Sq1 y1 = Sq1 (u + x1) as x1*y1, and keeps its kill
    # set.  At m = 2, where u^2 is a lead of F, both products of NF(Sq1 u)
    # = u*x1 + x1^2 read as x1 and make one entry, so Sq1 u is u*x1 there
    # too, not 0.  The span oracle kills it too.
    "shift-table-Sq1-x1=x1*y1-on-F": (
        ENGINE, PresentedF2Algebra, "_sq1_table",
        recompiled(
            "p = basis[low.bit_length() - 1] - unit",
            "p = basis[low.bit_length() - 1] - unit if g else self._units[-1]",
        ),
        {"bockstein-page1"},
    ),
}


@pytest.fixture(autouse=True)
def fresh_ring_cache():
    """No test reads a configuration ring that another test built."""
    f2algebra.config_mod2_ring.cache_clear()
    yield
    f2algebra.config_mod2_ring.cache_clear()


def install(monkeypatch, name):
    """Patch in the mutant name for the test; returns its killing families."""
    _, owner, attribute, mutate, killers = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, mutate(getattr(owner, attribute)))
    return killers


def killing_families():
    """Families of the failing checks of every suite over 2..12, or the
    name of the error that stopped the run: a bad presentation, or a
    standard monomial missing from its basis."""
    try:
        report = suites.run_suites(list(suites.SUITE_NAMES), range(2, 13))
    except (ValueError, RuntimeError) as exc:
        return {type(exc).__name__}
    return {c.suite for c in report.checks if not c.passed}


def kill_set_test(layer):
    """The one runner, over the rows of one layer."""

    @pytest.mark.parametrize("name", [name for name, row in MUTANTS.items() if row[0] == layer])
    def test(monkeypatch, name):
        killers = install(monkeypatch, name)
        assert killing_families() == killers

    return test


test_mutant_is_killed = kill_set_test(RING)
test_closed_form_mutant_is_killed = kill_set_test(CLOSED_FORM)
test_executor_mutant_is_killed = kill_set_test(EXECUTOR)
test_engine_mutant_is_killed = kill_set_test(ENGINE)


@pytest.mark.parametrize("name", ["B-odd-lower", "D8-twisted"])
def test_warm_intern_tables_hide_no_mutant(monkeypatch, name):
    # <k> and {k} are shared by rank: a run that has filled both tables
    # must leave a later mutated closed form to the same families
    assert killing_families() == set()
    assert abelian._ELEMENTARY and abelian._ELEMENTARY_WITH_Z4
    killers = install(monkeypatch, name)
    assert killing_families() == killers


def reference_route():
    """The comparison of the three-generator ring with the split over
    2..12; False if it fails."""
    try:
        for m in range(2, 13):
            assert_split_equals_the_three_generator_ring(m)
    except (IllDefinedDerivationError, AssertionError):
        return False
    return True


def test_unmutated_reference_passes(monkeypatch):
    install(monkeypatch, "B3-as-presented")
    assert reference_route()


@pytest.mark.parametrize(
    "name",
    ["B-x^2+x1^2", "B-Sq1-x2=x*x2", "x*R-differential-drops-x1", "lead-bitset-drops-tail"],
)
def test_reference_mutant_is_killed(monkeypatch, name):
    install(monkeypatch, name)
    assert not reference_route()


# The pinned m = 7 twisted groups outputs, B and F, as table, csv and json.
TWISTED_DIGESTS = [(argv, digest) for argv, _, digest in DIGESTS if "twisted" in argv]


@pytest.mark.parametrize("name", ["duality-wrong-branch", "twisted-gap-torsion-one-up"])
def test_twisted_mutant_changes_every_twisted_digest(monkeypatch, capsys, name):
    install(monkeypatch, name)
    assert len(TWISTED_DIGESTS) == 6
    for argv, digest in TWISTED_DIGESTS:
        assert cli.main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != digest, argv


def test_span_oracle_rejects_the_shift_table_mutant(monkeypatch):
    # The oracle expands Sq1 from the declared images, not from the
    # engine's shift table, so it sees F's Sq1 x1 read as x1*y1.
    install(monkeypatch, "shift-table-Sq1-x1=x1*y1-on-F")
    m = 5
    ring = f2algebra.ordered_config_ring(m)
    oracle = SpanOracle(ring)
    wrong = [d for d in range(2 * m + 1) if ring.sq1_matrix(d) != oracle.sq1_matrix(d)]
    assert wrong == list(range(1, 2 * m - 1))
