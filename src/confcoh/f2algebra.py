"""Degreewise linear algebra for finitely presented graded F2-algebras.

A presentation is a list of generators with degrees and a list of
homogeneous relation polynomials.  Each ring grows, one degree at a time
and on demand, the Groebner basis of its relation ideal and the quotient
basis of that degree: its standard monomials (divisible by no lead).
S-pairs wait, as their lcm and the two leads, until their degree is
reached; a pair of coprime leads, whose S-polynomial reduces to zero, is
never formed.  No scan of the basis is needed: a monomial is non-standard
iff it is a lead or one of its immediate divisors (one exponent lowered by
one) is non-standard, and an immediate divisor lies in a lower degree,
whose basis is complete.  Nor is a sort: the standard monomials whose
first nonzero exponent is generator i's are generator i times the tail of
a lower basis that has no earlier exponent, so taken generator by
generator they come out descending, each tested once.  Nor is a search:
each basis is stored with the running lengths of its groups, which are
where its tails start, and then with its length, so each group is the
slice between two stored starts.  Two tests are skipped where they can
change nothing.  When g_i^2 is a lead, group i of the tail is not offered:
each g_i*t there is a multiple of g_i^2.  And the test of a later generator
g_j runs on group i only if that group dropped a candidate g_j degrees
down: each v/g_j is a candidate of group i there, so if none was dropped,
every v/g_j is standard.  Each basis is stored with a bitmask of the groups
that dropped one.
The relations are stored once, by degree: growth reduces those of each
degree it reaches, the Sq1 check walks them degree by degree, and a new
ring reads from them which degrees it may share (see _start_from).  Degree
0, the unit alone, is there from the start.
A standard monomial's coordinates in the quotient basis are its own bit,
read from its position; the memo holds only those of non-standard
monomials, as bitsets found from lower ones: a lead has the bits of the
rest of its basis element, and any other monomial w those of h*v over the
standard v of a non-standard immediate divisor w/h.  Polynomials are
reduced only while a degree grows, by the same rules through the memo.  On
top of that sits the degree-raising derivation Sq1 (squaring on degree-1
generators, extended by the Leibniz rule).  One reader, _coords_of, gives
each packed monomial v the XOR of those bits and bitsets over v*p for the
products p that a shift table (mask, reads) reads for v's parities v & mask.
Sq1's table is keyed by product: p = t/g for a term t of the normal form of
Sq1 g as coords reads it, taken when v's exponents over the generators
that carry p have an odd sum (see _sq1_table).  It gives the Sq1 matrices
and the check, degree by degree up to the one asked for, that Sq1 of each
relation is zero in the quotient; _OWN, which reads v itself, gives the
coordinates that coords adds up.
Its homology is the first page of the mod-2 Bockstein tower, with each
matrix ranked once by a pivot map of bitsets.

Inside a ring a monomial is one int, in the packed layout of Monagan and
Pearce (J. Symbolic Comput. 46 (2011) 807-822): each exponent has a field of
FIELD_BITS bits whose top bit is a guard and stays clear, the first
generator's field highest, and the weighted degree sits above them all.
Integer order is then the order by weighted degree and then
lexicographically, so the lead of a homogeneous polynomial is its largest
int; bases are listed descending, reproducible run to run.  A product by a
generator adds its packed unit and an immediate divisor subtracts it.  The
S-pairs are formed on these ints too: an lcm is a fieldwise max, and two
leads are coprime iff the guard masks of their nonzero fields are disjoint.
Exponents fit up to MAX_EXPONENT, so every degree up to MAX_DEGREE can be
grown; a presentation or monomial that does not fit, or a degree past that
bound, is refused with ValueError rather than wrapped, and so is a relation
of degree 0, which would make the ring zero.  Exponent tuples appear
only at the public boundary: the presentations, degree_basis and coords.

The unordered space's ring is swept as R + x*R.  H*(BD8) = F2[x, x1, x2]/
(x^2 + x*x1) is H*(BO(2)) + x*H*(BO(2)), H*(BO(2)) = F2[x1, x2], and w_m,
w_{m+1} do not involve x, so that ring is R + x*R for the Grassmannian ring
R = F2[x1, x2]/(w_m, w_{m+1}).  As Sq1 x = x^2 = x*x1, Sq1(x*r) = x*(x1*r +
Sq1 r): R carries Sq1 and, for x*R one degree up, Sq1 + x1 (a twist), and
(Sq1 + x1)^2 = 0 since Sq1(x1*r) = x1^2*r + x1*Sq1 r.

The configuration rings of P^m are the classifying-space rings modulo
relations of degree m and up, and the two rings swept here, F2[x1, x2] for R
and F2[u, x1] for F (see ordered_config_ring), are free: below degree m every
configuration ring is the free ring.  So config_mod2_ring starts each new
ring from the last one of its kind (see _start_from), and a range of m grows
and sweeps those degrees once.
"""

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

Monomial = tuple[int, ...]
Poly = frozenset  # frozenset[Monomial] over F2
ShiftTable = tuple[int, dict[int, tuple[int, ...]]]  # (mask, value of v & mask -> adds)

FIELD_BITS = 16  # bits per packed exponent, the top one a guard
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
MAX_DEGREE = MAX_EXPONENT  # no exponent of a monomial exceeds its degree


class IllDefinedDerivationError(ValueError):
    """Sq1 of a relation is not in the ideal: no induced derivation."""


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 by the bitwise rule (Lucas at p = 2)."""
    if k < 0 or k > n:
        return 0
    return 1 if (k & (n - k)) == 0 else 0


# ---------------------------------------------------------------------------
# GF(2) row reduction on int bitsets
# ---------------------------------------------------------------------------


class F2Echelon:
    """Echelon basis over GF(2) as a map from pivot to row; rows are int
    bitmasks and the pivot of a row is its lowest set bit.

    Rows are not back-substituted, so a row may be nonzero on the pivots of
    rows added after it; the rank and the pivot set still depend only on
    the span.
    """

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        rows = self.rows
        while v:
            p = (v & -v).bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = v
                return True
            v ^= row
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def f2_rank(columns: list[int]) -> int:
    """Rank of the span of the columns; each nonzero column is offered once
    and a zero column not at all."""
    ech = F2Echelon()
    add = ech.add
    for c in filter(None, columns):
        add(c)
    return ech.rank


# ---------------------------------------------------------------------------
# Presented algebras
# ---------------------------------------------------------------------------


def _packed_max(a: int, b: int, guards: int) -> int:
    """Fieldwise max of two packed exponent parts with their guards clear:
    a field of a keeps its guard through the subtraction iff it is at least
    b's, and no field borrows from the next."""
    sel = ((((a | guards) - b) & guards) >> (FIELD_BITS - 1)) * MAX_EXPONENT
    return a & sel | b & ~sel


def _support(v: int, exponents: int, guards: int) -> int:
    """The guard bits of the nonzero exponent fields of a packed monomial."""
    return ((v & exponents) + exponents) & guards


def _submasks(mask: int) -> list[int]:
    """Every s with s & mask == s, from mask down to 0."""
    out = [mask]
    s = mask
    while s:
        s = s - 1 & mask
        out.append(s)
    return out


def _refusal(d, twist) -> TypeError:
    """The error of a Sq1 reader given a degree that is not an int, or a
    bool twist."""
    if type(d) is not int:
        return TypeError(f"degree must be an int, got {d!r}")
    return TypeError(f"twist must be a generator index or None, got {twist!r}")


# A shift table (mask, reads) maps each value of v & mask to the products
# that v is shifted by (see _coords_of).  This one reads v itself.
_OWN: ShiftTable = (0, {0: (0,)})


class PresentedF2Algebra:
    def __init__(
        self,
        generators: list[tuple[str, int]],
        relations: list[Poly],
        sq1_on_generators: dict[int, Poly] | None = None,
    ) -> None:
        self.generators = tuple(generators)
        self.degrees = tuple(d for _, d in generators)
        for d in self.degrees:
            if type(d) is not int:
                raise TypeError(f"generator degrees must be ints, got {d!r}")
            if d < 1:
                raise ValueError("generator degrees must be >= 1")
        self.relations = tuple(frozenset(r) for r in relations)
        self.sq1_on_generators = dict(sq1_on_generators or {})
        n = len(self.degrees)
        for g in self.sq1_on_generators:
            if not 0 <= g < n:
                raise ValueError(f"Sq1 declared on generator {g} of {n}")
        # generator i's exponent field starts at bit _shifts[i], the first
        # generator's highest; the weighted degree starts at _degree_shift
        shift = self._degree_shift = FIELD_BITS * n
        self._shifts = tuple(range(shift - FIELD_BITS, -1, -FIELD_BITS))
        units, steps = [], []  # (exponent field, unit) of each generator
        self._exponent_bits = self._guards = 0
        for g, s in zip(self.degrees, self._shifts):
            unit = g << shift | 1 << s
            units.append(unit)
            steps.append((MAX_EXPONENT << s, unit))
            self._exponent_bits |= MAX_EXPONENT << s
            self._guards |= 1 << s + FIELD_BITS - 1
        self._units, self._steps = tuple(units), tuple(steps)
        # (degree, unit, its square, and (field, unit, degree) of each later
        # generator) of each generator
        later = [(field, unit, g) for (field, unit), g in zip(steps, self.degrees)]
        self._growth = tuple(
            (g, unit, unit + unit, tuple(later[i + 1 :]))
            for i, (g, unit) in enumerate(zip(self.degrees, units))
        )
        self._relations: dict[int, list[frozenset[int]]] = {}  # degree -> relations
        for r in self.relations:
            if not r:
                raise ValueError("zero relation")
            packed = frozenset(map(self._pack, r))
            degs = {v >> shift for v in packed}
            if len(degs) != 1:
                raise ValueError(f"relation {set(r)} is not homogeneous")
            (d,) = degs
            if not d:
                raise ValueError(f"relation {set(r)} has degree 0")
            self._relations.setdefault(d, []).append(packed)
        self._sq1_checked = 0  # Sq1 of each relation through this degree is zero
        for g, poly in self.sq1_on_generators.items():
            if any(self._pack(m) >> shift != self.degrees[g] + 1 for m in poly):
                raise ValueError("Sq1 image of a generator has the wrong degree")
        # twist -> shift table of Sq1 plus the product by that generator
        # (see _sq1_table), None -> Sq1's; built at the first Sq1 call
        self._sq1_tables: dict[int | None, ShiftTable] = {}
        self._groebner: dict[int, frozenset[int]] = {}  # lead -> polynomial
        # degree -> S-pairs (lcm, a, b), a and b leads keying _groebner
        self._pairs: dict[int, list[tuple[int, int, int]]] = {}
        # non-standard monomial -> coordinates, complete degrees only
        self._coords_memo: dict[int, int] = {}
        # degree -> basis, descending; degree 0 is the unit alone
        self._basis_cache: dict[int, list[int]] = {0: [0]}
        # degree -> where each generator's group starts in that basis, then
        # its length: group i is basis[starts[i]:starts[i + 1]]
        self._starts: dict[int, tuple[int, ...]] = {0: (0,) * n + (1,)}
        # degree -> bit i set iff group i of that basis dropped a candidate
        self._dropped: dict[int, int] = {0: 0}
        self._position: dict[int, int] = {0: 0}  # standard monomial -> place in basis
        # (degree, twist) -> Sq1 matrix out of that degree, and its rank
        self._sq1_matrix_cache: dict[tuple[int, int | None], list[int]] = {}
        self._rank_cache: dict[tuple[int, int | None], int] = {}

    # -- monomial bookkeeping ---------------------------------------------

    def _pack(self, mono: Monomial) -> int:
        """The packed form of an exponent tuple, refused unless it has one
        exponent per generator, each an int (bool refused) in
        0..MAX_EXPONENT."""
        units = self._units
        v = 0
        if len(mono) == len(units):
            for e, unit in zip(mono, units):
                if type(e) is not int:
                    raise TypeError(f"exponents must be ints, got {e!r} in {mono}")
                if not 0 <= e <= MAX_EXPONENT:
                    break
                v += e * unit
            else:
                return v
        raise ValueError(f"{mono} is not {len(units)} exponents in 0..{MAX_EXPONENT}")

    def _unpack(self, v: int) -> Monomial:
        """The exponent tuple of a packed monomial."""
        return tuple(v >> s & MAX_EXPONENT for s in self._shifts)

    # -- Groebner basis and quotient bases ------------------------------------

    def _normal_form(self, poly) -> frozenset[int]:
        """Full reduction of a polynomial of the frontier degree by the
        Groebner basis as grown so far.  The largest remaining monomial w
        becomes the sum of h*v over the standard v in the coordinates of a
        non-standard immediate divisor w/h, if it has one; else, a lead, the
        rest of its basis element; else it is standard and moves to the
        result."""
        position, gb, memo, steps = self._position, self._groebner, self._coords_memo, self._steps
        todo = set(poly)
        out = []
        while todo:
            w = max(todo)
            for field, unit in steps:
                if w & field and (u := w - unit) not in position:
                    if u not in memo:
                        self._walk(u)
                    todo.remove(w)
                    todo.symmetric_difference_update(self._lift(u, unit))
                    break
            else:
                if w in gb:
                    todo ^= gb[w]
                else:
                    todo.remove(w)
                    out.append(w)
        return frozenset(out)

    def _add_to_groebner(self, poly: frozenset[int]) -> None:
        """Add a nonzero reduced polynomial to the Groebner basis and queue
        a pair with each older element whose lead is not coprime to its
        lead; an S-polynomial of coprime leads reduces to zero (Buchberger's
        first criterion).

        The pairs are formed on packed exponent parts, the degree masked
        off: an lcm is a fieldwise max, and two leads are coprime iff the
        guard bits of their nonzero fields are disjoint.  Only a queued lcm
        gets its degree.  Reducing more pairs than needed, or the pairs of
        one degree in another order, changes nothing: normal forms and
        quotient bases with respect to a Groebner basis are unique.
        """
        lead = max(poly)
        exponents, guards, shift = self._exponent_bits, self._guards, self._degree_shift
        e = lead & exponents
        nonzero = _support(e, exponents, guards)
        for other in self._groebner:
            if _support(other, exponents, guards) & nonzero:
                fields = self._unpack(_packed_max(e, other & exponents, guards))
                lcm = sum(k * unit for k, unit in zip(fields, self._units))
                self._pairs.setdefault(lcm >> shift, []).append((lcm, other, lead))
        self._groebner[lead] = poly

    def _grow(self, d: int) -> None:
        """Grow the Groebner basis and the quotient bases through degree d;
        the frontier is the number of bases built.

        Homogeneous Buchberger, degree by degree: the nonzero normal forms
        of the relations and of the S-polynomials of that degree join the
        basis.  When an element joins, a pair (lcm, a, b) is queued for each
        older element whose lead is not coprime to its own, a and b the two
        leads; the pair waits until its degree is reached, and only then is
        its S-polynomial formed.
        A new element is reduced, so no older lead divides its lead and its
        pairs lie in higher degrees.

        The basis of a degree is its standard monomials (divisible by no
        lead), descending, each mapped to its position in that order; that
        position is their one home, since their coordinates are its bit and
        the coordinate memo keeps non-standard monomials only.
        Standard monomials are closed under division, so those whose first
        nonzero exponent is generator i's are generator i times the tail of
        the basis g_i degrees down: its monomials with no earlier field set,
        the smallest ones.  Group by group in generator order, each in that
        tail's order, the candidates come out descending, each once, and
        the running lengths of the groups are where the tails start: the
        basis of each degree is stored with the start of each generator's
        group and then with its length, so group i is the slice from start
        i to start i + 1.  A candidate is standard iff it is not a lead
        (only a lead of its degree, one that joined as that degree grew, can
        match) and, for each later generator it contains, its immediate
        divisor by that generator is in the basis of its degree.
        Two skips leave each basis as it is.  When g_i^2 is a lead, group i
        of the tail, the monomials with a factor g_i, is not offered: each
        g_i*t there is a multiple of g_i^2.  The tail then starts at its
        group i + 1, which for the last generator is the basis end: an
        empty slice.  And each basis is stored with a bitmask of the groups
        that dropped a candidate, one offered and not kept; the test of a
        later generator g_j runs on group i only if group i dropped one g_j
        degrees down.
        A candidate v = g_i*t has v/g_j = g_i*(t/g_j), a candidate of group
        i there (a lead g_i^2 there is one here too, and then t has no
        factor g_i), so if none was dropped every v/g_j is standard.
        """
        cache = self._basis_cache
        if d < len(cache):
            return
        if d > MAX_DEGREE:
            raise ValueError(f"degree {d} is past the packing bound {MAX_DEGREE}")
        gb, position, starts, dropped = self._groebner, self._position, self._starts, self._dropped
        relations, pairs = self._relations, self._pairs
        for e in range(len(cache), d + 1):
            leads = len(gb)
            for poly in relations.get(e, ()):
                poly = self._normal_form(poly)
                if poly:
                    self._add_to_groebner(poly)
            if e in pairs:
                for lcm, a, b in pairs.pop(e):
                    qa, qb = lcm - a, lcm - b
                    poly = self._normal_form({t + qa for t in gb[a]} ^ {t + qb for t in gb[b]})
                    if poly:
                        self._add_to_groebner(poly)
            basis, heads, lost = [], [], 0
            fresh = len(gb) > leads  # a lead of degree e joined
            for i, (g, unit, square, later) in enumerate(self._growth):
                head = len(basis)
                heads.append(head)
                if g > e:
                    continue
                tail = cache[e - g]
                first = starts[e - g][i + 1 if square in gb else i]
                group = map(unit.__add__, tail[first:])
                if fresh:
                    group = [v for v in group if v not in gb]
                bit = 1 << i
                for field, step, h in later:
                    if dropped.get(e - h, 0) & bit:
                        group = [v for v in group if not v & field or v - step in position]
                basis += group
                if len(basis) - head < len(tail) - first:
                    lost |= bit
            cache[e], starts[e], dropped[e] = basis, (*heads, len(basis)), lost
            position.update(zip(basis, range(len(basis))))

    def _start_from(self, other: "PresentedF2Algebra") -> bool:
        """Take other's bases with their starts, and its Sq1 matrices and
        ranks, below degree low, the lowest degree of either ring's relation
        table, capped at other's frontier; returns whether it did.  It
        refuses a ring that has grown past degree 0, or other generators or
        another Sq1.

        Below low both rings are the free ring: no lead, pair, memo entry
        or relation to check under Sq1 lies there, so a basis, and a matrix
        or rank out of degree d with d + 1 < low, is the same in both.  So
        are the Sq1 tables if every generator's image lies below low, where
        each image is its own normal form (see _sq1_table).  Nothing else
        is taken; the Sq1 check of each ring walks its own relations from
        degree 1.
        """
        if (
            len(self._basis_cache) > 1
            or self.generators != other.generators
            or self.sq1_on_generators != other.sq1_on_generators
        ):
            return False
        low = min([len(other._basis_cache), *self._relations, *other._relations])
        for d in range(low):
            basis = self._basis_cache[d] = other._basis_cache[d]
            self._starts[d] = other._starts[d]
            self._dropped[d] = other._dropped[d]
            self._position.update(zip(basis, range(len(basis))))
        for mine, theirs in (
            (self._sq1_matrix_cache, other._sq1_matrix_cache),
            (self._rank_cache, other._rank_cache),
        ):
            mine.update((key, v) for key, v in theirs.items() if key[0] + 1 < low)
        if max(self.degrees, default=0) + 1 < low:
            self._sq1_tables.update(other._sq1_tables)
        return True

    def _basis(self, d: int) -> list[int]:
        """Standard monomials of degree d, packed, descending."""
        if d < 0:
            return []
        self._grow(d)
        return self._basis_cache[d]

    # Each public reader of a degree refuses one that is not an int, bool
    # included, and each reader of a twist a bool twist, before any cache
    # lookup (sq1_square_is_zero through sq1_matrix): as a key, True is 1
    # and False is 0.

    def quotient_dimension(self, d: int) -> int:
        if type(d) is not int:
            raise TypeError(f"degree must be an int, got {d!r}")
        return len(self._basis(d))

    def degree_basis(self, d: int) -> dict[Monomial, int]:
        """Standard monomials of degree d, descending, each mapped to its
        position in that order; a new dict on each call."""
        if type(d) is not int:
            raise TypeError(f"degree must be an int, got {d!r}")
        return {self._unpack(v): i for i, v in enumerate(self._basis(d))}

    def coords(self, poly, d: int) -> int:
        """Coordinates of a degree-d polynomial in the quotient basis, as bits
        (see _coords_of)."""
        if type(d) is not int:
            raise TypeError(f"degree must be an int, got {d!r}")
        self._grow(d)
        packed = []
        for mono in poly:
            v = self._pack(mono)
            if v >> self._degree_shift != d:
                raise ValueError(f"{mono} is not of degree {d}")
            packed.append(v)
        bits = 0
        for c in self._coords_of(packed, _OWN):
            bits ^= c
        return bits

    def _coords_of(self, monomials: "Iterable[int]", table: ShiftTable) -> list[int]:
        """One bitset per packed monomial v: the XOR of the coordinates of
        v + add over the adds that the shift table (mask, reads) reads for
        v & mask, each in a complete degree.  Those are a standard
        monomial's own bit, else the memoised coordinates, else those _walk
        finds.

        With a table of _sq1_table it gives Sq1 of v, plus the product by a
        generator if the table is of that twist, and with _OWN v's own
        coordinates."""
        position, memo, walk = self._position, self._coords_memo, self._walk
        mask, reads = table
        out = []
        for v in monomials:
            bits = 0
            for add in reads[v & mask]:
                t = v + add
                p = position.get(t)
                if p is not None:
                    bits ^= 1 << p
                else:
                    c = memo.get(t)
                    bits ^= walk(t) if c is None else c
            out.append(bits)
        return out

    def _walk(self, mono: int) -> int:
        """Coordinates of a non-standard monomial of a complete degree that
        the memo does not hold yet, as bits; the caller has looked.

        The memo holds the coordinates of non-standard monomials only, as
        the walk finds them.  A lead has the coordinates of the rest of its
        Groebner basis element.  Any other non-standard w has a non-standard
        immediate divisor w/h, h the first generator whose quotient is not
        in the basis, and has the coordinates of the sum of h*v over the
        standard v set in those of w/h.  Every monomial named on the right
        is smaller than w, so the walk ends; it runs on an explicit stack,
        not by recursion, and leaves w there until each part it names is
        known; a w pushed twice is derived twice, to the same bits.  A w
        that is neither a lead nor has a non-standard immediate divisor is
        standard and missing from its basis, which only a fault of growth
        can bring about: RuntimeError.
        """
        position, memo, gb, steps = self._position, self._coords_memo, self._groebner, self._steps
        stack = [mono]
        while stack:
            w = stack[-1]
            parts = gb.get(w)  # w itself among them, skipped below
            if parts is None:
                for field, unit in steps:
                    if w & field and (u := w - unit) not in position:
                        break
                else:  # w names no part: the walk would push forever
                    raise RuntimeError(f"{self._unpack(w)} is standard but not in its basis")
                if u not in memo:
                    stack.append(u)
                    continue
                parts = self._lift(u, unit)
            bits = 0
            known = True
            for v in parts:
                p = position.get(v)
                if p is not None:
                    bits ^= 1 << p
                    continue
                c = memo.get(v)
                if c is not None:
                    bits ^= c
                elif v != w:
                    stack.append(v)
                    known = False
            if known:
                memo[w] = bits
                stack.pop()
        return memo[mono]

    def _lift(self, u: int, unit: int) -> list[int]:
        """The monomials v + unit over the standard v set in the memoised
        coordinates of u: u times a generator, as a sum of products of
        standard monomials by it."""
        bits = self._coords_memo[u]
        below = self._basis_cache[u >> self._degree_shift]
        out = []
        while bits:
            low = bits & -bits
            out.append(below[low.bit_length() - 1] + unit)
            bits ^= low
        return out

    # -- Sq1 -----------------------------------------------------------------

    def sq1_matrix(self, d: int, twist: int | None = None) -> list[int]:
        """Matrix of Sq1 from the degree-d basis to the degree-(d+1) basis,
        or with twist, the index of a degree-1 generator t, of Sq1 + t:
        the column of a standard v is then that of Sq1 v plus that of t*v.

        Returned as one bit-column per degree-d basis monomial, bits indexed
        by the degree-(d+1) basis.  Sq1 is first checked to be well defined
        that far: Sq1 of each relation of degree at most d must have zero
        coordinates.  The check walks the degrees past the last one passed,
        in order, and stops at the first relation that fails, without
        passing its degree: the lowest failing degree raises, and again on
        every later call that reaches it.

        After the refusals it reads, in order, the matrix cache, the
        frontier, the held shift table and the degree checked so far, and
        calls down only for what they do not hold.
        """
        if type(d) is not int or twist is True or twist is False:
            raise _refusal(d, twist)
        cols = self._sq1_matrix_cache.get((d, twist))
        if cols is not None:
            return cols
        if d >= len(self._basis_cache) - 1:
            self._grow(d + 1)
        table = self._sq1_tables.get(twist)
        if table is None:
            table = self._sq1_table(twist)
        if d > self._sq1_checked:
            sq1 = self._sq1_tables[None]
            for e in range(self._sq1_checked + 1, d + 1):
                for rel in self._relations.get(e, ()):
                    bits = 0
                    for c in self._coords_of(rel, sq1):
                        bits ^= c
                    if bits:
                        raise IllDefinedDerivationError(
                            f"Sq1 of relation {set(map(self._unpack, rel))} is not in the ideal"
                        )
                self._sq1_checked = e
        cols = self._coords_of(self._basis_cache[d] if d >= 0 else (), table)
        self._sq1_matrix_cache[d, twist] = cols
        return cols

    def _sq1_table(self, twist: int | None) -> ShiftTable:
        """The shift table of Sq1, or with twist of Sq1 plus the product by
        generator twist: the one _sq1_tables holds, else built there.  A
        ring with no Sq1 declared has none, and is refused with
        IllDefinedDerivationError where Sq1's table would be built.  A twist
        that is not a degree-1 generator is refused with ValueError: its
        product would land past degree d + 1, in a degree not yet grown.

        The table is built by product.  A product p of Sq1 is t/g for a
        generator g and a term t of the normal form of Sq1 g, which coords
        reads, growing the ring through that degree, and its carriers are
        those g.  By the Leibniz rule Sq1 of a monomial v is the sum of v*p
        over the products p whose carriers hold an odd sum of v's
        exponents.  The table's mask is the parity bits of the carriers'
        fields, and it reads each value of v & mask, the parities of v, as
        the products that apply, each once: a column makes one lookup per
        product that applies.  That is 2^k values for k carriers, at most 8
        in the rings here.  A twist t adds t*v to every column: each value
        reads t where it did not, and no longer where it did, which flips
        t's entry if t is a product and adds one if not.

        The declared images (sq1_on_generators) stay as they are: reading
        each as its normal form changes no result.  With D the derivation
        of the declared images and D' that of their normal forms, (D -
        D')(f) = sum over g of df/dg * (Sq1 g - NF(Sq1 g)) lies in the ideal
        for every f, so every Sq1 matrix and every relation check is the
        same with either.  In the three-generator ring, Sq1 x = x^2 is read
        as x*x1, so a column of x*t reads x*x1*t, mostly standard, not the
        non-standard x^2*t that the memo would keep.
        """
        tables = self._sq1_tables
        if twist in tables:
            return tables[twist]
        if None not in tables:
            if not self.sq1_on_generators:
                raise IllDefinedDerivationError("no Sq1 declared on generators")
            carriers: dict[int, int] = {}  # product -> parity bits of its carriers
            mask = 0
            for g, image in self.sq1_on_generators.items():
                bits = self.coords(image, self.degrees[g] + 1)
                basis, unit = self._basis_cache[self.degrees[g] + 1], self._units[g]
                parity = 1 << self._shifts[g]
                while bits:
                    low = bits & -bits
                    p = basis[low.bit_length() - 1] - unit
                    carriers[p] = carriers.get(p, 0) | parity
                    mask |= parity
                    bits ^= low
            tables[None] = mask, {
                s: tuple(p for p, bits in carriers.items() if (s & bits).bit_count() & 1)
                for s in _submasks(mask)
            }
        if twist is not None:
            if not (0 <= twist < len(self.degrees) and self.degrees[twist] == 1):
                raise ValueError(f"twist {twist!r} is not the index of a degree-1 generator")
            t = self._units[twist]
            mask, reads = tables[None]
            tables[twist] = mask, {
                s: tuple(p for p in ps if p != t) if t in ps else (*ps, t)
                for s, ps in reads.items()
            }
        return tables[twist]

    def sq1_homology_rank(self, d: int, twist: int | None = None) -> int:
        """dim ker(Sq1 at d) - rank(Sq1 at d-1), or of Sq1 + twist (see
        sq1_matrix).  After the refusals it reads the two ranks from the
        rank cache, and only a rank missing there is taken."""
        if type(d) is not int or twist is True or twist is False:
            raise _refusal(d, twist)
        ranks = self._rank_cache
        out = ranks.get((d, twist))
        if out is None:
            out = self._rank_out(d, twist)
        into = ranks.get((d - 1, twist))
        if into is None:
            into = self._rank_out(d - 1, twist)
        # degree d is grown: its rank out is cached or has just been taken
        return len(self._basis_cache.get(d, ())) - out - into

    def _rank_out(self, e: int, twist: int | None) -> int:
        """Rank of the matrix out of degree e, which the rank cache does not
        hold yet; the caller has looked.  Degree e's basis is read from the
        basis cache, grown only if it is not there yet; the rank is kept
        unless degree e is empty."""
        basis = self._basis_cache.get(e)
        if basis is None:
            basis = self._basis(e)
        if not basis:
            return 0
        rank = self._rank_cache[e, twist] = f2_rank(self.sq1_matrix(e, twist))
        return rank

    def sq1_square_is_zero(self, d: int, twist: int | None = None) -> bool:
        """Check Sq1(d+1) . Sq1(d) = 0 on the computed bases, or the same
        of Sq1 + twist (see sq1_matrix, which refuses a degree that is not
        an int, or a bool twist, before any lookup).  Both matrices come
        through sq1_matrix, which looks in its cache first; a read of that
        cache here would pass by a sq1_matrix that has been replaced, as
        the mutation tests replace it."""
        first = self.sq1_matrix(d, twist)
        second = self.sq1_matrix(d + 1, twist)
        for col in filter(None, first):
            acc = 0
            while col:
                low = col & -col
                acc ^= second[low.bit_length() - 1]
                col ^= low
            if acc:
                return False
        return True


# ---------------------------------------------------------------------------
# The concrete presentations used by the configuration-space computations
# ---------------------------------------------------------------------------


# (generators, relations, Sq1 on generators) of the classifying-space rings
# that the configuration rings are quotients of: of the dihedral group of
# order 8, of O(2), and of Z2 x Z2
# (x2 is listed before x1: see grassmannian_ring)
_DIHEDRAL = (
    [("x", 1), ("x2", 2), ("x1", 1)],
    [frozenset({(2, 0, 0), (1, 0, 1)})],
    {0: frozenset({(2, 0, 0)}), 1: frozenset({(0, 1, 1)}), 2: frozenset({(0, 0, 2)})},
)
_ORTHOGONAL = ([("x2", 2), ("x1", 1)], [], {0: frozenset({(1, 1)}), 1: frozenset({(0, 2)})})
_TWO_VARIABLE = ([("x1", 1), ("y1", 1)], [], {0: frozenset({(2, 0)}), 1: frozenset({(0, 2)})})
_X1 = 1  # x1 in _ORTHOGONAL, the twist of the x*R summand's differential


def dihedral_mod2_ring() -> PresentedF2Algebra:
    """F2[x, x1, x2] / (x^2 + x*x1): the mod-2 cohomology of the dihedral
    group of order 8, with Sq1 x = x^2, Sq1 x1 = x1^2, Sq1 x2 = x1*x2.
    Sq1 x is declared as x^2 and read as its normal form x*x1, so the
    engine's Sq1 table has one product, x1 (see _sq1_table)."""
    return PresentedF2Algebra(*_DIHEDRAL)


def two_variable_poly_ring() -> PresentedF2Algebra:
    """Free F2[x1, y1] with the squaring Sq1; mod-2 cohomology of a product
    of two infinite projective spaces."""
    return PresentedF2Algebra(*_TWO_VARIABLE)


def _dual_class(n: int) -> list[tuple[int, int]]:
    """Exponents of x2, x1 in w_n = sum_{0 <= i <= n/2} C(n-i, i) x1^(n-2i) x2^i."""
    return [(i, n - 2 * i) for i in range(n // 2 + 1) if binom_mod2(n - i, i)]


def _check_m(m) -> None:
    """Refuse an m that is not an int, bool included, then one below 1, as
    SpaceId does."""
    if type(m) is not int:
        raise TypeError(f"m must be an int, got {m!r}")
    if m < 1:
        raise ValueError("m must be >= 1")


def grassmannian_ring(m: int) -> PresentedF2Algebra:
    """Mod-2 cohomology ring R of the Grassmannian of 2-planes in R^(m+1):
    F2[x1, x2] modulo the dual classes w_m and w_{m+1} (see SplitRing).

    x2 is listed before x1, so it is the higher in the monomial order.
    Listed x1 first, R's Groebner basis is the staircase x1^(m-j) x2^j,
    j = 0..m: m + 1 elements, any two but x1^m and x2^m a pair (1059
    normal forms, 993 of them zero, through degree 2m + 1 of the
    three-generator ring at m = 64).  Listed x2 first, the same ideal has
    2 to 7 elements over m = 2..129 and 3 at m = 256 and 512, one more each
    in the three-generator ring; at m = 9 they are x2^4 x1, x2^5, x2^2 x1^7
    and x1^15.  The quotient and its Sq1-homology do not depend on the
    listing."""
    _check_m(m)
    generators, relations, sq1 = _ORTHOGONAL
    dual = [frozenset(_dual_class(n)) for n in (m, m + 1)]
    return PresentedF2Algebra(generators, [*relations, *dual], sq1)


def unordered_config_ring(m: int) -> PresentedF2Algebra:
    """Mod-2 cohomology ring of the unordered two-point configuration space
    of P^m: the dihedral ring modulo w_m and w_{m+1}.  The suites read it as
    SplitRing; this is the reference that the split is tested against."""
    _check_m(m)
    generators, relations, sq1 = _DIHEDRAL
    dual = [frozenset((0, *e) for e in _dual_class(n)) for n in (m, m + 1)]
    return PresentedF2Algebra(generators, [*relations, *dual], sq1)


def ordered_config_ring(m: int) -> PresentedF2Algebra:
    """Mod-2 cohomology ring of the ordered two-point configuration space of
    P^m, F2[x1, y1] / (x1^(m+1), y1^(m+1), sum_{i+j=m} x1^i y1^j), presented
    over u = x1 + y1 and x1, u listed first.

    Over F2 the sum is (x1^(m+1) + y1^(m+1)) / (x1 + y1).  With y1 = u + x1
    the relations are x1^(m+1), (u + x1)^(m+1) and ((u + x1)^(m+1) +
    x1^(m+1)) / u = sum_{k >= 1} C(m+1, k) u^(k-1) x1^(m+1-k).  By Lucas'
    theorem C(m+1, k) is odd for 2^popcount(m+1) values of k, k = 0 among
    them, so the three have 1, 2^popcount(m+1) and 2^popcount(m+1) - 1
    terms, where over (x1, y1) they have 1, 1 and m + 1.  The second is u
    times the third plus the first, so it reduces to zero, and the Groebner
    basis is the third and x1^(m+1), with the coprime leads u^m and
    x1^(m+1).  Sq1 u = x1^2 + y1^2 = u^2, so Sq1 squares both generators.
    The quotient dimensions and Sq1-homology ranks are those of the (x1, y1)
    listing, whose Sq1 matrices are conjugate to these."""
    _check_m(m)
    n = m + 1
    power = frozenset((k, n - k) for k in range(n + 1) if binom_mod2(n, k))  # (u + x1)^n
    return PresentedF2Algebra(
        [("u", 1), ("x1", 1)],
        # (u + x1)^n is redundant, u times the third relation plus x1^n, and
        # dropping it changes no basis or Sq1 matrix, but it stays: it is
        # what makes a wrong third relation visible.  Without it, the third
        # relation less one term, keeping its lead u^m, passes the
        # bockstein and sq1 suites at every m = 2..12 (the tests' mutant
        # F-drop-term-sum).
        [frozenset({(0, n)}), power, frozenset((k - 1, j) for k, j in power if k)],
        _TWO_VARIABLE[2],
    )


class SplitRing:
    """The mod-2 ring of the unordered space as R + x*R over the
    Grassmannian ring R (see the module docstring): its degree d is R_d
    plus x times R_(d-1), and its Sq1 is Sq1 on R and Sq1 + x1 on x*R."""

    def __init__(self, grassmannian: PresentedF2Algebra) -> None:
        self.grassmannian = grassmannian

    def quotient_dimension(self, d: int) -> int:
        r = self.grassmannian
        return r.quotient_dimension(d) + r.quotient_dimension(d - 1)

    def split_sq1_homology_rank(self, d: int) -> tuple[int, int]:
        """Sq1-homology ranks at degree d of the summands R and x*R."""
        r = self.grassmannian
        return r.sq1_homology_rank(d), r.sq1_homology_rank(d - 1, _X1)

    def sq1_homology_rank(self, d: int) -> int:
        """The sum of the split ranks, each read straight from R."""
        r = self.grassmannian
        return r.sq1_homology_rank(d) + r.sq1_homology_rank(d - 1, _X1)

    def sq1_square_is_zero(self, d: int) -> bool:
        r = self.grassmannian
        return r.sq1_square_is_zero(d) and r.sq1_square_is_zero(d - 1, _X1)


# kind -> (m, engine ring, the ring config_mod2_ring returns)
_rings: dict[str, tuple[int, PresentedF2Algebra, PresentedF2Algebra | SplitRing]] = {}


def config_mod2_ring(kind: str, m: int) -> PresentedF2Algebra | SplitRing:
    """Shared mod-2 ring for the 'F' (ordered) or 'B' (unordered, as a
    SplitRing) space.  The cache holds the last ring of each kind (one
    m's pair, as run_suites runs all suites m by m), and
    config_mod2_ring.cache_clear() empties it.

    Below degree m, every configuration ring (R for B) is the free ring,
    so a new ring starts from the last ring of its kind (see _start_from)
    and a range of m grows and sweeps those degrees once.
    """
    _check_m(m)  # before the lookup, whose held[0] == m takes True for 1
    held = _rings.get(kind)
    if held is not None and held[0] == m:
        return held[2]
    if kind == "B":
        ring = grassmannian_ring(m)
    elif kind == "F":
        ring = ordered_config_ring(m)
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    if held is not None:
        ring._start_from(held[1])
    _rings[kind] = m, ring, SplitRing(ring) if kind == "B" else ring
    return _rings[kind][2]


config_mod2_ring.cache_clear = _rings.clear
