"""Spans at the public function boundaries of the confcoh modules.

The tracer lives entirely in the benchmark: it wraps functions and class
methods after `confcoh` is imported, without touching the package's files.

* Module-level public functions are replaced in their home module, and every
  module-level name or dict value in any confcoh module that refers to one
  is rebound too, so `from .configcoh import cohomology` in `bockstein` and
  `cartan_leray` (and `suites._SUITES`) reach the wrapper.
* Class methods are wrapped on the class, with `__init__` counted as a
  method so that value construction is charged to the value's own layer.
* Hot leaf helpers of the F2 engine (monomial products, bit encodings,
  echelon reduction) are left unwrapped: a span costs more than their body,
  so their time is charged to the caller's self time instead.
  `F2Echelon.add` only counts calls and useful rows.

Spans are kept in memory as flat integer records and read out after the op.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from enum import Enum

LEAVES = frozenset(
    {
        "f2algebra.binom_mod2",
        "f2algebra.F2Echelon.reduce",
        "f2algebra.F2Echelon.contains",
        "f2algebra.F2Echelon.pivots",
        "f2algebra.PresentedF2Algebra.monomial_degree",
        "f2algebra.PresentedF2Algebra.mono_mul",
        "f2algebra.PresentedF2Algebra.poly_mul_mono",
        "f2algebra.PresentedF2Algebra.poly_to_bits",
        "f2algebra.PresentedF2Algebra.bits_to_poly",
        "f2algebra.PresentedF2Algebra.coords",
        "f2algebra.PresentedF2Algebra.sq1_free",
        "f2algebra.PresentedF2Algebra.sq1_poly_free",
    }
)

# Memoising engine methods and the per-instance dict each one fills.
MEMOS = {
    "f2algebra.PresentedF2Algebra.monomials": "_monomials_cache",
    "f2algebra.PresentedF2Algebra.relation_echelon": "_rel_ech_cache",
    "f2algebra.PresentedF2Algebra.degree_basis": "_basis_cache",
    "f2algebra.PresentedF2Algebra.sq1_matrix": "_sq1_matrix_cache",
}

RING_CACHES = ("_cached_unordered_ring", "_cached_ordered_ring")

PACKAGE = "confcoh"

FIELDS = 4  # name index, parent span, start ns, end ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.parent = -1
        self.active = False
        self.counts: Counter[str] = Counter()
        self._rings: list = []
        self._ring_base = (0, 0)

    # -- recording ---------------------------------------------------------

    def _span(self, fn, name: str, before=None, after=None):
        idx = len(self.names)
        self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            me = len(spans) // FIELDS
            parent = tracer.parent
            spans.extend((idx, parent, 0, 0))
            tracer.parent = me
            token = before(tracer, args) if before is not None else None
            spans[me * FIELDS + 2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[me * FIELDS + 3] = clock()
                tracer.parent = parent
            if after is not None:
                after(tracer, args, result, token)
            return result

        return wrapper

    def _counter(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
                tracer.counts[name + ".true"] += result is True
            return result

        return wrapper

    def _wrap(self, fn, name: str):
        if name == "f2algebra.F2Echelon.add":
            return self._counter(fn, name)
        if name in MEMOS:
            after = _count_monomials if name.endswith(".monomials") else None
            return self._span(fn, name, before=_memo_probe(MEMOS[name]), after=after)
        if name == "abelian.AbGroup2.__init__":
            return self._span(fn, name, after=_count_summands)
        return self._span(fn, name)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions and methods; call after import."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        replaced: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname.removeprefix(PACKAGE + ".")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if inspect.isfunction(value):
                    full = f"{short}.{attr}"
                    if full not in LEAVES:
                        replaced[id(value)] = self._wrap(value, full)
                elif inspect.isclass(value):
                    self._wrap_class(value, f"{short}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]
        f2 = sys.modules.get(PACKAGE + ".f2algebra")
        self._rings = [getattr(f2, n) for n in RING_CACHES if hasattr(getattr(f2, n, None), "cache_info")]

    def _wrap_class(self, cls: type, prefix: str) -> None:
        plain = not issubclass(cls, (BaseException, Enum))
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (plain and attr == "__init__"):
                continue
            full = f"{prefix}.{attr}"
            if full in LEAVES:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, full)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, full))

    # -- start / stop ------------------------------------------------------

    def _ring_totals(self) -> tuple[int, int]:
        hits = misses = 0
        for fn in self._rings:
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return hits, misses

    def start(self) -> None:
        self._ring_base = self._ring_totals()
        self.active = True

    def stop(self) -> None:
        self.active = False
        hits, misses = self._ring_totals()
        self.counts["ring_cache.hits"] += hits - self._ring_base[0]
        self.counts["ring_cache.lookups"] += hits + misses - sum(self._ring_base)

    # -- read-out ----------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, total and self nanoseconds; plus counters."""
        spans = self.spans
        n = len(spans) // FIELDS
        child = [0] * n
        for i in range(n):
            parent = spans[i * FIELDS + 1]
            if parent >= 0:
                child[parent] += spans[i * FIELDS + 3] - spans[i * FIELDS + 2]
        funcs: dict[str, list[int]] = {}
        for i in range(n):
            name = self.names[spans[i * FIELDS]]
            dur = spans[i * FIELDS + 3] - spans[i * FIELDS + 2]
            row = funcs.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {"functions": funcs, "counts": dict(self.counts)}

    def write_spans(self, path: str, op_id: str) -> None:
        """Write every span of the op: [name, parent span, start ns, end ns]."""
        spans = self.spans
        with open(path, "w") as fh:
            json.dump(
                {
                    "op": op_id,
                    "fields": ["name", "parent", "start_ns", "end_ns"],
                    "names": self.names,
                    "spans": [spans[i : i + FIELDS].tolist() for i in range(0, len(spans), FIELDS)],
                },
                fh,
            )


def _memo_probe(attr: str):
    """Count a lookup of a memoised method, and whether it hit its memo."""

    def before(tracer: Tracer, args) -> bool:
        hit = len(args) > 1 and args[1] in getattr(args[0], attr, ())
        tracer.counts["memo.lookups"] += 1
        tracer.counts["memo.hits"] += hit
        return hit

    return before


def _count_monomials(tracer: Tracer, args, result, hit: bool) -> None:
    if not hit:
        tracer.counts["monomials.enumerated"] += len(result)


def _count_summands(tracer: Tracer, args, result, token) -> None:
    tracer.counts["abelian.summands"] += len(args[0].torsion_exponents)
