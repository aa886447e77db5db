"""In-memory span recorder that wraps strongpoly's public functions.

Two kinds of wrapper exist:

* span wrappers record one ``(name, start, end, parent, folded_s)`` span per
  call, for the per-instance algorithms (Buchberger, factorization, minors);
* kernel wrappers fold their calls into the enclosing span as a count plus
  self time, because the ring kernel runs hundreds of thousands of times per
  braid and one span per call would swamp the run.  No kernel calls a
  span-wrapped function, so a span's parent is always a span.

``install`` rebinds every module-level name that refers to a wrapped
function, in every strongpoly module: ``from .ring import exact_divide``
copies the function into ``alexander`` and ``factor``, and a binding left
unwrapped would silently drop its spans.  ``LaurentPoly`` and
``LocalizedIdeal`` methods are wrapped on the class.
"""

from __future__ import annotations

import functools
import sys
import time
from math import comb

from stats import self_times

# Span-level functions, as (module, attribute) -> metric prefix.
SPANS = {
    ("parse", "parse_polynomial"): "parse.parse_polynomial",
    ("parse", "parse_braid"): "parse.parse_braid",
    ("groebner", "buchberger"): "groebner.buchberger",
    ("groebner", "only_trivial_solution"): "groebner.only_trivial_solution",
    ("factor", "is_irreducible"): "factor.is_irreducible",
    ("factor", "univariate_factor"): "factor.univariate_factor",
    ("factor", "poly_gcd"): "factor.poly_gcd",
    ("strongcheck", "check_strongly_irreducible"): "strongcheck.check_strongly_irreducible",
    ("localize", "reduce_localized_ideal"): "localize.reduce_localized_ideal",
    ("localize", "verify_principality"): "localize.verify_principality",
    ("alexander", "braid_to_presentation"): "alexander.braid_to_presentation",
    ("alexander", "torsion_alexander_poly"): "alexander.torsion_alexander_poly",
    ("alexander", "presentation_rank"): "alexander.presentation_rank",
    ("alexander", "elementary_ideal"): "alexander.elementary_ideal",
    ("alexander", "divisorial_hull"): "alexander.divisorial_hull",
}
# Kernel functions, folded into their enclosing span.
KERNELS = {
    ("ring", "exact_divide"): "ring.exact_divide",
    ("ring", "power_substitute"): "ring.power_substitute",
}
# Methods wrapped on their class, as (module, class, method) -> (prefix, is_kernel).
METHODS = {
    ("ring", "LaurentPoly", "__init__"): ("ring.init", True),
    ("ring", "LaurentPoly", "__mul__"): ("ring.mul", True),
    ("ring", "LaurentPoly", "__add__"): ("ring.add", True),
    ("localize", "LocalizedIdeal", "__init__"): ("localize.LocalizedIdeal", False),
}
#: Prefix of the line on which a traced CLI process reports its totals.
TRACE_MARK = "perfbench-trace "


def _observe_mul(rec, args, result, exc):
    if exc is None:
        rec.count("ring.mul.term_products", args[0].num_terms() * args[1].num_terms())


def _observe_exact_divide(rec, args, result, exc):
    if exc is None and result is None:
        rec.count("ring.exact_divide.none")


def _observe_buchberger(rec, args, result, exc):
    if exc is None:
        rec.count("groebner.buchberger.basis_out", len(result.polys))
    elif type(exc).__name__ == "ResourceBudgetExceeded":
        rec.count("groebner.buchberger.budget_exceeded")


def _observe_only_trivial(rec, args, result, exc):
    if result is True:
        rec.count("groebner.only_trivial_solution.true")


def _observe_is_irreducible(rec, args, result, exc):
    if exc is None:
        rec.count("factor.is_irreducible." + result.status.lower())


def _observe_elementary_ideal(rec, args, result, exc):
    # The minors the call evaluated: every size-by-size minor of the matrix,
    # where size = cols - k, unless the ideal is trivially unit or zero.
    if exc is None:
        pres, k = args[0], args[1]
        size = pres.ncols - k
        if 0 < size <= pres.nrows:
            rec.count("alexander.minors", comb(pres.nrows, size) * comb(pres.ncols, size))


OBSERVERS = {
    "ring.mul": _observe_mul,
    "ring.exact_divide": _observe_exact_divide,
    "groebner.buchberger": _observe_buchberger,
    "groebner.only_trivial_solution": _observe_only_trivial,
    "factor.is_irreducible": _observe_is_irreducible,
    "alexander.elementary_ideal": _observe_elementary_ideal,
}


class Recorder:
    """Spans, folded kernel totals and work counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, folded_s, instance]
        self.kernels: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, int] = {}
        self.instance = None  # index of the instance being run, stamped on spans
        # Open calls, innermost last: [span index or None, name, child_s].
        self._stack: list[list] = []

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, kernel: bool):
        stack = self._stack
        spans = self.spans
        kernels = self.kernels
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel and stack and stack[-1][1] == name:
                # Recursion of a kernel (Laurent exact_divide calls itself on
                # the normalized parts): one outer call, its self time.
                return fn(*args, **kwargs)
            index = None
            if not kernel:
                parent = None
                for frame in reversed(stack):
                    if frame[0] is not None:
                        parent = frame[0]
                        break
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, 0.0, recorder.instance])
            frame = [index, name, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if kernel:
                    tot = kernels.setdefault(name, [0, 0.0])
                    tot[0] += 1
                    tot[1] += duration - frame[2]
                else:
                    spans[index][1] = start
                    spans[index][2] = end
                if stack:
                    outer = stack[-1]
                    if outer[0] is None:
                        outer[2] += duration
                    elif kernel:
                        spans[outer[0]][4] += duration
                if observe is not None:
                    observe(recorder, args, result, exc)

        return wrapper

    def raw(self) -> dict:
        """Additive totals: per name [calls, self_s], plus counters."""
        totals = {name: list(v) for name, v in self.kernels.items()}
        rows = [tuple(s[:5]) for s in self.spans]
        for (name, *_rest), own in zip(rows, self_times(rows)):
            tot = totals.setdefault(name, [0, 0.0])
            tot[0] += 1
            tot[1] += own
        return {"totals": totals, "counters": dict(self.counters)}


def install(recorder: Recorder, package) -> callable:
    """Wrap strongpoly's traced functions everywhere they are bound.

    Returns a function that restores every original binding.
    """
    modules = [package] + [m for name, m in sorted(sys.modules.items())
                           if name.startswith(package.__name__ + ".")]
    by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    restore = []
    wrappers = {}
    for table, kernel in ((SPANS, False), (KERNELS, True)):
        for (mod, attr), name in table.items():
            original = getattr(by_module[mod], attr)
            wrappers[id(original)] = (original, recorder.wrap(name, original, kernel))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                restore.append((module, attr, value))
    for (mod, cls_name, meth), (name, kernel) in METHODS.items():
        cls = getattr(by_module[mod], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, recorder.wrap(name, original, kernel))
        restore.append((cls, meth, original))

    def uninstall():
        for target, attr, value in reversed(restore):
            setattr(target, attr, value)

    return uninstall


def merge_raw(parts) -> dict:
    """Sum several ``Recorder.raw()`` results (one per CLI child process)."""
    totals: dict = {}
    counters: dict = {}
    for part in parts:
        for name, (calls, own) in part["totals"].items():
            tot = totals.setdefault(name, [0, 0.0])
            tot[0] += calls
            tot[1] += own
        for name, n in part["counters"].items():
            counters[name] = counters.get(name, 0) + n
    return {"totals": totals, "counters": counters}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values named ``<module>.<function>.<stat>``."""
    totals, counters = raw["totals"], raw["counters"]

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0])[1]

    out = {}
    for name in sorted(set(SPANS.values()) | set(KERNELS.values())
                       | {n for n, _k in METHODS.values()}):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["ring.mul.term_products"] = counters.get("ring.mul.term_products", 0)
    out["ring.exact_divide.none_ratio"] = _ratio(
        counters.get("ring.exact_divide.none", 0), calls("ring.exact_divide"))
    out["groebner.buchberger.basis_out"] = counters.get("groebner.buchberger.basis_out", 0)
    out["groebner.buchberger.budget_exceeded"] = counters.get(
        "groebner.buchberger.budget_exceeded", 0)
    out["groebner.only_trivial_solution.true_ratio"] = _ratio(
        counters.get("groebner.only_trivial_solution.true", 0),
        calls("groebner.only_trivial_solution"))
    for outcome in ("proved", "refuted", "undecided"):
        out[f"factor.is_irreducible.{outcome}"] = counters.get(
            f"factor.is_irreducible.{outcome}", 0)
    out["factor.is_irreducible.refuted_ratio"] = _ratio(
        counters.get("factor.is_irreducible.refuted", 0), calls("factor.is_irreducible"))
    out["alexander.minors"] = counters.get("alexander.minors", 0)
    out["strongcheck.substitutions_tried"] = counters.get("strongcheck.substitutions_tried", 0)
    out["localize.witnesses"] = counters.get("localize.witnesses", 0)
    return out
