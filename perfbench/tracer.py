"""Traced runs: spans around the calls into each layer of meadows.

The tracer wraps public functions of each module from outside and rebinds
every name that refers to them in every loaded ``meadows`` module, so a
call from one layer into another is seen wherever it was imported (for
example ``poly_bezout`` is bound in both ``meadows.poly`` and
``meadows.normalform``).  Spans are kept in memory in flat arrays (name,
parent span, start, end) and written out when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from fractions import Fraction

# layer -> the public functions of its module that the operations reach
LAYERS = {
    "terms": ("parse", "format_term"),
    "poly": ("poly_gcd", "poly_bezout", "invert_mod", "lagrange_weights",
             "lagrange_interpolate", "trace_sum", "squarefree_part",
             "standardize"),
    "factor": ("factor_rationals", "distinct_irreducible_factors",
               "rational_roots_from_factors"),
    "normalform": ("normalize", "nf_add", "nf_mul", "nf_inv", "nf_neg",
                   "nf_div"),
    "mixed": ("emit", "emit_mixed_q", "emit_mixed_c", "to_term",
              "mixed_to_json_dict", "build_indicator"),
    "decide": ("decide_eq", "distinguishing_witness", "simple_expressible",
               "finite_support_sum", "sum_star_equals"),
}
# Functions that call themselves through their module's global name: the
# defining module keeps the original, so one call is one span.
SELF_RECURSIVE = {("normalform", "normalize")}
NF_OPS = {"normalform.nf_add", "normalform.nf_mul", "normalform.nf_inv"}
_SIZED = {"poly.poly_gcd", "poly.poly_bezout"}


def _meadows_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "meadows" or name.startswith("meadows."))]


def _coeff_bits(value) -> int:
    coeffs = getattr(value, "coeffs", None)
    if coeffs is None:
        if isinstance(value, tuple):
            return max((_coeff_bits(v) for v in value), default=0)
        return 0
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs if isinstance(c, Fraction)), default=0)


class Tracer:
    """Wraps the LAYERS functions between ``install`` and ``uninstall``
    and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.bezout_max_degree = 0
        self.max_coeff_bits = 0
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stack, clock = self.stack, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        nid = len(self.names)
        self.names.append(name)
        sized = name in _SIZED
        bezout = name == "poly.poly_bezout"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sized:
                self._sizes(args, result, bezout)
            return result

        return traced

    def _sizes(self, args, result, bezout) -> None:
        bits = max(_coeff_bits(result), *(_coeff_bits(a) for a in args))
        self.max_coeff_bits = max(self.max_coeff_bits, bits)
        if bezout:
            degree = max(len(a.coeffs) - 1 for a in args)
            self.bezout_max_degree = max(self.bezout_max_degree, degree)

    def install(self) -> None:
        modules = _meadows_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for layer, names in LAYERS.items():
            home = by_name.get(f"meadows.{layer}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    if mod is home and (layer, name) in SELF_RECURSIVE:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.start)

    def _spans(self):
        names = self.names
        for nid, parent, start, end in zip(self.name_of, self.parent,
                                           self.start, self.end):
            yield names[nid], parent, start, end

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,parent,start_s,end_s\n")
            for name, parent, start, end in self._spans():
                out.write(f"{name},{parent},{start:.9f},{end:.9f}\n")

    def layer_metrics(self) -> dict:
        """Self time and call count per layer and per wrapped function,
        the NF operation count, and the time of normalizations nested in a
        mixed-layer call (the round-trip check inside ``emit``)."""
        child = [0.0] * len(self)
        for name, parent, start, end in self._spans():
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        check_s = 0.0
        for i, (name, parent, start, end) in enumerate(self._spans()):
            own = end - start - child[i]
            layer = name.split(".", 1)[0]
            for key in (layer, name):
                self_s[key] = self_s.get(key, 0.0) + own
                calls[key] = calls.get(key, 0) + 1
            if name == "normalform.normalize" and parent >= 0 and \
                    self.names[self.name_of[parent]].startswith("mixed."):
                check_s += end - start
        nf_ops = sum(calls.get(n, 0) for n in NF_OPS)
        return {"self_s": self_s, "calls": calls, "nf_ops": nf_ops,
                "check_s": check_s}


def cache_stats() -> tuple[int, int, int]:
    """(hits, misses, entries) summed over the lru caches of meadows.factor."""
    mod = sys.modules.get("meadows.factor")
    hits = misses = size = 0
    for value in vars(mod).values() if mod else ():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            hits, misses, size = hits + stats.hits, misses + stats.misses, size + stats.currsize
    return hits, misses, size
