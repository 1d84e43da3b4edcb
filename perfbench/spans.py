"""Spans and counters recorded around lpackets functions from the outside.

The package imports names directly (``from .lattice import solve_torsion``),
so wrapping a function only where it is defined would miss most calls.
``Tracer.install`` therefore rebinds every module attribute, in every loaded
``lpackets`` module, that is the original function object.  Nothing under
``src/`` changes.

Hot helpers (``mat_vec``, ``frac_vec_mod1``, ``mat_inv_unimodular``,
``x_action``, the kernels' ``_mat_mul``) are deliberately not wrapped: they
run 10^4-10^5 times per pass and the traced pass would measure the wrapper.

Metric names are ``<module>.<function>.<quantity>``: ``.calls``, ``.s``
(inclusive seconds), ``.self_s`` (seconds minus the time of child spans),
plus the counts returned by each span's counter.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _closure_counts(result, args, kwargs):
    # computed, not measured: one product per (element, generator) pair
    return {"elements": len(result), "products": len(result) * len(args[0])}


def _class_count_counts(result, args, kwargs):
    # computed, not measured: one conjugation (two products) per
    # (element, generator) pair
    return {"products": 2 * len(args[0]) * len(args[1])}


# (module, attribute or Class.method, counter or None); the span is named
# "<module>.<attribute>"
SPANS = [
    ("rootdata", "parse_group_spec", None),
    ("report", "spectral_report", None),
    ("report", "stratified_report", None),
    ("report", "render_text", None),
    ("oracle", "oracle_count", None),
    ("oracle", "matrix_closure", _closure_counts),
    ("oracle", "matrix_class_count", _class_count_counts),
    ("fq", "field", None),
    ("spectral", "spectral_strata", lambda r, a, k: {"strata": len(r)}),
    ("spectral", "enumerate_ss_classes",
     lambda r, a, k: {"classes": len(r),
                      "orbit_points": sum(len(c.orbit) for c in r)}),
    ("spectral", "special_pairs", None),
    ("spectral", "extended_group", None),
    ("spectral", "mbar", None),
    ("strata", "stratified_strata", lambda r, a, k: {"strata": len(r)}),
    ("strata", "semisimple_parameters",
     lambda r, a, k: {"count": len(r),
                      "orbit_points": sum(len(c.orbit) for c in r)}),
    ("lattice", "solve_torsion", lambda r, a, k: {"points": len(r)}),
    ("rootdata", "centralizer_subdatum", None),
    ("coxeter", "enumerate_weyl", lambda r, a, k: {"elements": r.order}),
    ("coxeter", "kl_table", None),
    ("coxeter", "cells", None),
    ("groups", "FiniteGroup.twisted_orbits", None),
    ("groups", "FiniteGroup.class_count", None),
    ("springer", "assemble_product_group", None),
]


class Tracer:
    """Inclusive time, self time and counts per span name, in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0          # time inside outermost spans
        self._stack = []          # child-time accumulators of open spans
        self.bindings = []        # (module name, attribute) rebound

    def wrap(self, name, fn, counter=None):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.incl[name] += dt
                self.child[name] += inner[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return span

    def install(self):
        """Wrap every function in SPANS at all of its bindings in the loaded
        lpackets modules."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "lpackets" or n.startswith("lpackets.")}
        for mod_name, attr, counter in SPANS:
            name = f"{mod_name}.{attr}"
            owner = modules[f"lpackets.{mod_name}"]
            if "." in attr:                       # a method: wrap on the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counter))
                self.bindings.append((f"lpackets.{mod_name}", attr))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            for mname, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.bindings.append((mname, key))

    def metrics(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.incl[name]
            out[f"{name}.self_s"] = self.incl[name] - self.child[name]
        out.update(self.counts)
        return out
