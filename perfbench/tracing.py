"""Spans around the calls into each csmloci layer, recorded from outside.

The tracer replaces the listed functions and methods by wrappers, in every
csmloci module that holds a reference to them, and records one span per call:
(name, start, end, parent).  Self time is a span's duration minus the time
its child spans cover.  Functions that return polynomials (Poly,
TruncSeries, Schur dicts, class records, Laurent fractions) also count the
terms they return.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time

# <module>.<qualname> of every traced function, relative to csmloci.
TRACED = (
    "interp._outer_numerator", "interp._inner_numerator", "interp.w_schur",
    "interp.csm_to_ssm", "interp.verify_axioms",
    "poly.product", "poly.Poly.mul_trunc", "poly.TruncSeries.divide_into",
    "poly.Poly.exact_divide", "poly.Poly.substitute",
    "schur.alternant_schur_coeffs", "schur.to_schur_basis", "schur.to_chern_basis",
    "schur.schur_dict_to_alpha", "schur.chern_to_alpha",
    "sieve.phi_schur", "sieve.ssm_schur",
    "projective.projectivize", "projective.euler_char_table", "projective.aluffi_J",
    "projective.derived_invariants",
    "mather.chern_mather_wedge",
    "ktheory.phi_wedge_k", "ktheory.motivic_segre_sieve",
    "laurent.LaurentFraction.cancel",
    "classes.ClassExpr.in_basis",
    "emit.poly_text", "emit.class_json_dict", "emit.class_text",
    "cli.build_parser", "cli.run",
)

# Traced functions whose result is a polynomial; they report .terms_out.
TERMS_OUT = (
    "interp._outer_numerator", "interp._inner_numerator", "interp.w_schur",
    "interp.csm_to_ssm",
    "poly.product", "poly.Poly.mul_trunc", "poly.TruncSeries.divide_into",
    "poly.Poly.exact_divide", "poly.Poly.substitute",
    "schur.alternant_schur_coeffs", "schur.to_schur_basis", "schur.to_chern_basis",
    "schur.schur_dict_to_alpha", "schur.chern_to_alpha",
    "sieve.phi_schur", "sieve.ssm_schur", "projective.aluffi_J",
    "mather.chern_mather_wedge", "ktheory.phi_wedge_k", "ktheory.motivic_segre_sieve",
    "laurent.LaurentFraction.cancel", "classes.ClassExpr.in_basis",
)

# Traced functions that also count the terms of their first argument.
TERMS_IN = ("schur.alternant_schur_coeffs",)


def load_modules():
    """Import every csmloci submodule; return them by short name."""
    import csmloci
    mods = {}
    for info in pkgutil.iter_modules(csmloci.__path__):
        mods[info.name] = importlib.import_module(f"csmloci.{info.name}")
    return mods


def find_caches(mods):
    """Every functools.lru_cache defined in csmloci, by function name."""
    caches = {}
    for mod in mods.values():
        for obj in vars(mod).values():
            if (callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == mod.__name__):
                caches[obj.__name__] = obj
    return dict(sorted(caches.items()))


def n_terms(value):
    """Number of terms of a polynomial-like value (0 if it has none)."""
    if isinstance(value, dict):
        return len(value)
    terms = getattr(value, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    for attr in ("poly", "payload", "value"):
        if hasattr(value, attr):
            return n_terms(getattr(value, attr))
    if hasattr(value, "num") and hasattr(value, "den"):
        return n_terms(value.num) + n_terms(value.den)
    return 0


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []
        self.terms_out = dict.fromkeys(TERMS_OUT, 0)
        self.terms_in = dict.fromkeys(TERMS_IN, 0)
        self.missing = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count_out = name in self.terms_out
        count_in = name in self.terms_in
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count_out:
                self.terms_out[name] += n_terms(result)
            if count_in:
                self.terms_in[name] += n_terms(args[0])
            return result
        return wrapper

    def install(self):
        for name in TRACED:
            modname, *path = name.split(".")
            owner = self.mods.get(modname)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if len(path) > 1:
                self._patch(owner, path[-1], fn, wrapper)
                continue
            for mod in self.mods.values():
                for key, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patch(mod, key, fn, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_stats(self):
        """{name: (calls, self seconds)} computed from the recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {name: [0, 0.0] for name in TRACED}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = stats[name]
            entry[0] += 1
            entry[1] += (end - start) - child
        return stats

    def dump(self, path, facts):
        """Write the spans as JSON; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "facts": facts,
            "fields": ["name", "start", "end", "parent"],
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                      for n, s, e, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")

