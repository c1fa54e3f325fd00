"""Text, JSON and LaTeX rendering of polynomials and class records.

Term order is deterministic everywhere: ascending total alpha-degree, then
descending lexicographic exponents (for Chern monomials the degree is the
weighted one, deg c_i = i).  Coefficients serialize as exact
"numerator/denominator" strings.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter, mul

_GREEK = {"a": r"\alpha", "s": r"\sigma", "xi": r"\xi"}


def _split_name(name):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return head, tail


def _degree_weight(name):
    head, tail = _split_name(name)
    return int(tail) if head == "c" and tail else 1


def sorted_terms(poly):
    """Deterministic display/serialization order for a Poly: descending
    exponents, then a stable sort by (weighted) degree."""
    weights = [_degree_weight(name) for name in poly.vars]
    items = sorted(poly.terms.items(), key=itemgetter(0), reverse=True)
    items.sort(key=lambda item: sum(map(mul, weights, item[0])))
    return items


def coeff_str(c):
    if type(c) is int:
        return f"{c}/1"
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}"


def _json_terms(items):
    """The JSON term list of (key, coefficient) pairs in display order."""
    return [{"key": list(key), "coeff": coeff_str(c)} for key, c in items]


def _coeff_prefix(c, latex):
    """(sign, magnitude-string) with '' magnitude for +-1."""
    neg = c < 0
    c = -c if neg else c
    if c == 1:
        s = ""
    elif isinstance(c, Fraction) and c.denominator != 1:
        s = rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}" if latex else f"({c})"
    else:
        s = str(c)
    return neg, s


def _symbols(vars_, latex):
    """(symbol, power prefix, power suffix) of each variable: a power x
    reads prefix + str(x) + suffix."""
    out = []
    for name in vars_:
        if latex:
            head, tail = _split_name(name)
            base = _GREEK.get(head, head)
            sym = f"{base}_{{{tail}}}" if tail else base
            out.append((sym, f"{sym}^{{", "}"))
        else:
            out.append((name, f"{name}^", ""))
    return out


def _signed_sum(terms, latex):
    """The text of a sum from its (coefficient, monomial text) pairs."""
    chunks = []
    for c, mono in terms:
        neg, mag = _coeff_prefix(c, latex)
        body = f"{mag}{mono}" or "1"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks) or "0"


def poly_text(poly, latex=False):
    symbols = _symbols(poly.vars, latex)
    return _signed_sum(((c, "".join([sym if x == 1 else f"{pre}{x}{post}"
                                      for (sym, pre, post), x in zip(symbols, exps) if x]))
                        for exps, c in sorted_terms(poly)), latex)


def _partition_label(lam, latex):
    if not lam:
        return "s_{0}" if latex else "s0"
    if all(p <= 9 for p in lam):
        body = "".join(str(p) for p in lam)
    else:
        body = ",".join(str(p) for p in lam)
    return f"s_{{{body}}}" if latex else f"s{body}"


def schur_sorted(coeffs):
    return sorted(coeffs.items(), key=lambda kv: (sum(kv[0]), len(kv[0]), kv[0]))


def schur_text(coeffs, latex=False):
    return _signed_sum(((c, _partition_label(lam, latex)) for lam, c in schur_sorted(coeffs)),
                       latex)


def class_text(cls, latex=False):
    if cls.basis == "schur":
        return schur_text(cls.payload, latex=latex)
    return poly_text(cls.payload, latex=latex)


def class_json_dict(cls):
    """JSON document for a ClassExpr, matching the CLI wire format."""
    items = schur_sorted(cls.payload) if cls.basis == "schur" else sorted_terms(cls.payload)
    return {
        "family": str(cls.family),
        "n": cls.n,
        "r": cls.r,
        "kind": cls.kind,
        "closure": cls.closure,
        "basis": cls.basis,
        "trunc": cls.trunc,
        "terms": _json_terms(items),
        "warnings": list(cls.warnings),
    }

