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
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}"


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


def poly_text(poly, latex=False):
    if not poly.terms:
        return "0"
    symbols = _symbols(poly.vars, latex)
    chunks = []
    for exps, c in sorted_terms(poly):
        neg, mag = _coeff_prefix(c, latex)
        mono = "".join([sym if x == 1 else f"{pre}{x}{post}"
                        for (sym, pre, post), x in zip(symbols, exps) if x])
        if not mono:
            body = mag if mag else "1"
        else:
            body = f"{mag}{mono}" if mag else mono
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


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
    if not coeffs:
        return "0"
    chunks = []
    for lam, c in schur_sorted(coeffs):
        neg, mag = _coeff_prefix(c, latex)
        body = f"{mag}{_partition_label(lam, latex)}" if mag else _partition_label(lam, latex)
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


def class_text(cls, latex=False):
    if cls.basis == "schur":
        return schur_text(cls.payload, latex=latex)
    return poly_text(cls.payload, latex=latex)


def class_json_dict(cls):
    """JSON document for a ClassExpr, matching the CLI wire format."""
    if cls.basis == "schur":
        terms = [{"key": list(lam), "coeff": coeff_str(c)}
                 for lam, c in schur_sorted(cls.payload)]
    else:
        terms = [{"key": list(exps), "coeff": coeff_str(c)}
                 for exps, c in sorted_terms(cls.payload)]
    return {
        "family": str(cls.family),
        "n": cls.n,
        "r": cls.r,
        "kind": cls.kind,
        "closure": cls.closure,
        "basis": cls.basis,
        "trunc": cls.trunc,
        "terms": terms,
        "warnings": list(cls.warnings),
    }

