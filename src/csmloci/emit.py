"""Text, JSON and LaTeX rendering of polynomials and class records.

Term order is deterministic everywhere: ascending total alpha-degree, then
descending lexicographic exponents (for Chern monomials the degree is the
weighted one, deg c_i = i).  Coefficients serialize as exact
"numerator/denominator" strings.

A class arrives in Schur form and is written in the basis asked for.  The
alpha basis is written from the monomial coefficients d_mu of the Schur form
(schur.monomial_coeffs), never as a polynomial: within each degree the
orderings of every mu are sorted descending, and each d_mu is rendered once
for all of its orderings.  Every sum of terms goes through one renderer,
_signed_sum, which joins the terms a block at a time; class_text returns the
blocks as a list of pieces, so a long class text is never copied into one
string.  json_text gives the bytes of json.dumps(doc, indent=2): json's own
encoder writes the document, and json_text writes only its TermLists,
straight from their (key, coefficient) pairs, without a dict per term.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import itemgetter, mul

from .orbits import alpha_vars

_GREEK = {"a": r"\alpha", "s": r"\sigma", "xi": r"\xi"}
_BLOCK = 4096  # terms joined into one string at a time


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


def _coeff_prefix(c, latex):
    """(sign, magnitude-string) of a term: sign "+ " or "- ", and a ''
    magnitude for +-1."""
    neg = c < 0
    c = -c if neg else c
    if c == 1:
        s = ""
    elif isinstance(c, Fraction) and c.denominator != 1:
        s = rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}" if latex else f"({c})"
    else:
        s = str(c)
    return "- " if neg else "+ ", s


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


def _signed_sum(terms):
    """The text of a sum from its (coefficient prefix, monomial text) pairs,
    each prefix from _coeff_prefix, as a list of pieces: the terms joined a
    block at a time, and the spaces between blocks.  A +-1 coefficient of the
    constant monomial reads 1."""
    terms = iter(terms)
    pieces = []
    while block := " ".join([f"{sign}{mag}{mono}" if mag or mono else f"{sign}1"
                             for (sign, mag), mono in islice(terms, _BLOCK)]):
        pieces += (" ", block)
    if not pieces:
        return ["0"]
    first = pieces[1]  # its first term keeps only a "-" of its sign
    pieces[1] = first[2:] if first[0] == "+" else f"-{first[2:]}"
    return pieces[1:]


def _poly_terms(poly, latex):
    """(coefficient prefix, monomial text) of each term of a Poly, in
    display order."""
    symbols = _symbols(poly.vars, latex)
    for exps, c in sorted_terms(poly):
        yield (_coeff_prefix(c, latex),
               "".join([sym if x == 1 else f"{pre}{x}{post}"
                        for (sym, pre, post), x in zip(symbols, exps) if x]))


def poly_text(poly, latex=False):
    return "".join(_signed_sum(_poly_terms(poly, latex)))


def _alpha_rows(d, n, render):
    """(exponents, render(d_mu)) for every monomial of sum_mu d_mu m_mu in
    a_1..a_n, in display order: the orderings of every mu of one degree,
    sorted descending, degree by degree.  render runs once per mu."""
    from .schur import _orderings
    by_size = defaultdict(list)
    for mu, c in d.items():
        by_size[sum(mu)].append((mu, c))
    for size in sorted(by_size):
        rows = {}
        for mu, c in by_size.pop(size):
            rows.update(dict.fromkeys(_orderings(mu + (0,) * (n - len(mu))), render(c)))
        for exps in sorted(rows, reverse=True):
            yield exps, rows[exps]


def _alpha_terms(coeffs, n, latex):
    """_poly_terms of the alpha expansion of the Schur dict coeffs in n
    variables, from its monomial coefficients: each power's text is made
    once, and each d_mu's prefix once."""
    from .schur import monomial_coeffs
    d = monomial_coeffs(coeffs, n)
    top = max((mu[0] for mu in d if mu), default=0)  # the largest exponent
    powers = [["", sym] + [f"{pre}{x}{post}" for x in range(2, top + 1)]
              for sym, pre, post in _symbols(alpha_vars(n), latex)]
    for exps, prefix in _alpha_rows(d, n, partial(_coeff_prefix, latex=latex)):
        yield prefix, "".join(map(list.__getitem__, powers, exps))


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


def class_text(cls, basis, latex=False):
    """The text of the Schur-form class cls written in basis, as the list of
    pieces of _signed_sum."""
    if basis == "alpha":
        terms = _alpha_terms(cls.payload, cls.n, latex)
    elif basis == "schur":
        terms = ((_coeff_prefix(c, latex), _partition_label(lam, latex))
                 for lam, c in schur_sorted(cls.payload))
    else:
        terms = _poly_terms(cls.chern_poly(), latex)
    return _signed_sum(terms)


class TermList:
    """A JSON term list, written as json.dumps writes
    [{"key": list(key), "coeff": text} for key, text in rows(*args)]
    but without a dict per term; rows(*args) yields (key, coefficient
    string) pairs afresh on each write."""

    __slots__ = ("rows", "args")

    def __init__(self, rows, *args):
        self.rows, self.args = rows, args

    def __iter__(self):
        return self.rows(*self.args)


def _coeff_rows(items):
    """(key, coefficient string) of each (key, coefficient) pair."""
    for key, c in items:
        yield key, coeff_str(c)


def term_list(items):
    """The TermList of (key, coefficient) pairs already in display order."""
    return TermList(_coeff_rows, items)


def class_json_dict(cls, basis):
    """JSON document for the Schur-form class cls written in basis,
    matching the CLI wire format; json_text writes it."""
    if basis == "alpha":
        from .schur import monomial_coeffs
        terms = TermList(_alpha_rows, monomial_coeffs(cls.payload, cls.n), cls.n, coeff_str)
    elif basis == "schur":
        terms = term_list(schur_sorted(cls.payload))
    else:
        terms = term_list(sorted_terms(cls.chern_poly()))
    return {
        "family": str(cls.family),
        "n": cls.n,
        "r": cls.r,
        "kind": cls.kind,
        "closure": cls.closure,
        "basis": basis,
        "trunc": cls.trunc,
        "terms": terms,
        "warnings": list(cls.warnings),
    }


def json_text(doc):
    """json.dumps(doc, indent=2), byte for byte, for a document of JSON
    values and TermLists, as a list of pieces.  json's own encoder writes
    the document, and hold stands each TermList in for one placeholder,
    which the encoder yields as its very next chunk; the term blocks go in
    its place, indented as the current line.  Each block of terms after the
    first starts a new piece, so a long document is never copied into one
    string."""
    from json import JSONEncoder
    from json.encoder import encode_basestring_ascii
    held = []

    def hold(value):
        if not isinstance(value, TermList):
            raise TypeError(f"{type(value).__name__} is not written as JSON here")
        held.append(value)
        return None

    pieces, run, nl = [], [], "\n"
    for chunk in JSONEncoder(indent=2, default=hold).iterencode(doc):
        if held:
            for block in _term_blocks(held.pop(), nl, encode_basestring_ascii):
                if block[0] == ",":
                    pieces.append("".join(run))
                    run.clear()
                run.append(block)
            continue
        if "\n" in chunk:  # a new line: its indentation is the depth
            line = chunk.rpartition("\n")[2]
            nl = "\n" + line[:len(line) - len(line.lstrip())]
        run.append(chunk)
    pieces.append("".join(run))
    return pieces


def _term_blocks(terms, nl, quote):
    """The text of a TermList at the depth whose line break is nl, a block
    of terms at a time: each term is one f-string, each block after the
    first starts with its "," and the list's closing comes last."""
    item = nl + "  "  # the line break before a term
    field = item + "  "  # before each of its fields
    entry = field + "  "  # before each entry of its key
    head = f'{{{field}"key": [{entry}'
    sep = "," + entry
    mid = f'{field}],{field}"coeff": '
    bare = f'{{{field}"key": [],{field}"coeff": '
    tail = item + "}"
    join = ("," + item).join
    rows = iter(terms)
    lead = "[" + item
    while block := [f"{head}{sep.join(map(str, key))}{mid}{quote(text)}{tail}" if key
                    else f"{bare}{quote(text)}{tail}" for key, text in islice(rows, _BLOCK)]:
        yield lead + join(block)
        lead = "," + item
    yield "[]" if lead[0] == "[" else nl + "]"
