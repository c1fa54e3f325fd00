"""The LaurentFraction record, and the reference fraction's arithmetic and
canonical form."""

from fractions import Fraction

import pytest

from csmloci.laurent import LaurentFraction
from csmloci.oracles import CanonicalFraction
from csmloci.poly import Poly

AV = ("a1", "a2")


def lf(num_terms, den_terms=None):
    num = Poly(AV, num_terms)
    den = Poly(AV, den_terms) if den_terms else None
    return CanonicalFraction(num, den)


def test_add_same_pole():
    one_over_a1 = lf({(0, 0): 1}, {(1, 0): 1})
    s = one_over_a1 + one_over_a1
    assert s.num == Poly(AV, {(0, 0): 2})
    assert s.den == Poly(AV, {(1, 0): 1})


def test_laurent_times_monomial():
    # (1 - 1/(a1 a2)) * (a1 a2) = a1 a2 - 1
    p = lf({(0, 0): 1, (-1, -1): -1})
    q = lf({(1, 1): 1})
    out = p * q
    assert out.den == Poly(AV, {(0, 0): 1})
    assert out.num == Poly(AV, {(1, 1): 1, (0, 0): -1})


def test_zero_denominator_rejected():
    for cls in (LaurentFraction, CanonicalFraction):
        with pytest.raises(ZeroDivisionError):
            cls(Poly(AV, {(0, 0): 1}), Poly.zero(AV))
        with pytest.raises(ValueError):
            cls(Poly(AV, {(0, 0): 1}), Poly.const(("a1",), 1))


def test_record_keeps_its_form():
    # the record stores num and den as given, read-only
    num, den = Poly(AV, {(1, 0): 2}), Poly(AV, {(2, 0): 2})
    frac = LaurentFraction(num, den)
    assert (frac.num, frac.den, frac.vars) == (num, den, AV)
    assert frac.eval({"a1": Fraction(3), "a2": 1}) == Fraction(1, 3)
    with pytest.raises(AttributeError):
        frac.num = den
    with pytest.raises(TypeError):
        frac.num.terms[(0, 0)] = 1


def test_cancel_with_explicit_factors():
    f = Poly(AV, {(1, 0): 1, (0, 1): -1})     # a1 - a2
    g = Poly(AV, {(1, 0): 1, (0, 1): 1})      # a1 + a2
    frac = CanonicalFraction(f * g, f * f)
    red = frac.cancel([f])
    assert red.num == g and red.den == f


def test_equality_cross_multiplies():
    a = lf({(1, 0): 2}, {(2, 0): 2})
    b = lf({(0, 0): 1}, {(1, 0): 1})
    assert a == b


def test_eval_and_substitute():
    frac = lf({(1, 1): 1, (0, 0): -1}, {(1, 1): 1, (0, 0): 3})
    pt = {"a1": Fraction(2), "a2": Fraction(5, 2)}
    assert frac.eval(pt) == Fraction(2 * Fraction(5, 2) - 1) / (2 * Fraction(5, 2) + 3)
    swapped = frac.substitute({"a1": Poly.variable(AV, "a2"),
                               "a2": Poly.variable(AV, "a1")}, AV)
    assert swapped == frac


def test_content_normalization():
    frac = lf({(1, 0): Fraction(1, 2)}, {(0, 0): Fraction(3, 2)})
    assert frac.num == Poly(AV, {(1, 0): 1})
    assert frac.den == Poly(AV, {(0, 0): 3})
