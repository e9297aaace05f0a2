"""Packed-exponent polynomials against a reference with tuple monomials.

RefPoly keeps the representation Poly used before packing: a dict from
monomials, tuples of (variable, exponent) pairs sorted by variable, to
nonzero Fractions.  Every operation of Poly is compared with it after
unpacking."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from surfqp.poly import FIELD_BITS, MAX_FIELD_EXPONENT, Poly, monomial


def _order(pair):
    # variables of different types are grouped by type name, as unpack does
    return type(pair[0]).__name__, pair[0]


class RefPoly:
    def __init__(self, terms=()):
        self.terms = {}
        for m, c in terms:
            merged = {}
            for v, e in m:
                merged[v] = merged.get(v, 0) + e
            key = tuple(sorted(((v, e) for v, e in merged.items() if e), key=_order))
            self.terms[key] = self.terms.get(key, 0) + Fraction(c)
        self.terms = {m: c for m, c in self.terms.items() if c}

    def __add__(self, other):
        return RefPoly(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return RefPoly((m, k * c) for m, c in self.terms.items())

    def __mul__(self, other):
        return RefPoly((m1 + m2, c1 * c2) for m1, c1 in self.terms.items()
                       for m2, c2 in other.terms.items())

    def __pow__(self, n):
        out = RefPoly([((), 1)])
        for _ in range(n):
            out = out * self
        return out

    def diff(self, v):
        return RefPoly((tuple((w, e - (w == v)) for w, e in m), c * e)
                       for m, c in self.terms.items() for w, e in m if w == v)

    def subs(self, images):
        out = RefPoly()
        for m, c in self.terms.items():
            term = RefPoly([((), c)])
            for v, e in m:
                term = term * (images[v] if v in images else RefPoly([(((v, 1),), 1)])) ** e
            out = out + term
        return out

    def evaluate(self, assign):
        total = Fraction(0)
        for m, c in self.terms.items():
            for v, e in m:
                c *= assign[v] ** e
            total += c
        return total

    def variables(self):
        return {v for m in self.terms for v, _ in m}


def as_ref(P: Poly) -> dict:
    return dict(P.unpacked())


VARS = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (2, 1, 1), "x", "y", "zeta"]
COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(-3, 3, max_denominator=6)).filter(bool)
POINT_VALUES = st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 2)])


def terms(max_exp: int):
    exps = st.integers(1, 3) if max_exp <= 3 else st.one_of(st.integers(1, 3),
                                                            st.integers(1, max_exp))
    mono = st.lists(st.tuples(st.sampled_from(VARS), exps), max_size=3)
    return st.lists(st.tuples(mono, COEFFS), max_size=5)


def both(pairs):
    return Poly.collect((monomial(*m), c) for m, c in pairs), RefPoly(pairs)


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_packed_poly_matches_reference(data):
    (P, rP), (Q, rQ) = (both(data.draw(terms(10**5))) for _ in range(2))
    k = data.draw(COEFFS)
    v = data.draw(st.sampled_from(VARS))
    cases = [(P * Q, rP * rQ), (P + Q, rP + rQ), (P - Q, rP - rQ),
             (P.scale(k), rP.scale(k)), (P.diff(v), rP.diff(v)),
             # the cross terms cancel inside one product
             ((P + Q) * (P - Q), (rP + rQ) * (rP - rQ))]
    for got, want in cases:
        assert as_ref(got) == want.terms
    assert ((P + Q) * (P - Q) - (P * P - Q * Q)).is_zero()
    assert P.variables() == rP.variables()
    assign = {w: data.draw(POINT_VALUES) for w in VARS}
    assert P.evaluate(assign) == rP.evaluate(assign)
    # substitution expands powers, so it runs on small exponents
    (S, rS), (img, rimg) = both(data.draw(terms(3))), both(data.draw(terms(2)))
    images = {v: img, VARS[-1]: Poly.var(VARS[0]) + Poly.const(k)}
    rimages = {v: rimg, VARS[-1]: RefPoly([(((VARS[0], 1),), 1), ((), k)])}
    assert as_ref(S.subs(images)) == rS.subs(rimages).terms


def test_integral_scalars_are_ints():
    P = Poly.var("x").scale(Fraction(4, 2)) + Poly.const(Fraction(3))
    assert all(type(c) is int for _, c in P.items())
    assert type((P * Poly.var("y").scale(Fraction(1, 2))).terms[monomial(("y", 1))]) is Fraction


def test_guard_bit_overflow():
    x, y = "guard x", "guard y"
    # handed out together, so y's field sits directly above x's
    xy = monomial((x, 1), (y, 1))
    assert xy == monomial((x, 1)) + (monomial((x, 1)) << FIELD_BITS)
    top = MAX_FIELD_EXPONENT
    with pytest.raises(OverflowError):
        Poly({monomial((x, top), (y, 5)): 1}) * Poly.var(x)
    with pytest.raises(OverflowError):
        monomial((x, top + 1))
    P = Poly({monomial((x, top - 1), (y, 5)): 1}) * Poly.var(x)
    assert list(P.unpacked()) == [(((x, top), (y, 5)), 1)]
