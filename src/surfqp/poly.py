"""Sparse multivariate polynomials over exact rationals.

Variables are opaque sortable hashable keys (the representation algebra
uses (generator, row, col) triples).  A module-level, append-only table
gives each variable a field index the first time it is seen, and a
monomial is one Python int holding the exponent of variable k in bits
[32k, 32k + 32): the product of two monomials is their sum.  The top bit
of each field is a guard bit that no stored monomial sets, so exponents
stay below 2**31 and a sum of two fields never carries into its
neighbour; a product that sets a guard bit raises OverflowError.

Poly.dot, the one multiply loop, adds c * p * q over many triples into one
dict and drops zeros once, at the end; a product p * q is its one-triple
case.  Guard bits are checked on surviving monomials only, even for fused
sums: no m1 + m2 carries between fields, so a key that sets a guard bit and
then cancels leaves an exact sum behind.

A polynomial is a LinComb mapping monomials to nonzero coefficients, so
equality is structural.  Coefficients follow the group algebra's scalar
rule (algebra._coeff): an int when integral, a Fraction only where a
rational enters; const, var and scale normalise their scalars to it.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Hashable, Iterable, Iterator, Mapping

from .algebra import LinComb, Scalar, _coeff

Var = Hashable
Monomial = int  # packed exponent fields, see the module docstring

FIELD_BITS = 32
MAX_FIELD_EXPONENT = (1 << (FIELD_BITS - 1)) - 1  # the largest exponent with a clear guard bit
_MASK = (1 << FIELD_BITS) - 1

ONE_MONOMIAL: Monomial = 0

_VARS: list = []  # field index -> variable
_FIELD: dict = {}  # variable -> field index
_guards = 0  # the guard bits of every field handed out so far


def _field(v: Var) -> int:
    """The field index of v, handing out the next one on first sight."""
    global _guards
    idx = _FIELD.get(v)
    if idx is None:
        idx = _FIELD[v] = len(_VARS)
        _VARS.append(v)
        _guards |= 1 << (FIELD_BITS * idx + FIELD_BITS - 1)
    return idx


def monomial(*pairs: tuple[Var, int]) -> Monomial:
    """The packed monomial of (variable, exponent) pairs; a repeated
    variable's exponents add."""
    merged: dict = {}
    for v, e in pairs:
        merged[v] = merged.get(v, 0) + e
    m = 0
    for v, e in merged.items():
        if e < 0:
            raise ValueError(f"negative exponent {e} of {v!r}")
        if e > MAX_FIELD_EXPONENT:
            raise OverflowError(f"exponent {e} of {v!r} exceeds {MAX_FIELD_EXPONENT}")
        if e:
            m |= e << (FIELD_BITS * _field(v))
    return m


def unpack(m: Monomial) -> tuple[tuple[Var, int], ...]:
    """The monomial as (variable, exponent) pairs sorted by variable."""
    pairs = []
    idx = 0
    while m:
        e = m & _MASK
        if e:
            pairs.append((_VARS[idx], e))
        m >>= FIELD_BITS
        idx += 1
    try:
        pairs.sort()
    except TypeError:  # variables of different types: group them by type name
        pairs.sort(key=lambda pair: (type(pair[0]).__name__, pair[0]))
    return tuple(pairs)


class Poly(LinComb):
    """A sparse polynomial with int or Fraction coefficients."""

    __slots__ = ()

    @staticmethod
    def const(k: Scalar) -> "Poly":
        k = _coeff(k)
        return Poly._wrap({ONE_MONOMIAL: k}) if k else Poly()

    @staticmethod
    def var(v: Var) -> "Poly":
        return Poly._wrap({1 << (FIELD_BITS * _field(v)): 1})

    scale = LinComb.scale  # in Poly's own namespace, where perfbench/tracer.py looks

    @staticmethod
    def dot(triples: Iterable[tuple[Scalar, "Poly", "Poly"]]) -> "Poly":
        """The sum of c * p * q over the (c, p, q) triples, in one dict."""
        out: dict = {}
        get = out.get
        for c, p, q in triples:
            small, big = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
            for m2, c2 in small.items():
                k = c * c2
                for m1, c1 in big.items():
                    m = m1 + m2
                    out[m] = get(m, 0) + k * c1
        if 0 in out.values():  # a C-level scan; most sums cancel nothing
            out = {m: c for m, c in out.items() if c}
        if reduce(or_, out, 0) & _guards:
            raise OverflowError(f"a product exponent exceeds {MAX_FIELD_EXPONENT}")
        return Poly._wrap(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        return Poly.dot(((1, self, other),))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def unpacked(self) -> Iterator[tuple[tuple[tuple[Var, int], ...], Scalar]]:
        """The terms as (sorted (variable, exponent) pairs, coefficient)."""
        return ((unpack(m), c) for m, c in self.terms.items())

    def diff(self, v: Var) -> "Poly":
        idx = _FIELD.get(v)
        if idx is None:
            return Poly()
        shift = FIELD_BITS * idx
        unit = 1 << shift
        # distinct monomials stay distinct after one decrement, so no sums
        return Poly._wrap({m - unit: c * e for m, c in self.terms.items()
                      if (e := (m >> shift) & _MASK)})

    def subs(self, images: Mapping[Var, "Poly"]) -> "Poly":
        """Substitute polynomials for variables; unmapped variables persist."""
        powers: dict[tuple[Var, int], Poly] = {}

        def image(pairs: tuple, c: Scalar) -> Poly:
            term = Poly.const(c)
            for v, e in pairs:
                factor = powers.get((v, e))
                if factor is None:
                    base = images.get(v)
                    if base is None:
                        base = Poly.var(v)
                    factor = base ** e
                    powers[(v, e)] = factor
                term = term * factor
            return term

        return Poly.collect(pair for pairs, c in self.unpacked()
                            for pair in image(pairs, c).items())

    def evaluate(self, assign: Mapping[Var, Scalar]) -> Scalar:
        """The exact value: an int when the coefficients and values are."""
        total = 0
        for pairs, c in self.unpacked():
            val = c
            for v, e in pairs:
                val *= assign[v] ** e
            total += val
        return total

    def variables(self) -> set:
        m = reduce(or_, self.terms, 0)  # no guard bit is set, so field k ends below bit 32k + 31
        return {v for k, v in enumerate(_VARS[:m.bit_length() // FIELD_BITS + 1])
                if m >> FIELD_BITS * k & _MASK}
