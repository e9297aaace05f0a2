"""Sparse multivariate polynomials over exact rationals.

Variables are opaque sortable hashable keys (the representation algebra
uses (generator, row, col) triples).  A monomial is a tuple of (variable,
exponent) pairs sorted by variable with positive exponents; a polynomial
is a LinComb mapping monomials to nonzero Fractions, so equality is
structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Union

from .algebra import LinComb

Var = Hashable
Monomial = tuple  # tuple[tuple[Var, int], ...]
Scalar = Union[int, Fraction]

ONE_MONOMIAL: Monomial = ()


def monomial(*pairs: tuple[Var, int]) -> Monomial:
    merged: dict = {}
    for v, e in pairs:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in merged.items() if e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, e in b:
        acc = merged.get(v, 0) + e
        if acc:
            merged[v] = acc
        else:
            del merged[v]
    return tuple(sorted(merged.items()))


class Poly(LinComb):
    """A sparse polynomial with Fraction coefficients."""

    __slots__ = ()

    @staticmethod
    def const(k: Scalar) -> "Poly":
        k = Fraction(k)
        return Poly({ONE_MONOMIAL: k}) if k else Poly()

    @staticmethod
    def var(v: Var) -> "Poly":
        return Poly({((v, 1),): Fraction(1)})

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        return Poly.collect((mono_mul(m1, m2), c1 * c2) for m2, c2 in small.items()
                            for m1, c1 in big.items())

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, v: Var) -> "Poly":
        def terms():
            for m, c in self.terms.items():
                for idx, (var, exp) in enumerate(m):
                    if var == v:
                        rest = m[:idx] + ((var, exp - 1),) + m[idx + 1:] if exp > 1 else m[:idx] + m[idx + 1:]
                        yield rest, c * exp
                        break

        return Poly.collect(terms())

    def subs(self, images: Mapping[Var, "Poly"]) -> "Poly":
        """Substitute polynomials for variables; unmapped variables persist."""
        powers: dict[tuple[Var, int], Poly] = {}

        def image(m: Monomial, c: Fraction) -> Poly:
            term = Poly.const(c)
            for v, e in m:
                factor = powers.get((v, e))
                if factor is None:
                    base = images.get(v)
                    if base is None:
                        base = Poly.var(v)
                    factor = base ** e
                    powers[(v, e)] = factor
                term = term * factor
            return term

        return Poly.collect(pair for m, c in self.terms.items() for pair in image(m, c).items())

    def evaluate(self, assign: Mapping[Var, Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= assign[v] ** e
            total += val
        return total

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out
