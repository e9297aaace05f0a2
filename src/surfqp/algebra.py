"""The group algebra of a free group over exact rationals, and the tensor
squares/cubes carrying the outer and inner bimodule actions used by double
and triple brackets.

All elements are LinComb instances: sparse maps from basis keys (words,
or pairs/triples of words) to nonzero coefficients, so equality is
structural.  A coefficient is an int when it is integral and a Fraction
only where a rational enters (the Goldman bracket's 1/2); _coeff is that
rule, and the constructors and scale apply it.  Since 3 == Fraction(3),
with equal hashes and str, the mixture is invisible to equality and output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .words import Word

Scalar = Union[int, Fraction]


def _coeff(k: Scalar) -> Scalar:
    """k as an int when it is integral, else as a Fraction.  Any other type
    raises TypeError: a float holds a binary value, not the rational it shows."""
    if isinstance(k, int):
        return int(k)
    if not isinstance(k, Fraction):
        raise TypeError(f"a coefficient is an int or a Fraction, not {type(k).__name__}")
    return k.numerator if k.denominator == 1 else k


class LinComb:
    """A finite rational linear combination over hashable keys: a dict of
    nonzero coefficients.  Subclasses fix what the keys are and add their
    products; equality is structural and never holds across subclasses."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def collect(cls, pairs: Iterable[tuple], start: Mapping = ()):
        """Sum the (key, coefficient) pairs onto a copy of start, per key.
        A key leaves as soon as its sum is zero: closed sums over long words
        cancel most of their terms, and keeping those keys to the end
        would hold every cancelled word in memory."""
        out = dict(start)
        for k, c in pairs:
            acc = out.get(k, 0) + c
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)
        # out holds no zero, so wrap it as it is instead of filtering again
        return cls._wrap(out)

    @classmethod
    def _wrap(cls, terms: dict):
        """An element around a dict that already holds no zero coefficient."""
        new = cls.__new__(cls)
        new.terms = terms
        return new

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        # sums, like ==, never mix subclasses: their keys are different things
        if type(other) is not type(self):
            return NotImplemented
        return self.collect(other.terms.items(), self.terms)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.collect(((k, -c) for k, c in other.terms.items()), self.terms)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def scale(self, k: Scalar):
        k = _coeff(k)
        if k == 1:  # elements never mutate, so self serves as the copy
            return self
        if not k:
            return self.zero()
        # k * c is nonzero when both are, so nothing needs filtering
        return self._wrap({key: k * c for key, c in self.terms.items()})

    def __rmul__(self, other: Scalar):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


class AlgElem(LinComb):
    """A finite rational linear combination of reduced words."""

    __slots__ = ()

    @staticmethod
    def one() -> "AlgElem":
        return AlgElem({Word.identity(): 1})

    @staticmethod
    def from_word(w: Word, coeff: Scalar = 1) -> "AlgElem":
        k = _coeff(coeff)
        return AlgElem._wrap({w: k} if k else {})

    def __mul__(self, other):
        if isinstance(other, (AlgElem, Word)):
            return AlgElem.collect((v * w, cv * cw) for v, cv in self.terms.items()
                                   for w, cw in other.items())
        return self.scale(other)

    def counit(self) -> int | Fraction:
        return sum(self.terms.values())


# a Word is a one-term element: bilinear maps read items() of either
ElemLike = Union[AlgElem, Word]


class Tensor2(LinComb):
    """Element of the tensor square, keyed by ordered word pairs."""

    __slots__ = ()
    arity = 2


class Tensor3(LinComb):
    """Element of the tensor cube, keyed by ordered word triples."""

    __slots__ = ()
    arity = 3


def tensor2(a: ElemLike, b: ElemLike) -> Tensor2:
    return Tensor2.collect(((v, w), cv * cw) for v, cv in a.items() for w, cw in b.items())


def tensor3(a: ElemLike, b: ElemLike, c: ElemLike) -> Tensor3:
    return Tensor3.collect(((u, v, w), cu * cv * cw) for u, cu in a.items()
                           for v, cv in b.items() for w, cw in c.items())


def permute(t: Tensor2 | Tensor3, perm: Iterable[int]) -> Tensor2 | Tensor3:
    """Reorder tensor factors: position j of the output takes factor perm[j]
    of the input (1-indexed), e.g. perm=(2,1) swaps, (3,1,2) cycles."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, t.arity + 1)):
        raise ValueError(f"not a permutation of 1..{t.arity}: {perm}")
    return type(t).collect((tuple(key[p - 1] for p in perm), c) for key, c in t.items())


def outer_act(left: AlgElem, t: Tensor2 | Tensor3, right: AlgElem) -> Tensor2 | Tensor3:
    """left * first factor, last factor * right (the outer bimodule action)."""
    return type(t).collect(((first,) + key[1:-1] + (key[-1] * w,), c * cv * cw)
                           for key, c in t.items() for v, cv in left.items()
                           for first in (v * key[0],) for w, cw in right.items())


def inner_act(left: AlgElem, t: Tensor2, right: AlgElem) -> Tensor2:
    """l * (a1 (x) a2) * r = a1 r (x) l a2 (the inner bimodule action)."""
    return Tensor2.collect(((a1 * w, v * a2), c * cv * cw) for (a1, a2), c in t.items()
                           for v, cv in left.items() for w, cw in right.items())


def m2(t: Tensor2) -> AlgElem:
    """Multiply the two tensor factors."""
    return AlgElem.collect((a1 * a2, c) for (a1, a2), c in t.items())


def m3(t: Tensor3) -> AlgElem:
    """Multiply the three tensor factors in order."""
    return AlgElem.collect((a1 * a2 * a3, c) for (a1, a2, a3), c in t.items())
