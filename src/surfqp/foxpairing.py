"""Fox pairings on the group algebra of a surface group.

A Fox pairing is a bilinear form that differentiates like a left Fox
derivative in the first slot and a right Fox derivative in the second:

    rho(a1 a2, b) = rho(a1, b) eps(a2) + a1 rho(a2, b)
    rho(a, b1 b2) = rho(a, b1) b2 + eps(b1) rho(a, b2)

The homotopy intersection pairing eta of the surface is pinned here by its
values on ordered generator pairs (everything else is forced by the Fox
rules, the inverse-letter rules and the transpose identity), not by loop
geometry.  Its skew-symmetrization eta^s = 2 eta + rho_1 feeds the surface
double bracket.
"""

from __future__ import annotations

from typing import Callable

from .algebra import AlgElem, ElemLike, as_elem
from .words import Letter, SurfaceSignature, Word

Pairing = Callable[[AlgElem, AlgElem], AlgElem]


def inner_pairing(e: ElemLike, a: ElemLike, b: ElemLike) -> AlgElem:
    """rho_e(a, b) = (a - eps(a) 1) e (b - eps(b) 1)."""
    e, a, b = as_elem(e), as_elem(a), as_elem(b)
    one = AlgElem.one()
    return (a - one.scale(a.counit())) * e * (b - one.scale(b.counit()))


def rho_1(a: ElemLike, b: ElemLike) -> AlgElem:
    return inner_pairing(AlgElem.one(), a, b)


def transpose_apply(rho: Pairing, a: ElemLike, b: ElemLike) -> AlgElem:
    """The transposed pairing: on group-likes, a S(rho(b, a)) b."""
    a, b = as_elem(a), as_elem(b)
    return AlgElem.collect((v * u.inverse() * w, cv * cw * cu)
                           for v, cv in a.items() for w, cw in b.items()
                           for u, cu in rho(AlgElem.from_word(w), AlgElem.from_word(v)).items())


class SurfaceFoxPairing:
    """The homotopy intersection pairing eta for a fixed signature.

    The stored data is the value on ordered generator pairs x <= y only.
    Construction extends it once to all signed letter pairs: x > y by the
    transpose identity eta(x, y) = x S(etabar(y, x)) y, etabar = -eta - rho_1,
    inverse letters by eta(x^-1, b) = -x^-1 eta(x, b) and
    eta(a, y^-1) = -eta(a, y) y^-1.  The Fox rules integrate to the closed
    double sum eta(x1...xn, y1...ym) = sum_{i,j} x_{<i} eta(x_i, y_j) y_{>j}
    over letter positions, evaluated directly: no recursion and no cache.
    """

    def __init__(self, sig: SurfaceSignature):
        self.sig = sig
        self._table: dict[tuple[Letter, Letter], tuple] = {}
        for i in range(sig.rank):
            for j in range(sig.rank):
                x, y = Word.generator(i), Word.generator(j)
                if i <= j:
                    val = self.base(i, j)
                else:
                    etabar = -self.base(j, i) - rho_1(y, x)
                    val = AlgElem.from_word(x) * etabar.antipode() * AlgElem.from_word(y)
                for ex, ey in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    left = x.inverse() if ex < 0 else Word.identity()
                    right = y.inverse() if ey < 0 else Word.identity()
                    self._table[((i, ex), (j, ey))] = tuple(
                        (left * u * right, ex * ey * c) for u, c in val.items())

    def base(self, i: int, j: int) -> AlgElem:
        """Table value on the ordered generator pair (i, j), i <= j."""
        sig = self.sig
        if not (0 <= i < sig.rank and 0 <= j < sig.rank):
            raise IndexError(f"generator index out of range: ({i}, {j})")
        if i > j:
            raise ValueError(f"base table holds ordered pairs only, got ({i}, {j}); "
                             "use the transpose path")
        x = Word.generator(i)
        if i == j:
            if sig.letter_kind(i) == "q":
                return AlgElem.from_word(x) - AlgElem.one()
            # p and z letters pair the same way with themselves
            return AlgElem.from_word(x) - AlgElem.from_word(x * x)
        if sig.is_handle_pair(i, j):
            return AlgElem.from_word(x)
        return AlgElem.zero()

    def __call__(self, a: ElemLike, b: ElemLike) -> AlgElem:
        a, b = as_elem(a), as_elem(b)

        def terms():
            for v, cv in a.items():
                for w, cw in b.items():
                    ys, c = w.letters, cv * cw
                    posts = [Word(ys[j + 1:], _reduced=True) for j in range(len(ys))]
                    for i, x in enumerate(v.letters):
                        pre = Word(v.letters[:i], _reduced=True)
                        for y, post in zip(ys, posts):
                            for u, cu in self._table[(x, y)]:
                                yield pre * u * post, c * cu

        return AlgElem.collect(terms())

    def skew(self, a: ElemLike, b: ElemLike) -> AlgElem:
        """eta^s(a, b) = 2 eta(a, b) + (a - eps(a) 1)(b - eps(b) 1)."""
        return self(a, b).scale(2) + rho_1(a, b)


def eta_base(sig: SurfaceSignature, i: int, j: int) -> AlgElem:
    return SurfaceFoxPairing(sig).base(i, j)


def eta(sig: SurfaceSignature, a: ElemLike, b: ElemLike) -> AlgElem:
    return SurfaceFoxPairing(sig)(a, b)


def eta_s(sig: SurfaceSignature, a: ElemLike, b: ElemLike) -> AlgElem:
    return SurfaceFoxPairing(sig).skew(a, b)
