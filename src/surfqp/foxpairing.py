"""Fox pairings on the group algebra of a surface group.

A Fox pairing is a bilinear form that differentiates like a left Fox
derivative in the first slot and a right Fox derivative in the second:

    rho(a1 a2, b) = rho(a1, b) eps(a2) + a1 rho(a2, b)
    rho(a, b1 b2) = rho(a, b1) b2 + eps(b1) rho(a, b2)

The homotopy intersection pairing eta of the surface (SurfaceFoxPairing)
is pinned by its values on ordered generator pairs (everything else is
forced by the Fox rules, the inverse-letter rules and the transpose
identity), not by loop geometry.  Its skew-symmetrization
eta^s = 2 eta + rho_1 (SurfaceFoxPairing.skew) feeds the double bracket.
"""

from __future__ import annotations

from typing import Callable

from .algebra import AlgElem, ElemLike
from .words import SurfaceSignature, Word, corner_cuts, corner_table, join, signed_corners

Pairing = Callable[[ElemLike, ElemLike], AlgElem]


def inner_pairing(e: ElemLike, a: ElemLike, b: ElemLike) -> AlgElem:
    """rho_e(a, b) = (a - eps(a) 1) e (b - eps(b) 1), one sum over the term triples."""
    one = Word.identity()  # the terms of a - eps(a) 1 may hold the identity twice
    return AlgElem.collect((join(join(v, u), w), cv * cu * cw)
                           for v, cv in (*a.items(), (one, -a.counit())) for u, cu in e.items()
                           for w, cw in (*b.items(), (one, -b.counit())))


def rho_1(a: ElemLike, b: ElemLike) -> AlgElem:
    return inner_pairing(Word.identity(), a, b)


def transpose_apply(rho: Pairing, a: ElemLike, b: ElemLike) -> AlgElem:
    """The transposed pairing: on group-likes, a S(rho(b, a)) b."""
    return AlgElem.collect((join(join(v, u.inverse()), w), cv * cw * cu)
                           for v, cv in a.items() for w, cw in b.items()
                           for u, cu in rho(w, v).items())


class SurfaceFoxPairing:
    """The homotopy intersection pairing eta for a fixed signature.

    Each word u of eta(x, y) on positive generators is x^di y^(1-dj) for a
    corner (di, dj) in {0,1}^2, flipped in di by eta(x^-1, b) = -x^-1 eta(x, b)
    and in dj by eta(a, y^-1) = -eta(a, y) y^-1.  The stored data is the
    corners' integer weights by the kind of the pair, the table WEIGHTS.  So
    the Fox rules integrate to eta(x1...xn, y1...ym) = sum W(i', j') G(i', j')
    over the cuts G(i', j') = x_{<i'} y_{>=j'}, with integer weights W summed
    a row at a time: no recursion, no cache, and a word only where W is nonzero.
    A generator pair (x_i, x_j) is the pairing of two one-letter words, for
    i > j as for i <= j.  tests/test_dbracket.py derives the weights from the
    displayed values (x <= y) and the transpose identity eta(x, y) =
    x S(etabar(y, x)) y, etabar = -eta - rho_1 (x > y), which the fox suite
    checks on sampled words.
    """

    # the weights of eta(x_i, x_j) on the corners 00, 01, 10, 11, by sig.pair_kind(i, j)
    WEIGHTS = {"q": (1, -1, 0, 0), "pz": (1, 0, -1, 0), "handle": (0, 0, 0, 1),
               "handle^t": (1, -1, -1, 0), "<": (0, 0, 0, 0), ">": (1, -1, -1, 1)}
    CORNERS = signed_corners(WEIGHTS)

    def __init__(self, sig: SurfaceSignature):
        self.sig = sig
        self._corners = corner_table(sig, self.CORNERS)

    def __call__(self, a: ElemLike, b: ElemLike) -> AlgElem:
        return AlgElem.collect((join(head, w[j:]), cv * cw * k)
                               for v, cv in a.items() for w, cw in b.items()
                               for i, row in corner_cuts(v, w, self._corners)
                               for head in (v[:i],) for j, k in row)

    def skew(self, a: ElemLike, b: ElemLike) -> AlgElem:
        """eta^s(a, b) = 2 eta(a, b) + (a - eps(a) 1)(b - eps(b) 1)."""
        return self(a, b).scale(2) + rho_1(a, b)
