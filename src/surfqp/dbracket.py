"""Double and triple brackets on the group algebra of a surface group.

Two independent routes compute the surface double bracket: a generator
table extended by the derivation rules (fast default, class
SurfaceDoubleBracket) and the general pairing-to-bracket formula applied
to the skew pairing eta^s (dbl_from_pairing, the oracle).  The module
also provides the associated triple bracket, the canonical eight-term
triple bracket it must match for the quasi-Poisson property, the induced
single bracket, and the Goldman bracket on conjugacy classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Mapping, Optional

from .algebra import AlgElem, ElemLike, LinComb, Tensor2, Tensor3, m2
from .foxpairing import Pairing
from .words import (CyclicWord, SurfaceSignature, Word, corner_cuts, corner_table, format_word,
                    join, sample_word, signed_corners, trial_rng)

# the number of word pairs SurfaceDoubleBracket's memo keeps, the ones used last
MEMO_LIMIT = 4096


def dbl_from_pairing(rho: Pairing, a: ElemLike, b: ElemLike) -> Tensor2:
    """Double bracket induced by a Fox pairing.

    On group-like arguments v, w this is sum_u c_u (w u^-1 v) (x) u over the
    expansion rho(v, w) = sum_u c_u u, extended bilinearly.  It is an honest
    double bracket exactly when rho is skew-symmetric.
    """
    return Tensor2.collect(((join(join(w, u.inverse()), v), u), cv * cw * cu)
                           for v, cv in a.items() for w, cw in b.items()
                           for u, cu in rho(v, w).items())


def dbl_from_inner(e: ElemLike, a: ElemLike, b: ElemLike) -> Tensor2:
    """Closed form of the bracket of an inner pairing rho_e: for group-like
    a, b and e = sum_u c_u u it is
    sum_u c_u [ u^-1 (x) a u b + b u^-1 a (x) u - b u^-1 (x) a u - u^-1 a (x) u b ].
    """
    def terms():
        for u, cu in e.items():
            ui = u.inverse()
            for v, cv in a.items():
                for w, cw in b.items():
                    c = cu * cv * cw
                    yield (ui, v * u * w), c
                    yield (w * ui * v, u), c
                    yield (w * ui, v * u), -c
                    yield (ui * v, u * w), -c

    return Tensor2.collect(terms())


class SurfaceDoubleBracket:
    """The surface double bracket, computed from its generator-pair table.

    Each a (x) b in the value on positive generators (x, y) is
    y^dj x^(1-di) (x) x^di y^(1-dj) for a corner (di, dj) in {0,1}^2, and the
    inverse-letter rules dbl(x^-1, b) = -(a1 x^-1 (x) x^-1 a2),
    dbl(a, y^-1) = -(y^-1 a1 (x) a2 y^-1) flip di, resp. dj.  The stored data
    is the corners' integer weights by the kind of the pair, the table WEIGHTS,
    and the derivation rules integrate to a sum over cuts

        dbl(x1...xn, y1...ym) = sum_{i', j'} W(i', j') F(i', j'),
        F(i', j') = (y_{<j'} x_{>=i'}) (x) (x_{<i'} y_{>=j'}),

    with integer weights W summed a row at a time; a row slices x once, and a
    factor of F is one join of two slices, built only where W is nonzero.  A
    generic letter pair weighs -1, +1, +1, -1 on its corners, a second
    difference -D^2 F whose interior cuts cancel as ints.  base(i, j) is the
    memoised cut sum of the two letters.  tests/test_dbracket.py derives the
    weights from the displayed values and their skew-symmetric images.

    The memo, a functools.lru_cache of the cut sum, maps each whole word
    pair bracketed lately to its finished value, never a pair of suffixes;
    concurrent readers are safe.  It keeps the MEMO_LIMIT pairs used last.
    """

    # the weights of dbl(x_i, x_j) on the corners 00, 01, 10, 11, by sig.pair_kind(i, j)
    WEIGHTS = {"q": (0, -1, 1, 0), "pz": (0, 1, -1, 0), "handle": (-1, 1, 1, 1),
               "handle^t": (1, -1, -1, -1), "<": (-1, 1, 1, -1), ">": (1, -1, -1, 1)}
    CORNERS = signed_corners(WEIGHTS)

    def __init__(self, sig: SurfaceSignature):
        self.sig = sig
        self._corners = corner_table(sig, self.CORNERS)
        # bound to the table, not to self, so the bracket holds no reference cycle
        self._memoized = lru_cache(maxsize=MEMO_LIMIT)(partial(_cut_sum, self._corners))

    def base(self, i: int, j: int) -> Tensor2:
        return self._memoized(Word.generator(i), Word.generator(j))

    def __call__(self, a: ElemLike, b: ElemLike) -> Tensor2:
        if isinstance(a, Word) and isinstance(b, Word):
            return self._memoized(a, b)  # the memoised value itself: nothing mutates it
        return Tensor2.collect((key, cv * cw * c) for v, cv in a.items() for w, cw in b.items()
                               for key, c in self._memoized(v, w).items())


def _cut_sum(corners: Mapping, v: Word, w: Word) -> Tensor2:
    """The cut-corner sum of a bracket's corner table on one pair of words."""
    return Tensor2.collect(((join(w[:j], tail), join(head, w[j:])), c)
                           for i, row in corner_cuts(v, w, corners)
                           for head, tail in ((v[:i], v[i:]),) for j, c in row)


DoubleBracket = Callable[[ElemLike, ElemLike], Tensor2]


def triple(dbl: DoubleBracket, a: ElemLike, b: ElemLike, c: ElemLike) -> Tensor3:
    """Triple bracket of a double bracket: the cyclic sum
    sum_i P_312^i (dbl (x) id)(id (x) dbl) P_312^-i applied to a (x) b (x) c,
    in one collect, each leg's key cycled by its P_312^i as it is yielded."""

    def terms():
        for (k1, k2), ck in dbl(b, c).items():
            yield from (((d1, d2, k2), ck * cd) for (d1, d2), cd in dbl(a, k1).items())
        for (k1, k2), ck in dbl(c, a).items():
            yield from (((k2, d1, d2), ck * cd) for (d1, d2), cd in dbl(b, k1).items())
        for (k1, k2), ck in dbl(a, b).items():
            yield from (((d2, k2, d1), ck * cd) for (d1, d2), cd in dbl(c, k1).items())

    return Tensor3.collect(terms())


def triple_e(a: ElemLike, b: ElemLike, c: ElemLike) -> Tensor3:
    """The canonical triple bracket of the exchange derivation
    a -> a (x) 1 - 1 (x) a; a quasi-Poisson double bracket must reproduce it."""
    one = Word.identity()
    return Tensor3.collect((key, s * cu * cv * cw) for u, cu in a.items()
                           for v, cv in b.items() for w, cw in c.items()
                           for uv, vw, wu in ((join(u, v), join(v, w), join(w, u)),)
                           for key, s in (((u, one, vw), 1), ((one, uv, w), 1), ((wu, v, one), 1),
                                          ((w, u, v), 1), ((one, u, vw), -1), ((u, v, w), -1),
                                          ((wu, one, v), -1), ((w, uv, one), -1)))


def angle(dbl: DoubleBracket, a: ElemLike, b: ElemLike) -> AlgElem:
    """The induced single bracket: multiply the two output factors."""
    return m2(dbl(a, b))


class CyclicAlgElem(LinComb):
    """Rational linear combination of conjugacy classes."""

    __slots__ = ()


def project_cyclic(x: AlgElem) -> CyclicAlgElem:
    """Quotient map onto conjugacy classes (kills commutators)."""
    return CyclicAlgElem.collect((CyclicWord.of(w), c) for w, c in x.items())


def goldman(dbl_s: DoubleBracket, a: CyclicWord | CyclicAlgElem,
            b: CyclicWord | CyclicAlgElem) -> CyclicAlgElem:
    """Goldman bracket of free homotopy classes, or of their combinations
    (bilinearly, as dbl_s reads items()): half the projected single bracket
    of any representatives."""
    return project_cyclic(angle(dbl_s, a, b)).scale(Fraction(1, 2))


def moment_power_rhs(mu: Word, a: Word, m: int) -> Tensor2:
    """The double bracket a moment element must give against a, for the m-th
    power of the element:  sigma_{0,m} + sigma_{m,0} + 2 sum_{0<k<m}
    sigma_{k,m-k}, where sigma_{k,m-k} = a mu^k (x) mu^{m-k} - mu^k (x) mu^{m-k} a."""
    if m < 1:
        raise ValueError("power must be >= 1")

    def terms():
        for k in range(m + 1):
            weight = 1 if k in (0, m) else 2
            muk, murest = mu ** k, mu ** (m - k)
            yield (a * muk, murest), weight
            yield (muk, murest * a), -weight

    return Tensor2.collect(terms())


def moment_rhs(mu: Word, a: Word) -> Tensor2:
    """a (x) mu + a mu (x) 1 - mu (x) a - 1 (x) mu a, the defining shape."""
    return moment_power_rhs(mu, a, 1)


def moment_neg_power_rhs(mu: Word, a: Word, m: int) -> Tensor2:
    """Negative powers flip the overall sign and run over the inverse."""
    return -moment_power_rhs(mu.inverse(), a, m)


@dataclass
class QuasiPoissonReport:
    """Outcome of sampling-based verification that a double bracket is
    quasi-Poisson (its triple bracket matches the canonical one)."""

    ok: bool
    trials: int
    seed: int
    max_len: int
    witness: Optional[tuple[Word, Word, Word]] = None

    def to_dict(self, sig: SurfaceSignature) -> dict:
        out = {
            "ok": self.ok,
            "trials": self.trials,
            "seed": self.seed,
            "max_len": self.max_len,
        }
        if self.witness is not None:
            out["witness"] = [format_word(w, sig) for w in self.witness]
        return out


def is_quasi_poisson(dbl: DoubleBracket, sig: SurfaceSignature, trials: int,
                     seed: int, max_len: int = 4) -> QuasiPoissonReport:
    """Sample random word triples and compare the triple bracket of dbl with
    the canonical one; stops at the first counterexample."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    for k in range(trials):
        rng = trial_rng(seed, "qp", k)
        a, b, c = (sample_word(rng, sig, max_len) for _ in range(3))
        if triple(dbl, a, b, c) != triple_e(a, b, c):
            return QuasiPoissonReport(False, k + 1, seed, max_len, (a, b, c))
    return QuasiPoissonReport(True, trials, seed, max_len)
