"""Exact evaluation of coordinate functions at rational representation
points, and the fused bivector built from one standard two-form per handle
and one per annulus, whose bracket of functions must reproduce the
quasi-Poisson bracket (the independent evaluation-level oracle).

All vector fields in play are generated by elementary matrices acting on a
single generator slot from the left, the right, or by conjugation:

    L(f_rs) x_ij = x_ir delta_sj      (right translation x -> x f_rs)
    R(f_rs) x_ij = -delta_ir x_sj     (left translation  x -> -f_rs x)
    C = L + R                         (conjugation)

On a function with gradient G_ij = d ev(P) / d x_ij at a slot holding m,
the values over all (r, s) are the matrices L = m^T G, R = -G m^T and
C = L + R.  Every wedge term below pairs a field taking f_rs with one
taking f_sr, summed over all r, s (the contraction of dual bases of the
matrix Lie algebra under the trace form), and sum_{r,s} A_rs B_sr = tr(AB).

Each coordinate is an entry (w, i, j) of a word (one letter for a generator
entry).  Its gradient at a point comes by Fox calculus from the word's
prefix and suffix matrices there, and its fields from that gradient once per
point, as integer matrices over one common denominator (a zero gradient
block gives zero fields, with no product), laid out flat as the offsets and
values of the nonzero entries only.  A bivector's fold table, built once per
call, names the offsets in K that each block feeds; K (tr(AB) = <A^T, B>) is
built entry by entry as the pair walk reaches its row.  The pointwise check's
bracket side is the double bracket's cut sum of the two words at the point,
with no symbolic entry.  Other functions go by linearity at the point: a
trace is a sum of entries, and a product goes by the Leibniz rule.  Sampled
points keep integer entries, so brackets and gradients are evaluated in
ints; points read from files may hold any rationals.

The symbolic leg builds only the nonzero fields from the algebra's partials,
never from the gradient (fields_sym), folds them once per function into plain
lists (covector_sym) and pairs two functions in one product sum (wedge_sym).
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import accumulate, compress, count, product
from math import prod
from operator import mul
from typing import Iterable, Optional, Sequence

from .dbracket import SurfaceDoubleBracket
from .matrices import Matrix, mat_det, mat_det_adj, mat_mul
from .poly import Scalar
from .repalgebra import RepAlgebra, RepElem
from .words import SurfaceSignature, Word, corner_cuts, corner_table, format_word, trial_rng

L, R, CONJ = "L", "R", "C"
ENTRY_LOW, ENTRY_HIGH = -3, 3  # the range of a sampled point's entries


@dataclass(frozen=True)
class RepPoint:
    """A rational point of the representation space: one invertible matrix
    per generator, in the global generator order, and their determinants."""

    matrices: tuple[Matrix, ...]
    dets: tuple = field(init=False, repr=False, compare=False)  # kept from the check
    _dets: InitVar[Optional[tuple]] = None  # the sampler's, computed for its own check

    def __post_init__(self, _dets):
        object.__setattr__(self, "dets", _dets or tuple(map(mat_det, self.matrices)))
        if not all(self.dets):
            raise ValueError("representation point needs invertible matrices")


def sample_rep_point(rng: random.Random, sig: SurfaceSignature, dim: int) -> RepPoint:
    """Integer matrices with entries uniform on [ENTRY_LOW, ENTRY_HIGH],
    resampled until invertible.  The entries stay ints."""
    mats, dets = [], []
    for _ in range(sig.rank):
        while not (d := mat_det(m := tuple(tuple(rng.randint(ENTRY_LOW, ENTRY_HIGH)
                                                 for _ in range(dim)) for _ in range(dim)))):
            pass
        mats.append(m)
        dets.append(d)
    return RepPoint(tuple(mats), tuple(dets))


def evaluate(P: RepElem, pt: RepPoint) -> Fraction:
    """Evaluate at a point; determinant denominators become exact divisions."""
    _check_point(pt, P.alg.sig, P.alg.dim)
    assign = {(u, i, j): x for u, m in enumerate(pt.matrices)
              for i, row in enumerate(m) for j, x in enumerate(row)}
    return Fraction(P.num.evaluate(assign), prod(map(pow, pt.dets, P.den)))


def _word_matrices(pt: RepPoint, dim: int, words: Iterable[Word]) -> dict:
    """(s, pre, suf) per word x_1...x_n: pre[t] multiplies its letters before
    t and suf[t] those from t on, x_u^-1 as adj(x_u), so the word's matrix is
    pre[n] / s, s the dets of its inverse letters."""
    words, x = set(words), pt.matrices
    if (codes := set().union(*words)) and ord(max(codes)) >> 1 >= len(x):
        raise IndexError(f"generator index {ord(max(codes)) >> 1} out of range for rank {len(x)}")
    letters = {c: mat_det_adj(x[ord(c) >> 1])[1] if ord(c) & 1 else x[ord(c) >> 1] for c in codes}
    one = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return {w: (prod(pt.dets[ord(c) >> 1] for c in w if ord(c) & 1),
                [one, *accumulate(map(letters.get, w), mat_mul)],
                [*accumulate(map(letters.get, w[::-1]), lambda r, m: mat_mul(m, r))][::-1]
                + [one]) for w in words}


def _fox_gradient(w: Word, i: int, j: int, at: tuple, dets: Sequence) -> tuple[Scalar, list]:
    """(den, G) with d w_ij / d x^u_ab = G[u][a][b] / den at the point, for
    one-based i and j, by Fox calculus on at = (s, pre, suf): the letter x_u
    at t adds (P_t)_ia (S_{t+1})_bj, and x_u^-1 adds -(P_t x_u^-1)_ia
    (x_u^-1 S_{t+1})_bj = -pre[t + 1]_ia suf[t]_bj / (s det x_u).  So den is
    s times det(x_u) per generator u that w inverts, and G is integral."""
    s, pre, suf = at
    inverted = {ord(c) >> 1 for c in w if ord(c) & 1}
    grad = [[[0] * len(pre[0]) for _ in pre[0]] for _ in dets]
    for t, c in enumerate(w):
        u = ord(c) >> 1
        if ord(c) & 1:
            k, left, right = -prod(dets[v] for v in inverted if v != u), pre[t + 1], suf[t]
        else:
            k, left, right = prod(dets[v] for v in inverted), pre[t], suf[t + 1]
        col = [k * row[j - 1] for row in right]
        grad[u] = [[g + a * b for g, b in zip(G_a, col)] for G_a, a in zip(grad[u], left[i - 1])]
    return s * prod(dets[v] for v in inverted), grad


def _bracket_matrix(corners: dict, coords: Sequence[tuple[Word, int, int]], at: dict) -> list:
    """B[a][b] = {a, b} s_a s_b for coordinates a = (w, i, j), b = (v, k, l),
    from the double bracket's corners alone: the sum of W(i', j') (W1)_kj
    (W2)_il over the cuts of (w, v), W1 = Pre_v(j') Suf_w(i') and
    W2 = Pre_w(i') Suf_v(j'), each cut holding every letter once."""
    def cut(pre, t, suf, r):  # no product by an empty prefix's or suffix's identity
        return suf[r] if t == 0 else pre[t] if r == len(suf) - 1 else mat_mul(pre[t], suf[r])

    by_word: dict[Word, list] = {}
    for n, (w, i, j) in enumerate(coords):
        by_word.setdefault(w, []).append((n, i - 1, j - 1))
    B = [[0] * len(coords) for _ in coords]
    for (w, on_w), (v, on_v) in product(by_word.items(), repeat=2):
        (_, pre_w, suf_w), (_, pre_v, suf_v) = at[w], at[v]
        cuts = [(c, cut(pre_v, jc, suf_w, ic), cut(pre_w, ic, suf_v, jc))
                for ic, row in corner_cuts(w, v, corners) for jc, c in row]
        # c (W1)_kj by j, k and (W2)_il by i, l, once per j and i: an entry is one dot product
        ks = {j: [*zip(*([c * r[j] for r in w1] for c, w1, _ in cuts))]
              for j in {x[2] for x in on_w}}
        ls = {i: [*zip(*(w2[i] for _, _, w2 in cuts))] for i in {x[1] for x in on_w}}
        for n, i, j in on_w if cuts else ():
            for m, k, l in on_v:
                B[n][m] = sum(map(mul, ks[j][k], ls[i][l]))
    return B


def _fields(gradient: tuple, pt: RepPoint) -> tuple[Scalar, dict[tuple[int, str], Matrix]]:
    """The values of every field on a function with gradient (den, G) at pt as
    (D, fields): D is a common denominator of the values and fields[slot,
    side][r][s] D times the value along f_rs, an int at an integer point, for
    L = m^T G, R = -G m^T and C = L + R, keyed C, L, R per slot."""
    den, grads = gradient
    raw = {}
    for u, G in enumerate(grads):
        if not any(map(any, G)):  # a zero block has zero fields
            raw[u, CONJ] = raw[u, L] = raw[u, R] = G
            continue
        mt = tuple(zip(*pt.matrices[u]))
        left = mat_mul(mt, G)
        right = tuple(tuple(-v for v in row) for row in mat_mul(G, mt))
        raw[u, CONJ] = tuple(tuple(a + b for a, b in zip(ra, rb))
                             for ra, rb in zip(left, right))
        raw[u, L], raw[u, R] = left, right
    return den, raw


@dataclass(frozen=True)
class WedgeTerm:
    """coeff * sum_{r,s} V(f_rs) wedge W(f_sr) for single-slot sides V, W."""

    coeff: int
    v_slot: int
    v_side: str
    w_slot: int
    w_side: str


@dataclass(frozen=True)
class FusionBivector:
    """Wedge expansion of the fused bivector on a product of matrix groups."""

    sig: SurfaceSignature
    dim: int
    terms: tuple[WedgeTerm, ...]


def build_fusion_bivector(sig: SurfaceSignature, dim: int,
                          with_fusion_terms: bool = True) -> FusionBivector:
    """One double-slot bivector per handle, one single-slot bivector per
    annulus, fused left to right; each fusion step subtracts the
    conjugation-conjugation coupling between everything before and the new
    factor.  with_fusion_terms=False drops the couplings (for tests that
    need the wrong answer)."""
    terms: list[WedgeTerm] = []
    factors: list[tuple[int, ...]] = []
    for u in range(sig.genus):
        a, b = 2 * u, 2 * u + 1
        terms += [
            WedgeTerm(-1, a, L, b, R),
            WedgeTerm(-1, a, R, b, L),
            WedgeTerm(-1, a, R, b, R),
            WedgeTerm(+1, a, L, b, L),
            WedgeTerm(+1, a, L, a, R),
            WedgeTerm(-1, b, L, b, R),
        ]
        factors.append((a, b))
    for v in range(sig.punctures):
        z = 2 * sig.genus + v
        terms.append(WedgeTerm(+1, z, L, z, R))
        factors.append((z,))
    if with_fusion_terms:
        for k in range(1, len(factors)):
            earlier = [s for f in factors[:k] for s in f]
            for s1 in earlier:
                for s2 in factors[k]:
                    terms.append(WedgeTerm(-1, s1, CONJ, s2, CONJ))
    return FusionBivector(sig, dim, tuple(terms))


def _sides(biv: FusionBivector) -> list[tuple[int, str]]:
    """The (slot, side) keys the bivector's wedge terms use, sorted."""
    return sorted({side for t in biv.terms
                   for side in ((t.v_slot, t.v_side), (t.w_slot, t.w_side))})


def _folds(biv: FusionBivector) -> tuple[int, list]:
    """(N, [[(offset in K, coeff)] per (slot, side) block in _fields' key order]):
    each wedge term c V ^ W feeds c V^T to W's offset and -c W^T to V's."""
    keys = [(u, side) for u in range(biv.sig.rank) for side in (CONJ, L, R)]
    folds = {key: (n * biv.dim ** 2, []) for n, key in enumerate(keys)}
    for t in biv.terms:
        (at_v, to_v), (at_w, to_w) = folds[t.v_slot, t.v_side], folds[t.w_slot, t.w_side]
        to_v.append((at_w, t.coeff))
        to_w.append((at_v, -t.coeff))
    return biv.dim, [feeds for _, feeds in folds.values()]


def _flat(fields: tuple[int, dict]) -> tuple[int, list, list]:
    """(D, at, x) from _fields: the offsets in key order of the nonzero values x."""
    f = [x for m in fields[1].values() for row in m for x in row]
    return fields[0], [*compress(count(), f)], [*filter(None, f)]


def _covector(folds: tuple[int, list], flat: tuple[int, list, list]) -> tuple[int, list]:
    """(D, K) from a _flat and _folds, entry (r, s) of a block feeding (s, r): by tr(AB)
    = <A^T, B> the bracket <dP ^ dQ, bivector> is _pair((D_P, K_P), _flat of Q)."""
    (N, blocks), (D, at, f) = folds, flat
    K = [0] * (len(blocks) * N * N)
    for n, x in zip(at, f):
        b, rs = divmod(n, N * N)
        for to, c in blocks[b]:
            K[to + rs % N * N + rs // N] += c * x
    return D, K


def _pair(left: tuple[int, list], right: tuple[int, list, list]) -> Fraction:
    """(K . f) / (D_P D_Q) from a _covector (D_P, K) and a _flat of f."""
    (D_P, K), (D_Q, at, f) = left, right
    return Fraction(sum(map(mul, map(K.__getitem__, at), f)), D_P * D_Q)


def _check_point(pt: RepPoint, sig: SurfaceSignature, dim: int) -> None:
    """Refuse a point off the representation space of sig at dim."""
    dims = "/".join(map(str, sorted({len(row) for m in pt.matrices for row in (m, *m)})))
    if len(pt.matrices) != sig.rank or dims not in ("", str(dim)):
        raise ValueError(f"point of rank {len(pt.matrices)} and dim {dims or '-'}, "
                         f"expected rank {sig.rank} and dim {dim}")


def bivector_bracket(biv: FusionBivector, a: tuple, b: tuple, pt: RepPoint) -> Fraction:
    """Pointwise bracket <dP ^ dQ, bivector> of the entries P = w_ij and
    Q = v_kl for the coordinates a = (w, i, j) and b = (v, k, l), one-based,
    from one Fox gradient of each, as compare_bivectors' bivector side."""
    _check_point(pt, biv.sig, biv.dim)
    for _, i, j in (a, b):
        if not (1 <= i <= biv.dim and 1 <= j <= biv.dim):
            raise IndexError(f"entry index out of range for dim {biv.dim}: ({i}, {j})")
    at = _word_matrices(pt, biv.dim, (a[0], b[0]))
    on_a, on_b = (_flat(_fields(_fox_gradient(*c, at[c[0]], pt.dets), pt)) for c in (a, b))
    return _pair(_covector(_folds(biv), on_a), on_b)


def fields_sym(alg: RepAlgebra, biv: FusionBivector, P: RepElem) -> dict[tuple[int, str], dict]:
    """_fields applied symbolically, nonzero fields only: [slot, side][r, s]
    is the field along f_rs on P, over _sides(biv), one product sum from one
    walk over one differential: d = dP/dx_ij adds (1, d, x_ir) to L at (r, j)
    and (-1, d, x_sj) to R at (i, s) for every r and s, and C takes both."""
    N, sums = range(alg.dim), {key: {} for key in _sides(biv)}
    for (u, i, j), d in alg.differential(P):
        for side, c, at, x in ([(L, 1, (t, j), (u, i, t)) for t in N]
                               + [(R, -1, (i, t), (u, t, j)) for t in N]):
            term = (c, d, alg.sym(*x))
            for key in sums.keys() & {(u, side), (u, CONJ)}:
                sums[key].setdefault(at, []).append(term)
    return {key: {at: f for at, t in entries.items()
                  if not (f := alg.accumulate_products(t)).is_zero()}
            for key, entries in sums.items()}


def covector_sym(biv: FusionBivector, on: dict) -> dict[tuple, list]:
    """fields_sym folded against the wedge terms in plain lists, the symbolic
    twin of _covector: a term c V ^ W files (c, V(f_rs)) under the partner's
    key (W, (s, r)) and (-c, W(f_rs)) under (V, (s, r))."""
    cov: dict[tuple, list] = {}
    for t in biv.terms:
        v, w = (t.v_slot, t.v_side), (t.w_slot, t.w_side)
        for c, mine, partner in ((t.coeff, on[v], w), (-t.coeff, on[w], v)):
            for (r, s), x in mine.items():
                cov.setdefault((partner, (s, r)), []).append((c, x))
    return cov


def wedge_sym(alg: RepAlgebra, cov_p: dict, on_q: dict) -> RepElem:
    """The bivector on P and Q from P's covector_sym and Q's fields_sym, for outright
    equality with the quasi-Poisson bracket: one product sum over shared keys."""
    return alg.accumulate_products((c, x, y) for (key, at), xs in cov_p.items()
                                   if (y := on_q[key].get(at)) is not None for c, x in xs)


@dataclass
class AksmReport:
    """Outcome of comparing the derivation-rule bracket with the fused
    bivector bracket at sampled points."""

    ok: bool
    points: int
    pairs: int
    seed: int
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"ok": self.ok, "points": self.points, "pairs": self.pairs, "seed": self.seed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def compare_bivectors(sig: SurfaceSignature, dim: int, seed: int,
                      plans: Sequence[tuple[FusionBivector, int]],
                      extra_words: Iterable[tuple[Word, Word]] = ()) -> list[AksmReport]:
    """compare_constructions for each plan (biv, points), in one walk: each
    plan's _folds once; at point k, the words' matrices, B and each
    coordinate's _flat Fox-gradient _fields (E, at, f) once; then each plan still
    live (no mismatch yet, k < points) folds row a's _covector (E, K) as its
    walk reaches it and compares B_ab E_a E_b to (K_a.f_b) s_a s_b in ints."""
    if (low := min((trials for _, trials in plans), default=1)) < 1:
        raise ValueError(f"need at least one point to compare at, got trials={low}")
    for biv, _ in plans:
        if (biv.sig, biv.dim) != (sig, dim):
            raise ValueError(f"bivector built for {biv.sig} at dim {biv.dim}, "
                             f"not for {sig} at dim {dim}")
    coords = [(Word.generator(u), i, j)
              for u in range(sig.rank) for i in range(1, dim + 1) for j in range(1, dim + 1)]
    coords += [c for wa, wb in extra_words for c in ((wa, 1, dim), (wb, dim, 1))]
    corners = corner_table(sig, SurfaceDoubleBracket.CORNERS)
    reports = [AksmReport(True, trials, len(coords) ** 2, seed) for _, trials in plans]
    folds = [_folds(biv) for biv, _ in plans]
    for k in range(max((trials for _, trials in plans), default=0)):
        if not (live := [p for p, (_, t) in enumerate(plans) if reports[p].ok and k < t]):
            break
        pt = sample_rep_point(trial_rng(seed, "aksm", k), sig, dim)
        at = _word_matrices(pt, dim, (w for w, _, _ in coords))
        B = _bracket_matrix(corners, coords, at)
        scales = [at[w][0] for w, _, _ in coords]
        flats = [_flat(_fields(_fox_gradient(w, i, j, at[w], pt.dets), pt)) for w, i, j in coords]
        for p in live:
            for x in range(len(coords)):
                ea, K = cov = _covector(folds[p], flats[x])  # row x, once the walk reaches it
                bad = (y for y, (eb, at_b, f) in enumerate(flats)
                       if B[x][y] * ea * eb != sum(map(mul, map(K.__getitem__, at_b), f))
                       * scales[x] * scales[y])
                if (y := next(bad, None)) is not None:
                    (wa, *a), (wb, *b) = coords[x], coords[y]
                    reports[p] = AksmReport(False, k + 1, x * len(coords) + y + 1, seed, witness={
                        "point_index": k,
                        "point": [[[str(v) for v in row] for row in m] for m in pt.matrices],
                        "left": [format_word(wa, sig), *a],
                        "right": [format_word(wb, sig), *b],
                        "bracket_value": str(Fraction(B[x][y], scales[x] * scales[y])),
                        "bivector_value": str(_pair(cov, flats[y])),
                    })
                    break
    return reports


def compare_constructions(sig: SurfaceSignature, dim: int, trials: int, seed: int,
                          extra_words: Iterable[tuple[Word, Word]] = (),
                          biv: Optional[FusionBivector] = None) -> AksmReport:
    """At `trials` seeded points, compare the two brackets on every ordered
    generator-entry pair, plus entries of any supplied word pairs, one point
    at a time: compare_bivectors with the one plan (biv, trials).  The first
    mismatch ends the walk: its witness is the first failing pair at the
    earliest failing point."""
    biv = biv if biv is not None else build_fusion_bivector(sig, dim)
    return compare_bivectors(sig, dim, seed, [(biv, trials)], extra_words)[0]
