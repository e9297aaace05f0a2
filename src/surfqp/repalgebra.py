"""The commutative algebra of matrix-entry coordinates on the space of
N-dimensional representations of a surface group, with its quasi-Poisson
bracket.

An element is a fraction: a sparse polynomial in the entry symbols
x^u_{ij} of the generator matrices, over a product of generator
determinants with nonnegative exponents.  Inverse generators enter
through adjugate/determinant, never through polynomial division.  Sums,
a + b and a - b too, are accumulates, the one place a common denominator
is taken; a == b over two denominators tests a - b for zero.

The bracket is pinned on generator entries by the surface double bracket,

    {a_ij, b_kl} = sum  dbl(a,b)^(1)_kj dbl(a,b)^(2)_il,

and extended to everything else as a derivation in each slot; the
determinant denominators ride along via {1/d, -} = -(1/d^2) {d, -}.
That sum reads one column of each word, so entries are kept in one suffix
trie per column j, whose node for a suffix s holds the column M(s) e_j.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Optional, Sequence

from .algebra import ElemLike, LinComb, Scalar, Tensor2
from .dbracket import SurfaceDoubleBracket
from .matrices import Matrix, mat_det_adj, mat_inv
from .poly import Poly
from .words import SurfaceSignature, Word, code_letter

LieMatrix = Sequence[Sequence[Fraction]]

# an entry symbol is keyed by (generator index, row, col), zero-based
EntryVar = tuple[int, int, int]

Differential = list[tuple[EntryVar, "RepElem"]]


class RepElem:
    """num / prod_u det(x^u)^den[u], bound to its parent algebra."""

    __slots__ = ("alg", "num", "den")

    def __init__(self, alg: "RepAlgebra", num: Poly, den: tuple[int, ...]):
        if not num.terms:
            den = alg.zero_den
        self.alg = alg
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RepElem") -> "RepElem":
        return self.alg.accumulate((self, other))

    def __sub__(self, other: "RepElem") -> "RepElem":
        return self.alg.accumulate((self, -other))

    def __neg__(self) -> "RepElem":
        return RepElem(self.alg, -self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, RepElem):
            return RepElem(self.alg, self.num * other.num,
                           tuple(a + b for a, b in zip(self.den, other.den)))
        return self.scale(other)

    def __rmul__(self, other) -> "RepElem":
        return self.scale(other)

    def scale(self, k) -> "RepElem":
        return RepElem(self.alg, self.num.scale(k), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepElem):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self - other).is_zero()

    def __repr__(self) -> str:
        return f"RepElem(num={self.num!r}, den={self.den!r})"


class RepAlgebra:
    """Coordinate algebra of N-dimensional representations for one surface,
    carrying the quasi-Poisson bracket and the group/Lie-algebra actions."""

    def __init__(self, sig: SurfaceSignature, dim: int,
                 dbl: Optional[SurfaceDoubleBracket] = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.sig = sig
        self.dim = dim
        self.dbl = dbl if dbl is not None else SurfaceDoubleBracket(sig)
        self.zero_den = (0,) * sig.rank
        self._det_adj: dict[int, tuple[Poly, tuple[tuple[Poly, ...], ...]]] = {}
        # one suffix trie per column j: a node is (M(suffix) e_j, children by the
        # code of the letter that extends the suffix leftwards); root j holds e_j
        self._columns = [(tuple(self.scalar(int(i == j)) for i in range(dim)), {})
                         for j in range(dim)]
        self._gen_bracket: dict[tuple[EntryVar, EntryVar], RepElem] = {}

    # --- element constructors ----------------------------------------

    def zero(self) -> RepElem:
        return RepElem(self, Poly.zero(), self.zero_den)

    def scalar(self, k) -> RepElem:
        return RepElem(self, Poly.const(k), self.zero_den)

    def one(self) -> RepElem:
        return self.scalar(1)

    def sym(self, u: int, i: int, j: int) -> RepElem:
        """Entry symbol x^u_{ij}, zero-based indices."""
        n, N = self.sig.rank, self.dim
        if not (0 <= u < n and 0 <= i < N and 0 <= j < N):
            raise IndexError(f"entry symbol out of range: ({u}, {i}, {j})")
        return RepElem(self, Poly.var((u, i, j)), self.zero_den)

    def det_inverse(self, u: int) -> RepElem:
        den = list(self.zero_den)
        den[u] = 1
        return RepElem(self, Poly.const(1), tuple(den))

    # --- determinant bookkeeping --------------------------------------

    def det_poly(self, u: int) -> Poly:
        if u not in self._det_adj:  # one characteristic polynomial gives both
            self._det_adj[u] = mat_det_adj(self._sym_matrix(u))
        return self._det_adj[u][0]

    def adj_poly(self, u: int) -> tuple[tuple[Poly, ...], ...]:
        self.det_poly(u)
        return self._det_adj[u][1]

    def _sym_matrix(self, u: int) -> tuple[tuple[Poly, ...], ...]:
        return tuple(tuple(Poly.var((u, i, j)) for j in range(self.dim)) for i in range(self.dim))

    def raise_den(self, num: Poly, frm: tuple[int, ...], to: tuple[int, ...]) -> Poly:
        for u, (a, b) in enumerate(zip(frm, to)):
            if b < a:
                raise ValueError("cannot lower a denominator exponent")
            for _ in range(b - a):
                num = num * self.det_poly(u)
        return num

    # --- entries and traces -------------------------------------------

    def column(self, w: Word, j: int) -> tuple[RepElem, ...]:
        """Column j of w's matrix (zero-based), walking column j's trie from w's
        last letter leftwards; a missing node is its letter's matrix times its
        parent's column (a child of the root is the letter's column j)."""
        node = root = self._columns[j]
        for code in reversed(w):
            if (child := node[1].get(code)) is None:
                head, tail = self._letter_matrix(*code_letter(code)), node[0]
                col = (tuple(row[j] for row in head) if node is root else
                       tuple(self.accumulate_products((1, x, y) for x, y in zip(row, tail))
                             for row in head))
                child = node[1][code] = (col, {})
            node = child
        return node[0]

    def _letter_matrix(self, u: int, e: int) -> tuple[tuple[RepElem, ...], ...]:
        """x^u, or for e < 0 its adjugate over det(x^u)."""
        if u >= self.sig.rank:
            raise IndexError(f"generator index {u} out of range for rank {self.sig.rank}")
        polys, den = ((self._sym_matrix(u), self.zero_den) if e > 0 else
                      (self.adj_poly(u), self.det_inverse(u).den))
        return tuple(tuple(RepElem(self, p, den) for p in row) for row in polys)

    def entry(self, a: ElemLike, i: int, j: int) -> RepElem:
        """The (i, j) entry coordinate of a, one-based indices."""
        self._check_entry(i, j)
        if isinstance(a, Word):  # the trie's own element: a lone part is its own sum
            return self.column(a, j - 1)[i - 1]
        return self.accumulate(self.column(w, j - 1)[i - 1].scale(c) for w, c in a.items())

    def _check_entry(self, i: int, j: int) -> None:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexError(f"entry index out of range for dim {self.dim}: ({i}, {j})")

    def trace(self, a: ElemLike) -> RepElem:
        """Trace of a, or of a combination of conjugacy classes (a CyclicAlgElem)."""
        return self.accumulate(self.column(w, i)[i].scale(c) for w, c in a.items()
                               for i in range(self.dim))

    # --- the bracket ----------------------------------------------------

    def variables(self, P: RepElem) -> list[EntryVar]:
        """Entry symbols P depends on: those in the numerator plus every
        entry of any generator appearing in the denominator."""
        out = set(P.num.variables())
        N = self.dim
        for u, k in enumerate(P.den):
            if k:
                out.update((u, i, j) for i in range(N) for j in range(N))
        return sorted(out)

    def d_dvar(self, P: RepElem, var: EntryVar) -> RepElem:
        """Partial derivative, treating det denominators by the chain rule."""
        u, i, j = var
        k = P.den[u]
        if not k or P.num.is_zero():
            return RepElem(self, P.num.diff(var), P.den)
        # d(num det^-k)/dx_ij = (num' det - k num adj_ji) det^-(k+1)
        den = tuple(d + (v == u) for v, d in enumerate(P.den))
        return RepElem(self, Poly.dot(((1, P.num.diff(var), self.det_poly(u)),
                                       (-k, P.num, self.adj_poly(u)[j][i]))), den)

    def differential(self, P: RepElem) -> Differential:
        """P's nonzero partial derivatives, by entry symbol."""
        return [(a, d) for a in self.variables(P) if not (d := self.d_dvar(P, a)).is_zero()]

    def gen_bracket(self, a: EntryVar, b: EntryVar) -> RepElem:
        """Bracket of two generator entry symbols, from the double-bracket
        table of the corresponding generator pair."""
        hit = self._gen_bracket.get((a, b))
        if hit is not None:
            return hit
        (u, i, j), (v, k, l) = a, b
        out = self.entry_pair_image(self.dbl.base(u, v), i, j, k, l)
        self._gen_bracket[(a, b)] = out
        return out

    def entry_pair_image(self, t: Tensor2, i: int, j: int, k: int, l: int) -> RepElem:
        """Send a tensor sum(c w1 (x) w2) to sum(c (w1)_kj (w2)_il); this is
        how a double bracket value becomes a bracket of entries.  Indices
        are zero-based here."""
        return self.accumulate_products((c, self.column(w1, j)[k], self.column(w2, l)[i])
                                        for (w1, w2), c in t.items())

    def qp_bracket(self, P: RepElem, Q: RepElem) -> RepElem:
        """The quasi-Poisson bracket sum over a, b of dP/da dQ/db {a, b}, the
        derivation extension of the generator-entry brackets, as one
        accumulate_products over b of (sum over a of dP/da {a, b}) dQ/db."""
        dP = self.differential(P)
        return self.accumulate_products(
            (1, RepElem(self, h, den), dQb) for b, dQb in self.differential(Q)
            for den, h in self._product_sums((1, dPa, self.gen_bracket(a, b))
                                             for a, dPa in dP).items())

    @staticmethod
    def _den_sums(parts: Iterable[RepElem]) -> dict[tuple[int, ...], Poly]:
        """The nonzero sum of the numerators of each denominator group; a
        lone numerator is its own sum, shared as it is (Polys never mutate)."""
        groups: dict[tuple[int, ...], list[Poly]] = {}
        for part in parts:
            groups.setdefault(part.den, []).append(part.num)
        sums = ((den, nums[0] if len(nums) == 1 else Poly.collect(  # from a C copy of nums[0]
                     (pair for num in nums[1:] for pair in num.items()), nums[0].terms))
                for den, nums in groups.items())
        return {den: num for den, num in sums if not num.is_zero()}

    @staticmethod
    def _product_sums(triples: Iterable[tuple[Scalar, RepElem, RepElem]]) -> dict[tuple[int, ...], Poly]:
        """The nonzero sum of c num(a) num(b) over each group of (c, a, b)
        triples with one denominator a.den + b.den, one Poly.dot per group."""
        groups: dict[tuple[int, ...], list] = {}
        da = db = None
        for c, a, b in triples:
            if a.den != da or b.den != db:  # one key per run of equal denominator pairs
                da, db = a.den, b.den
                group = groups.setdefault(tuple(map(add, da, db)), [])
            group.append((c, a.num, b.num))
        sums = ((den, Poly.dot(group)) for den, group in groups.items())
        return {den: num for den, num in sums if not num.is_zero()}

    def accumulate(self, parts: Iterable[RepElem]) -> RepElem:
        """Sum many elements in one pass: numerators are summed per distinct
        denominator, and only when several groups survive are they raised to
        their common denominator and summed once more.  The result depends on
        the parts, not on their order: a group that cancels to zero drops out
        before the common denominator is taken."""
        return self._over_common_den(self._den_sums(parts))

    def accumulate_products(self, triples: Iterable[tuple[Scalar, RepElem, RepElem]]) -> RepElem:
        """The sum of c a b over (c, a, b) triples, as accumulate sums, with
        each denominator group's products fused into one Poly.dot."""
        return self._over_common_den(self._product_sums(triples))

    def _over_common_den(self, sums: dict[tuple[int, ...], Poly]) -> RepElem:
        if not sums:
            return self.zero()
        if len(sums) == 1:  # a lone group is already the sum
            [(den, num)] = sums.items()
            return RepElem(self, num, den)
        target = tuple(max(den[u] for den in sums) for u in range(self.sig.rank))
        raised = (self.raise_den(num, den, target) for den, num in sorted(sums.items()))
        first = next(raised)  # the sum starts from its dict, copied in C
        total = Poly.collect((pair for num in raised for pair in num.items()), first.terms)
        return RepElem(self, total, target)

    def qp_bracket_entries(self, a: ElemLike, i: int, j: int,
                           b: ElemLike, k: int, l: int) -> RepElem:
        """Alternative route for {a_ij, b_kl}: evaluate the double bracket of
        the group-algebra elements, then take entries.  One-based indices.
        Must agree with qp_bracket on the corresponding entry coordinates."""
        self._check_entry(i, j)
        self._check_entry(k, l)
        return self.entry_pair_image(self.dbl(a, b), i - 1, j - 1, k - 1, l - 1)

    # --- group and Lie algebra actions -----------------------------------

    def lie_value(self, w: LieMatrix, var: EntryVar) -> RepElem:
        """Action of w on one entry symbol: (x^u w)_ij - (w x^u)_ij."""
        u, i, j = var
        return RepElem(self, Poly.collect(
            pair for s in range(self.dim)
            for v, c in (((u, i, s), w[s][j]), ((u, s, j), -w[i][s])) if c
            for pair in Poly.var(v).scale(c).items()), self.zero_den)

    def _square(self, m: Sequence[Sequence]) -> None:
        """Refuse a matrix that is not N x N, which would be read in part."""
        N = self.dim
        if len(m) != N or any(len(row) != N for row in m):
            raise ValueError(f"need an N x N matrix, N = {N}")

    def gl_action(self, w: LieMatrix, P: RepElem) -> RepElem:
        self._square(w)
        return self.accumulate_products((1, d, self.lie_value(w, var))
                                        for var, d in self.differential(P))

    def elem_action(self, k: int, l: int, P: RepElem) -> RepElem:
        """Action of the elementary matrix with a single 1 at (k, l), zero-based."""
        N = self.dim
        if not (0 <= k < N and 0 <= l < N):
            raise IndexError(f"elementary matrix index out of range for dim {N}: ({k}, {l})")
        w = [[int((i, j) == (k, l)) for j in range(N)] for i in range(N)]
        return self.gl_action(w, P)

    def group_action(self, g: Matrix, P: RepElem) -> RepElem:
        """Conjugation automorphism: substitutes g^-1 x^u g for each x^u.
        Determinants are fixed, so the denominator rides along."""
        self._square(g)
        ginv = mat_inv(g)  # raises on singular g
        N = self.dim
        images = {(u, i, j): Poly.collect(
                      pair for k in range(N) for l in range(N) if ginv[i][k] and g[l][j]
                      for pair in Poly.var((u, k, l)).scale(ginv[i][k] * g[l][j]).items())
                  for u, i, j in P.num.variables()}
        return RepElem(self, P.num.subs(images), P.den)

    def phi_action(self, P: RepElem, Q: RepElem, R: RepElem) -> RepElem:
        """The Cartan trivector acting on a triple: the cyclic-Jacobi defect
        of the bracket."""
        N = self.dim
        eP, eQ, eR = ({(k, l): self.elem_action(k, l, X) for k in range(N) for l in range(N)}
                      for X in (P, Q, R))
        return self.accumulate_products((c, eP[t1] * eQ[t2], eR[t3])
                                        for (t1, t2, t3), c in cartan_trivector(N).items())

    # --- serialization ----------------------------------------------------

    def var_name(self, var: EntryVar) -> str:
        u, i, j = var
        return f"{self.sig.gen_name(u)}_{i + 1}_{j + 1}"

    def to_json(self, P: RepElem) -> dict:
        terms = []
        for mono, coeff in P.num.unpacked():
            if mono:
                text = "*".join(
                    self.var_name(v) + (f"^{e}" if e != 1 else "") for v, e in mono
                )
            else:
                text = "1"
            terms.append({"coeff": str(coeff), "monomial": text})
        terms.sort(key=lambda t: t["monomial"])
        return {"den": list(P.den), "terms": terms}


ElemMatrix = tuple[int, int]  # elementary matrix, 1 at (row, col)


def cartan_trivector(dim: int) -> dict[tuple[ElemMatrix, ElemMatrix, ElemMatrix], int]:
    """The skew invariant trivector dual to (u, v, w) -> tr(u [v, w]) under
    the trace pairing, expanded over elementary-matrix triples:
    sum over i,j,k of  -f_ij (x) f_jk (x) f_ki  +  f_jk (x) f_ij (x) f_ki."""
    return LinComb.collect(
        pair for i in range(dim) for j in range(dim) for k in range(dim)
        for pair in ((((i, j), (j, k), (k, i)), -1), (((j, k), (i, j), (k, i)), 1))).terms

