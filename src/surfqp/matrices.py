"""Tiny exact linear algebra: square matrices as nested tuples, with one
kernel, the characteristic polynomial by Berkowitz's division-free algorithm
(Inf. Process. Lett. 1984), for the determinant and, by Cayley-Hamilton, the
adjugate over any entry ring that adds, negates and multiplies: ints give
ints, Fractions Fractions, and entry-symbol Polys the symbolic determinant
and adjugate (cached per generator per algebra).  The inverse divides
exactly, by Fraction."""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Any, Sequence

Matrix = tuple[tuple[Any, ...], ...]  # the entries share one ring


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols, zero = tuple(zip(*b)), a[0][0] * 0  # a ring zero: 0 + Poly is undefined
    return tuple(tuple(sum(map(mul, row, col), zero) for col in cols) for row in a)


def _charpoly(a: Matrix) -> list:
    """[1, c_1, ..., c_N], det(t - a) = t^N + c_1 t^(N-1) + ... + c_N: block [[A, v], [row[:r],
    row[r]]] takes A's times the lower Toeplitz matrix on 1, -row[r], -row[:r] A^k v (k < r)."""
    zero, c = a[0][0] * 0, [a[0][0] ** 0]
    for r, row in enumerate(a):
        v, t, c = [x[r] for x in a[:r]], [-row[r]], c + [zero]
        for k in range(r):  # map stops at len(v) = r, so full rows act as A's
            v = [sum(map(mul, x, v), zero) for x in a[:r]] if k else v
            t.append(-sum(map(mul, row, v), zero))
        # c_i += t_(i-1) c_0 + ... + t_0 c_(i-1), with c_0 the ring's one
        c = [c[0], *(sum(map(mul, t, c[i - 1:0:-1]), c[i] + t[i - 1]) for i in range(1, len(c)))]
    return c


def mat_det(a: Matrix):
    return (-1) ** len(a) * _charpoly(a)[-1]


def mat_det_adj(a: Matrix) -> tuple[Any, Matrix]:
    """(det a, adj a) from one _charpoly, adj a = (-1)^(N+1) (a^(N-1) + c_1 a^(N-2)
    + ... + c_(N-1)) by Cayley-Hamilton and Horner's rule from e_0 I, whose first
    product is ±a: N - 2 products, and at N = 1 the ring's one."""
    n, zero = len(a), a[0][0] * 0
    e = [x if n % 2 else -x for x in _charpoly(a)]  # (-1)^(N+1) c, so det a = -e_N
    adj = tuple(tuple(e[0] if i == j else zero for j in range(n)) for i in range(n))
    first = a if n % 2 else tuple(tuple(-x for x in row) for row in a)  # a e_0 I, as ±a
    for t, k in enumerate(e[1:n]):
        adj = tuple(tuple(x + k if i == j else x for j, x in enumerate(row))
                    for i, row in enumerate(mat_mul(a, adj) if t else first))
    return -e[n], adj


def mat_inv(a: Matrix) -> Matrix:
    d, adj = mat_det_adj(a)
    if not d:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row) for row in adj)
