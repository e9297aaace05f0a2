"""Tiny exact linear algebra over Fractions: square matrices as nested
tuples, with determinant, adjugate and inverse by cofactor expansion.
Dimensions stay small (N <= 3 in practice), so no pivoting games.  The
product of two integer matrices stays integral; determinants, adjugates and
inverses are Fractions."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_det(a: Matrix) -> Fraction:
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = Fraction(1)
        for i in range(n):
            prod *= a[i][perm[i]]
        total += sign * prod
    return total


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def mat_adjugate(a: Matrix) -> Matrix:
    n = len(a)
    if n == 1:
        return ((Fraction(1),),)
    cof = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(a[r][c] for c in range(n) if c != j) for r in range(n) if r != i
            )
            cof[i][j] = (-1) ** (i + j) * mat_det(minor)
    # adjugate = transposed cofactor matrix
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


def mat_inv(a: Matrix) -> Matrix:
    d = mat_det(a)
    if not d:
        raise ZeroDivisionError("matrix is singular")
    adj = mat_adjugate(a)
    return tuple(tuple(x / d for x in row) for row in adj)
