"""Tiny exact linear algebra: square matrices as nested tuples, with one
cofactor expansion for the determinant and adjugate over any entry ring
whose elements add, multiply and multiply by ints.  Integer matrices give
ints, Fraction matrices Fractions, and matrices of entry-symbol Polys the
symbolic determinant and adjugate.  The expansion sums at most N terms with
`+` at each level, and it runs once per generator per algebra (the Polys
are cached) and once per point at N <= 3 (dimensions stay small), so it is
not one of the hot sums that are built with one collect.  The inverse
divides exactly, by Fraction."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Any, Sequence

Matrix = tuple[tuple[Any, ...], ...]  # the entries share one ring


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _minor(a: Matrix, i: int, j: int) -> Matrix:
    """a without row i and column j."""
    return tuple(row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i)


def mat_det(a: Matrix):
    """Cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return reduce(add, (a[0][j] * mat_det(_minor(a, 0, j)) * (-1) ** j
                        for j in range(len(a))))


def mat_adjugate(a: Matrix) -> Matrix:
    """The transposed cofactor matrix; at N = 1 the entry ring's one."""
    n = len(a)
    if n == 1:
        return ((a[0][0] ** 0,),)
    return tuple(tuple(mat_det(_minor(a, j, i)) * (-1) ** (i + j) for j in range(n))
                 for i in range(n))


def mat_inv(a: Matrix) -> Matrix:
    d = mat_det(a)
    if not d:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row) for row in mat_adjugate(a))
