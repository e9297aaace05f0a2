"""The one cofactor kernel: numeric and symbolic determinants, adjugates and
inverses."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from surfqp.evaluation import evaluate, sample_rep_point
from surfqp.matrices import mat, mat_adjugate, mat_det, mat_inv, mat_mul
from surfqp.poly import Poly
from surfqp.repalgebra import RepAlgebra, RepElem
from surfqp.words import SurfaceSignature


# the Leibniz permutation sum that the cofactor kernel replaced, as a reference
def leibniz_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = perm_sign(perm)
        prod = Fraction(1)
        for i in range(n):
            prod *= a[i][perm[i]]
        total += sign * prod
    return total


def perm_sign(perm):
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


def int_matrix(rng, n):
    return tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))


def fraction_matrix(rng, n):
    return tuple(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
                 for _ in range(n))


def scalar_matrix(d, n):
    return tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))


KINDS = {int: int_matrix, Fraction: fraction_matrix}


def samples(kind, n):
    return [KINDS[kind](random.Random(100 * n + t), n) for t in range(8)]


@pytest.mark.parametrize("kind", [int, Fraction])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_and_adjugate_match_the_permutation_sum(kind, n):
    for a in samples(kind, n):
        d, adj = mat_det(a), mat_adjugate(a)
        assert d == leibniz_det(a)
        assert mat_mul(a, adj) == mat_mul(adj, a) == scalar_matrix(d, n)
        assert all(type(x) is kind for x in [d] + [e for row in adj for e in row])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_of_an_int_matrix_is_exact(n):
    assert any(mat_det(a) for a in samples(int, n))
    one = mat([[int(i == j) for j in range(n)] for i in range(n)])
    for a in samples(int, n):
        if mat_det(a):
            inv = mat_inv(a)
            assert all(type(x) is Fraction for row in inv for x in row)
            assert mat_mul(a, inv) == mat_mul(inv, a) == one


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        mat_inv(mat([[1, 2], [2, 4]]))


def test_one_by_one_adjugate_is_the_rings_one():
    # int and Fraction ones are checked with the permutation sum above
    x = Poly.var("x")
    assert mat_adjugate(((x,),)) == ((Poly.const(1),),)
    assert RepAlgebra(SurfaceSignature(1, 0), 1).adj_poly(0) == ((Poly.const(1),),)


def test_det_poly_at_dim_two_is_pinned():
    alg = RepAlgebra(SurfaceSignature(1, 1), 2)
    x = [[Poly.var((1, i, j)) for j in range(2)] for i in range(2)]
    assert alg.det_poly(1) == x[0][0] * x[1][1] - x[0][1] * x[1][0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_symbolic_kernel_evaluates_to_the_numeric_one(dim):
    sig = SurfaceSignature(1, 0)
    alg = RepAlgebra(sig, dim)
    rng = random.Random(dim)
    for _ in range(5):
        pt = sample_rep_point(rng, sig, dim)
        for u, m in enumerate(pt.matrices):
            assert evaluate(RepElem(alg, alg.det_poly(u), alg.zero_den), pt) == mat_det(m)
            adj = mat_adjugate(m)
            for i in range(dim):
                for j in range(dim):
                    entry = RepElem(alg, alg.adj_poly(u)[i][j], alg.zero_den)
                    assert evaluate(entry, pt) == adj[i][j]


def loop_product(a, b):
    """The index-loop product that mat_mul's row-by-column sums replaced."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_is_the_index_loop_sum(n):
    # the same values of the same types: ints stay ints, a Fraction factor
    # gives Fractions, and mixed int and Fraction matrices multiply too
    rng = random.Random(n)
    for _ in range(6):
        for a, b in ((int_matrix(rng, n), int_matrix(rng, n)),
                     (fraction_matrix(rng, n), fraction_matrix(rng, n)),
                     (int_matrix(rng, n), fraction_matrix(rng, n))):
            got, want = mat_mul(a, b), loop_product(a, b)
            assert got == want
            assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]
