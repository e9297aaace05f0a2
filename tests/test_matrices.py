"""The one characteristic-polynomial kernel: numeric and symbolic
determinants, adjugates and inverses."""

import random
import time
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add

import pytest

from surfqp import evaluation, matrices
from surfqp.evaluation import compare_constructions, evaluate, sample_rep_point
from surfqp.matrices import mat, mat_det, mat_det_adj, mat_inv, mat_mul
from surfqp.poly import Poly
from surfqp.repalgebra import RepAlgebra, RepElem
from surfqp.words import SurfaceSignature, parse_word


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


# the cofactor expansion that the characteristic polynomial replaced, as a
# reference over any entry ring: ints, Fractions and Polys
def minor(a, i, j):
    """a without row i and column j."""
    return tuple(row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i)


def cofactor_det(a):
    """Cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return reduce(add, (a[0][j] * cofactor_det(minor(a, 0, j)) * (-1) ** j
                        for j in range(len(a))))


def cofactor_adjugate(a):
    """The transposed cofactor matrix; at N = 1 the entry ring's one."""
    n = len(a)
    if n == 1:
        return ((a[0][0] ** 0,),)
    return tuple(tuple(cofactor_det(minor(a, j, i)) * (-1) ** (i + j) for j in range(n))
                 for i in range(n))


def generic_matrix(n):
    return tuple(tuple(Poly.var((0, i, j)) for j in range(n)) for i in range(n))


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
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_and_adjugate_match_the_permutation_sum(kind, n):
    for a in samples(kind, n):
        d, adj = mat_det_adj(a)
        assert d == mat_det(a) == leibniz_det(a) == cofactor_det(a)
        assert adj == cofactor_adjugate(a)
        assert mat_mul(a, adj) == mat_mul(adj, a) == scalar_matrix(d, n)
        assert all(type(x) is kind for x in [d] + [e for row in adj for e in row])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generic_det_and_adjugate_match_the_cofactor_expansion(n):
    a = generic_matrix(n)
    d, adj = mat_det_adj(a)
    assert d == mat_det(a) == cofactor_det(a)
    assert adj == cofactor_adjugate(a)
    assert len(d.terms) == len(list(permutations(range(n))))


@pytest.mark.parametrize("n", range(6, 13))
def test_adjugate_inverts_up_to_the_determinant_past_the_cofactor_reach(n):
    rng = random.Random(n)
    for _ in range(3):
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        d, adj = mat_det_adj(a)
        assert d == mat_det(a) and d
        assert mat_mul(a, adj) == mat_mul(adj, a) == scalar_matrix(d, n)
        assert all(type(x) is int for x in [d] + [e for row in adj for e in row])


def test_a_singular_matrix_has_a_zero_determinant_and_a_nonzero_adjugate():
    a = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    d, adj = mat_det_adj(a)
    assert d == mat_det(a) == 0 and adj == cofactor_adjugate(a) and any(map(any, adj))
    assert mat_mul(a, adj) == scalar_matrix(0, 3)


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
    assert mat_det_adj(((x,),)) == (x, ((Poly.const(1),),))
    assert RepAlgebra(SurfaceSignature(1, 0), 1).adj_poly(0) == ((Poly.const(1),),)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_and_adjugate_take_n_minus_two_products(monkeypatch, n):
    # Horner's rule starts from ±a plus c_1 on the diagonal, not from a times ±I
    calls = []
    monkeypatch.setattr(matrices, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    for a in (generic_matrix(n), *samples(int, n)[:2], *samples(Fraction, n)[:2]):
        calls.clear()
        d, adj = mat_det_adj(a)
        assert len(calls) == max(n - 2, 0)
        assert adj == cofactor_adjugate(a) and d == cofactor_det(a)


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
            adj = mat_det_adj(m)[1]
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


def test_one_determinant_per_draw_and_per_point_matrix(monkeypatch):
    # per point: the sampler's check of each draw, whose dets of the accepted
    # draws the point keeps for every later step, and one adjugate per inverse
    # letter, here z1^-1
    sig, dim = SurfaceSignature(1, 1), 2
    calls, draws, starts = [0], [], []
    charpoly, sample = matrices._charpoly, evaluation.sample_rep_point

    def counted_charpoly(a):
        calls[0] += 1
        return charpoly(a)

    def counted_sample(rng, sig, dim):
        randint = rng.randint

        def counted_randint(low, high):
            draws[-1] += 1
            return randint(low, high)

        starts.append(calls[0])
        draws.append(0)
        rng.randint = counted_randint
        return sample(rng, sig, dim)

    monkeypatch.setattr(matrices, "_charpoly", counted_charpoly)
    monkeypatch.setattr(evaluation, "sample_rep_point", counted_sample)
    extra = [(parse_word("p1*q1", sig), parse_word("z1^-1", sig))]
    assert compare_constructions(sig, dim, trials=3, seed=7, extra_words=extra).ok
    per_point = [b - a for a, b in zip(starts, starts[1:] + calls)]
    assert per_point == [n // dim ** 2 + 1 for n in draws]


@pytest.mark.slow
def test_pointwise_check_at_dim_ten_fits_a_five_second_budget():
    start = time.perf_counter()
    report = compare_constructions(SurfaceSignature(1, 1), 10, trials=1, seed=7)
    assert report.ok, report.witness
    assert time.perf_counter() - start < 5
