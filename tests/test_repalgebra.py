"""Entry coordinates, the quasi-Poisson bracket on them, the two group
actions, the Cartan trivector, and the moment-map coordinate formulas."""

import random
import re
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import surfqp.poly as poly
from surfqp.algebra import AlgElem, Tensor2
from surfqp.dbracket import CyclicAlgElem, SurfaceDoubleBracket, angle, goldman
from surfqp.matrices import mat, mat_mul
from surfqp.repalgebra import RepAlgebra, RepElem, cartan_trivector
from surfqp.words import (CyclicWord, SurfaceSignature, Word, boundary_word,
                          parse_word, sample_word)

SIG = SurfaceSignature(1, 1)
ALG = RepAlgebra(SIG, 2)


def w(text, sig=SIG):
    return parse_word(text, sig)


def rand_lie(rng, dim):
    return [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]


def rand_invertible(rng, dim):
    from surfqp.matrices import mat_det
    while True:
        g = mat([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        if mat_det(g):
            return g


# --- entries and traces ------------------------------------------------------

def test_entry_of_unit():
    for i in (1, 2):
        for j in (1, 2):
            want = ALG.one() if i == j else ALG.zero()
            assert ALG.entry(Word.identity(), i, j) == want


def test_entry_of_product_sums_over_paths():
    for i in (1, 2):
        for j in (1, 2):
            total = ALG.zero()
            for l in (1, 2):
                total = total + ALG.entry(w("p1"), i, l) * ALG.entry(w("q1"), l, j)
            assert ALG.entry(w("p1*q1"), i, j) == total


def test_scalar_inverse_at_dim_one():
    alg = RepAlgebra(SIG, 1)
    inv = alg.entry(w("p1^-1"), 1, 1)
    assert inv * alg.entry(w("p1"), 1, 1) == alg.one()
    assert inv.den == (1, 0, 0)


def test_entry_index_bounds():
    with pytest.raises(IndexError):
        ALG.entry(w("p1"), 0, 1)
    with pytest.raises(IndexError):
        ALG.entry(w("p1"), 1, 3)


@pytest.mark.parametrize("read", [lambda alg, x: alg.entry(x, 1, 1), lambda alg, x: alg.trace(x)],
                         ids=["entry", "trace"])
@pytest.mark.parametrize("e", [1, -1])
def test_generator_past_the_rank_is_rejected(read, e):
    # at (1,0) only x^0 and x^1 exist: a read of x^40 must fail at once,
    # leaving no trie node and no polynomial variable of the missing generator
    alg = RepAlgebra(SurfaceSignature(1, 0), 2)
    assert not any(v[0] == 40 for v in poly._FIELD if isinstance(v, tuple))
    with pytest.raises(IndexError, match=r"^generator index 40 out of range for rank 2$"):
        read(alg, Word.generator(40, e))
    assert all(not children for _, children in alg._columns)
    assert not any(v[0] == 40 for v in poly._FIELD if isinstance(v, tuple))
    assert alg.to_json(read(alg, Word.generator(1, e)))["terms"]


@pytest.mark.parametrize("i, j, k, l, bad", [(0, 1, 1, 1, "(0, 1)"), (3, 1, 1, 1, "(3, 1)"),
                                              (1, 1, 1, 0, "(1, 0)"), (1, 1, 2, 3, "(2, 3)")])
def test_bracket_entry_index_bounds(i, j, k, l, bad):
    # unchecked, index 0 would wrap round to the last row and index 3 would
    # raise a bare "tuple index out of range"; both slots fail as entry does
    with pytest.raises(IndexError, match=f"^entry index out of range for dim 2: {re.escape(bad)}$"):
        ALG.qp_bracket_entries(w("p1"), i, j, w("q1"), k, l)


def test_trace_of_unit_is_dimension():
    for dim in (1, 2, 3):
        alg = RepAlgebra(SIG, dim)
        assert alg.trace(Word.identity()) == alg.scalar(dim)


def test_trace_is_conjugation_invariant():
    assert ALG.trace(w("q1*p1*q1^-1")) == ALG.trace(w("p1"))
    rng = random.Random(0)
    for _ in range(20):
        a, u = sample_word(rng, SIG, 3), sample_word(rng, SIG, 3)
        assert ALG.trace(u * a * u.inverse()) == ALG.trace(a)


def test_dim_one_trace_is_abelianization():
    alg = RepAlgebra(SIG, 1)
    lhs = alg.trace(w("p1*q1*p1^-1*q1*z1"))
    rhs = alg.entry(w("q1^2"), 1, 1) * alg.entry(w("z1"), 1, 1)
    assert lhs == rhs


def test_equality_by_cross_multiplication():
    det_elem = RepElem(ALG, ALG.det_poly(0), ALG.zero_den)
    assert det_elem * ALG.det_inverse(0) == ALG.one()
    assert not (ALG.det_inverse(0) == ALG.one())


# --- the bracket ----------------------------------------------------------------

def test_bracket_with_unit_entry_vanishes():
    Q = ALG.sym(1, 0, 1)
    for i in (1, 2):
        for j in (1, 2):
            assert ALG.qp_bracket(ALG.entry(Word.identity(), i, j), Q).is_zero()


def test_handle_pair_display():
    # {p_ij, q_kl} = d_kj (pq)_il + (qp)_kj d_il - p_kj q_il + q_kj p_il
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = ALG.zero()
                    if k == j:
                        want = want + ALG.entry(w("p1*q1"), i + 1, l + 1)
                    if i == l:
                        want = want + ALG.entry(w("q1*p1"), k + 1, j + 1)
                    want = want - ALG.sym(0, k, j) * ALG.sym(1, i, l)
                    want = want + ALG.sym(1, k, j) * ALG.sym(0, i, l)
                    got = ALG.qp_bracket(ALG.sym(0, i, j), ALG.sym(1, k, l))
                    assert got == want


def test_same_letter_display():
    # {z_ij, z_kl} = (zz)_kj d_il - d_kj (zz)_il
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = ALG.zero()
                    if i == l:
                        want = want + ALG.entry(w("z1^2"), k + 1, j + 1)
                    if k == j:
                        want = want - ALG.entry(w("z1^2"), i + 1, l + 1)
                    assert ALG.qp_bracket(ALG.sym(2, i, j), ALG.sym(2, k, l)) == want


def test_dim_one_genus_one_trace_bracket():
    sig = SurfaceSignature(1, 0)
    alg = RepAlgebra(sig, 1)
    lhs = alg.qp_bracket(alg.trace(w("p1", sig)), alg.trace(w("q1", sig)))
    assert lhs == alg.trace(w("p1*q1", sig)).scale(2)


def test_bracket_skew_and_leibniz():
    rng = random.Random(1)
    for _ in range(25):
        P = ALG.entry(sample_word(rng, SIG, 2), rng.randint(1, 2), rng.randint(1, 2))
        Q = ALG.entry(sample_word(rng, SIG, 2), rng.randint(1, 2), rng.randint(1, 2))
        S = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        assert ALG.qp_bracket(P, Q) == -ALG.qp_bracket(Q, P)
        assert ALG.qp_bracket(P * Q, S) == ALG.qp_bracket(P, S) * Q + P * ALG.qp_bracket(Q, S)
        assert ALG.qp_bracket(S, P * Q) == ALG.qp_bracket(S, P) * Q + P * ALG.qp_bracket(S, Q)


def test_bracket_well_defined_on_matrix_relation():
    rng = random.Random(2)
    for _ in range(15):
        a, b = sample_word(rng, SIG, 2), sample_word(rng, SIG, 2)
        i, j = rng.randint(1, 2), rng.randint(1, 2)
        S = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        lhs = ALG.entry(a * b, i, j)
        rhs = ALG.zero()
        for l in (1, 2):
            rhs = rhs + ALG.entry(a, i, l) * ALG.entry(b, l, j)
        assert lhs == rhs
        assert ALG.qp_bracket(lhs, S) == ALG.qp_bracket(rhs, S)


def test_dual_route_agreement():
    rng = random.Random(3)
    for _ in range(25):
        a, b = sample_word(rng, SIG, 3), sample_word(rng, SIG, 3)
        i, j, k, l = (rng.randint(1, 2) for _ in range(4))
        assert ALG.qp_bracket(ALG.entry(a, i, j), ALG.entry(b, k, l)) == \
            ALG.qp_bracket_entries(a, i, j, b, k, l)


class TableOnly:
    """The generator table of the surface double bracket and nothing else:
    an algebra built on it has no double bracket of words to call."""

    def __init__(self, sig):
        self.base = SurfaceDoubleBracket(sig).base


def refuse(*args):
    raise AssertionError("one bracket route called into the other")


def route_algebras(sig, dim):
    """Two algebras for the two routes to {a_ij, b_kl}: qp_bracket over the
    generator table, with qp_bracket_entries refused, and qp_bracket_entries
    over the double bracket of words, with the table route refused."""
    table = RepAlgebra(sig, dim, TableOnly(sig))
    table.qp_bracket_entries = refuse
    words = RepAlgebra(sig, dim)
    words.qp_bracket = words.gen_bracket = refuse
    return table, words


ROUTE_ALGEBRAS = {(g, m, dim): route_algebras(SurfaceSignature(g, m), dim)
                  for g, m in ((1, 1), (0, 2), (1, 0)) for dim in (1, 2, 3)}


@pytest.mark.parametrize("genus,punctures", [(1, 0), (0, 2), (1, 1), (0, 3)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_generator_bracket_is_the_entry_image_of_its_table(genus, punctures, dim):
    """gen_bracket's one Poly.dot prints the bytes of entry_pair_image on the
    table, on every ordered pair of generator entries, with the surface double
    bracket and with its table alone."""
    sig = SurfaceSignature(genus, punctures)
    syms = [(u, i, j) for u in range(sig.rank) for i in range(dim) for j in range(dim)]
    for dbl in (SurfaceDoubleBracket(sig), TableOnly(sig)):
        alg = RepAlgebra(sig, dim, dbl)
        for a in syms:
            for b in syms:
                want = alg.entry_pair_image(alg.dbl.base(a[0], b[0]), a[1], a[2], b[1], b[2])
                assert alg.to_json(alg.gen_bracket(a, b)) == alg.to_json(want)


class InverseTable:
    """A generator table whose words hold an inverse letter in one slot."""

    def __init__(self, slot):
        self.slot = slot

    def base(self, u, v):
        pair = [Word.generator(u), Word.generator(v)]
        pair[self.slot] = pair[self.slot].inverse()
        return Tensor2({tuple(pair): 1})


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("slot", [0, 1])
def test_generator_bracket_refuses_a_table_factor_over_a_determinant(slot, dim):
    alg = RepAlgebra(SIG, dim, InverseTable(slot))
    with pytest.raises(ValueError, match="^p1_1_1, q1_1_1: "):
        alg.gen_bracket((0, 0, 0), (1, 0, 0))


@st.composite
def route_words(draw, sig, max_len):
    """A short power x^n of one letter, or a reduced word of up to max_len
    letters with three in four inverted."""
    if draw(st.booleans()):
        return Word.generator(draw(st.integers(0, sig.rank - 1))) ** draw(st.integers(-3, 3))
    letters = []
    for _ in range(draw(st.integers(0, max_len))):
        g, e = draw(st.integers(0, sig.rank - 1)), draw(st.sampled_from((-1, -1, -1, 1)))
        if letters and letters[-1] == (g, -e):
            e = -e  # repeat the previous letter rather than cancel it
        letters.append((g, e))
    return Word(letters)


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_entry_bracket_routes_agree_on_random_words(data):
    key = data.draw(st.sampled_from(sorted(ROUTE_ALGEBRAS)))
    table, words = ROUTE_ALGEBRAS[key]
    max_len = 3 if table.dim < 3 else 2
    a, b = (data.draw(route_words(table.sig, max_len)) for _ in range(2))
    i, j, k, l = (data.draw(st.integers(1, table.dim)) for _ in range(4))
    got = table.qp_bracket(table.entry(a, i, j), table.entry(b, k, l))
    assert got == words.qp_bracket_entries(a, i, j, b, k, l)


def test_quasi_jacobi_on_entries():
    rng = random.Random(4)
    for _ in range(25):
        P, Q, R = (ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
                   for _ in range(3))
        lhs = (ALG.qp_bracket(P, ALG.qp_bracket(Q, R))
               + ALG.qp_bracket(Q, ALG.qp_bracket(R, P))
               + ALG.qp_bracket(R, ALG.qp_bracket(P, Q)))
        assert lhs == ALG.phi_action(P, Q, R)


def test_traces_satisfy_plain_jacobi():
    rng = random.Random(5)
    for _ in range(8):
        A, B, C = (ALG.trace(sample_word(rng, SIG, 2)) for _ in range(3))
        lhs = (ALG.qp_bracket(A, ALG.qp_bracket(B, C))
               + ALG.qp_bracket(B, ALG.qp_bracket(C, A))
               + ALG.qp_bracket(C, ALG.qp_bracket(A, B)))
        assert lhs.is_zero()


def flat_qp_bracket(alg, P, Q):
    """The per-pair bracket: every product dP/da dQ/db {a, b} formed
    separately, then one accumulate."""
    dP = [(a, alg.d_dvar(P, a)) for a in alg.variables(P)]
    dQ = [(b, alg.d_dvar(Q, b)) for b in alg.variables(Q)]
    parts = []
    for a, dPa in dP:
        if dPa.is_zero():
            continue
        for b, dQb in dQ:
            if dQb.is_zero():
                continue
            parts.append(dPa * dQb * alg.gen_bracket(a, b))
    return alg.accumulate(parts)


FLAT_ALGEBRAS = {(g, m, dim): RepAlgebra(SurfaceSignature(g, m), dim)
                 for g, m in ((1, 1), (0, 2), (1, 0)) for dim in (1, 2, 3)}


@st.composite
def coordinate_functions(draw, alg, max_len):
    """An entry or the trace of a random word with inverse letters."""
    n = alg.sig.rank
    letters = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
                            max_size=max_len))
    word = Word(letters)
    if draw(st.booleans()):
        return alg.trace(word)
    i, j = (draw(st.integers(1, alg.dim)) for _ in range(2))
    return alg.entry(word, i, j)


@seed(20240812)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_qp_bracket_matches_flat_bracket(data):
    key = data.draw(st.sampled_from(sorted(FLAT_ALGEBRAS)))
    alg = FLAT_ALGEBRAS[key]
    max_len = 3 if alg.dim < 3 else 2
    P = data.draw(coordinate_functions(alg, max_len))
    Q = data.draw(coordinate_functions(alg, max_len))
    got, want = alg.qp_bracket(P, Q), flat_qp_bracket(alg, P, Q)
    assert got.den == want.den
    assert dict(got.num.items()) == dict(want.num.items())


# --- actions -----------------------------------------------------------------

def test_elementary_action_formula():
    # f_kl a_ij = d_lj a_ik - d_ik a_lj
    for k in range(2):
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    want = ALG.zero()
                    if l == j:
                        want = want + ALG.sym(0, i, k)
                    if i == k:
                        want = want - ALG.sym(0, l, j)
                    assert ALG.elem_action(k, l, ALG.sym(0, i, j)) == want


def test_elementary_action_checks_its_indices():
    # a negative index must not wrap to the last row, and one past the end
    # names the range, as sym does
    P = ALG.sym(0, 1, 0)
    for k, l in ((-1, 0), (2, 0), (0, -1), (0, 2)):
        with pytest.raises(IndexError,
                           match=re.escape(f"out of range for dim 2: ({k}, {l})")):
            ALG.elem_action(k, l, P)


def test_lie_action_kills_traces_and_determinants():
    rng = random.Random(6)
    for _ in range(15):
        wmat = rand_lie(rng, 2)
        a = sample_word(rng, SIG, 3)
        assert ALG.gl_action(wmat, ALG.trace(a)).is_zero()
        u = rng.randrange(3)
        det_elem = RepElem(ALG, ALG.det_poly(u), ALG.zero_den)
        assert ALG.gl_action(wmat, det_elem).is_zero()
        assert ALG.gl_action(wmat, ALG.det_inverse(u)).is_zero()


def test_lie_equivariance_of_bracket():
    rng = random.Random(7)
    for _ in range(25):
        wmat = rand_lie(rng, 2)
        P = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        Q = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        lhs = ALG.gl_action(wmat, ALG.qp_bracket(P, Q))
        rhs = (ALG.qp_bracket(ALG.gl_action(wmat, P), Q)
               + ALG.qp_bracket(P, ALG.gl_action(wmat, Q)))
        assert lhs == rhs


def test_group_action_axioms():
    rng = random.Random(8)
    for _ in range(10):
        P = ALG.entry(sample_word(rng, SIG, 2), rng.randint(1, 2), rng.randint(1, 2))
        assert ALG.group_action(mat([[1, 0], [0, 1]]), P) == P
        g, h = rand_invertible(rng, 2), rand_invertible(rng, 2)
        assert ALG.group_action(mat_mul(g, h), P) == \
            ALG.group_action(g, ALG.group_action(h, P))
        a = sample_word(rng, SIG, 3)
        assert ALG.group_action(g, ALG.trace(a)) == ALG.trace(a)


def test_group_action_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        ALG.group_action(mat([[1, 1], [1, 1]]), ALG.sym(0, 0, 0))


@pytest.mark.parametrize("act,m", [
    ("group_action", [[1, 0, 0], [0, 2, 0], [0, 0, 5]]),
    ("gl_action", [[1, 0, 0], [0, 0, 0], [0, 0, 7]]),
    ("group_action", [[2]]),
], ids=["group-3x3", "gl-3x3", "group-1x1"])
def test_actions_reject_a_matrix_that_is_not_n_by_n(act, m):
    # a larger matrix would be read by its top-left block, a smaller one
    # indexed past its end
    with pytest.raises(ValueError, match="N = 2"):
        getattr(ALG, act)(mat(m) if act == "group_action" else m, ALG.sym(0, 0, 0))


def test_group_equivariance_of_bracket():
    rng = random.Random(9)
    for _ in range(20):
        g = rand_invertible(rng, 2)
        P = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        Q = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        assert ALG.group_action(g, ALG.qp_bracket(P, Q)) == \
            ALG.qp_bracket(ALG.group_action(g, P), ALG.group_action(g, Q))


# --- the Cartan trivector ---------------------------------------------------------

def test_phi_kills_units():
    rng = random.Random(10)
    for _ in range(10):
        Q = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        R = ALG.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        assert ALG.phi_action(ALG.one(), Q, R).is_zero()


def test_phi_vanishes_at_dim_one():
    assert cartan_trivector(1) == {}
    alg = RepAlgebra(SIG, 1)
    rng = random.Random(11)
    for _ in range(5):
        P, Q, R = (alg.entry(sample_word(rng, SIG, 2), 1, 1) for _ in range(3))
        assert alg.phi_action(P, Q, R).is_zero()


def test_phi_skew_and_invariant():
    for dim in (2, 3):
        phi = cartan_trivector(dim)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            swapped = {}
            for key, c in phi.items():
                new = tuple(key[p] for p in perm)
                swapped[new] = swapped.get(new, 0) + c
            assert {k: v for k, v in swapped.items() if v} == {k: -v for k, v in phi.items()}


def test_phi_contracts_to_cartan_form():
    # pairing each slot with a matrix through the trace form recovers
    # (u, v, w) -> tr(u [v, w])
    rng = random.Random(12)
    for dim in (2, 3):
        phi = cartan_trivector(dim)
        for _ in range(10):
            u, v, wmat = (rand_lie(rng, dim) for _ in range(3))
            total = Fraction(0)
            for ((a1, b1), (a2, b2), (a3, b3)), c in phi.items():
                total += c * u[b1][a1] * v[b2][a2] * wmat[b3][a3]
            comm = [[sum(v[i][k] * wmat[k][j] - wmat[i][k] * v[k][j] for k in range(dim))
                     for j in range(dim)] for i in range(dim)]
            cartan = sum(u[i][k] * comm[k][i] for i in range(dim) for k in range(dim))
            assert total == cartan


def test_phi_is_lie_invariant():
    # the diagonal bracket action [w, -] on each slot annihilates the tensor
    rng = random.Random(13)
    dim = 2
    phi = cartan_trivector(dim)

    def as_matrix(t):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        m[t[0]][t[1]] = Fraction(1)
        return m

    for _ in range(5):
        wmat = rand_lie(rng, dim)
        acc: dict = {}
        for key, c in phi.items():
            mats = [as_matrix(t) for t in key]
            for slot in range(3):
                m = mats[slot]
                comm = [[sum(wmat[i][k] * m[k][j] - m[i][k] * wmat[k][j]
                             for k in range(dim)) for j in range(dim)] for i in range(dim)]
                for a in range(dim):
                    for b in range(dim):
                        if comm[a][b]:
                            new = list(key)
                            new[slot] = (a, b)
                            new = tuple(new)
                            acc[new] = acc.get(new, 0) + c * comm[a][b]
        assert not {k: v for k, v in acc.items() if v}


# --- moment formulas in coordinates ---------------------------------------------

def test_moment_entry_formulas_small():
    from surfqp.suites import _displayed_power_bracket
    mu = boundary_word(SIG)
    rng = random.Random(14)
    probes = [Word.generator(i) for i in range(SIG.rank)]
    for m in (1, 2):
        for inverse in (False, True):
            word = mu ** (-m) if inverse else mu ** m
            for a in probes:
                i, j, u, v = (rng.randint(1, 2) for _ in range(4))
                lhs = ALG.qp_bracket_entries(word, i, j, a, u, v)
                assert lhs == _displayed_power_bracket(ALG, mu, a, m, i, j, u, v, inverse)


def test_trace_bracket_matches_goldman():
    dbl = ALG.dbl
    rng = random.Random(15)
    for _ in range(15):
        a, b = sample_word(rng, SIG, 3), sample_word(rng, SIG, 3)
        lhs = ALG.qp_bracket(ALG.trace(a), ALG.trace(b))
        assert lhs == ALG.trace(angle(dbl, a, b))
        gold = goldman(dbl, CyclicWord.of(a), CyclicWord.of(b))
        assert lhs == ALG.trace(gold).scale(2)


def test_trace_reads_class_combinations():
    # a class combination's trace is the trace of the AlgElem of its normal-form words
    rng = random.Random(16)
    for _ in range(10):
        words = [sample_word(rng, SIG, 4) for _ in range(3)]
        coeffs = [rng.randint(-3, 3) for _ in words]
        x = CyclicAlgElem.collect(zip(map(CyclicWord.of, words), coeffs))
        assert ALG.trace(x) == ALG.trace(AlgElem.collect((Word(cw.letters), c) for cw, c in x.items()))
        # traces are conjugation invariant, so any representatives give the same sum
        assert ALG.trace(x) == ALG.accumulate(ALG.trace(a).scale(c) for a, c in zip(words, coeffs))


# --- one-pass sums --------------------------------------------------------------
#
# entry, trace and entry_pair_image sum their terms with one accumulate.  The
# references below are the chained `out = out + ...` sums these replaced: on a
# single word every term shares one denominator, so both must print the same
# bytes, while a multi-word sum no longer depends on the order of its terms.

def chained_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    out = m[0][0].zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * chained_det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def chained_letter_matrix(alg, u, e):
    """x^u, or for e < 0 its adjugate over det(x^u)."""
    N = alg.dim
    x = [[alg.sym(u, i, j) for j in range(N)] for i in range(N)]
    if e > 0:
        return x
    den = tuple(int(v == u) for v in range(alg.sig.rank))

    def cofactor(r, c):
        if N == 1:
            return alg.one().num
        minor = [[x[a][b].num for b in range(N) if b != c] for a in range(N) if a != r]
        return chained_det(minor).scale((-1) ** (r + c))

    return [[RepElem(alg, cofactor(j, i), den) for j in range(N)] for i in range(N)]


def chained_dot(a, b, i, j, n):
    out = a[i][0] * b[0][j]
    for k in range(1, n):
        out = out + a[i][k] * b[k][j]
    return out


def chained_word_matrix(alg, w):
    N = alg.dim
    out = tuple(tuple(alg.scalar(1 if i == j else 0) for j in range(N)) for i in range(N))
    for k, (u, e) in enumerate(reversed(w.letters)):
        head = chained_letter_matrix(alg, u, e)
        out = head if k == 0 else tuple(
            tuple(chained_dot(head, out, i, j, N) for j in range(N)) for i in range(N))
    return out


def chained_entry(alg, a, i, j):
    out = alg.zero()
    for v, c in (a.items() if isinstance(a, AlgElem) else ((a, 1),)):
        out = out + chained_word_matrix(alg, v)[i - 1][j - 1].scale(c)
    return out


def chained_trace(alg, a):
    out = alg.zero()
    for i in range(1, alg.dim + 1):
        out = out + chained_entry(alg, a, i, i)
    return out


ONE_PASS_ALGEBRAS = {(g, m, dim): RepAlgebra(SurfaceSignature(g, m), dim)
                     for g, m in ((1, 1), (0, 2), (2, 0)) for dim in (1, 2, 3)}


def test_determinants_print_the_chained_bytes():
    for alg in ONE_PASS_ALGEBRAS.values():
        N = alg.dim
        for u in range(alg.sig.rank):
            want = chained_det([[alg.sym(u, i, j).num for j in range(N)] for i in range(N)])
            assert alg.to_json(RepElem(alg, alg.det_poly(u), alg.zero_den)) == \
                alg.to_json(RepElem(alg, want, alg.zero_den))


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_single_word_sums_print_the_chained_bytes(data):
    alg = ONE_PASS_ALGEBRAS[data.draw(st.sampled_from(sorted(ONE_PASS_ALGEBRAS)))]
    word = data.draw(route_words(alg.sig, 6 if alg.dim < 3 else 3))
    N = alg.dim
    want = chained_word_matrix(alg, word)
    for j in range(N):
        got = alg.column(word, j)
        for i in range(N):
            assert alg.to_json(got[i]) == alg.to_json(want[i][j])
            assert alg.to_json(alg.entry(word, i + 1, j + 1)) == \
                alg.to_json(chained_entry(alg, word, i + 1, j + 1))
    assert alg.to_json(alg.trace(word)) == alg.to_json(chained_trace(alg, word))


def counted_letter_matrices(alg, monkeypatch):
    """Wrap alg._letter_matrix; each call is one new node of a column's suffix trie."""
    calls = []
    letter_matrix = alg._letter_matrix

    def counted(u, e):
        calls.append((u, e))
        return letter_matrix(u, e)

    monkeypatch.setattr(alg, "_letter_matrix", counted)
    return calls


@pytest.mark.parametrize("k", [1, 5, 40])
def test_word_matrix_shares_suffixes(monkeypatch, k):
    alg = RepAlgebra(SIG, 2)
    calls = counted_letter_matrices(alg, monkeypatch)
    power = w("p1") ** k
    alg.column(power, 0)
    assert len(calls) == k  # one step per letter, right to left
    longer = w("q1") * power
    got = alg.column(longer, 0)
    assert calls[k:] == [(1, 1)]  # p1^k is a cached suffix: one new step
    want = chained_word_matrix(alg, longer)
    assert [alg.to_json(x) for x in got] == [alg.to_json(row[0]) for row in want]
    for word in (power, longer, w("p1") ** (k // 2)):
        assert alg.column(word, 0) is alg.column(word, 0)
    assert len(calls) == k + 1  # repeated words and suffixes make none
    # the other column has a trie of its own
    assert [alg.to_json(x) for x in alg.column(longer, 1)] == \
        [alg.to_json(row[1]) for row in want]
    assert len(calls) == 2 * (k + 1)


def test_word_matrix_of_the_empty_word_is_the_identity(monkeypatch):
    for dim in (1, 2, 3):
        alg = RepAlgebra(SIG, dim)
        calls = counted_letter_matrices(alg, monkeypatch)
        got = [alg.column(Word.identity(), j) for j in range(dim)]
        assert [[alg.to_json(x) for x in col] for col in got] == \
            [[alg.to_json(alg.scalar(int(i == j))) for i in range(dim)] for j in range(dim)]
        assert calls == []


def test_generator_entry_bracket_builds_one_column_per_table_word(monkeypatch):
    """{p1_11, q1_11} reads one entry of each word of the p1, q1 table, so a
    word of n letters costs its column's n - 1 product steps, N products
    each, and never the N^2 of a whole matrix."""
    N = 12
    alg = RepAlgebra(SIG, N)
    calls = []
    accumulate_products = RepAlgebra.accumulate_products

    def counted(self, triples):
        calls.append(1)
        return accumulate_products(self, triples)

    monkeypatch.setattr(RepAlgebra, "accumulate_products", counted)
    alg.qp_bracket(alg.sym(0, 0, 0), alg.sym(1, 0, 0))
    steps = sum(max(len(x) - 1, 0) for pair, _ in alg.dbl.base(0, 1).items() for x in pair)
    assert steps > 0
    # plus the one sum in qp_bracket; gen_bracket itself is one Poly.dot
    assert len(calls) <= N * steps + 1


def test_multi_word_entry_is_term_order_free():
    """p1 q1 p1^-1 - q1 + z1 at dim 1: summed left to right by `+`, the first
    two terms cancel to a zero with no denominator, and the chained sum
    printed z1 over no det; summed from the right it printed p1 z1 over
    det(p1).  One pass prints the latter both ways."""
    alg = ONE_PASS_ALGEBRAS[1, 1, 1]
    terms = [(w("p1*q1*p1^-1"), 1), (w("q1"), -1), (w("z1"), 1)]
    want = {"den": [1, 0, 0], "terms": [{"coeff": "1", "monomial": "p1_1_1*z1_1_1"}]}
    for order in (terms, terms[::-1]):
        assert alg.to_json(alg.entry(AlgElem(dict(order)), 1, 1)) == want
    assert alg.to_json(chained_entry(alg, AlgElem(dict(terms)), 1, 1)) != want


@st.composite
def multi_word_terms(draw, sig, max_len, arity):
    """Two or more distinct keys (tuples of arity words, inverse-heavy ones
    included) with nonzero coefficients.  A key may bring a partner whose
    first word is conjugated by a letter, at minus its coefficient: the two
    cancel in a trace, and at dim 1 in every entry, but their denominators
    differ when the letter is inverted."""
    terms = {}
    for key in draw(st.lists(st.tuples(*[route_words(sig, max_len)] * arity),
                             min_size=2, max_size=3, unique=True)):
        c = terms.setdefault(key, draw(st.sampled_from((-2, -1, 1, 3))))
        if draw(st.booleans()):
            x = Word.generator(draw(st.integers(0, sig.rank - 1)), draw(st.sampled_from((1, -1))))
            terms.setdefault((x * key[0] * x.inverse(),) + key[1:], -c)
    return list(terms.items())


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_multi_word_sums_are_term_order_free(data):
    dim = data.draw(st.sampled_from((1, 2)))
    alg = ONE_PASS_ALGEBRAS[data.draw(st.sampled_from(((1, 1), (0, 2), (2, 0)))) + (dim,)]
    terms = data.draw(multi_word_terms(alg.sig, 3, 1))
    a, b = (AlgElem({v: c for (v,), c in order})
            for order in (terms, data.draw(st.permutations(terms))))
    i, j = data.draw(st.integers(1, dim)), data.draw(st.integers(1, dim))
    assert alg.to_json(alg.entry(a, i, j)) == alg.to_json(alg.entry(b, i, j))
    assert alg.to_json(alg.trace(a)) == alg.to_json(alg.trace(b))
    pairs = data.draw(multi_word_terms(alg.sig, 3, 2))
    t, u = (Tensor2(dict(order)) for order in (pairs, data.draw(st.permutations(pairs))))
    k, l = (data.draw(st.integers(0, dim - 1)) for _ in range(2))
    assert alg.to_json(alg.entry_pair_image(t, i - 1, j - 1, k, l)) == \
        alg.to_json(alg.entry_pair_image(u, i - 1, j - 1, k, l))


def test_lone_numerator_is_not_copied():
    # a denominator group of one numerator needs no sum, so accumulate hands
    # that Poly back as it is
    P = ALG.column(w("p1*q1^-1*z1"), 1)[0]
    assert ALG.accumulate([P]).num is P.num
    assert ALG.accumulate([P, ALG.zero()]).num is P.num
    assert ALG.accumulate([P, P]) == P.scale(2)


# --- + and - are two-part accumulates ---------------------------------------------
#
# The reference is the aligned sum these replaced: both numerators raised to
# the elementwise larger denominator, then added, subtracted or compared.

def aligned_raise(alg, num, frm, to):
    for u, (a, b) in enumerate(zip(frm, to)):
        for _ in range(b - a):
            num = num * alg.det_poly(u)
    return num


def aligned(x, y):
    den = tuple(max(a, b) for a, b in zip(x.den, y.den))
    return aligned_raise(x.alg, x.num, x.den, den), aligned_raise(y.alg, y.num, y.den, den), den


def aligned_add(x, y):
    n1, n2, den = aligned(x, y)
    return RepElem(x.alg, n1 + n2, den)


def aligned_sub(x, y):
    n1, n2, den = aligned(x, y)
    return RepElem(x.alg, n1 - n2, den)


def aligned_eq(x, y):
    if x.den == y.den:
        return x.num == y.num
    n1, n2, _ = aligned(x, y)
    return n1 == n2


SUM_ALGEBRAS = {(g, m, dim): RepAlgebra(SurfaceSignature(g, m), dim)
                for g, m in ((1, 1), (0, 2)) for dim in (1, 2, 3)}


@st.composite
def operand_pairs(draw, alg):
    """(a, b): a is zero or a coordinate function; b is zero, a times 1, -1
    or 2, or another function, then possibly over a larger denominator, so
    that equal values meet over equal and unequal denominators."""
    max_len = 3 if alg.dim < 3 else 2
    a = draw(coordinate_functions(alg, max_len)) if draw(st.integers(0, 3)) else alg.zero()
    kind = draw(st.sampled_from(("zero", "function", "multiple", "multiple")))
    if kind == "zero":
        b = alg.zero()
    elif kind == "function":
        b = draw(coordinate_functions(alg, max_len))
    else:
        b = a.scale(draw(st.sampled_from((1, -1, 2))))
    if draw(st.booleans()):
        den = tuple(map(add, b.den, draw(st.tuples(*[st.integers(0, 1)] * alg.sig.rank))))
        b = RepElem(alg, aligned_raise(alg, b.num, b.den, den), den)
    return (b, a) if draw(st.booleans()) else (a, b)


@seed(20261021)
@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_sums_print_the_aligned_bytes(data):
    alg = SUM_ALGEBRAS[data.draw(st.sampled_from(sorted(SUM_ALGEBRAS)))]
    a, b = data.draw(operand_pairs(alg))
    assert alg.to_json(a + b) == alg.to_json(aligned_add(a, b))
    assert alg.to_json(a - b) == alg.to_json(aligned_sub(a, b))
    assert (a == b) == aligned_eq(a, b)
