"""Evaluation at rational points and the fused bivector oracle."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from surfqp import evaluation
from surfqp.dbracket import SurfaceDoubleBracket, goldman
from surfqp.evaluation import (CONJ, L, R, FusionBivector, RepPoint, WedgeTerm, _covector,
                               _fields, _flat, _folds, _pair, _sides, bivector_bracket,
                               build_fusion_bivector, compare_bivectors, compare_constructions,
                               covector_sym, evaluate, fields_sym, sample_rep_point, wedge_sym)
from surfqp.matrices import mat, mat_det, mat_det_adj, mat_inv, mat_mul
from surfqp.poly import Poly
from surfqp.repalgebra import RepAlgebra
from surfqp.words import (CyclicWord, SurfaceSignature, Word, corner_table, format_word,
                          parse_word, sample_word, trial_rng)

SIG = SurfaceSignature(1, 1)
ALG = RepAlgebra(SIG, 2)

# exact bivector_bracket values at fixed points, recorded before the
# gradient form replaced per-field re-evaluation
BIVECTOR_GOLDEN = [
    (case, pair)
    for case in json.loads((Path(__file__).parent / "data" / "bivector_golden.json").read_text())
    for pair in case["pairs"]
]

# compare_constructions(...).to_dict() without the fusion terms, as sorted
# JSON, recorded before sampled points kept int entries
WITNESS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "aksm_witness_golden.json").read_text())


def bracket_side(sig, dim, coords, pt):
    """compare_constructions' bracket side at pt on coordinates (w, i, j), as
    exact values: B[a][b] / (s_a s_b) from the double bracket's corner cuts."""
    at = evaluation._word_matrices(pt, dim, (w for w, _, _ in coords))
    B = evaluation._bracket_matrix(corner_table(sig, SurfaceDoubleBracket.CORNERS), coords, at)
    return [[Fraction(x, at[a[0]][0] * at[b[0]][0]) for b, x in zip(coords, row)]
            for a, row in zip(coords, B)]


def fox_gradient(w, i, j, pt, dim):
    """compare_constructions' Fox gradient of the entry w_ij at pt, as (den, G)."""
    at = evaluation._word_matrices(pt, dim, [w])
    return evaluation._fox_gradient(w, i, j, at[w], pt.dets)


def gradient_values(gradient):
    den, grad = gradient
    return [[[Fraction(v, den) for v in row] for row in G] for G in grad]


def w(text, sig=SIG):
    return parse_word(text, sig)


def point(rng=None, sig=SIG, dim=2):
    return sample_rep_point(rng or random.Random(99), sig, dim)


def field_values(coord, pt):
    """_fields of the entry coord = (w, i, j) at pt as exact values:
    {(slot, side): [[value along f_rs]]}."""
    D, fields = _fields(fox_gradient(*coord, pt, len(pt.matrices[0])), pt)
    return {key: [[Fraction(v, D) for v in row] for row in m] for key, m in fields.items()}


def test_rep_point_requires_invertible():
    with pytest.raises(ValueError):
        RepPoint((mat([[1, 1], [1, 1]]),) * 3)


def test_evaluate_entry_symbol():
    pt = point()
    for u in range(3):
        for i in (1, 2):
            for j in (1, 2):
                got = evaluate(ALG.entry(Word.generator(u), i, j), pt)
                assert got == pt.matrices[u][i - 1][j - 1]


def test_evaluate_trace_of_unit():
    assert evaluate(ALG.trace(Word.identity()), point()) == 2


def test_evaluate_inverse_letter():
    pt = point()
    minv = mat_inv(pt.matrices[0])
    for i in (1, 2):
        for j in (1, 2):
            assert evaluate(ALG.entry(w("p1^-1"), i, j), pt) == minv[i - 1][j - 1]


def test_evaluate_is_multiplicative():
    rng = random.Random(1)
    pt = point(rng)
    for _ in range(25):
        P = ALG.entry(sample_word(rng, SIG, 3), rng.randint(1, 2), rng.randint(1, 2))
        Q = ALG.entry(sample_word(rng, SIG, 3), rng.randint(1, 2), rng.randint(1, 2))
        assert evaluate(P * Q, pt) == evaluate(P, pt) * evaluate(Q, pt)
        assert evaluate(P + Q, pt) == evaluate(P, pt) + evaluate(Q, pt)


def test_field_actions_on_entries():
    pt = point()
    m = pt.matrices[2]
    for i in range(2):
        for j in range(2):
            on = field_values((Word.generator(2), i + 1, j + 1), pt)
            for r in range(2):
                for s in range(2):
                    # right-translation field along f_rs
                    assert on[2, L][r][s] == (m[i][r] if s == j else 0)
                    # left-translation field along f_rs, with its sign
                    assert on[2, R][r][s] == (-m[s][j] if r == i else 0)
                    # fields on other slots ignore this entry
                    assert on[0, L][r][s] == 0


def test_conjugation_fields_kill_traces():
    # the diagonal conjugation field (one conj per slot) is the matrix
    # Lie-algebra action, so it annihilates every trace; a single-slot
    # conjugation already kills traces of words in that slot's letter.  A
    # trace's fields are the sum of its diagonal entries' fields
    rng = random.Random(2)
    pt = point(rng)
    for _ in range(20):
        a = sample_word(rng, SIG, 4)
        r, s = rng.randrange(2), rng.randrange(2)
        on = [field_values((a, i, i), pt) for i in (1, 2)]
        assert sum(f[u, CONJ][r][s] for f in on for u in range(SIG.rank)) == 0
    for _ in range(10):
        k = rng.randint(-3, 3)
        on = [field_values((Word.generator(2) ** k, i, i), pt) for i in (1, 2)]
        r, s = rng.randrange(2), rng.randrange(2)
        assert sum(f[2, CONJ][r][s] for f in on) == 0


def test_every_symbolic_field_is_the_pointwise_field():
    # every (slot, side, r, s) on (1,1) at dims 1 to 3, on word entries with
    # inverse letters through the Fox route, and on an element with a
    # determinant denominator through the test's fraction_fields
    for dim in (1, 2, 3):
        alg = RepAlgebra(SIG, dim)
        biv = build_fusion_bivector(SIG, dim)
        pt = sample_rep_point(trial_rng(3, "fields", dim), SIG, dim)
        coords = [(w(text), i, j) for text in ("p1*q1^-1", "z1^-2*p1", "q1^-1*z1*p1^-1")
                  for i, j in ((1, dim), (dim, 1))]
        cases = [(alg.entry(*c), _fields(fox_gradient(*c, pt, dim), pt)) for c in coords]
        over_det = alg.entry(w("p1"), 1, 1) * alg.det_inverse(2)
        assert any(over_det.den)
        cases.append((over_det, fraction_fields(over_det, pt)))
        keys = _sides(biv)
        assert len(keys) == 3 * SIG.rank  # every slot with L, R and C
        for P, (D, fields) in cases:
            on = fields_sym(alg, biv, P)
            assert list(on) == keys
            for slot, side in keys:
                assert set(on[slot, side]) <= set(product(range(dim), repeat=2))
                for r in range(dim):
                    for s in range(dim):
                        # an absent field is zero; a present one is a nonzero
                        # polynomial, which may still vanish at this point
                        got = on[slot, side].get((r, s))
                        assert got is None or not got.is_zero()
                        assert Fraction(fields[slot, side][r][s], D) == \
                            (0 if got is None else evaluate(got, pt)), (slot, side, r, s)


def det_field_values(alg, x, pt):
    """field_values of det of the word x's matrix at pt, from its entries'
    fields by linearity and the Leibniz rule over the permutation expansion."""
    N = range(alg.dim)
    m = [[evaluate(alg.entry(x, i + 1, j + 1), pt) for j in N] for i in N]
    on = {(i, j): field_values((x, i + 1, j + 1), pt) for i in N for j in N}
    out = {key: [[0] * alg.dim for _ in N] for key in on[0, 0]}
    for perm in permutations(N):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for k in N:
            c = sign * prod(m[t][perm[t]] for t in N if t != k)
            for key, f in on[k, perm[k]].items():
                out[key] = [[o + c * v for o, v in zip(ro, rf)] for ro, rf in zip(out[key], f)]
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_field_values_on_determinants(dim):
    # d det(x) along x f_rs is tr(f_rs) det, along -f_rs x its negative, and
    # conjugation keeps det fixed; 1/det = det(x^-1) takes minus those over
    # det^2, and 1/det^2 = det(x^-2) twice that over det^3
    sig = SurfaceSignature(0, 2)
    alg = RepAlgebra(sig, dim)
    pt = sample_rep_point(random.Random(8), sig, dim)
    for u in range(sig.rank):
        d = mat_det(pt.matrices[u])
        on_det, on_inv, on_inv2 = (det_field_values(alg, Word.generator(u) ** k, pt)
                                   for k in (1, -1, -2))
        for r in range(dim):
            for s in range(dim):
                delta = d if r == s else 0
                for side, want in ((L, delta), (R, -delta), (CONJ, 0)):
                    assert on_det[u, side][r][s] == want
                    assert on_inv[u, side][r][s] == Fraction(-want, d ** 2)
                    assert on_inv2[u, side][r][s] == Fraction(-2 * want, d ** 3)
                    assert on_det[1 - u, side][r][s] == 0


def test_annulus_bivector_is_single_wedge():
    biv = build_fusion_bivector(SurfaceSignature(0, 1), 2)
    assert biv.terms == (WedgeTerm(1, 0, L, 0, R),)


def test_handle_bivector_terms():
    biv = build_fusion_bivector(SurfaceSignature(1, 0), 2)
    assert biv.terms == (
        WedgeTerm(-1, 0, L, 1, R),
        WedgeTerm(-1, 0, R, 1, L),
        WedgeTerm(-1, 0, R, 1, R),
        WedgeTerm(+1, 0, L, 1, L),
        WedgeTerm(+1, 0, L, 0, R),
        WedgeTerm(-1, 1, L, 1, R),
    )


def test_two_annuli_need_one_coupling():
    sig = SurfaceSignature(0, 2)
    biv = build_fusion_bivector(sig, 2)
    coupling = [t for t in biv.terms if t.v_side == CONJ]
    assert coupling == [WedgeTerm(-1, 0, CONJ, 1, CONJ)]


def test_annulus_bracket_formula():
    # {z_ij, z_kl} = -d_jk (zz)_il + d_il (zz)_kj at any point
    sig = SurfaceSignature(0, 1)
    z = Word.generator(0)
    biv = build_fusion_bivector(sig, 2)
    rng = random.Random(4)
    for _ in range(5):
        pt = sample_rep_point(rng, sig, 2)
        zz = mat_mul(pt.matrices[0], pt.matrices[0])
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        got = bivector_bracket(biv, (z, i + 1, j + 1), (z, k + 1, l + 1), pt)
                        want = Fraction(0)
                        if j == k:
                            want -= zz[i][l]
                        if i == l:
                            want += zz[k][j]
                        assert got == want


def test_bracket_with_constant_vanishes():
    biv = build_fusion_bivector(SIG, 2)
    pt = point()
    assert bivector_bracket(biv, (w("p1*z1"), 1, 2), (Word.identity(), 1, 1), pt) == 0
    assert bivector_bracket(biv, (Word.identity(), 2, 1), (w("q1^-1"), 1, 2), pt) == 0


def test_coupling_term_reproduces_cross_factor_bracket():
    # on entries from different factors only the coupling term acts, and it
    # must equal the quasi-Poisson value of that cross pair
    sig = SurfaceSignature(0, 2)
    alg = RepAlgebra(sig, 2)
    biv = build_fusion_bivector(sig, 2)
    rng = random.Random(5)
    for _ in range(3):
        pt = sample_rep_point(rng, sig, 2)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        a, b = (Word.generator(0), i + 1, j + 1), (Word.generator(1), k + 1, l + 1)
                        got = bivector_bracket(biv, a, b, pt)
                        want = evaluate(alg.qp_bracket(alg.sym(0, i, j), alg.sym(1, k, l)), pt)
                        assert got == want


def explicit_field_sum(biv, a, b, pt):
    """The bivector pairing of the entries a and b written out field by field."""
    on_p, on_q = field_values(a, pt), field_values(b, pt)
    total = Fraction(0)
    for term in biv.terms:
        v, w = (term.v_slot, term.v_side), (term.w_slot, term.w_side)
        for r in range(biv.dim):
            for s in range(biv.dim):
                total += term.coeff * (on_p[v][r][s] * on_q[w][s][r]
                                       - on_q[v][r][s] * on_p[w][s][r])
    return total


@pytest.mark.parametrize("genus,punctures,words", [
    (1, 0, ("p1^-1*q1", "q1^-1*p1^2")),
    (0, 1, ("z1^-1", "z1^-2")),
    (0, 2, ("z1^-1*z2", "z2^-1*z1")),
    (1, 1, ("p1^-1*z1", "q1^-1*z1^-1")),
])
def test_bivector_bracket_is_explicit_field_sum(genus, punctures, words):
    sig = SurfaceSignature(genus, punctures)
    biv = build_fusion_bivector(sig, 2)
    a, b = (parse_word(text, sig) for text in words)
    for k in range(2):
        pt = sample_rep_point(trial_rng(31, "explicit-sum", k), sig, 2)
        for x, y in [((a, 1, 2), (b, 2, 1)), ((b, 1, 1), (a, 2, 2))]:
            assert bivector_bracket(biv, x, y, pt) == explicit_field_sum(biv, x, y, pt)


def test_numeric_oracle_never_uses_the_algebra_bracket(monkeypatch):
    # the pointwise oracle must stay independent of the derivation-rule route
    # and of the double bracket
    biv = build_fusion_bivector(SIG, 2)
    a, b = (w("p1^-1*z1"), 1, 2), (w("q1^-1"), 2, 1)
    want = evaluate(ALG.qp_bracket(ALG.entry(*a), ALG.entry(*b)), point())

    def forbidden(*args, **kwargs):
        raise AssertionError("numeric oracle called the algebra")

    for name in ("d_dvar", "adj_poly", "qp_bracket"):
        monkeypatch.setattr(RepAlgebra, name, forbidden)
    for name in ("corner_cuts", "corner_table", "_bracket_matrix"):
        monkeypatch.setattr(evaluation, name, forbidden)
    assert bivector_bracket(biv, a, b, point()) == want
    assert field_values(a, point())[0, CONJ][0][1] != 0


def test_derivation_side_never_uses_the_bivector_fields(monkeypatch):
    # the mirror of the test above: the bracket side at a point, the double
    # bracket's cut sum of two words, stays independent of the bivector oracle
    P, Q = ALG.entry(w("p1^-1*z1"), 1, 2), ALG.entry(w("q1^-1"), 2, 1)
    want = evaluate(ALG.qp_bracket(P, Q), point())
    assert want != 0

    def forbidden(*args, **kwargs):
        raise AssertionError("bracket side called the numeric oracle")

    for name in ("_fox_gradient", "_fields", "_folds", "_flat", "_covector", "_pair"):
        monkeypatch.setattr(evaluation, name, forbidden)
    coords = [(w("p1^-1*z1"), 1, 2), (w("q1^-1"), 2, 1)]
    assert bracket_side(SIG, 2, coords, point())[0][1] == want


def test_symbolic_leg_never_uses_the_pointwise_fields(monkeypatch):
    # fields_sym differentiates through the algebra; the gradient route at a
    # point must not stand in for it
    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic leg called the pointwise fields")

    for name in ("_fox_gradient", "_fields", "_folds", "_flat", "_covector"):
        monkeypatch.setattr(evaluation, name, forbidden)
    biv = build_fusion_bivector(SIG, 2)
    P, Q = ALG.entry(w("p1^-1*z1"), 1, 2), ALG.entry(w("q1^-1"), 2, 1)
    got = wedge_sym(ALG, covector_sym(biv, fields_sym(ALG, biv, P)), fields_sym(ALG, biv, Q))
    assert got == ALG.qp_bracket(P, Q) and not got.is_zero()


@st.composite
def inverse_heavy_words(draw, sig, max_len):
    """Reduced words of up to max_len letters, three in four inverted."""
    letters = []
    for _ in range(draw(st.integers(0, max_len))):
        g, e = draw(st.integers(0, sig.rank - 1)), draw(st.sampled_from((-1, -1, -1, 1)))
        if letters and letters[-1] == (g, -e):
            e = -e  # repeat the previous letter rather than cancel it
        letters.append((g, e))
    return Word(letters)


# one algebra per case, so each keeps its entries and generator brackets across examples
POINT_ALGEBRAS = {(g, m, dim): RepAlgebra(SurfaceSignature(g, m), dim)
                  for g, m in ((1, 1), (2, 1), (0, 3)) for dim in (1, 2, 3)}


def draw_entry(data, alg, max_len):
    """(w, i, j) for an inverse-heavy word w and one-based i, j."""
    return (data.draw(inverse_heavy_words(alg.sig, max_len)),
            data.draw(st.integers(1, alg.dim)), data.draw(st.integers(1, alg.dim)))


@seed(20261024)
@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_fox_gradient_is_the_gradient_of_the_symbolic_entry(data):
    alg = POINT_ALGEBRAS[data.draw(st.sampled_from(sorted(POINT_ALGEBRAS)))]
    x, i, j = draw_entry(data, alg, 8 if alg.dim < 3 else 5)
    pt = sample_rep_point(random.Random(data.draw(st.integers(0, 2 ** 32))), alg.sig, alg.dim)
    den, grad = got = fox_gradient(x, i, j, pt, alg.dim)
    assert gradient_values(got) == gradient_values(fraction_gradient(alg.entry(x, i, j), pt))
    assert type(den) is int and all(type(v) is int for G in grad for row in G for v in row)


@seed(20261023)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_pointwise_derivation_bracket_is_the_symbolic_bracket_evaluated(data):
    # the bracket side, the double bracket's cut sum of two words at a point,
    # is the derivation rule's qp_bracket of their entries evaluated there
    alg = POINT_ALGEBRAS[data.draw(st.sampled_from(sorted(POINT_ALGEBRAS)))]
    a, b = (draw_entry(data, alg, 3 if alg.dim < 3 else 2) for _ in range(2))
    pt = sample_rep_point(random.Random(data.draw(st.integers(0, 2 ** 32))), alg.sig, alg.dim)
    want = evaluate(alg.qp_bracket(alg.entry(*a), alg.entry(*b)), pt)
    assert bracket_side(alg.sig, alg.dim, [a, b], pt)[0][1] == want


# one algebra per case, so each keeps its symbolic generator brackets
BRACKET_ALGEBRAS = {(g, m, dim): RepAlgebra(SurfaceSignature(g, m), dim)
                    for g, m in ((1, 0), (1, 1), (0, 2), (2, 1)) for dim in (1, 2, 3)}


def checked_columns(alg, pt):
    """The bracket side at pt on every pair of generator entries, after
    checking it entry by entry against the symbolic generator brackets
    evaluated there."""
    symbols = [(u, i, j) for u in range(alg.sig.rank) for i in range(alg.dim)
               for j in range(alg.dim)]
    coords = [(Word.generator(u), i + 1, j + 1) for u, i, j in symbols]
    at = evaluation._word_matrices(pt, alg.dim, (x for x, _, _ in coords))
    assert all(at[x][0] == 1 for x, _, _ in coords)  # no inverse letter, no scale
    B = evaluation._bracket_matrix(corner_table(alg.sig, SurfaceDoubleBracket.CORNERS), coords, at)
    assert len(B) == len(symbols) and all(len(row) == len(symbols) for row in B)
    assign = {(u, i, j): pt.matrices[u][i][j] for u, i, j in symbols}
    for a, row in zip(symbols, B):
        for b, got in zip(symbols, row):
            want = alg.gen_bracket(a, b)
            assert not any(want.den)
            assert got == want.num.evaluate(assign), (a, b)
    return B


@pytest.mark.parametrize("case", sorted(BRACKET_ALGEBRAS), ids=lambda c: "-".join(map(str, c)))
@seed(20261019)
@settings(max_examples=5, deadline=None, database=None)
@given(point_seed=st.integers(0, 2 ** 32))
def test_bracket_columns_are_the_symbolic_table_evaluated(case, point_seed):
    alg = BRACKET_ALGEBRAS[case]
    pt = sample_rep_point(random.Random(point_seed), alg.sig, alg.dim)
    assert all(type(x) is int for row in checked_columns(alg, pt) for x in row)


def test_bracket_columns_at_a_rational_point():
    alg = BRACKET_ALGEBRAS[1, 1, 2]
    checked_columns(alg, RepPoint(tuple(map(mat, RATIONAL_MATRICES))))


def test_compare_constructions_never_builds_symbolic_brackets(monkeypatch):
    # both sides come from the point's integer matrices: no algebra, no entry,
    # no differential, no polynomial product and no symbolic generator bracket
    # (those stay for qp_bracket and the symbolic leg)
    def forbidden(*args, **kwargs):
        raise AssertionError("pointwise check went through the symbolic algebra")

    for name in ("__init__", "entry", "column", "differential", "qp_bracket", "gen_bracket",
                 "entry_pair_image"):
        monkeypatch.setattr(RepAlgebra, name, forbidden)
    for name in ("dot", "evaluate", "var"):
        monkeypatch.setattr(Poly, name, forbidden)
    for sig, dim, words in ((SIG, 2, ("p1^-1*q1^-1*z1", "z1^-2")),
                            (SurfaceSignature(2, 1), 2, ("p1*q1", "q1^-1")),
                            (SurfaceSignature(0, 3), 3, ("z1^-1*z3*z2^-1", "z1^-2"))):
        extra = [tuple(w(text, sig) for text in words)]
        rep = compare_constructions(sig, dim, trials=2, seed=5, extra_words=extra)
        assert rep.ok and rep.points == 2, rep.witness


@pytest.mark.parametrize("extra,index", [((Word.generator(5), Word.generator(0)), 5),
                                         ((Word.generator(0), Word([(3, -1)])), 3)])
def test_a_word_letter_past_the_rank_is_named(extra, index):
    with pytest.raises(IndexError, match=f"generator index {index} out of range for rank 3"):
        compare_constructions(SIG, 2, 1, 7, extra_words=[extra])


def test_compare_constructions_needs_a_point():
    # with no points there is no pair to check, which must not read as a pass
    from surfqp.suites import aksm_suite
    for trials in (0, -1):
        with pytest.raises(ValueError):
            compare_constructions(SIG, 2, trials, seed=3)
    with pytest.raises(ValueError):
        aksm_suite(SIG, 2, 0, 3, extra_word_pairs=0)


def fraction_gradient(P, pt):
    """The gradient as it was computed before it went over one integer
    denominator: the quotient-rule term divided by its own determinant as a
    Fraction, over den = prod_u det(x^u)^den_u."""
    x, N = pt.matrices, P.alg.dim
    grad = [[[0] * N for _ in range(N)] for _ in x]
    num_val = 0
    for mono, coeff in P.num.unpacked():
        powers = [x[u][i][j] ** e for (u, i, j), e in mono]
        num_val += coeff * prod(powers)
        for idx, ((u, i, j), e) in enumerate(mono):
            grad[u][i][j] += (coeff * e * x[u][i][j] ** (e - 1)
                              * prod(powers[:idx]) * prod(powers[idx + 1:]))
    den_val = 1
    for u, k in enumerate(P.den):
        if k:
            d, adj = mat_det_adj(x[u])
            den_val *= d ** k
            for i in range(N):
                for j in range(N):
                    grad[u][i][j] -= Fraction(num_val * k * adj[j][i], d)
    return den_val, grad


def fraction_fields(P, pt):
    """The fields from fraction_gradient, over the lcm of their denominators."""
    den, grads = fraction_gradient(P, pt)
    exact = {}
    for u, G in enumerate(grads):
        mt = tuple(zip(*pt.matrices[u]))
        left = [[Fraction(v, den) for v in row] for row in mat_mul(mt, G)]
        right = [[-Fraction(v, den) for v in row] for row in mat_mul(G, mt)]
        exact[u, L], exact[u, R] = left, right
        exact[u, CONJ] = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(left, right)]
    D = lcm(*(v.denominator for m in exact.values() for row in m for v in row))
    return D, {key: [[v * D for v in row] for row in m] for key, m in exact.items()}


# denominators in two generators, and in one generator next to another's entries
GRADIENT_WORDS = ("p1^-1*q1^-2", "z1^-1*p1", "q1*z1^-1*p1^-1", "p1^-2*z1^-1*q1")


@pytest.mark.parametrize("text", GRADIENT_WORDS)
def test_integer_gradient_matches_the_fraction_gradient(text):
    rng = random.Random(17)
    rational = RepPoint(tuple(map(mat, RATIONAL_MATRICES)))
    for pt in [point(rng) for _ in range(4)] + [rational]:
        integral = pt is not rational
        for i, j in ((1, 1), (1, 2), (2, 1)):
            P = ALG.entry(w(text), i, j)
            den, grad = fox_gradient(w(text), i, j, pt, 2)
            old_den, old_grad = fraction_gradient(P, pt)
            assert [[[Fraction(v, den) for v in row] for row in G] for G in grad] == \
                [[[Fraction(v, old_den) for v in row] for row in G] for G in old_grad]
            D, fields = evaluation._fields((den, grad), pt)
            old_D, old_fields = fraction_fields(P, pt)
            assert fields.keys() == old_fields.keys()
            for key, m in fields.items():
                assert [[Fraction(v, D) for v in row] for row in m] == \
                    [[Fraction(v, old_D) for v in row] for row in old_fields[key]]
            if integral:
                assert type(den) is int and type(D) is int
                assert all(type(v) is int for G in grad for row in G for v in row)
                assert all(type(v) is int for m in fields.values() for row in m for v in row)


@pytest.mark.parametrize("case,pair", BIVECTOR_GOLDEN,
                         ids=[f"{c['genus']}-{c['punctures']}-{p['left'][0]}-{p['right'][0]}"
                              for c, p in BIVECTOR_GOLDEN])
def test_bivector_bracket_matches_golden(case, pair):
    sig = SurfaceSignature(case["genus"], case["punctures"])
    pt = RepPoint(tuple(map(mat, case["point"])))
    (wa, i, j), (wb, k, l) = pair["left"], pair["right"]
    a, b = (parse_word(wa, sig), i, j), (parse_word(wb, sig), k, l)
    got = bivector_bracket(build_fusion_bivector(sig, case["dim"]), a, b, pt)
    assert str(got) == pair["value"]


def test_bivector_bracket_builds_no_polynomial(monkeypatch):
    # the one-pair bracket takes its coordinates' Fox gradients from the
    # point's matrices: no Poly method, no symbolic entry, no differential
    biv = build_fusion_bivector(SIG, 2)
    pairs = [((w("p1^-1*z1*q1"), 1, 2), (w("q1^-2*z1"), 2, 1)),
             ((Word.generator(2), 2, 2), (w("z1^-1*p1"), 1, 1))]
    wants = [evaluate(ALG.qp_bracket(ALG.entry(*a), ALG.entry(*b)), point()) for a, b in pairs]
    assert all(wants)

    def forbidden(*args, **kwargs):
        raise AssertionError("bivector_bracket went through the symbolic algebra")

    for cls in Poly.__mro__[:-1]:
        for name, attr in vars(cls).items():
            if callable(attr):
                monkeypatch.setattr(Poly, name, forbidden)
    for name in ("entry", "differential"):
        monkeypatch.setattr(RepAlgebra, name, forbidden)
    assert [bivector_bracket(biv, a, b, point()) for a, b in pairs] == wants


def test_bivector_bracket_names_an_entry_out_of_range():
    biv = build_fusion_bivector(SIG, 2)
    p, q = Word.generator(0), w("q1*z1^-1")
    for a, b, bad in (((p, 0, 1), (q, 1, 1), r"\(0, 1\)"), ((p, 1, 3), (q, 1, 1), r"\(1, 3\)"),
                      ((p, 1, 1), (q, 2, -1), r"\(2, -1\)")):
        with pytest.raises(IndexError, match="entry index out of range for dim 2: " + bad):
            bivector_bracket(biv, a, b, point())
    with pytest.raises(IndexError, match="generator index 5 out of range for rank 3"):
        bivector_bracket(biv, (p, 1, 1), (Word.generator(5), 1, 1), point())


# unchecked, each of these points gave a value or a bare error: evaluate 1
# (the z1 factor truncated away) and -1/6 (the det of a 3x3 matrix), and
# bivector_bracket -2, -20 and KeyError: (2, 'L')
@pytest.mark.parametrize("genus,punctures,dim,rank,call", [
    (1, 0, 2, 2, "evaluate"), (1, 1, 3, 3, "evaluate"),
    (1, 1, 3, 3, "bracket"), (2, 1, 2, 5, "bracket"), (0, 2, 2, 2, "bracket"),
])
def test_a_point_off_the_space_is_refused(genus, punctures, dim, rank, call):
    pt = sample_rep_point(random.Random(1), SurfaceSignature(genus, punctures), dim)
    want = f"point of rank {rank} and dim {dim}, expected rank 3 and dim 2"
    with pytest.raises(ValueError, match=f"^{want}$"):
        if call == "evaluate":
            evaluate(RepAlgebra(SIG, 2).det_inverse(2), pt)
        else:
            bivector_bracket(build_fusion_bivector(SIG, 2), (Word.generator(0), 1, 2),
                             (Word.generator(1), 2, 1), pt)


def test_the_point_check_at_rank_zero_and_with_mixed_dims():
    # the rank-zero point holds no matrix, so it has no dim to refuse
    zero = SurfaceSignature(0, 0)
    assert evaluate(RepAlgebra(zero, 3).scalar(5), RepPoint(())) == 5
    mixed = RepPoint((mat([[1, 0], [0, 1]]), mat([[1]]), mat([[2, 0], [0, 1]])))
    with pytest.raises(ValueError, match="^point of rank 3 and dim 1/2, expected rank 3 and dim 2$"):
        evaluate(ALG.det_inverse(0), mixed)
    with pytest.raises(ValueError, match="^point of rank 0 and dim -, expected rank 3 and dim 2$"):
        evaluate(ALG.det_inverse(0), RepPoint(()))


def trace_case(sig, dim, k):
    """Draw k of two seeded words of up to 4 letters and a point."""
    rng = trial_rng(5, "trace", k)
    return sample_word(rng, sig, 4), sample_word(rng, sig, 4), sample_rep_point(rng, sig, dim)


def goldman_trace(sig, dim, a, b, pt):
    """2 tr(goldman(|a|, |b|)) at pt, the bracket of tr a and tr b."""
    goldman_ab = goldman(SurfaceDoubleBracket(sig), CyclicWord.of(a), CyclicWord.of(b))
    return evaluate(RepAlgebra(sig, dim).trace(goldman_ab).scale(2), pt)


def trace_bracket(biv, a, b, pt):
    """{tr a, tr b} through the pointwise route: by linearity, the bracket
    summed over the diagonal entries of both words."""
    N = range(1, biv.dim + 1)
    return sum(bivector_bracket(biv, (a, i, i), (b, k, k), pt) for i in N for k in N)


@pytest.mark.parametrize("genus,punctures,dim", [(1, 2, 2), (0, 3, 3), (2, 1, 2)])
def test_trace_functions_through_the_pointwise_route(genus, punctures, dim):
    # every seeded pair up to the third whose trace bracket is nonzero
    sig = SurfaceSignature(genus, punctures)
    biv = build_fusion_bivector(sig, dim)
    nonzero = 0
    for k in range(40):
        a, b, pt = trace_case(sig, dim, k)
        want = goldman_trace(sig, dim, a, b, pt)
        assert trace_bracket(biv, a, b, pt) == want, k
        if want and (nonzero := nonzero + 1) == 3:
            break
    assert nonzero == 3


@pytest.mark.parametrize("genus,punctures,dim,k,words", [
    (0, 3, 3, 6, ("z2^-1*z3", "z1*z3^-1*z2")),
    (2, 1, 2, 18, ("p2*q1^-1*p2*q1", "z1*q1^-1")),
])
def test_trace_functions_need_the_fusion_coupling(genus, punctures, dim, k, words):
    sig = SurfaceSignature(genus, punctures)
    a, b, pt = trace_case(sig, dim, k)
    assert (a, b) == tuple(parse_word(text, sig) for text in words)
    want = goldman_trace(sig, dim, a, b, pt)
    nofuse = build_fusion_bivector(sig, dim, with_fusion_terms=False)
    assert trace_bracket(build_fusion_bivector(sig, dim), a, b, pt) == want
    assert trace_bracket(nofuse, a, b, pt) != want


# entries with denominators, so every field set needs its D scaling
RATIONAL_MATRICES = [
    [[Fraction(1, 2), Fraction(-5, 3)], [2, 1]],
    [[Fraction(-5, 3), 1], [Fraction(1, 2), 3]],
    [[2, Fraction(1, 2)], [Fraction(-5, 3), -1]],
]


@pytest.mark.parametrize("genus,punctures,words", [
    (1, 1, ("p1", "q1^-1*z1", "z1^-1")),
    (0, 2, ("z1", "z2^-1", "z1^-1*z2")),
])
def test_agreement_at_a_rational_point(genus, punctures, words):
    sig = SurfaceSignature(genus, punctures)
    alg = RepAlgebra(sig, 2)
    biv = build_fusion_bivector(sig, 2)
    pt = RepPoint(tuple(map(mat, RATIONAL_MATRICES[:sig.rank])))
    coords = [(parse_word(text, sig), i, j) for text in words for i, j in ((1, 2), (2, 1))]
    values = []
    for a in coords:
        for b in coords:
            want = evaluate(alg.qp_bracket(alg.entry(*a), alg.entry(*b)), pt)
            got = bivector_bracket(biv, a, b, pt)
            assert got == want
            values.append(got)
    assert any(v.denominator > 1 for v in values)
    # exact values only, never a float from dividing two ints
    sampled = sample_rep_point(random.Random(12), sig, 2)
    assert all(type(x) is int for m in sampled.matrices for row in m for x in row)
    for at in (pt, sampled):
        for a, b in ((coords[0], coords[3]), (coords[2], coords[5])):
            assert type(bivector_bracket(biv, a, b, at)) is Fraction
            D, fields = _fields(fox_gradient(*a, at, 2), at)
            assert {type(x) for m in fields.values() for row in m for x in row} | {type(D)} \
                <= {int, Fraction}
            assert type(evaluate(alg.entry(*a), at)) is Fraction


@pytest.mark.parametrize("case", WITNESS_GOLDEN,
                         ids=lambda c: f"{c['genus']}-{c['punctures']}")
def test_aksm_witness_matches_golden(case):
    sig = SurfaceSignature(case["genus"], case["punctures"])
    nofuse = build_fusion_bivector(sig, case["dim"], with_fusion_terms=False)
    rep = compare_constructions(sig, case["dim"], case["trials"], case["seed"], biv=nofuse)
    assert json.dumps(rep.to_dict(), sort_keys=True) == case["report"]


def test_rank_zero_surface_has_no_fields():
    # no generators: the point holds no matrices and the bivector no sides,
    # so every function is constant and every bracket is zero
    sig = SurfaceSignature(0, 0)
    one = (Word.identity(), 1, 1)
    assert fox_gradient(*one, RepPoint(()), 2) == (1, [])
    assert bivector_bracket(build_fusion_bivector(sig, 2), one, one, RepPoint(())) == 0
    rep = compare_constructions(sig, 2, trials=2, seed=3, extra_words=[(Word.identity(),) * 2])
    assert rep.ok and rep.pairs == 4


def reference_fold(biv, fields):
    """A function's covector by the term-by-term fold over _sides(biv): per
    wedge term, K[w] += coeff V^T and K[v] -= coeff W^T, with its flattened
    fields over the same sides, as (D, K, flat)."""
    D, fp = fields
    keys, size = _sides(biv), biv.dim ** 2
    at = {key: n * size for n, key in enumerate(keys)}
    K = [0] * (len(keys) * size)
    for t in biv.terms:
        v, w_ = (t.v_slot, t.v_side), (t.w_slot, t.w_side)
        for dst, src, c in ((at[w_], fp[v], t.coeff), (at[v], fp[w_], -t.coeff)):
            for n, x in enumerate((e for col in zip(*src) for e in col), dst):
                K[n] += c * x
    return D, K, [x for key in keys for row in fp[key] for x in row]


@pytest.mark.parametrize("genus,punctures,dim", [
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (0, 3, 1), (0, 3, 2), (0, 3, 3),
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (0, 0, 2),
])
def test_fold_table_is_the_term_by_term_fold(genus, punctures, dim):
    # every ordered pair of generator entries and inverse-letter word entries,
    # with and without the fusion terms: one fold table per bivector gives
    # the bracket the term-by-term fold gives
    sig = SurfaceSignature(genus, punctures)
    rng = trial_rng(41, "fold", dim)
    coords = [(Word.generator(u), i, j)
              for u in range(sig.rank) for i in range(1, dim + 1) for j in range(1, dim + 1)]
    words = [Word.identity()] if not sig.rank else [
        w(text, sig) for text in {(1, 1): ("p1^-1*z1*q1", "q1^-2*z1^-1"),
                                  (0, 3): ("z3^-1*z1*z2^-1", "z2^-2*z3"),
                                  (2, 1): ("q2^-1*p1*z1^-1", "p2^-1*q1^-1")}[genus, punctures]]
    coords += [(v, rng.randint(1, dim), rng.randint(1, dim)) for v in words]
    pt = sample_rep_point(rng, sig, dim)
    fields = [_fields(fox_gradient(*c, pt, dim), pt) for c in coords]
    for with_fusion in (True, False):
        biv = build_fusion_bivector(sig, dim, with_fusion_terms=with_fusion)
        folds = _folds(biv)
        got = [(_covector(folds, _flat(f)), _flat(f)) for f in fields]
        want = [reference_fold(biv, f) for f in fields]
        values = [_pair(cov, flat) for (cov, _), (_, flat) in product(got, repeat=2)]
        assert values == [Fraction(sum(map(mul, K, flat)), da * db)
                          for (da, K, _), (db, _, flat) in product(want, repeat=2)]
        # at dim 1 the fields commute and only a handle's terms leave a bracket
        assert any(values) == (sig.rank > 0 and (dim > 1 or genus > 0))


def test_compare_constructions_computes_fields_once_per_function(monkeypatch):
    # the Fox gradient and the fields of each coordinate function are
    # computed once per point, not once for every pair it takes part in
    calls = {"fox": 0, "fields": 0}
    fox, fields = evaluation._fox_gradient, evaluation._fields

    def counted(name, f):
        def inner(*args):
            calls[name] += 1
            return f(*args)
        return inner

    monkeypatch.setattr(evaluation, "_fox_gradient", counted("fox", fox))
    monkeypatch.setattr(evaluation, "_fields", counted("fields", fields))
    extra = [(w("p1*q1"), w("z1^-1"))]
    rep = compare_constructions(SIG, 2, trials=2, seed=11, extra_words=extra)
    assert rep.ok, rep.witness
    coords = SIG.rank * 2 * 2 + 2 * len(extra)
    assert calls == {"fox": coords * 2, "fields": coords * 2}


def test_compare_constructions_builds_each_words_matrices_once_per_point(monkeypatch):
    # every distinct word's prefixes and suffixes are multiplied out once per
    # point, for all its entries, and the bracket matrix is evaluated once
    # per point, not once for every pair
    words, matrices = [], []
    word_matrices, bracket_matrix = evaluation._word_matrices, evaluation._bracket_matrix

    def counted_words(pt, dim, ws):
        ws = list(ws)
        words.append(sorted(set(ws)))
        return word_matrices(pt, dim, ws)

    def counted_matrix(corners, coords, at):
        matrices.append(len(coords))
        return bracket_matrix(corners, coords, at)

    monkeypatch.setattr(evaluation, "_word_matrices", counted_words)
    monkeypatch.setattr(evaluation, "_bracket_matrix", counted_matrix)
    extra = [(w("p1*q1"), w("z1^-1"))]
    rep = compare_constructions(SIG, 2, trials=2, seed=11, extra_words=extra)
    assert rep.ok, rep.witness
    want = sorted([Word.generator(u) for u in range(SIG.rank)] + [w("p1*q1"), w("z1^-1")])
    assert words == [want, want]
    assert matrices == [SIG.rank * 2 * 2 + 2 * len(extra)] * 2


def test_compare_constructions_walks_one_point_at_a_time(monkeypatch):
    # a point's word matrices and every function's fields there are all
    # computed before the next point is touched
    calls = []
    word_matrices, fields = evaluation._word_matrices, evaluation._fields

    def counted_words(pt, dim, ws):
        calls.append(("words", pt.matrices))
        return word_matrices(pt, dim, ws)

    def counted_fields(gradient, pt):
        calls.append(("fields", pt.matrices))
        return fields(gradient, pt)

    monkeypatch.setattr(evaluation, "_word_matrices", counted_words)
    monkeypatch.setattr(evaluation, "_fields", counted_fields)
    rep = compare_constructions(SIG, 2, 3, 7)
    assert rep.ok, rep.witness
    size = 1 + SIG.rank * 2 * 2
    points = [sample_rep_point(trial_rng(7, "aksm", k), SIG, 2).matrices for k in range(3)]
    assert len(calls) == 3 * size
    assert [sorted(calls[k * size:(k + 1) * size]) for k in range(3)] == \
        [[("fields", m)] * (size - 1) + [("words", m)] for m in points]


def test_symbolic_leg_applies_each_field_once_per_function(monkeypatch):
    from surfqp import suites
    calls = []

    def counted(alg, biv, P):
        calls.append(P)
        return fields_sym(alg, biv, P)

    monkeypatch.setattr(suites, "fields_sym", counted)
    sig = SurfaceSignature(1, 0)
    report = suites.aksm_suite(sig, 2, 1, 5, extra_word_pairs=0)
    assert next(c for c in report.checks if c.name == "symbolic-agreement").ok
    # one field set per generator entry, each entry once
    alg = calls[0].alg
    assert [P.num for P in calls] == [alg.sym(u, i, j).num for u in range(sig.rank)
                                      for i in range(2) for j in range(2)]


def test_symbolic_leg_pairs_the_table_brackets(monkeypatch):
    # on generator entries the derivation rule is the table's bracket itself:
    # the leg reads gen_bracket for every ordered pair and builds no
    # qp_bracket
    from surfqp import suites
    pairs = set()
    gen_bracket = RepAlgebra.gen_bracket

    def recorded(self, a, b):
        pairs.add((a, b))
        return gen_bracket(self, a, b)

    def forbidden(*args):
        raise AssertionError("symbolic leg built a qp_bracket")

    monkeypatch.setattr(RepAlgebra, "gen_bracket", recorded)
    monkeypatch.setattr(RepAlgebra, "qp_bracket", forbidden)
    for sig in (SurfaceSignature(1, 0), SurfaceSignature(0, 1)):
        pairs.clear()
        report = suites.aksm_suite(sig, 2, 1, 5, extra_word_pairs=0)
        assert next(c for c in report.checks if c.name == "symbolic-agreement").ok
        syms = [(u, i, j) for u in range(sig.rank) for i in range(2) for j in range(2)]
        assert pairs >= {(a, b) for a in syms for b in syms}


def test_agreeing_pairs_build_no_fraction(monkeypatch):
    # at integer points an agreeing pair is compared cross-multiplied in
    # ints; only a mismatch's witness is written as Fractions
    def forbidden(*args):
        raise AssertionError("compare_constructions built a Fraction")

    monkeypatch.setattr(evaluation, "Fraction", forbidden)
    extra = [(w("p1*q1^-1"), w("z1^-1*p1")), (w("q1^-1"), w("z1"))]
    rep = compare_constructions(SIG, 2, trials=2, seed=11, extra_words=extra)
    assert rep.ok, rep.witness
    assert rep.pairs == (SIG.rank * 2 * 2 + 2 * len(extra)) ** 2


# genus 2 and dimension 3, beyond the verify matrix, and dimension 1 everywhere
@pytest.mark.parametrize("genus,punctures,dim,trials", [
    (2, 0, 2, 5), (2, 1, 2, 3), (1, 1, 3, 3),
    (1, 0, 1, 3), (0, 1, 1, 3), (0, 2, 1, 3), (1, 1, 1, 3), (2, 0, 1, 3), (2, 1, 1, 3),
])
def test_pointwise_agreement_beyond_the_verify_matrix(genus, punctures, dim, trials):
    rep = compare_constructions(SurfaceSignature(genus, punctures), dim, trials, seed=7)
    assert rep.ok, rep.witness
    assert rep.points == trials


# inverse-heavy word pairs at dims 4 to 6, one signature per dim
@pytest.mark.parametrize("genus,punctures,dim,words", [
    (2, 1, 4, ("p1^-1*q2^-1*z1^-1*p2*q1^-1", "z1^-2*q1^-1*p2^-1*p1")),
    (0, 3, 5, ("z1^-1*z3^-1*z2^-2*z1", "z2^-1*z3*z1^-1*z3^-1")),
    (1, 1, 6, ("p1^-1*q1^-1*z1^-1*p1^-1*q1", "q1^-2*z1^-1*p1*z1^-1")),
])
def test_pointwise_agreement_on_inverse_heavy_words_at_high_dim(genus, punctures, dim, words):
    sig = SurfaceSignature(genus, punctures)
    a, b = (parse_word(text, sig) for text in words)
    rep = compare_constructions(sig, dim, 1, seed=7, extra_words=[(a, b)])
    assert rep.ok, rep.witness
    assert rep.pairs == (sig.rank * dim * dim + 2) ** 2


# the fixed 9/11-letter pair of the word-pair timing; it took 0.012 s on a
# 2-core x86_64 VM with Python 3.11, against minutes when word entries were
# built and differentiated symbolically
NINE_ELEVEN_BUDGET_S = 1.0


@pytest.mark.slow
def test_a_nine_and_eleven_letter_pair_at_dim_three_within_budget():
    a = w("p1*q1^-1*z1*p1^-1*q1*z1^-1*p1*q1*z1^-1")
    b = w("q1*z1^-1*p1*q1*z1*p1^-1*z1*q1^-1*p1*z1*q1^-1")
    assert (len(a), len(b)) == (9, 11)
    start = time.perf_counter()
    rep = compare_constructions(SIG, 3, 1, seed=7, extra_words=[(a, b)])
    elapsed = time.perf_counter() - start
    assert rep.ok, rep.witness
    assert elapsed < NINE_ELEVEN_BUDGET_S, f"{elapsed:.3f} s"


# the walk dots each row's K with the other coordinates' nonzero fields
# only; (1,1) at dim 12 took 0.60 s on a 2-core x86_64 VM with Python
# 3.11, against 5.8 s for the dense dot
DIM_TWELVE_BUDGET_S = 2.0


@pytest.mark.slow
def test_pointwise_check_at_dim_twelve_within_budget():
    start = time.perf_counter()
    rep = compare_constructions(SIG, 12, 1, seed=7)
    elapsed = time.perf_counter() - start
    assert rep.ok, rep.witness
    assert rep.pairs == (SIG.rank * 144) ** 2
    assert elapsed < DIM_TWELVE_BUDGET_S, f"{elapsed:.3f} s"


def test_genus_two_needs_the_fusion_coupling():
    from surfqp.suites import aksm_suite
    report = aksm_suite(SurfaceSignature(2, 1), 2, 1, 7, extra_word_pairs=0)
    assert [c.name for c in report.checks] == ["pointwise-agreement",
                                               "fusion-coupling-required"]
    assert report.ok


def test_compare_constructions_passes():
    for (g, m) in [(1, 0), (0, 1), (0, 2), (1, 1)]:
        rep = compare_constructions(SurfaceSignature(g, m), 2, trials=2, seed=11)
        assert rep.ok, rep.witness


def test_dropping_coupling_fails():
    sig = SurfaceSignature(0, 2)
    nofuse = build_fusion_bivector(sig, 2, with_fusion_terms=False)
    rep = compare_constructions(sig, 2, trials=2, seed=11, biv=nofuse)
    assert not rep.ok
    left_gen = rep.witness["left"][0]
    right_gen = rep.witness["right"][0]
    assert {left_gen[0], right_gen[0]} == {"z"} and left_gen != right_gen


def test_symbolic_agreement_torus_and_annulus():
    for (g, m) in [(1, 0), (0, 1)]:
        sig = SurfaceSignature(g, m)
        alg = RepAlgebra(sig, 2)
        biv = build_fusion_bivector(sig, 2)
        for u in range(sig.rank):
            for v in range(sig.rank):
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            for l in range(2):
                                lhs = alg.qp_bracket(alg.sym(u, i, j), alg.sym(v, k, l))
                                on_p, on_q = (
                                    fields_sym(alg, biv, alg.entry(Word.generator(x), a + 1, b + 1))
                                    for x, a, b in ((u, i, j), (v, k, l)))
                                rhs = wedge_sym(alg, covector_sym(biv, on_p), on_q)
                                assert lhs == rhs


def test_pointwise_group_equivariance():
    rng = random.Random(6)
    for _ in range(10):
        while True:
            g = mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            if mat_det(g):
                break
        pt = point(rng)
        ginv = mat_inv(g)
        moved = RepPoint(tuple(mat_mul(mat_mul(ginv, m), g) for m in pt.matrices))
        P = ALG.entry(sample_word(rng, SIG, 3), rng.randint(1, 2), rng.randint(1, 2))
        assert evaluate(ALG.group_action(g, P), pt) == evaluate(P, moved)


def test_fusion_coupling_search_passes_a_degenerate_point():
    # the first point at this seed has z1 = -I, where the fusion terms vanish
    from surfqp.suites import aksm_suite
    report = aksm_suite(SurfaceSignature(1, 1), 2, 1, 64000, extra_word_pairs=0)
    check = next(c for c in report.checks if c.name == "fusion-coupling-required")
    assert check.ok


def test_fusion_coupling_search_walks_each_point_once(monkeypatch):
    # one walk for both checks: point 0 serves the pointwise check and the
    # search (degenerate there), and the search stops at point 1 (the witness)
    from surfqp.suites import aksm_suite
    seen = []
    word_matrices = evaluation._word_matrices

    def counted(pt, dim, ws):
        seen.append(pt.matrices)
        return word_matrices(pt, dim, ws)

    monkeypatch.setattr(evaluation, "_word_matrices", counted)
    sig = SurfaceSignature(1, 1)
    report = aksm_suite(sig, 2, 1, 64000)
    assert report.ok
    first, second = (sample_rep_point(trial_rng(64000, "aksm", k), sig, 2).matrices
                     for k in range(2))
    assert seen == [first, second]


def test_aksm_cell_builds_one_derivation_side(monkeypatch):
    # the pointwise check and the fusion-coupling search share point 0: one
    # Fox gradient, one set of fields and one flat vector per generator
    # entry, one set of word matrices and one bracket matrix, where two
    # separate walks would build each twice; nothing is differentiated
    # symbolically.  Each plan builds its fold table once, and folds a row's
    # covector only when its walk reaches the row: all 12 rows for the fused
    # plan, and up to the witness's row for the plan without fusion terms
    from surfqp.suites import aksm_suite
    sig = SurfaceSignature(1, 1)
    nofuse = build_fusion_bivector(sig, 2, with_fusion_terms=False)
    witness = compare_constructions(sig, 2, 1, 7, biv=nofuse)
    assert not witness.ok and witness.points == 1
    witness_row = (witness.pairs - 1) // 12 + 1
    calls = {"differential": 0, "fox": 0, "fields": 0, "flat": 0, "words": 0, "bracket": 0}
    tables, rows = [], []

    def counted(name, f):
        def inner(*args):
            calls[name] += 1
            return f(*args)
        return inner

    def counted_folds(biv):
        tables.append(folds(biv))
        return tables[-1]

    def counted_covector(table, flat):
        rows.append(next(n for n, t in enumerate(tables) if t is table))
        return covector(table, flat)

    monkeypatch.setattr(RepAlgebra, "differential",
                        counted("differential", RepAlgebra.differential))
    for name, attr in (("fox", "_fox_gradient"), ("fields", "_fields"), ("flat", "_flat"),
                       ("words", "_word_matrices"), ("bracket", "_bracket_matrix")):
        monkeypatch.setattr(evaluation, attr, counted(name, getattr(evaluation, attr)))
    folds, covector = evaluation._folds, evaluation._covector
    monkeypatch.setattr(evaluation, "_folds", counted_folds)
    monkeypatch.setattr(evaluation, "_covector", counted_covector)
    report = aksm_suite(sig, 2, 1, 7, extra_word_pairs=0)
    assert report.ok and [c.name for c in report.checks] == ["pointwise-agreement",
                                                             "fusion-coupling-required"]
    assert calls == {"differential": 0, "fox": 12, "fields": 12, "flat": 12, "words": 1,
                     "bracket": 1}
    assert len(tables) == 2 and witness_row < 12
    assert rows == [0] * 12 + [1] * witness_row


# seed 64000's point 0 is degenerate (z1 = -I), so the search fails at point 1
@pytest.mark.parametrize("seed_", [7, 64000])
def test_two_plan_walk_is_two_one_plan_walks(seed_):
    extra = [(w("p1*q1^-1"), w("z1^-1*p1"))]
    fused, nofuse = (build_fusion_bivector(SIG, 2, with_fusion_terms=f) for f in (True, False))
    for plans in ([(fused, 3), (nofuse, 3)], [(nofuse, 2), (fused, 1)], [(nofuse, 3)] * 2):
        got = compare_bivectors(SIG, 2, seed_, plans, extra_words=extra)
        want = [compare_constructions(SIG, 2, trials, seed_, extra_words=extra, biv=biv)
                for biv, trials in plans]
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in got] == \
            [json.dumps(r.to_dict(), sort_keys=True) for r in want]
        assert any(not r.ok and r.witness for r in got)
    assert compare_bivectors(SIG, 2, seed_, []) == []
    with pytest.raises(ValueError, match="got trials=0"):
        compare_bivectors(SIG, 2, seed_, [(fused, 2), (nofuse, 0)])
    with pytest.raises(ValueError, match="bivector built for"):
        compare_bivectors(SIG, 2, seed_, [(fused, 2), (build_fusion_bivector(SIG, 3), 1)])


def dense_walk(sig, dim, seed_, biv, trials, extra_words):
    """compare_constructions' report as a dict, by the walk that dotted each
    row's K, from the term-by-term fold, with every coordinate's whole flat
    vector, zeros and all."""
    coords = [(Word.generator(u), i, j)
              for u in range(sig.rank) for i in range(1, dim + 1) for j in range(1, dim + 1)]
    coords += [c for wa, wb in extra_words for c in ((wa, 1, dim), (wb, dim, 1))]
    corners, n = corner_table(sig, SurfaceDoubleBracket.CORNERS), len(coords)
    for k in range(trials):
        pt = sample_rep_point(trial_rng(seed_, "aksm", k), sig, dim)
        at = evaluation._word_matrices(pt, dim, (v for v, _, _ in coords))
        B = evaluation._bracket_matrix(corners, coords, at)
        scales = [at[v][0] for v, _, _ in coords]
        covs = [reference_fold(biv, _fields(evaluation._fox_gradient(v, i, j, at[v], pt.dets), pt))
                for v, i, j in coords]
        for x in range(n):
            ea, K, _ = covs[x]
            for y, (eb, _, f) in enumerate(covs):
                dot = sum(map(mul, K, f))
                if B[x][y] * ea * eb == dot * scales[x] * scales[y]:
                    continue
                (wa, *a), (wb, *b) = coords[x], coords[y]
                return {"ok": False, "points": k + 1, "pairs": x * n + y + 1, "seed": seed_,
                        "witness": {
                            "point_index": k,
                            "point": [[[str(v) for v in row] for row in m] for m in pt.matrices],
                            "left": [format_word(wa, sig), *a],
                            "right": [format_word(wb, sig), *b],
                            "bracket_value": str(Fraction(B[x][y], scales[x] * scales[y])),
                            "bivector_value": str(Fraction(dot, ea * eb))}}
    return {"ok": True, "points": trials, "pairs": n * n, "seed": seed_}


SPARSE_WALK_WORDS = {
    (1, 0): ("p1^-1*q1", "q1^-1*p1^-1"), (0, 2): ("z1^-1*z2", "z2^-2"),
    (1, 1): ("p1^-1*z1", "q1*z1^-1"), (0, 3): ("z3^-1*z1*z2^-1", "z2^-1*z3"),
    (2, 1): ("q2^-1*p1*z1^-1", "p2^-1*q1^-1"),
}


@pytest.mark.parametrize("genus,punctures", sorted(SPARSE_WALK_WORDS))
def test_sparse_walk_reports_what_the_dense_walk_reports(genus, punctures):
    # the walk reads each coordinate's nonzero fields only; its reports,
    # witness and pair number included, are those of the dense dot, with
    # and without the fusion terms, at dims 1 to 4
    sig = SurfaceSignature(genus, punctures)
    extra = [tuple(w(text, sig) for text in SPARSE_WALK_WORDS[genus, punctures])]
    failed = 0
    for dim in (1, 2, 3, 4):
        plans = [(build_fusion_bivector(sig, dim, with_fusion_terms=f), 2) for f in (True, False)]
        got = compare_bivectors(sig, dim, 7, plans, extra_words=extra)
        want = [dense_walk(sig, dim, 7, biv, trials, extra) for biv, trials in plans]
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in got] == \
            [json.dumps(r, sort_keys=True) for r in want]
        assert got[0].ok
        failed += not got[1].ok
    # without the fusion terms every dim past 1 has a witness on two or more factors
    assert failed == (3 if genus + punctures >= 2 else 0)


# unchecked, a bivector for another dim, or for another surface of the same
# rank, gives a false witness at the first generator pair, and one of a
# larger rank a bare KeyError
@pytest.mark.parametrize("genus,punctures,dim", [(1, 1, 3), (0, 2, 2), (2, 1, 2)])
def test_a_bivector_for_another_surface_or_dim_is_refused(genus, punctures, dim):
    other = SurfaceSignature(genus, punctures)
    with pytest.raises(ValueError) as info:
        compare_constructions(SIG, 2, 1, 7, biv=build_fusion_bivector(other, dim))
    assert str(info.value) == f"bivector built for {other} at dim {dim}, not for {SIG} at dim 2"


def dense_fields(coord, pt):
    """_fields of the entry coord without the zero-block shortcut: m^T G,
    -G m^T and their sum on every slot, as lists of rows."""
    den, grads = fox_gradient(*coord, pt, 2)
    out = {}
    for u, G in enumerate(grads):
        mt = tuple(zip(*pt.matrices[u]))
        left = [list(row) for row in mat_mul(mt, G)]
        right = [[-v for v in row] for row in mat_mul(G, mt)]
        out[u, L], out[u, R] = left, right
        out[u, CONJ] = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(left, right)]
    return den, out


def test_fields_are_the_dense_formula_on_every_slot():
    # generator entries (one nonzero slot), word entries (several), entries
    # over a determinant, and a constant (none)
    coords = [(Word.generator(u), i, j) for u in range(SIG.rank) for i in (1, 2) for j in (1, 2)]
    coords += [(w(text), i, j) for text in ("p1*q1^-1", "z1^-1*p1*q1")
               for i, j in ((1, 1), (2, 1))]
    coords += [(w("z1^-1"), 2, 1), (w("q1^-1*p1"), 1, 2), (Word.identity(), 1, 1)]
    rng = random.Random(23)
    for pt in [point(rng) for _ in range(3)] + [RepPoint(tuple(map(mat, RATIONAL_MATRICES)))]:
        for c in coords:
            D, fields = _fields(fox_gradient(*c, pt, 2), pt)
            want_D, want = dense_fields(c, pt)
            assert D == want_D and fields.keys() == want.keys()
            assert {key: [list(row) for row in m] for key, m in fields.items()} == want


def test_generator_entry_fields_multiply_one_block(monkeypatch):
    # a generator entry's gradient is nonzero in one slot, so its fields
    # take two products there and none on the other slots
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    gradients = [fox_gradient(Word.generator(u), 2, 1, point(), 2) for u in range(SIG.rank)]
    constant = fox_gradient(Word.identity(), 1, 1, point(), 2)
    monkeypatch.setattr(evaluation, "mat_mul", counted)
    for gradient in gradients:
        calls.clear()
        _fields(gradient, point())
        assert len(calls) == 2
    calls.clear()
    _fields(constant, point())
    assert calls == []
