"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  All comparisons are exact rational identities; the only numeric
parameters are trial counts, seeds and the stated wall-clock budgets.
Run with -s to see the lines.
"""

import json
import time
from pathlib import Path

from surfqp.algebra import AlgElem, Tensor2, m3
from surfqp.dbracket import (SurfaceDoubleBracket, angle, dbl_from_pairing,
                             is_quasi_poisson, triple, triple_e)
from surfqp.evaluation import compare_constructions
from surfqp.foxpairing import SurfaceFoxPairing
from surfqp.repalgebra import RepAlgebra
from surfqp.suites import (AKSM_SIGNATURES, FOX_SIGNATURES, MOMENT_SIGNATURES,
                           QP_SIGNATURES, aksm_suite, double_suite, fox_suite,
                           moment_suite, quasi_poisson_suite, rep_suite, run_all)
from surfqp.words import SurfaceSignature, Word, parse_word, sample_word, trial_rng

SEED = 20240812

# run_all(seed=SEED, trials=3, max_len=3), recorded before the Hamiltonian
# split of the representation bracket and the folded pointwise oracle
VERIFY_ALL_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "verify_all_golden.json").read_text())


def report(num: int, ok: bool, text: str, elapsed: float, bound: float | None):
    budget = f" [{elapsed:.1f}s" + (f" of {bound:.0f}s]" if bound else "]")
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}{budget}")
    assert ok, f"criterion {num} failed: {text}"
    if bound is not None:
        assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.1f}s)"


def test_criterion_01_fox_suite():
    t0 = time.time()
    ok = True
    for (g, m) in FOX_SIGNATURES:
        rep = fox_suite(SurfaceSignature(g, m), trials=200, seed=SEED)
        ok = ok and rep.ok
    report(1, ok, "Fox rules and transpose identity, 200 pairs x 5 signatures",
           time.time() - t0, 10.0)


def test_criterion_02_double_cross_oracle():
    t0 = time.time()
    ok = True
    for (g, m) in FOX_SIGNATURES:
        rep = double_suite(SurfaceSignature(g, m), trials=200, seed=SEED)
        ok = ok and rep.ok
    report(2, ok, "table route equals pairing route, 200 pairs x 5 signatures",
           time.time() - t0, 30.0)


def test_criterion_03_displayed_tables():
    t0 = time.time()
    sig = SurfaceSignature(2, 2)
    dbl = SurfaceDoubleBracket(sig)
    eta = SurfaceFoxPairing(sig)
    one = Word.identity()
    w = lambda s: parse_word(s, sig)
    t2 = lambda a, b, c=1: Tensor2({(w(a), w(b)): c})
    ok = True

    # bracket of the unskewed pairing on generators
    unskewed = {
        ("p1", "q1"): t2("q1", "p1"),
        ("p1", "p1"): t2("p1", "p1") - t2("1", "p1^2"),
        ("q1", "q1"): t2("q1", "q1") - t2("q1^2", "1"),
        ("z1", "z1"): t2("z1", "z1") - t2("1", "z1^2"),
        ("z1", "z2"): Tensor2.zero(),
        ("p1", "p2"): Tensor2.zero(),
        ("p1", "q2"): Tensor2.zero(),
        ("q1", "p2"): Tensor2.zero(),
        ("q1", "q2"): Tensor2.zero(),
        ("p1", "z1"): Tensor2.zero(),
        ("q1", "z2"): Tensor2.zero(),
    }
    for (a, b), want in unskewed.items():
        ok = ok and dbl_from_pairing(eta, w(a), w(b)) == want

    # skew-symmetrized values on generators
    skewed = {
        ("z1", "z1"): t2("z1^2", "1") - t2("1", "z1^2"),
        ("p1", "p1"): t2("p1^2", "1") - t2("1", "p1^2"),
        ("q1", "q1"): t2("1", "q1^2") - t2("q1^2", "1"),
        ("p1", "q1"): t2("1", "p1*q1") + t2("q1*p1", "1") - t2("p1", "q1") + t2("q1", "p1"),
    }
    for a, b in [("z1", "z2"), ("p1", "p2"), ("p1", "q2"), ("q1", "p2"), ("q1", "q2"),
                 ("p1", "z1"), ("p1", "z2"), ("q1", "z1"), ("q1", "z2"),
                 ("p2", "z1"), ("q2", "z2")]:
        skewed[(a, b)] = (t2("1", f"{a}*{b}") + Tensor2({(w(b) * w(a), one): 1})
                          - t2(a, b) - t2(b, a))
    for (a, b), want in skewed.items():
        ok = ok and dbl(w(a), w(b)) == want

    # the coordinate formulas at dimension 2, every index combination
    alg = RepAlgebra(sig, 2, dbl)
    idx = [(i, j, k, l) for i in range(2) for j in range(2)
           for k in range(2) for l in range(2)]

    def D(u, v, i, j, k, l, last_sign):
        x, y = Word.generator(u), Word.generator(v)
        out = alg.zero()
        if k == j:
            out = out + alg.entry(x * y, i + 1, l + 1)
        if i == l:
            out = out + alg.entry(y * x, k + 1, j + 1)
        out = out - alg.sym(u, k, j) * alg.sym(v, i, l)
        out = out + alg.sym(v, k, j).scale(last_sign) * alg.sym(u, i, l)
        return out

    def Dsame(u, i, j, k, l, sign):
        sq = Word.generator(u) * Word.generator(u)
        out = alg.zero()
        if i == l:
            out = out + alg.entry(sq, k + 1, j + 1).scale(sign)
        if k == j:
            out = out - alg.entry(sq, i + 1, l + 1).scale(sign)
        return out

    families = []
    families += [((4, 5), -1)]                      # two distinct z letters
    families += [((0, 2), -1), ((0, 3), -1), ((1, 2), -1), ((1, 3), -1)]  # handles u<v
    families += [((0, 1), +1), ((2, 3), +1)]        # same-handle pairs
    families += [((0, 4), -1), ((1, 5), -1)]        # handle letter against z
    for (u, v), sign in families:
        for (i, j, k, l) in idx:
            got = alg.qp_bracket(alg.sym(u, i, j), alg.sym(v, k, l))
            ok = ok and got == D(u, v, i, j, k, l, sign)
    for u, sign in [(4, +1), (0, +1), (1, -1)]:     # z, p, q against themselves
        for (i, j, k, l) in idx:
            got = alg.qp_bracket(alg.sym(u, i, j), alg.sym(u, k, l))
            ok = ok and got == Dsame(u, i, j, k, l, sign)

    report(3, ok, "all displayed generator values reproduced at both levels",
           time.time() - t0, None)


def test_criterion_04_quasi_poisson():
    t0 = time.time()
    ok = True
    for (g, m) in QP_SIGNATURES:
        sig = SurfaceSignature(g, m)
        rep = is_quasi_poisson(SurfaceDoubleBracket(sig), sig, trials=100,
                               seed=SEED, max_len=4)
        ok = ok and rep.ok
    report(4, ok, "triple bracket equals canonical one, 100 triples x 3 signatures",
           time.time() - t0, 60.0)


def test_criterion_05_quasi_jacobi():
    t0 = time.time()
    ok = True
    for (g, m) in ((1, 0), (0, 2)):
        sig = SurfaceSignature(g, m)
        for dim in (1, 2):
            alg = RepAlgebra(sig, dim)
            for t in range(50):
                rng = trial_rng(SEED, f"acc5:{g}:{m}:{dim}", t)
                P, Q, R = (alg.sym(rng.randrange(sig.rank), rng.randrange(dim),
                                   rng.randrange(dim)) for _ in range(3))
                lhs = (alg.qp_bracket(P, alg.qp_bracket(Q, R))
                       + alg.qp_bracket(Q, alg.qp_bracket(R, P))
                       + alg.qp_bracket(R, alg.qp_bracket(P, Q)))
                ok = ok and lhs == alg.phi_action(P, Q, R)
    report(5, ok, "cyclic Jacobi sum equals trivector term, dims 1 and 2",
           time.time() - t0, 120.0)


def test_criterion_05_quasi_jacobi_dim3():
    t0 = time.time()
    ok = True
    for (g, m) in ((1, 0), (0, 2)):
        sig = SurfaceSignature(g, m)
        alg = RepAlgebra(sig, 3)
        for t in range(10):
            rng = trial_rng(SEED, f"acc5s:{g}:{m}", t)
            P, Q, R = (alg.sym(rng.randrange(sig.rank), rng.randrange(3),
                               rng.randrange(3)) for _ in range(3))
            lhs = (alg.qp_bracket(P, alg.qp_bracket(Q, R))
                   + alg.qp_bracket(Q, alg.qp_bracket(R, P))
                   + alg.qp_bracket(R, alg.qp_bracket(P, Q)))
            ok = ok and lhs == alg.phi_action(P, Q, R)
    report(5, ok, "dimension-3 quasi-Jacobi", time.time() - t0, None)


def test_criterion_06_equivariance():
    from fractions import Fraction
    from surfqp.matrices import mat, mat_det
    t0 = time.time()
    sig = SurfaceSignature(1, 1)
    alg = RepAlgebra(sig, 2)
    ok = True
    for t in range(50):
        rng = trial_rng(SEED, "acc6", t)
        P = alg.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        Q = alg.sym(rng.randrange(3), rng.randrange(2), rng.randrange(2))
        wmat = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        lhs = alg.gl_action(wmat, alg.qp_bracket(P, Q))
        rhs = (alg.qp_bracket(alg.gl_action(wmat, P), Q)
               + alg.qp_bracket(P, alg.gl_action(wmat, Q)))
        ok = ok and lhs == rhs
        while True:
            g = mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            if mat_det(g):
                break
        ok = ok and alg.group_action(g, alg.qp_bracket(P, Q)) == \
            alg.qp_bracket(alg.group_action(g, P), alg.group_action(g, Q))
    report(6, ok, "Lie-derivation and conjugation equivariance, 50 trials",
           time.time() - t0, None)


def test_criterion_07_trace_homomorphism():
    from surfqp.dbracket import goldman
    from surfqp.words import CyclicWord
    t0 = time.time()
    sig = SurfaceSignature(1, 1)
    dbl = SurfaceDoubleBracket(sig)
    ok = True
    for dim in (1, 2):
        alg = RepAlgebra(sig, dim, dbl)
        for t in range(50):
            rng = trial_rng(SEED, f"acc7:{dim}", t)
            a, b = sample_word(rng, sig, 3), sample_word(rng, sig, 3)
            lhs = alg.qp_bracket(alg.trace(a), alg.trace(b))
            gold = goldman(dbl, CyclicWord.of(a), CyclicWord.of(b))
            ok = ok and lhs == alg.trace(gold).scale(2)
    report(7, ok, "trace bracket is twice the Goldman bracket, 50 pairs x dims 1,2",
           time.time() - t0, None)


def test_criterion_08_rank_one_closed_form():
    t0 = time.time()
    sig = SurfaceSignature(2, 1)
    alg = RepAlgebra(sig, 1)
    inter = {(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): -1}
    ok = True
    for i in range(sig.rank):
        for j in range(sig.rank):
            x, y = Word.generator(i), Word.generator(j)
            got = alg.qp_bracket(alg.entry(x, 1, 1), alg.entry(y, 1, 1))
            want = alg.entry(x * y, 1, 1).scale(2 * inter.get((i, j), 0))
            ok = ok and got == want
    report(8, ok, "abelianized bracket is twice intersection number times product",
           time.time() - t0, None)


def test_criterion_09_moment_map():
    t0 = time.time()
    ok = True
    for (g, m) in MOMENT_SIGNATURES:
        rep = moment_suite(SurfaceSignature(g, m), dim=2, powers=(1, 2, 3),
                           trials=5, seed=SEED)
        ok = ok and rep.ok
    report(9, ok, "moment shape and power formulas for the boundary word, 3 signatures",
           time.time() - t0, None)


def test_criterion_09_moment_derivation_route_deep():
    # the partial-derivative bracket on entries of the full cubed boundary
    # word, including the fifteen-letter case; the default suite certifies
    # that cell through the defining bracket route plus the exact tensor
    # identity
    t0 = time.time()
    ok = True
    for (g, m) in MOMENT_SIGNATURES:
        rep = moment_suite(SurfaceSignature(g, m), dim=2, powers=(1, 2, 3),
                           trials=5, seed=SEED, deep=True)
        ok = ok and rep.ok
    report(9, ok, "derivation-route moment check on longer powers (deep leg)",
           time.time() - t0, None)


def test_criterion_10_aksm_equivalence():
    t0 = time.time()
    ok = True
    for (g, m) in AKSM_SIGNATURES:
        rep = aksm_suite(SurfaceSignature(g, m), dim=2, trials=20, seed=SEED)
        ok = ok and rep.ok
    report(10, ok, "fused bivector equals the bracket: 20 points x 4 signatures, "
           "symbolic on the one-handle and one-annulus surfaces",
           time.time() - t0, 10.0)


def test_criterion_11_single_bracket_defect():
    t0 = time.time()
    sig = SurfaceSignature(1, 1)
    dbl = SurfaceDoubleBracket(sig)
    ok = True
    for t in range(100):
        rng = trial_rng(SEED, "acc11", t)
        a, b, c = (sample_word(rng, sig, 3) for _ in range(3))
        lhs = (angle(dbl, angle(dbl, a, b), c)
               - angle(dbl, a, angle(dbl, b, c))
               + angle(dbl, b, angle(dbl, a, c)))
        ok = ok and lhs == m3(triple(dbl, b, a, c) - triple(dbl, a, b, c))
    report(11, ok, "nested single brackets match the triple-bracket defect, 100 triples",
           time.time() - t0, None)


def test_criterion_12_determinism():
    t0 = time.time()
    first = json.dumps(run_all(seed=SEED, trials=3, max_len=3), sort_keys=True)
    second = json.dumps(run_all(seed=SEED, trials=3, max_len=3), sort_keys=True)
    golden = json.dumps(VERIFY_ALL_GOLDEN, sort_keys=True)
    ok = first == second == golden and VERIFY_ALL_GOLDEN["ok"]
    report(12, ok, "the full verification matrix replays byte-identically and matches "
           "the recorded golden report",
           time.time() - t0, None)
