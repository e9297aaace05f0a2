"""The surface Fox pairing: generator values, Fox rules, transpose, skewing.

The base values are regression fixtures.  They were derived by requiring
that the group-like bracket formula

    val = sum c_u u   |->   sum c_u (b u^-1 a) (x) u

reproduces the displayed generator brackets; test_base_values_solve_displays
re-runs that derivation, and the remaining tests freeze its output.
"""

import random
from fractions import Fraction

from surfqp.algebra import AlgElem, Tensor2
from surfqp.foxpairing import SurfaceFoxPairing, inner_pairing, rho_1, transpose_apply
from surfqp.words import SurfaceSignature, Word, parse_word, sample_word

SIG = SurfaceSignature(2, 2)
ETA = SurfaceFoxPairing(SIG)


def w(text, sig=SIG):
    return parse_word(text, sig)


def e(text, sig=SIG):
    return AlgElem.from_word(w(text, sig))


def group_like_bracket(val: AlgElem, a: Word, b: Word) -> Tensor2:
    """The pairing-to-bracket formula specialized to group-like arguments."""
    out = Tensor2.zero()
    for u, c in val.items():
        out = out + Tensor2({(b * u.inverse() * a, u): c})
    return out


def test_base_values_solve_displays():
    # the displayed generator brackets of the unskewed pairing
    p, q, z = w("p1"), w("q1"), w("z1")
    one = Word.identity()
    cases = [
        (p, q, Tensor2({(q, p): 1})),
        (p, p, Tensor2({(p, p): 1, (one, p * p): -1})),
        (q, q, Tensor2({(q, q): 1, (q * q, one): -1})),
        (z, z, Tensor2({(z, z): 1, (one, z * z): -1})),
        (w("z1"), w("z2"), Tensor2.zero()),
        (p, w("q2"), Tensor2.zero()),
        (p, z, Tensor2.zero()),
    ]
    for a, b, display in cases:
        assert group_like_bracket(ETA(a, b), a, b) == display


def test_base_fixtures():
    assert ETA(w("p1"), w("q1")) == e("p1")
    assert ETA(w("p1"), w("p1")) == e("p1") - e("p1^2")
    assert ETA(w("q1"), w("q1")) == e("q1") - AlgElem.one()
    assert ETA(w("z1"), w("z2")) == AlgElem.zero()
    assert ETA(w("z1"), w("z1")) == e("z1") - e("z1^2")


def test_unit_annihilation():
    rng = random.Random(0)
    for _ in range(20):
        a = sample_word(rng, SIG, 4)
        assert ETA(Word.identity(), a).is_zero()
        assert ETA(a, Word.identity()).is_zero()


def test_eta_fixtures():
    # transpose route: the value on a pair below the diagonal
    assert ETA(w("q1"), w("p1")) == e("p1") - e("q1*p1") - AlgElem.one()
    # left product rule applied once
    assert ETA(w("p1^2"), w("q1")) == e("p1") + e("p1^2")


def test_inner_pairing():
    assert rho_1(w("p1"), w("q1")) == \
        e("p1*q1") - e("p1") - e("q1") + AlgElem.one()
    assert inner_pairing(e("z1"), AlgElem.one(), e("q1")).is_zero()
    rng = random.Random(1)
    for _ in range(20):
        ee = sample_word(rng, SIG, 3)
        a1, a2, b = (sample_word(rng, SIG, 3) for _ in range(3))
        lhs = inner_pairing(ee, AlgElem.from_word(a1) + AlgElem.from_word(a2), b)
        assert lhs == inner_pairing(ee, a1, b) + inner_pairing(ee, a2, b)


def test_transpose_of_inner_is_inner_of_antipode():
    rng = random.Random(2)
    for _ in range(30):
        ee = sample_word(rng, SIG, 3)
        a, b = sample_word(rng, SIG, 3), sample_word(rng, SIG, 3)
        rho = lambda x, y: inner_pairing(AlgElem.from_word(ee), x, y)
        lhs = transpose_apply(rho, a, b)
        assert lhs == inner_pairing(AlgElem.from_word(ee.inverse()), a, b)


def test_double_transpose_is_identity():
    rng = random.Random(3)
    once = lambda x, y: transpose_apply(ETA, x, y)
    for _ in range(30):
        a, b = sample_word(rng, SIG, 4), sample_word(rng, SIG, 4)
        assert transpose_apply(once, a, b) == ETA(a, b)


def test_transpose_fixture():
    # transpose of the pairing at (p1, q1), checked against -eta - rho_1
    got = transpose_apply(ETA, w("p1"), w("q1"))
    assert got == -e("p1*q1") + e("q1") - AlgElem.one()
    assert got == -ETA(w("p1"), w("q1")) - rho_1(w("p1"), w("q1"))


def test_skew_pairing_fixtures():
    assert ETA.skew(w("p1"), w("q1")) == \
        e("p1") + e("p1*q1") - e("q1") + AlgElem.one()
    assert ETA.skew(AlgElem.one(), e("q1*z1")).is_zero()
    assert ETA.skew(w("z1"), w("z2")) == \
        e("z1*z2") - e("z1") - e("z2") + AlgElem.one()


def test_fox_rules_random():
    rng = random.Random(4)
    for _ in range(150):
        a, b, c = (sample_word(rng, SIG, 4) for _ in range(3))
        A, B, C = (AlgElem.from_word(x) for x in (a, b, c))
        assert ETA(A * B, c) == ETA(a, c) + A * ETA(b, c)
        assert ETA(a, B * C) == ETA(a, b) * C + ETA(a, c)


def test_transpose_sum_is_minus_inner():
    rng = random.Random(5)
    for _ in range(150):
        a, b = sample_word(rng, SIG, 4), sample_word(rng, SIG, 4)
        assert ETA(a, b) + transpose_apply(ETA, a, b) == -rho_1(a, b)


def test_skew_pairing_is_skew():
    rng = random.Random(6)
    for _ in range(100):
        a, b = sample_word(rng, SIG, 4), sample_word(rng, SIG, 4)
        assert transpose_apply(ETA.skew, a, b) == -ETA.skew(a, b)


def test_well_defined_across_factorizations():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (sample_word(rng, SIG, 3) for _ in range(3))
        target = sample_word(rng, SIG, 3)
        left = ETA(AlgElem.from_word(a) * (AlgElem.from_word(b) * AlgElem.from_word(c)), target)
        right = ETA((AlgElem.from_word(a) * AlgElem.from_word(b)) * AlgElem.from_word(c), target)
        assert left == right


def test_bilinearity():
    rng = random.Random(8)
    for _ in range(30):
        a, b, c = (sample_word(rng, SIG, 3) for _ in range(3))
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = ETA(AlgElem.from_word(a, k) + AlgElem.from_word(b), c)
        assert lhs == ETA(a, c).scale(k) + ETA(b, c)
