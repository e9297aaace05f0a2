"""Group-algebra arithmetic, counit, tensor actions."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from surfqp.algebra import (AlgElem, Tensor2, Tensor3, inner_act, m2, m3, outer_act,
                            permute, tensor2, tensor3)
from surfqp.dbracket import (CyclicAlgElem, SurfaceDoubleBracket, dbl_from_inner,
                             dbl_from_pairing, triple_e)
from surfqp.foxpairing import SurfaceFoxPairing, inner_pairing, rho_1, transpose_apply
from surfqp.poly import Poly, monomial
from surfqp.repalgebra import RepAlgebra
from surfqp.words import CyclicWord, SurfaceSignature, Word, parse_word, sample_word

SIG = SurfaceSignature(1, 1)


def w(text):
    return parse_word(text, SIG)


def e(text):
    return AlgElem.from_word(w(text))


def rand_elem(rng, max_len=3, terms=3):
    out = AlgElem.zero()
    for _ in range(rng.randint(0, terms)):
        out = out + AlgElem.from_word(sample_word(rng, SIG, max_len),
                                      Fraction(rng.randint(-3, 3)))
    return out


def test_product_distributes():
    lhs = (e("p1") + e("q1")) * (e("p1") - e("q1"))
    rhs = e("p1^2") - e("p1*q1") + e("q1*p1") - e("q1^2")
    assert lhs == rhs
    x = e("p1*z1")
    assert AlgElem.one() * x == x
    assert AlgElem.zero() * x == AlgElem.zero()


def test_counit():
    assert (e("p1").scale(2) - e("q1").scale(3)).counit() == -1
    assert AlgElem.one().counit() == 1
    assert (e("p1") - AlgElem.one()).counit() == 0
    rng = random.Random(0)
    for _ in range(50):
        x, y = rand_elem(rng), rand_elem(rng)
        assert (x * y).counit() == x.counit() * y.counit()


def test_permute():
    t = tensor2(e("p1"), e("q1"))
    assert permute(t, (2, 1)) == tensor2(e("q1"), e("p1"))
    t3 = tensor3(e("p1"), e("q1"), e("z1"))
    assert permute(t3, (3, 1, 2)) == tensor3(e("z1"), e("p1"), e("q1"))
    rng = random.Random(3)
    for _ in range(30):
        t3 = tensor3(rand_elem(rng), rand_elem(rng), rand_elem(rng))
        assert permute(permute(permute(t3, (3, 1, 2)), (3, 1, 2)), (3, 1, 2)) == t3
    with pytest.raises(ValueError):
        permute(t, (1, 1))


def test_outer_action():
    t = tensor2(e("p1"), e("q1"))
    assert outer_act(e("z1"), t, e("z1^-1")) == tensor2(e("z1*p1"), e("q1*z1^-1"))
    assert outer_act(AlgElem.one(), t, AlgElem.one()) == t
    rng = random.Random(4)
    for _ in range(20):
        l1, l2, r = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        t = tensor2(rand_elem(rng), rand_elem(rng))
        assert outer_act(l1 + l2, t, r) == outer_act(l1, t, r) + outer_act(l2, t, r)


def test_inner_action():
    t = tensor2(e("p1"), e("q1"))
    assert inner_act(e("z1"), t, e("p1")) == tensor2(e("p1^2"), e("z1*q1"))
    assert inner_act(AlgElem.one(), t, AlgElem.one()) == t
    rng = random.Random(5)
    for _ in range(20):
        l1, l2 = rand_elem(rng), rand_elem(rng)
        t = tensor2(rand_elem(rng), rand_elem(rng))
        lhs = inner_act(l1 * l2, t, AlgElem.one())
        rhs = inner_act(l1, inner_act(l2, t, AlgElem.one()), AlgElem.one())
        assert lhs == rhs


def test_multiplication_maps():
    t3 = tensor3(e("p1"), e("q1"), e("z1"))
    assert m3(t3) == e("p1*q1*z1")
    assert m3(tensor3(AlgElem.one(), AlgElem.one(), AlgElem.one())) == AlgElem.one()
    assert m2(tensor2(e("p1"), e("p1^-1"))) == AlgElem.one()
    rng = random.Random(6)
    for _ in range(20):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert m3(tensor3(a, b, c)) == a * b * c


# --- the shared sparse core --------------------------------------------------

WORDS = st.lists(st.tuples(st.integers(0, SIG.rank - 1), st.sampled_from((1, -1))),
                 max_size=3).map(Word)
MONOMIALS = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(1, 2)),
                     max_size=3).map(lambda pairs: monomial(*pairs))
KEYS = {
    AlgElem: WORDS,
    Tensor2: st.tuples(WORDS, WORDS),
    Tensor3: st.tuples(WORDS, WORDS, WORDS),
    CyclicAlgElem: WORDS.map(CyclicWord.of),
    Poly: MONOMIALS,
}
COEFFS = st.integers(-3, 3).map(Fraction)


def nonzero_coeffs(x) -> bool:
    return all(c != 0 for _, c in x.items())


@seed(20260301)
@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_lincomb_stores_no_zero_coefficient(data):
    cls = data.draw(st.sampled_from(list(KEYS)))
    x, y = (cls(data.draw(st.dictionaries(KEYS[cls], COEFFS, max_size=5))) for _ in range(2))
    k = data.draw(COEFFS)
    results = [x, x + y, x - y, -x, x.scale(k), x.scale(0), k * x, x + y.scale(-1)]
    if cls is AlgElem:
        u = data.draw(WORDS)
        g, gi = AlgElem.from_word(u), AlgElem.from_word(u.inverse())
        # the identity terms of (g + g^-1)(g - g^-1) cancel inside one product
        results += [(g + gi) * (g - gi), x * y - y * x, x * (y - y)]
    if cls is Poly:
        # the cross terms of (x + y)(x - y) cancel inside one product
        results += [(x + y) * (x - y), (x + y) * (x - y) - (x * x - y * y)]
        assert results[-1].is_zero()
    assert all(nonzero_coeffs(r) for r in results)
    assert (x - x).is_zero() and (x + (-x)).is_zero() and x.scale(0).is_zero()
    assert x + y == y + x and x - y == -(y - x)
    assert Tensor2() != Tensor3() and AlgElem.zero() != CyclicAlgElem.zero()
    assert all(x != other(x.terms) for other in KEYS if other is not cls)


# --- int and Fraction coefficients against an all-Fraction reference ----------

def ref_collect(pairs) -> dict:
    """Sum (key, coefficient) pairs in Fractions, dropping zero sums."""
    out: dict = {}
    for k, c in pairs:
        out[k] = out.get(k, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def ref_mul(x: dict, y: dict) -> dict:
    return ref_collect((v * u, cv * cu) for v, cv in x.items() for u, cu in y.items())


def ref_add(x: dict, y: dict) -> dict:
    return ref_collect(list(x.items()) + list(y.items()))


def ref_scale(x: dict, k) -> dict:
    return ref_collect((key, Fraction(k) * c) for key, c in x.items())


SCALARS = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(Fraction),
                    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]))
ELEM_TERMS = st.lists(st.tuples(WORDS, SCALARS.filter(bool)), max_size=4)


def elem_and_ref(pairs):
    x = AlgElem.zero()
    for word, c in pairs:
        x = x + AlgElem.from_word(word, c)
    return x, ref_collect(pairs)


def integral(c) -> bool:
    return Fraction(c).denominator == 1


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_mixed_coefficients_match_fraction_reference(data):
    (x, rx), (y, ry), (z, rz) = (elem_and_ref(data.draw(ELEM_TERMS)) for _ in range(3))
    k = data.draw(SCALARS)
    one = AlgElem.one()
    t = tensor2(x, y)
    rt = ref_collect(((v, u), cv * cu) for v, cv in rx.items() for u, cu in ry.items())
    rt_outer = ref_collect(((v * a, b * u), c * cv * cu) for (a, b), c in rt.items()
                           for v, cv in rz.items() for u, cu in rx.items())
    cases = [
        (x * y, ref_mul(rx, ry)),
        (x + y - z, ref_add(ref_add(rx, ry), ref_scale(rz, -1))),
        (x.scale(k), ref_scale(rx, k)),
        (one.scale(x.counit()), ref_collect([(Word.identity(), sum(rx.values(), Fraction(0)))])),
        (t, rt),
        (t.scale(k) - tensor2(z, x), ref_add(ref_scale(rt, k), ref_scale(
            ref_collect(((v, u), cv * cu) for v, cv in rz.items() for u, cu in rx.items()), -1))),
        (permute(t, (2, 1)), ref_collect(((b, a), c) for (a, b), c in rt.items())),
        (outer_act(z, t, x), rt_outer),
        (m2(outer_act(z, t, x)), ref_collect((a * b, c) for (a, b), c in rt_outer.items())),
        # last, as the one case that brings in a rational
        (x.scale(Fraction(1, 2)) + y.scale(Fraction(1, 2)),
         ref_scale(ref_add(rx, ry), Fraction(1, 2))),
    ]
    for got, want in cases:
        assert got.terms == want
        assert {key: str(c) for key, c in got.items()} == {key: str(c) for key, c in want.items()}
    if all(integral(c) for r in (rx, ry, rz) for c in r.values()) and integral(k):
        # integral data stays in ints: no Fraction is made on the way
        assert all(type(c) is int for got, _ in cases[:-1] for _, c in got.items())


def test_coefficients_are_ints_or_fractions():
    # a str would be parsed as a number, a float would bring in its binary value
    x = e("p1")
    with pytest.raises(TypeError, match="not str"):
        "3" * x
    with pytest.raises(TypeError, match="not float"):
        x.scale(0.1)
    with pytest.raises(TypeError, match="not float"):
        Poly.const(0.5)
    with pytest.raises(TypeError, match="not str"):
        tensor2(w("p1"), w("q1")).scale("1")


def test_sums_are_type_strict():
    # a sum of two kinds of element would key one kind's dict by the other's keys
    x, t = e("p1"), Tensor2({(w("p1"), w("q1")): 1})
    p, c = Poly.const(2), CyclicAlgElem.collect([(CyclicWord.of(w("q1*p1")), 1)])
    for bad in (lambda: x + w("q1"), lambda: AlgElem.one() + Word.generator(0), lambda: t + x,
                lambda: Tensor2() + AlgElem.one(), lambda: p - x, lambda: c + x, lambda: x - c):
        with pytest.raises(TypeError):
            bad()
    assert (x + x).terms == {w("p1"): 2} and (c - c).is_zero()


def test_elem_times_word_is_the_product():
    # past rank 24 the letter codes of z25, z25^-1, z26 are the digits '0', '1', '2':
    # read as scalars they would give 0, x and 2x
    sig = SurfaceSignature(0, 30)
    x = AlgElem.from_word(parse_word("z1", sig)) + AlgElem.from_word(parse_word("z2^-1", sig), 2)
    for text, code in (("z25", "0"), ("z25^-1", "1"), ("z26", "2")):
        word = parse_word(text, sig)
        assert word == code
        assert x * word == x * AlgElem.from_word(word)
        assert x * word == AlgElem.collect((v * word, c) for v, c in x.items())


ETA = SurfaceFoxPairing(SIG)
DBL = SurfaceDoubleBracket(SIG)
REP = RepAlgebra(SIG, 2)
# every consumer of ElemLike, by name: its arity and the map, linear in each slot
ELEM_LIKE_CONSUMERS = {
    "eta": (2, ETA),
    "skew": (2, ETA.skew),
    "rho_1": (2, rho_1),
    "inner_pairing": (3, inner_pairing),
    "transpose_apply": (2, partial(transpose_apply, ETA)),
    "table bracket": (2, DBL),
    "dbl_from_pairing": (2, partial(dbl_from_pairing, ETA.skew)),
    "dbl_from_inner": (3, dbl_from_inner),
    "triple_e": (3, triple_e),
    "tensor2": (2, tensor2),
    "entry": (1, lambda a: REP.entry(a, 1, 2)),
    "trace": (1, REP.trace),
    "qp_bracket_entries": (2, lambda a, b: REP.qp_bracket_entries(a, 1, 2, b, 2, 1)),
}


@pytest.mark.parametrize("name", ELEM_LIKE_CONSUMERS)
def test_a_word_is_its_one_term_element(name):
    """Words, their one-term elements, a mix of the two, and a scaled element
    in the first slot give the same value, scaled by the same factor."""
    arity, f = ELEM_LIKE_CONSUMERS[name]
    rng = random.Random(2701)
    k = Fraction(-3, 2)
    for _ in range(6):
        words = [sample_word(rng, SIG, 3) for _ in range(arity)]
        elems = [AlgElem.from_word(x) for x in words]
        want = f(*words)
        assert f(*elems) == want
        assert f(*elems[:1], *words[1:]) == want
        assert f(*words[:1], *elems[1:]) == want
        assert f(AlgElem.from_word(words[0], k), *words[1:]) == want.scale(k)
