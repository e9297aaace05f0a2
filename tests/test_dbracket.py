"""Double and triple brackets: generator-table fixtures, the two-route
cross-check, the canonical triple bracket, and the Goldman bracket."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from surfqp.algebra import AlgElem, Tensor2, Tensor3, m3, permute, tensor2, tensor3
from surfqp.dbracket import (MEMO_LIMIT, SurfaceDoubleBracket, angle, dbl_from_inner,
                             dbl_from_pairing, goldman,
                             is_quasi_poisson, moment_neg_power_rhs, moment_power_rhs,
                             moment_rhs, project_cyclic, triple, triple_e)
from surfqp.foxpairing import SurfaceFoxPairing, rho_1
from surfqp.suites import ALL_MATRIX
from surfqp.words import (CyclicWord, SurfaceSignature, Word, boundary_word,
                          parse_word, sample_word)

SIG = SurfaceSignature(2, 2)
DBL = SurfaceDoubleBracket(SIG)
ETA = SurfaceFoxPairing(SIG)


def w(text, sig=SIG):
    return parse_word(text, sig)


def e(text, sig=SIG):
    return AlgElem.from_word(w(text, sig))


def t2(s1, s2, coeff=1):
    return Tensor2({(w(s1), w(s2)): coeff})


# --- generator-table fixtures --------------------------------------------

def test_displayed_same_letter_values():
    assert DBL(w("z1"), w("z1")) == t2("z1^2", "1") - t2("1", "z1^2")
    assert DBL(w("p1"), w("p1")) == t2("p1^2", "1") - t2("1", "p1^2")
    assert DBL(w("q1"), w("q1")) == t2("1", "q1^2") - t2("q1^2", "1")


def test_displayed_handle_pair_value():
    assert DBL(w("p1"), w("q1")) == \
        t2("1", "p1*q1") + t2("q1*p1", "1") - t2("p1", "q1") + t2("q1", "p1")


@pytest.mark.parametrize("a,b", [
    ("z1", "z2"), ("p1", "p2"), ("p1", "q2"), ("q1", "p2"), ("q1", "q2"),
    ("p1", "z1"), ("q1", "z2"), ("p2", "z1"),
])
def test_displayed_generic_pairs(a, b):
    want = (t2("1", f"{a}*{b}") + Tensor2({(w(b) * w(a), Word.identity()): 1})
            - t2(a, b) - t2(b, a))
    assert DBL(w(a), w(b)) == want


def test_mixed_pairs_from_skew_are_recorded():
    # values on pairs below the diagonal follow from skew-symmetry; the
    # (q_u, p_v) u < v family is pinned here since no display spells it out
    got = DBL(w("p2"), w("q1"))
    assert got == -permute(DBL(w("q1"), w("p2")), (2, 1))
    assert got == (t2("p2", "q1") + t2("q1", "p2")
                   - t2("q1*p2", "1") - t2("1", "p2*q1"))


def test_units_die():
    rng = random.Random(0)
    for _ in range(10):
        a = sample_word(rng, SIG, 4)
        assert DBL(AlgElem.one(), a).is_zero()
        assert DBL(a, AlgElem.one()).is_zero()


# --- the two routes agree --------------------------------------------------

def test_cross_oracle_random():
    rng = random.Random(1)
    for _ in range(150):
        a, b = sample_word(rng, SIG, 4), sample_word(rng, SIG, 4)
        assert DBL(a, b) == dbl_from_pairing(SurfaceFoxPairing(SIG).skew, a, b)


@st.composite
def inverse_heavy_words(draw, sig, min_len=10, max_len=40):
    """Reduced words of min_len..max_len letters, three in four inverted."""
    letters = []
    for _ in range(draw(st.integers(min_len, max_len))):
        g = draw(st.integers(0, sig.rank - 1))
        e = draw(st.sampled_from((-1, -1, -1, 1)))
        if letters and letters[-1] == (g, -e):
            e = -e  # repeat the previous letter rather than cancel it
        letters.append((g, e))
    return Word(letters)


@seed(20240812)
@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_cross_oracle_long_inverse_heavy_words(data):
    sig = data.draw(st.sampled_from((SurfaceSignature(1, 1), SIG, SurfaceSignature(0, 2))))
    a = data.draw(inverse_heavy_words(sig))
    b = data.draw(inverse_heavy_words(sig))
    assert 10 <= len(a) <= 40 and 10 <= len(b) <= 40
    eta = SurfaceFoxPairing(sig)
    assert SurfaceDoubleBracket(sig)(a, b) == dbl_from_pairing(eta.skew, a, b)


# --- the cut-corner sums against the letter-pair sums they replace ----------

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def reference_eta_base(sig, i, j):
    """eta(x_i, x_j) for i <= j as displayed: the table the corner weights replace."""
    x = Word.generator(i)
    if i == j:
        if sig.letter_kind(i) == "q":
            return AlgElem.from_word(x) - AlgElem.one()
        # p and z letters pair the same way with themselves
        return AlgElem.from_word(x) - AlgElem.from_word(x * x)
    if sig.is_handle_pair(i, j):
        return AlgElem.from_word(x)
    return AlgElem.zero()


def reference_eta_values(sig):
    """eta on every generator pair: displayed for i <= j, and for i > j by the
    transpose identity eta(x, y) = x S(etabar(y, x)) y, etabar = -eta - rho_1."""
    values = {}
    for i in range(sig.rank):
        for j in range(sig.rank):
            if i <= j:
                values[(i, j)] = reference_eta_base(sig, i, j)
            else:
                x, y = (AlgElem.from_word(Word.generator(k)) for k in (i, j))
                etabar = -reference_eta_base(sig, j, i) - rho_1(y, x)
                values[(i, j)] = x * AlgElem({u.inverse(): c for u, c in etabar.items()}) * y
    return values


def reference_dbl_display(sig, i, j):
    """dbl(x_i, x_j) for i <= j as displayed."""
    one = Word.identity()
    x, y = Word.generator(i), Word.generator(j)
    if i == j:
        sq = x * x
        if sig.letter_kind(i) == "q":
            return Tensor2({(one, sq): 1, (sq, one): -1})
        return Tensor2({(sq, one): 1, (one, sq): -1})
    if sig.is_handle_pair(i, j):
        return Tensor2({(one, x * y): 1, (y * x, one): 1, (x, y): -1, (y, x): 1})
    return Tensor2({(one, x * y): 1, (y * x, one): 1, (x, y): -1, (y, x): -1})


def reference_dbl_values(sig):
    """dbl on every generator pair: displayed for i <= j, their skew-symmetric
    images for i > j."""
    values = {(i, j): reference_dbl_display(sig, i, j)
              for i in range(sig.rank) for j in range(i, sig.rank)}
    for i in range(sig.rank):
        for j in range(i):
            values[(i, j)] = -permute(values[(j, i)], (2, 1))
    return values


def letter_pair_tables(sig):
    """Both reference tables extended to signed letter pairs term by term:
    eta(x, y) as (u, c) and dbl(x, y) as ((a1, a2), c)."""
    eta, dbl = reference_eta_values(sig), reference_dbl_values(sig)
    fox, bracket = {}, {}
    for i in range(sig.rank):
        for j in range(sig.rank):
            x, y = Word.generator(i), Word.generator(j)
            for ex, ey in SIGNS:
                l = x.inverse() if ex < 0 else Word.identity()
                r = y.inverse() if ey < 0 else Word.identity()
                fox[((i, ex), (j, ey))] = [(l * u * r, ex * ey * c) for u, c in eta[(i, j)].items()]
                bracket[((i, ex), (j, ey))] = [((r * a1 * l, l * a2 * r), ex * ey * c)
                                               for (a1, a2), c in dbl[(i, j)].items()]
    return fox, bracket


def letter_pair_sums(tables, v, w):
    """eta(v, w) and dbl(v, w) as the closed sums over letter pairs (i, j):
    x_{<i} u y_{>j} and (y_{<j} a1 x_{>i}) (x) (x_{<i} a2 y_{>j})."""
    fox, bracket = tables
    xs, ys = v.letters, w.letters
    eta_out, dbl_out = {}, {}
    for i, x in enumerate(xs):
        xa, xb = Word(xs[:i]), Word(xs[i + 1:])
        for j, y in enumerate(ys):
            ya, yb = Word(ys[:j]), Word(ys[j + 1:])
            for u, c in fox[(x, y)]:
                key = xa * u * yb
                eta_out[key] = eta_out.get(key, 0) + c
            for (a1, a2), c in bracket[(x, y)]:
                key = (ya * a1 * xb, xa * a2 * yb)
                dbl_out[key] = dbl_out.get(key, 0) + c
    return ({k: c for k, c in eta_out.items() if c},
            {k: c for k, c in dbl_out.items() if c})


CORNER_SIGS = tuple(SurfaceSignature(g, p) for g, p in
                    ((0, 1), (1, 0), (1, 1), (2, 0), (0, 3), (2, 2)))
REFERENCE_TABLES = {sig: letter_pair_tables(sig) for sig in CORNER_SIGS}


@st.composite
def random_words(draw, sig, max_len=40):
    """Words from up to max_len uniform signed letters, freely reduced."""
    return Word(draw(st.lists(st.tuples(st.integers(0, sig.rank - 1), st.sampled_from((1, -1))),
                              max_size=max_len)))


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@given(st.data())
def test_corner_sums_match_letter_pair_reference(data):
    sig = data.draw(st.sampled_from(CORNER_SIGS))
    words = st.one_of(random_words(sig), inverse_heavy_words(sig, min_len=0))
    v, w = data.draw(words), data.draw(words)
    want_eta, want_dbl = letter_pair_sums(REFERENCE_TABLES[sig], v, w)
    eta, dbl = SurfaceFoxPairing(sig), SurfaceDoubleBracket(sig)
    assert eta(v, w).terms == want_eta
    assert dbl(v, w).terms == want_dbl
    # a scaled word and a two-word sum take the other paths through __call__
    k = data.draw(st.sampled_from((-2, 3)))
    assert eta(AlgElem.from_word(v, k), w).terms == {key: k * c for key, c in want_eta.items()}
    assert dbl(AlgElem.from_word(v, k), w).terms == {key: k * c for key, c in want_dbl.items()}
    u = data.draw(words)
    want_u = letter_pair_sums(REFERENCE_TABLES[sig], u, w)[1]
    both = {key: want_dbl.get(key, 0) - want_u.get(key, 0) for key in {**want_dbl, **want_u}}
    assert dbl(AlgElem.from_word(v) - AlgElem.from_word(u), w).terms == \
        {key: c for key, c in both.items() if c}


def test_long_power_bracket_has_n_plus_three_terms():
    assert len(DBL(w("p1^2000"), w("q1")).terms) == 2003


def test_corner_weights_are_ints():
    for sig in CORNER_SIGS:
        for table in (SurfaceFoxPairing(sig)._corners, SurfaceDoubleBracket(sig)._corners):
            assert len(table) == 2 * sig.rank
            corners = [c for row in table.values() for entry in row.values() for c in entry]
            assert corners
            assert all(di in (0, 1) and dj in (0, 1) and type(c) is int and c
                       for di, dj, c in corners)


def reference_corner_table(values, corner_key):
    """The corner weights derived from table values by word algebra: each term
    goes to the first corner in a list of the four corner keys, and a term at
    no corner raises.  A signed letter pair is keyed by the codes of its two
    one-letter words."""
    corners, out = ((0, 0), (0, 1), (1, 0), (1, 1)), {}
    for (i, j), value in values.items():
        keys = [corner_key(Word.generator(i), Word.generator(j), *d) for d in corners]
        sums = [0] * 4
        for key, c in value.items():
            if key not in keys:
                raise ValueError(f"table term {key!r} of pair {(i, j)} is at no cut corner")
            sums[keys.index(key)] += c
        for ex, ey in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            code_x, code_y = str(Word.generator(i, ex)), str(Word.generator(j, ey))
            out.setdefault(code_x, {})[code_y] = tuple((di ^ (ex < 0), dj ^ (ey < 0), ex * ey * c)
                                                       for (di, dj), c in zip(corners, sums) if c)
    return out


VERIFY_SIGS = tuple(SurfaceSignature(g, p)
                    for g, p in sorted({s for sigs in ALL_MATRIX.values() for s in sigs}))
WEIGHT_SIGS = VERIFY_SIGS + tuple(SurfaceSignature(g, p)
                                  for g, p in ((0, 3), (2, 0), (2, 2), (3, 0), (3, 4)))


def test_corner_table_matches_the_list_lookup():
    # the corner keys as x^di y^(1-dj) spelled out, without Word.__pow__
    power = lambda x, n: Word(x.letters * n)
    eta_key = lambda x, y, di, dj: power(x, di) * power(y, 1 - dj)
    dbl_key = lambda x, y, di, dj: (power(y, dj) * power(x, 1 - di), eta_key(x, y, di, dj))
    for sig in WEIGHT_SIGS:
        eta_values, dbl_values = reference_eta_values(sig), reference_dbl_values(sig)
        eta, dbl = SurfaceFoxPairing(sig), SurfaceDoubleBracket(sig)
        assert eta._corners == reference_corner_table(eta_values, eta_key)
        assert dbl._corners == reference_corner_table(dbl_values, dbl_key)
        for (i, j), value in dbl_values.items():
            assert dbl.base(i, j) == value
            assert eta(Word.generator(i), Word.generator(j)) == eta_values[(i, j)]


def test_constructing_a_bracket_builds_no_word():
    from surfqp import words
    counted = {words.join.__code__: 0, Word.__pow__.__code__: 0}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counted[frame.f_code] += 1

    for sig in VERIFY_SIGS:
        sys.setprofile(count)
        try:
            SurfaceFoxPairing(sig), SurfaceDoubleBracket(sig)
        finally:
            sys.setprofile(None)
    assert list(counted.values()) == [0, 0]
    # the counter sees a call of either
    sys.setprofile(count)
    try:
        Word.generator(0) * Word.generator(1), Word.generator(0) ** 2
    finally:
        sys.setprofile(None)
    assert list(counted.values()) == [1, 1]


def test_signed_corners_are_class_data():
    # each class derives the signed corner lists of its WEIGHTS once; a
    # bracket object's table only looks them up by the kind of each pair
    from surfqp import words
    for cls in (SurfaceFoxPairing, SurfaceDoubleBracket):
        assert cls.CORNERS == words.signed_corners(cls.WEIGHTS)
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is words.signed_corners.__code__:
            calls.append(1)

    sys.setprofile(count)
    try:
        for sig in VERIFY_SIGS:
            SurfaceFoxPairing(sig), SurfaceDoubleBracket(sig)
    finally:
        sys.setprofile(None)
    assert calls == []
    # the (p1, q1) entry of a table is the class's own "handle" entry
    table = SurfaceDoubleBracket(SurfaceSignature(1, 1))._corners
    assert table[chr(0)][chr(2)] is SurfaceDoubleBracket.CORNERS["handle"][0]


@pytest.mark.parametrize("cls", [SurfaceFoxPairing, SurfaceDoubleBracket])
@pytest.mark.parametrize("a,b", [(5, 0), (0, 5)], ids=["first slot", "second slot"])
def test_a_letter_past_the_rank_is_named(cls, a, b):
    pairing = cls(SurfaceSignature(1, 0))
    with pytest.raises(IndexError, match=r"^generator index 5 out of range for rank 2$"):
        pairing(Word.generator(a), Word.generator(b))
    with pytest.raises(IndexError, match=r"^generator index 5 out of range for rank 2$"):
        pairing(Word.generator(a, -1) * Word.generator(1), Word.generator(b, -1))
    if cls is SurfaceDoubleBracket:  # eta's generator pairs are the first call above
        with pytest.raises(IndexError, match=r"^generator index 5 out of range for rank 2$"):
            pairing.base(a, b)


def test_base_is_the_cut_sum_of_two_letters():
    # one path per value: a generator pair is the bracket of two one-letter words
    for sig in VERIFY_SIGS:
        dbl = SurfaceDoubleBracket(sig)
        for i in range(sig.rank):
            for j in range(sig.rank):
                assert dbl.base(i, j) is dbl(Word.generator(i), Word.generator(j))


def test_integer_brackets_keep_int_coefficients():
    # eta, eta^s and both brackets are defined over the integers, so no
    # Fraction may appear in their values on words
    for sig in (SurfaceSignature(1, 1), SIG, SurfaceSignature(0, 2)):
        rng = random.Random(sig.rank)
        eta, dbl = SurfaceFoxPairing(sig), SurfaceDoubleBracket(sig)
        for _ in range(20):
            a, b, c = (sample_word(rng, sig, 4) for _ in range(3))
            values = [eta(a, b), eta.skew(a, b), dbl(a, b),
                      dbl(AlgElem.one() - AlgElem.from_word(a), b),
                      dbl_from_pairing(eta.skew, a, b), triple(dbl, a, b, c)]
            assert all(type(coeff) is int for v in values for _, coeff in v.items())


def test_word_pairs_skip_the_group_algebra_wrap():
    """Two words go straight to the memo; one-term elements, scaled or
    not, sum through it to the same value."""
    sig = SurfaceSignature(1, 1)
    dbl = SurfaceDoubleBracket(sig)
    rng = random.Random(5001)
    for _ in range(20):
        a, b = sample_word(rng, sig, 4), sample_word(rng, sig, 4)
        value = dbl(a, b)
        assert dbl(a, b) is value
        assert dbl(AlgElem.from_word(a), b) == value
        assert dbl(AlgElem.from_word(a, 3), AlgElem.from_word(b, -2)) == value.scale(-6)


def test_bracket_memo_is_bounded():
    sig = SurfaceSignature(1, 1)
    rng = random.Random(5000)
    pairs = [(sample_word(rng, sig, 8), sample_word(rng, sig, 8)) for _ in range(5000)]
    assert len(set(pairs)) > MEMO_LIMIT
    dbl = SurfaceDoubleBracket(sig)
    for a, b in pairs:
        dbl(a, b)
        assert dbl._memoized.cache_info().currsize <= MEMO_LIMIT
    fresh = SurfaceDoubleBracket(sig)
    for a, b in pairs[:20] + pairs[-20:]:
        assert dbl(a, b) == fresh(a, b)


def test_bracket_memo_keeps_a_pair_in_use():
    # the memo drops the pair used longest ago, so a pair read between new ones stays
    sig = SurfaceSignature(1, 1)
    rng = random.Random(5000)
    pairs = list(dict.fromkeys((sample_word(rng, sig, 8), sample_word(rng, sig, 8))
                               for _ in range(5000)))
    a, b = pairs.pop()
    assert len(pairs) > MEMO_LIMIT
    dbl = SurfaceDoubleBracket(sig)
    kept = dbl(a, b)
    for x, y in pairs[:MEMO_LIMIT + 1]:
        dbl(x, y)
        assert dbl(a, b) is kept


def test_pairing_route_unskewed_displays():
    one = Word.identity()
    assert dbl_from_pairing(ETA, w("p1"), w("q1")) == t2("q1", "p1")
    assert dbl_from_pairing(ETA, w("p1"), w("p1")) == t2("p1", "p1") - t2("1", "p1^2")
    assert dbl_from_pairing(ETA, w("q1"), w("q1")) == t2("q1", "q1") - t2("q1^2", "1")
    assert dbl_from_pairing(ETA, w("z1"), w("z2")).is_zero()


def test_skew_route_is_shifted_unskewed_route():
    rng = random.Random(2)
    one = AlgElem.one()
    for _ in range(60):
        a, b = sample_word(rng, SIG, 4), sample_word(rng, SIG, 4)
        A, B = AlgElem.from_word(a), AlgElem.from_word(b)
        assert DBL(a, b) == (dbl_from_pairing(ETA, a, b).scale(2)
                             + tensor2(one, A * B) + tensor2(B * A, one)
                             - tensor2(A, B) - tensor2(B, A))


def test_inner_pairing_closed_form():
    from surfqp.foxpairing import inner_pairing
    rng = random.Random(3)
    for _ in range(60):
        ee, a, b = (sample_word(rng, SIG, 3) for _ in range(3))
        rho = lambda x, y: inner_pairing(AlgElem.from_word(ee), x, y)
        assert dbl_from_pairing(rho, a, b) == dbl_from_inner(ee, a, b)


def test_transpose_conjugates_the_bracket():
    from surfqp.foxpairing import transpose_apply
    rng = random.Random(4)
    etabar = lambda x, y: transpose_apply(ETA, x, y)
    for _ in range(60):
        a, b = sample_word(rng, SIG, 3), sample_word(rng, SIG, 3)
        assert dbl_from_pairing(etabar, a, b) == \
            permute(dbl_from_pairing(ETA, b, a), (2, 1))


# --- double bracket axioms ---------------------------------------------------

def test_skew_symmetry_random():
    rng = random.Random(5)
    for _ in range(100):
        a, b = sample_word(rng, SIG, 4), sample_word(rng, SIG, 4)
        assert DBL(b, a) == -permute(DBL(a, b), (2, 1))


def test_derivation_rules_random():
    from surfqp.algebra import inner_act, outer_act
    rng = random.Random(6)
    one = AlgElem.one()
    for _ in range(100):
        a, b, c = (sample_word(rng, SIG, 3) for _ in range(3))
        B, C = AlgElem.from_word(b), AlgElem.from_word(c)
        # second slot: derivation for the outer structure
        assert DBL(a, B * C) == outer_act(B, DBL(a, c), one) + outer_act(one, DBL(a, b), C)
        # first slot: derivation for the inner structure
        A = AlgElem.from_word(a)
        assert DBL(A * B, c) == inner_act(A, DBL(b, c), one) + inner_act(one, DBL(a, c), B)


# --- triple brackets ----------------------------------------------------------

def test_triple_e_kills_units():
    rng = random.Random(7)
    for _ in range(20):
        b, c = sample_word(rng, SIG, 3), sample_word(rng, SIG, 3)
        assert triple_e(AlgElem.one(), b, c).is_zero()


def test_triple_e_display():
    a, b, c = e("p1"), e("q1"), e("z1")
    one = AlgElem.one()
    want = (tensor3(a, one, b * c) + tensor3(one, a * b, c) + tensor3(c * a, b, one)
            + tensor3(c, a, b) - tensor3(one, a, b * c) - tensor3(a, b, c)
            - tensor3(c * a, one, b) - tensor3(c, a * b, one))
    assert triple_e(w("p1"), w("q1"), w("z1")) == want
    assert len(want.terms) == 8


def test_triple_e_strong():
    rng = random.Random(8)
    for _ in range(60):
        a, b, c = (sample_word(rng, SIG, 3) for _ in range(3))
        assert m3(triple_e(a, b, c)) == m3(triple_e(b, a, c))


def test_triple_cyclic_symmetry():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (sample_word(rng, SIG, 3) for _ in range(3))
        assert triple(DBL, c, a, b) == permute(triple(DBL, a, b, c), (3, 1, 2))


def test_triple_third_slot_derivation():
    from surfqp.algebra import outer_act
    rng = random.Random(10)
    one = AlgElem.one()
    for _ in range(30):
        a, b, c, d = (sample_word(rng, SIG, 2) for _ in range(4))
        C, D = AlgElem.from_word(c), AlgElem.from_word(d)
        lhs = triple(DBL, AlgElem.from_word(a), AlgElem.from_word(b), C * D)
        rhs = outer_act(C, triple(DBL, a, b, d), one) + outer_act(one, triple(DBL, a, b, c), D)
        assert lhs == rhs


# --- the one-pass triple bracket against the three-step definition ------------

def lift(x):
    """x as an AlgElem: a word becomes its one-term element."""
    return x if isinstance(x, AlgElem) else AlgElem.from_word(x)


def left_extend_reference(dbl, x, t):
    """Apply dbl against the first factor of t, keep the second."""
    return Tensor3.collect(((d1, d2, k2), c * d) for (k1, k2), c in t.items()
                           for (d1, d2), d in dbl(x, AlgElem.from_word(k1)).items())


def triple_reference(dbl, a, b, c):
    """The triple bracket as three left extensions, two permutes and two sums."""
    a, b, c = lift(a), lift(b), lift(c)
    t0 = left_extend_reference(dbl, a, dbl(b, c))
    t1 = permute(left_extend_reference(dbl, b, dbl(c, a)), (3, 1, 2))
    t2 = permute(left_extend_reference(dbl, c, dbl(a, b)), (2, 3, 1))
    return t0 + t1 + t2


def recorded(dbl):
    """dbl and the list of argument pairs it is called on, as AlgElems."""
    calls = []

    def call(a, b):
        calls.append((lift(a), lift(b)))
        return dbl(a, b)

    return call, calls


def assert_triple_matches_reference(dbl, a, b, c):
    got, got_calls = recorded(dbl)
    want, want_calls = recorded(dbl)
    assert triple(got, a, b, c) == triple_reference(want, a, b, c)
    assert got_calls == want_calls


@pytest.mark.parametrize("genus,punctures", [(1, 0), (1, 1), (0, 2), (2, 1)])
def test_triple_matches_reference_on_words(genus, punctures):
    sig = SurfaceSignature(genus, punctures)
    dbl = SurfaceDoubleBracket(sig)
    rng = random.Random(100 * genus + punctures)
    for _ in range(25):
        assert_triple_matches_reference(dbl, *(sample_word(rng, sig, 4) for _ in range(3)))


def random_elem(rng, sig):
    """A sum of one to three words with coefficients in {-2, -1, 1, 1/2, 3}."""
    return AlgElem.collect((sample_word(rng, sig, 3), rng.choice((-2, -1, 1, Fraction(1, 2), 3)))
                           for _ in range(rng.randint(1, 3)))


def test_triple_matches_reference_on_sums():
    sig = SurfaceSignature(1, 1)
    dbl = SurfaceDoubleBracket(sig)
    rng = random.Random(101)
    for _ in range(15):
        assert_triple_matches_reference(dbl, *(random_elem(rng, sig) for _ in range(3)))


def test_triple_matches_reference_for_other_brackets():
    sig = SurfaceSignature(1, 1)
    eta = SurfaceFoxPairing(sig)
    rng = random.Random(102)
    e = random_elem(rng, sig)
    brackets = (lambda a, b: Tensor2.zero(),
                lambda a, b: dbl_from_pairing(eta, a, b),  # not skew-symmetric
                lambda a, b: dbl_from_inner(e, a, b))
    for dbl in brackets:
        for _ in range(10):
            assert_triple_matches_reference(dbl, *(sample_word(rng, sig, 3) for _ in range(3)))
        assert_triple_matches_reference(dbl, *(random_elem(rng, sig) for _ in range(3)))


def test_surface_bracket_is_quasi_poisson():
    rep = is_quasi_poisson(DBL, SIG, trials=40, seed=17, max_len=3)
    assert rep.ok, rep.witness


def test_zero_bracket_is_not_quasi_poisson():
    zero = lambda a, b: Tensor2.zero()
    rep = is_quasi_poisson(zero, SIG, trials=40, seed=17, max_len=3)
    assert not rep.ok
    a, b, c = rep.witness
    assert triple(zero, a, b, c) != triple_e(a, b, c)  # the witness really fails
    assert not triple_e(w("p1"), w("q1"), w("p1")).is_zero()


@pytest.mark.parametrize("trials", [0, -1])
def test_quasi_poisson_check_needs_a_trial(trials):
    # with no sampled triple nothing is checked, which must not read as a pass
    with pytest.raises(ValueError, match="at least one trial"):
        is_quasi_poisson(DBL, SIG, trials=trials, seed=17)


def test_disk_is_vacuous():
    disk = SurfaceSignature(0, 0)
    rep = is_quasi_poisson(SurfaceDoubleBracket(disk), disk, trials=10, seed=1)
    assert rep.ok


# --- the induced single bracket and the Goldman bracket -------------------------

def test_angle_fixture():
    assert angle(DBL, w("p1"), w("q1")) == e("q1*p1").scale(2)
    assert angle(DBL, w("p1"), AlgElem.one()).is_zero()


def test_angle_kills_commutators_in_classes():
    rng = random.Random(11)
    for _ in range(40):
        x, y, b = (sample_word(rng, SIG, 3) for _ in range(3))
        comm = (AlgElem.from_word(x) * AlgElem.from_word(y)
                - AlgElem.from_word(y) * AlgElem.from_word(x))
        assert project_cyclic(angle(DBL, comm, b)).is_zero()


def test_goldman_fixtures():
    c = lambda s: CyclicWord.of(w(s))
    got = goldman(DBL, c("p1"), c("q1"))
    assert got.terms == {CyclicWord.of(w("q1*p1")): Fraction(1)}
    assert goldman(DBL, c("z1"), c("z2")).is_zero()
    assert goldman(DBL, c("p1"), c("p1")).is_zero()


def test_goldman_well_defined():
    rng = random.Random(12)
    for _ in range(60):
        a, b, u, v = (sample_word(rng, SIG, 3) for _ in range(4))
        base = goldman(DBL, CyclicWord.of(a), CyclicWord.of(b))
        moved = goldman(DBL, CyclicWord.of(u * a * u.inverse()),
                        CyclicWord.of(v * b * v.inverse()))
        assert base == moved


def test_goldman_jacobi():
    from surfqp.dbracket import CyclicAlgElem
    rng = random.Random(13)

    def gg(x, cw):
        out = CyclicAlgElem.zero()
        for cls, coeff in x.items():
            out = out + goldman(DBL, cls, cw).scale(coeff)
        return out

    for _ in range(25):
        a, b, c = (CyclicWord.of(sample_word(rng, SIG, 3)) for _ in range(3))
        total = (gg(goldman(DBL, a, b), c) + gg(goldman(DBL, b, c), a)
                 + gg(goldman(DBL, c, a), b))
        assert total.is_zero()


def test_goldman_is_bilinear_on_class_combinations():
    from surfqp.dbracket import CyclicAlgElem
    rng = random.Random(19)
    for _ in range(15):
        x = CyclicAlgElem.collect((CyclicWord.of(sample_word(rng, SIG, 3)), rng.randint(-3, 3))
                                  for _ in range(3))
        c = CyclicWord.of(sample_word(rng, SIG, 3))
        for got, each in ((goldman(DBL, x, c), lambda cw: goldman(DBL, cw, c)),
                          (goldman(DBL, c, x), lambda cw: goldman(DBL, c, cw))):
            want = CyclicAlgElem.collect((z, coeff * k) for cw, coeff in x.items()
                                         for z, k in each(cw).items())
            assert got == want


# --- moment shapes --------------------------------------------------------------

def test_boundary_word_is_a_moment_element():
    rng = random.Random(14)
    mu = boundary_word(SIG)
    gens = [Word.generator(i) for i in range(SIG.rank)]
    probes = gens + [sample_word(rng, SIG, 4) for _ in range(15)]
    for a in probes:
        assert DBL(mu, a) == moment_rhs(mu, a)
    for m in (1, 2, 3):
        for a in probes[:6]:
            assert DBL(mu ** m, a) == moment_power_rhs(mu, a, m)
            assert DBL(mu ** (-m), a) == moment_neg_power_rhs(mu, a, m)


def test_moment_candidates_are_unique():
    # the discovery the fixtures rest on: among the boundary word, its
    # inverse, and the reversed commutator convention, only the first works
    for (g, m) in [(1, 0), (1, 1), (0, 2)]:
        sig = SurfaceSignature(g, m)
        dbl = SurfaceDoubleBracket(sig)
        rng = random.Random(15)
        probes = [Word.generator(i) for i in range(sig.rank)]
        probes += [sample_word(rng, sig, 3) for _ in range(8)]
        mu = boundary_word(sig)
        candidates = {"pinned": mu, "inverse": mu.inverse()}
        if g:
            alt = Word.identity()
            for u in range(g):
                p, q = Word.generator(2 * u), Word.generator(2 * u + 1)
                alt = alt * p.inverse() * q.inverse() * p * q
            for v in range(m):
                alt = alt * Word.generator(2 * g + v)
            candidates["reversed-commutators"] = alt
        verdict = {name: all(dbl(c, a) == moment_rhs(c, a) for a in probes)
                   for name, c in candidates.items()}
        assert verdict["pinned"]
        assert not verdict["inverse"]
        if g:
            assert not verdict["reversed-commutators"]


def test_non_moment_element_fails():
    mu = w("p1")
    assert DBL(mu, w("q1")) != moment_rhs(mu, w("q1"))
