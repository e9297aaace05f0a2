"""Free reduction, word arithmetic, conjugacy normal forms, the grammar."""

import copy
import pickle
import random
import time
from itertools import groupby

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from surfqp.dbracket import SurfaceDoubleBracket
from surfqp.foxpairing import SurfaceFoxPairing
from surfqp.suites import ALL_MATRIX
from surfqp.words import (MAX_RANK, MAX_WORD_LETTERS, CyclicWord, SurfaceSignature, Word,
                          WordParseError, boundary_word, format_cyclic,
                          _min_rotation, format_word, join, parse_word, sample_word)

SIG = SurfaceSignature(2, 2)


def w(text, sig=SIG):
    return parse_word(text, sig)


def test_signature_alphabet_order():
    sig = SurfaceSignature(2, 1)
    assert list(sig.names) == ["p1", "q1", "p2", "q2", "z1"]
    assert sig.rank == 5
    assert sig.gen_index("q2") == 3 and sig.gen_index("z1") == 4
    # a name is p, q or z and an ASCII decimal with no leading zero, nothing around it
    for bad in ("z2", "q3", "p0", "p01", "p1 ", " p1", "p1\n", "", "p", "x1", "pq1", "p+1",
                "p\u0661", "p\u00b2"):
        with pytest.raises(KeyError):
            sig.gen_index(bad)
    with pytest.raises(ValueError):
        SurfaceSignature(-1, 0)


def test_signature_names_are_fixed_at_construction():
    sig = SurfaceSignature(2, 1)
    assert sig.names == ("p1", "q1", "p2", "q2", "z1")
    assert [sig.gen_name(i) for i in range(sig.rank)] == list(sig.names)
    for bad in (-1, sig.rank):
        with pytest.raises(IndexError):
            sig.gen_name(bad)
    # the name table is derived data: not in repr, equality or hash
    assert repr(sig) == "SurfaceSignature(genus=2, punctures=1)"
    assert sig == SurfaceSignature(2, 1) and hash(sig) == hash(SurfaceSignature(2, 1))
    assert SurfaceSignature(0, 0).names == ()


def test_reduce_cancellation():
    assert w("p1*p1^-1*q1") == w("q1")
    assert w("1") == Word.identity()
    assert w("p1*q1*q1^-1*p1") == w("p1^2")


def test_multiply():
    assert w("p1") * w("p1^-1") == Word.identity()
    assert w("p1*q1") * w("q1^-1*z1") == w("p1*z1")
    assert Word.identity() * w("q2*z1") == w("q2*z1")


def test_long_cancelling_seam_is_linear():
    n = 100_000
    x, half = Word(((0, 1),) * n), Word(((0, -1),) * (n // 2))
    eats_x, rest = Word(((0, -1),) * n + ((1, 1),)), Word(((0, 1),) * (n - n // 2))
    start = time.perf_counter()
    assert x * x.inverse() == Word.identity()
    assert x * half == rest
    assert x * eats_x == w("q1")
    # a quadratic seam takes about a second per product at this length
    assert time.perf_counter() - start < 0.5


LETTERS = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))
REDUCED = st.lists(LETTERS, max_size=8).map(lambda xs: Word(xs).letters)


def inverse_letters(xs):
    return tuple((g, -e) for g, e in reversed(xs))


@st.composite
def seam_pairs(draw):
    """Reduced letter tuples (l, r) that meet with no cancellation, with the
    inverse of a suffix of l opening r, with r the inverse of l, or with one
    side cancelled whole by the other."""
    p, s, t = draw(REDUCED), draw(REDUCED), draw(REDUCED)
    kind = draw(st.sampled_from(("free", "partial", "inverse", "eats-left", "eats-right")))
    if kind == "free":
        return p, t
    if kind == "inverse":
        return p, inverse_letters(p)
    left = s if kind == "eats-left" else Word(p + s).letters
    right = inverse_letters(s) if kind == "eats-right" else Word(inverse_letters(s) + t).letters
    return left, right


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(seam_pairs())
@example(((), ()))
@example((((0, 1),), ()))
@example(((), ((1, -1), (2, 1))))
@example((((0, 1), (1, 1)), ((1, -1), (2, 1))))
@example((((0, 1), (1, 1)), ((1, -1), (0, -1))))
@example((((0, 1), (1, 1)), ((1, -1), (0, -1), (2, 1))))
@example((((2, 1), (0, 1), (1, 1)), ((1, -1), (0, -1))))
@example((((0, 1),), ((0, 1), (1, 1))))
def test_join_is_the_reduced_concatenation(pair):
    left, right = pair
    # join takes code strings, as the slices of the cut sums are
    out = join(str(Word(left)), str(Word(right)))
    assert type(out) is Word and out.letters == Word(left + right).letters


def old_cyclic_letters(letters):
    """CyclicWord's normal form as first written: one slice per cancelled
    end pair, then every rotation compared."""
    reduced = list(Word(letters).letters)
    while len(reduced) > 1 and reduced[0][0] == reduced[-1][0] and reduced[0][1] == -reduced[-1][1]:
        reduced = reduced[1:-1]
    n = len(reduced)
    if n < 2:
        return tuple(reduced)
    keys = [2 * g + (e < 0) for g, e in reduced] * 2
    best = min(range(n), key=lambda i: keys[i:i + n])
    return tuple(reduced[best:] + reduced[:best])


@st.composite
def cyclic_inputs(draw):
    """Letter lists over two generators, often a conjugate u x^k u^-1, so
    that end pairs cancel and rotations tie."""
    letter = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
    u, x = draw(st.lists(letter, max_size=6)), draw(st.lists(letter, max_size=5))
    if draw(st.booleans()):
        return u + x * draw(st.integers(1, 4)) + [(g, -e) for g, e in reversed(u)]
    return u + x


@seed(20261024)
@settings(max_examples=300, deadline=None, database=None)
@given(cyclic_inputs())
@example([(0, 1), (1, 1), (0, -1)])
@example([(1, 1), (0, 1), (1, 1), (0, 1)])
def test_cyclic_normal_form_matches_the_old_code(letters):
    want = old_cyclic_letters(letters)
    assert CyclicWord(letters).letters == want
    assert CyclicWord.of(Word(letters)).letters == want


def test_least_rotation_is_the_least_of_all_rotations():
    # code 10 is "\n" and code 42 is "*", a regex metacharacter; a string drawn from
    # few codes has long runs of the least code, which tie and wrap around the end
    rng, codes = random.Random(20261020), "".join(map(chr, (0, 1, 2, 10, 42, 43)))
    for _ in range(30_000):
        text = "".join(rng.choices(rng.sample(codes, rng.randint(1, 3)), k=rng.randint(0, 12)))
        assert _min_rotation(text) == min((text[i:] + text[:i] for i in range(len(text))),
                                          default="")
    # one-code words, whose run is the whole word, and periodic words, whose
    # longest runs tie once a period and may wrap around the end
    for text in [code * n for code in codes for n in (2, 3, 7, 8, 64, 65)] + [
            (block * m)[shift:] + (block * m)[:shift]
            for block in ("\x00" * 7 + "\x02", "*\n*", "\x01\x00\x00\x01\x00")
            for m in (1, 2, 3, 17) for shift in (0, 1, 5)]:
        assert _min_rotation(text) == min(text[i:] + text[:i] for i in range(len(text)))
    # a one-code word of 100,000 letters stays linear: a run grown a letter at
    # a time, or a start found at every letter, would take minutes
    start = time.perf_counter()
    assert CyclicWord.of(Word.generator(0) ** 100_000) == Word.generator(0) ** 100_000
    assert time.perf_counter() - start < 1.0


class TupleWord:
    """Word as the tuple-based code had it: a freely reduced tuple of letters,
    with its inverse, powers, least rotation and printed form."""

    def __init__(self, letters):
        stack = []
        for gen, exp in letters:
            if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
                stack.pop()
            else:
                stack.append((gen, exp))
        self.letters = tuple(stack)

    def inverse(self):
        return TupleWord((g, -e) for g, e in reversed(self.letters))

    def power(self, n):
        return self.inverse().power(-n) if n < 0 else TupleWord(self.letters * n)

    def cyclic_letters(self):
        reduced = self.letters
        while len(reduced) > 1 and reduced[0] == (reduced[-1][0], -reduced[-1][1]):
            reduced = reduced[1:-1]
        n = len(reduced)
        if n < 2:
            return reduced
        keys = [2 * g + (e < 0) for g, e in reduced] * 2
        best = min(range(n), key=lambda i: keys[i:i + n])
        return reduced[best:] + reduced[:best]

    def format(self, sig):
        if not self.letters:
            return "1"
        parts, (run_gen, count) = [], self.letters[0]
        for gen, exp in self.letters[1:]:
            if gen == run_gen and (exp > 0) == (count > 0):
                count += exp
            else:
                parts.append(sig.names[run_gen] + ("" if count == 1 else f"^{count}"))
                run_gen, count = gen, exp
        parts.append(sig.names[run_gen] + ("" if count == 1 else f"^{count}"))
        return "*".join(parts)


@st.composite
def wide_words(draw):
    """A signature of rank up to 300 and two inverse-heavy letter lists over a
    few of its generators, so that codes past 255 occur, letters cancel and
    the two words are often equal."""
    sig = draw(st.sampled_from((SurfaceSignature(1, 0), SurfaceSignature(0, 3),
                                SurfaceSignature(2, 2), SurfaceSignature(64, 2),
                                SurfaceSignature(150, 0), SurfaceSignature(100, 100))))
    gens = draw(st.lists(st.integers(0, sig.rank - 1), min_size=1, max_size=3))
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((-1, -1, -1, 1)))
    a = draw(st.lists(letter, max_size=12))
    if draw(st.booleans()):
        # the same word with a cancelling pair put in
        cut, x = draw(st.integers(0, len(a))), draw(letter)
        return sig, a, a[:cut] + [x, (x[0], -x[1])] + a[cut:]
    return sig, a, draw(st.lists(letter, max_size=12))


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(wide_words(), st.integers(-4, 4))
@example((SurfaceSignature(150, 0), [(299, -1), (299, 1), (128, -1)], [(128, -1)]), 3)
def test_code_words_match_the_tuple_words(case, n):
    sig, a, b = case
    old_a, old_b = TupleWord(a), TupleWord(b)
    new_a, new_b = Word(a), Word(b)
    assert new_a.letters == old_a.letters and Word(old_a.letters) == new_a
    assert (new_a == new_b) == (old_a.letters == old_b.letters)
    assert new_a != new_b or hash(new_a) == hash(new_b)
    assert new_a.inverse().letters == old_a.inverse().letters
    assert (new_a ** n).letters == old_a.power(n).letters
    assert CyclicWord.of(new_a).letters == old_a.cyclic_letters()
    assert format_word(new_a, sig) == old_a.format(sig)
    assert parse_word(format_word(new_a, sig), sig) == new_a


def test_words_refuse_str_arithmetic():
    x, y = w("p1*q1"), w("q1")
    for product in (lambda: x + y, lambda: 2 * x, lambda: x * 2, lambda: x * -1):
        with pytest.raises(TypeError):
            product()
    assert x * y == w("p1*q1^2")


def test_words_copy_and_pickle():
    for x in (w("p1*q1^-2*z2"), Word.identity(), Word([(299, -1), (3, 1)])):
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is Word and twin == x and twin.letters == x.letters


def test_cyclic_word_is_its_normal_form_word():
    for letters in ([(1, 1), (0, 1)], [(3, 1), (1, 1), (0, -1), (3, -1)], [], [(299, -1), (3, 1)]):
        cw = CyclicWord(letters)
        assert isinstance(cw, Word) and cw == CyclicWord.of(Word(letters))
        assert repr(cw) == f"CyclicWord({cw.letters!r})"
        for twin in (copy.copy(cw), copy.deepcopy(cw), pickle.loads(pickle.dumps(cw))):
            assert type(twin) is CyclicWord and twin == cw and twin.letters == cw.letters
    # a class equals the Word of its normal form, as a Word equals its code str
    cw = CyclicWord.of(w("q1*p1"))
    assert cw == w("p1*q1") and hash(cw) == hash(w("p1*q1"))
    assert repr(w("p1*q1")) == "Word(((0, 1), (1, 1)))"


def test_signature_rank_is_bounded_by_the_code_points():
    assert SurfaceSignature(278_528, 0).rank == 557_056
    with pytest.raises(ValueError, match="rank"):
        SurfaceSignature(278_528, 1)
    with pytest.raises(ValueError, match="rank"):
        SurfaceSignature(300_000, 0)
    assert Word.generator(557_055, -1).letters == ((557_055, -1),)
    top = SurfaceSignature(278_528, 0)
    x = Word.generator(557_055, -1) ** 2 * Word.generator(0)
    assert format_word(x, top) == "q278528^-2*p1"
    assert parse_word(format_word(x, top), top) == x
    # the token map is filled per code on first use, not per generator
    assert len(top.tokens) < 4


@pytest.mark.parametrize("exp", [2, -2, 0])
def test_letter_exponent_must_be_a_unit(exp):
    # a generator is a one-letter word, checked as the constructor checks it
    for make in (lambda: Word([(0, exp)]), lambda: Word.generator(0, exp)):
        with pytest.raises(ValueError, match=f"^letter exponent must be \\+1 or -1, got {exp}$"):
            make()
    for e in (1, -1):
        x = Word.generator(3, e)
        assert type(x) is Word and x == Word([(3, e)]) and x.letters == ((3, e),)


@pytest.mark.parametrize("index", [-1, -557_056, MAX_RANK])
def test_letter_index_must_have_a_code(index):
    # a negative index or one past MAX_RANK has no code point, so chr() must never see it
    sig = SurfaceSignature(1, 0)
    for make in (lambda: Word([(index, 1)]), lambda: Word.generator(index),
                 lambda: Word.generator(index, -1),
                 lambda: SurfaceFoxPairing(sig)(Word.generator(index), Word.generator(0)),
                 lambda: SurfaceDoubleBracket(sig).base(0, index)):
        with pytest.raises(IndexError, match=f"^generator index {index} out of range$"):
            make()
    assert Word.generator(MAX_RANK - 1, -1).letters == ((MAX_RANK - 1, -1),)


def test_invert():
    assert w("p1*q1").inverse() == w("q1^-1*p1^-1")
    assert Word.identity().inverse() == Word.identity()
    assert w("p1^-1").inverse() == w("p1")


def test_power():
    assert w("p1") ** 3 == w("p1^3")
    assert w("p1*q1") ** -2 == (w("p1*q1") ** 2).inverse()
    assert w("z1") ** 0 == Word.identity()
    assert w("p1*q1^-1") ** 1 == w("p1*q1^-1")
    assert Word.identity() ** 1 == Word.identity() ** 5 == Word.identity()


def test_long_power_is_linear():
    n = 100_000
    conj = w("p1*q1*p1^-1")
    start = time.perf_counter()
    assert (conj ** n).letters == ((0, 1),) + ((1, 1),) * n + ((0, -1),)
    assert (conj ** -n).letters == ((0, 1),) + ((1, -1),) * n + ((0, -1),)
    # n successive products take about a minute at this n
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", ["1", "p1", "p1*q1", "p1*q1*p1^-1", "z1^-1*q2*z1^2"])
def test_power_is_repeated_product(text):
    x = w(text)
    for n in range(7):
        want = Word.identity()
        for _ in range(n):
            want = want * x
        assert x ** n == want
        assert x ** -n == want.inverse()


def test_conjugacy_class():
    assert CyclicWord.of(w("q1*p1*q1^-1")) == CyclicWord.of(w("p1"))
    assert CyclicWord.of(Word.identity()) == CyclicWord(())
    assert CyclicWord.of(w("p1*q1")) == CyclicWord.of(w("q1*p1"))


def test_cyclic_representative_is_minimal_rotation():
    # p1 precedes q1, so the class of q1*p1 prints from p1
    assert format_cyclic(CyclicWord.of(w("q1*p1")), SIG) == "p1*q1"
    # generator order comes before exponent sign, so p1^-1 precedes q1
    assert format_cyclic(CyclicWord.of(w("q1*p1^-2")), SIG) == "p1^-2*q1"
    # cyclic reduction strips the conjugating letters first
    assert format_cyclic(CyclicWord.of(w("z1*q1*z1^-1")), SIG) == "q1"


def test_word_properties_random():
    rng = random.Random(7)
    for _ in range(300):
        a = sample_word(rng, SIG, 6)
        b = sample_word(rng, SIG, 6)
        c = sample_word(rng, SIG, 6)
        assert Word(a.letters) == a  # reduction is idempotent
        assert (a * b) * c == a * (b * c)
        assert a.inverse().inverse() == a
        assert a * a.inverse() == Word.identity()


def test_conjugation_invariance_random():
    rng = random.Random(11)
    for _ in range(300):
        u = sample_word(rng, SIG, 5)
        x = sample_word(rng, SIG, 5)
        assert CyclicWord.of(u * x * u.inverse()) == CyclicWord.of(x)


def test_parse_format_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        x = sample_word(rng, SIG, 8)
        assert parse_word(format_word(x, SIG), SIG) == x


def old_format_word(word, sig):
    """format_word as first written on code strings: one groupby step, one
    list(run) and one call per run of equal codes."""
    if not word:
        return "1"
    return "*".join(old_format_run(ord(code), len(list(run)), sig) for code, run in groupby(word))


def old_format_run(code, n, sig):
    name, exp = sig.names[code >> 1], -n if code & 1 else n
    return name if exp == 1 else f"{name}^{exp}"


@st.composite
def format_inputs(draw):
    """Words over SIG, whose rank 6 makes chr(10), the code of z2, a letter:
    random words and their powers, runs of letters (often inverse ones), and
    single long runs."""
    gen, sign = st.integers(0, SIG.rank - 1), st.sampled_from((1, -1))
    kind = draw(st.sampled_from(("word", "power", "runs", "one-run")))
    if kind == "one-run":
        return Word.generator(draw(gen), draw(sign)) ** draw(st.integers(0, 200))
    if kind == "runs":
        runs = draw(st.lists(st.tuples(gen, st.sampled_from((1, -1, -1)), st.integers(1, 5)),
                             max_size=6))
        return Word([(g, e) for g, e, k in runs for _ in range(k)])
    x = Word(draw(st.lists(st.tuples(gen, sign), max_size=16)))
    return x if kind == "word" else x ** draw(st.integers(-5, 5))


@seed(20261020)
@settings(max_examples=400, deadline=None, database=None)
@given(format_inputs())
@example(Word.identity())
@example(w("z2^2"))
@example(w("z2^-3"))
@example(w("p1*z2*z2*q1"))
@example(w("p1^128"))
@example(w("q1^-128"))
def test_format_word_matches_the_groupby_reference(x):
    text = format_word(x, SIG)
    assert text == old_format_word(x, SIG)
    assert parse_word(text, SIG) == x


def test_letters_past_the_rank_are_refused():
    sig = SurfaceSignature(1, 1)
    format_word(w("p1*q1^-2*z1", sig), sig)
    # raised, with the token map cold or warm, never printed or dropped:
    # str.translate keeps a code whose lookup raises a LookupError
    for x in (Word.generator(10) * Word.generator(0), Word.generator(0) * Word.generator(10, -1),
              Word.generator(10) ** 3, Word.generator(3, -1) ** 2):
        with pytest.raises(ValueError, match=r"^generator index (3|10) is past rank 3$"):
            format_word(x, sig)
        with pytest.raises(ValueError, match="past rank"):
            format_cyclic(CyclicWord.of(x), sig)


@pytest.mark.parametrize("text, name, position", [
    ("p01", "p01", 0), ("p0", "p0", 0), ("z3", "z3", 0), ("q2", "q2", 0),
    ("p1*p01", "p01", 3), ("p1 z2^2", "z2", 3)])
def test_unknown_generators_are_named_at_their_position(text, name, position):
    with pytest.raises(WordParseError) as err:
        parse_word(text, SurfaceSignature(1, 1))
    assert str(err.value) == (f"unknown generator {name!r} for genus 1, punctures 1 "
                              f"(at position {position})")
    assert err.value.position == position


def old_parse_word(text, sig):
    """parse_word's result as first written: every token x^k expanded into k
    letters, the whole list reduced by the Word constructor."""
    letters = []
    for token in text.replace("*", " ").split():
        name, _, exp = token.partition("^")
        exp = int(exp or 1)
        letters += [(sig.gen_index(name), 1 if exp >= 0 else -1)] * abs(exp)
    return Word(letters)


@st.composite
def token_texts(draw):
    """Word strings over SIG of up to 12 tokens, with exponents from -4 to 4
    (zero too), often the inverse of the token before, so that runs cancel
    whole and in part across seams; separators mixed."""
    tokens = []
    for _ in range(draw(st.integers(1, 12))):
        if tokens and draw(st.booleans()):
            name, exp = tokens[-1]
            exp = -exp + draw(st.integers(-1, 1))
        else:
            name, exp = draw(st.sampled_from(SIG.names)), draw(st.integers(-4, 4))
        tokens.append((name, exp))
    seps = draw(st.lists(st.sampled_from(("*", " ", " * ", "  ")), min_size=len(tokens),
                         max_size=len(tokens)))
    return "".join(sep + (name if exp == 1 else f"{name}^{exp}")
                   for sep, (name, exp) in zip(["", *seps[1:]], tokens))


@seed(20261026)
@settings(max_examples=300, deadline=None, database=None)
@given(token_texts())
@example("p1^3*p1^-3")
@example("p1^2 q1 q1^-1 p1^-3 z2")
@example("z2^-2*z2^0*z2^2*p1")
def test_parse_word_matches_the_letter_reference(text):
    x = parse_word(text, SIG)
    assert type(x) is Word and x == old_parse_word(text, SIG)


@pytest.mark.parametrize("text, position", [
    ("p1^100001", 0), ("p1^60000*p1^-60000", 9), ("p1 q1^60000  q1^-40001", 13)])
def test_letter_limit_counts_unreduced_letters(text, position):
    # p1^60000*p1^-60000 reduces to the identity, but is refused all the same
    with pytest.raises(WordParseError) as err:
        parse_word(text, SIG)
    assert str(err.value) == (f"word longer than {MAX_WORD_LETTERS} letters "
                              f"(at position {position})")


def test_grammar_forms():
    assert w("p1 q1^-1 z2") == w("p1*q1^-1*z2")
    assert w("p1^2") == w("p1*p1")
    assert w("p1^-2") == w("p1^-1*p1^-1")
    assert w("z2^0") == Word.identity()
    assert format_word(Word.identity(), SIG) == "1"


SEVENS = "7" * 5000  # past int()'s 4300-digit limit


@pytest.mark.parametrize("bad", ["p1**q1", "w1", "p9", "z3", "p1*", "*p1", "p1^x", "",
                                 "p1^100001", "p1^60000*q1^60000",
                                 pytest.param("p1^" + SEVENS, id="p1^7...7"),
                                 pytest.param("p" + SEVENS, id="p7...7"),
                                 pytest.param("q1 p1^-" + SEVENS, id="q1 p1^-7...7"),
                                 pytest.param("q1 z" + SEVENS + "^2", id="q1 z7...7^2")])
def test_parse_errors_carry_position(bad):
    with pytest.raises(WordParseError) as err:
        parse_word(bad, SIG)
    assert err.value.position >= 0


@pytest.mark.parametrize("text, message", [
    ("p1^" + SEVENS, f"word longer than {MAX_WORD_LETTERS} letters (at position 0)"),
    ("q1 p1^-" + SEVENS, f"word longer than {MAX_WORD_LETTERS} letters (at position 3)"),
    ("q1 p1^0000000100001", f"word longer than {MAX_WORD_LETTERS} letters (at position 3)"),
    ("q1 p" + SEVENS, f"unknown generator 'p{SEVENS}' for genus 2, punctures 2 (at position 3)"),
], ids=["exponent", "negative exponent", "leading zeros", "generator"])
def test_long_numbers_are_refused_before_int(text, message):
    with pytest.raises(WordParseError) as err:
        parse_word(text, SIG)
    assert str(err.value) == message


def test_exponent_leading_zeros_are_read():
    assert w("p1^0000003") == w("p1^3")
    assert w("q1^-" + "0" * 5000 + "2") == w("q1^-2")
    assert w("p1^-0 q1^00") == Word.identity()


def test_boundary_word():
    assert format_word(boundary_word(SurfaceSignature(1, 1)), SurfaceSignature(1, 1)) \
        == "p1*q1*p1^-1*q1^-1*z1"
    assert format_word(boundary_word(SurfaceSignature(0, 2)), SurfaceSignature(0, 2)) \
        == "z1*z2"
    assert boundary_word(SurfaceSignature(0, 0)) == Word.identity()


def test_sampling_is_deterministic():
    a = [sample_word(random.Random(5), SIG, 4) for _ in range(10)]
    b = [sample_word(random.Random(5), SIG, 4) for _ in range(10)]
    assert a == b


def old_sample_word(rng, sig, max_len):
    """sample_word as first written: randint, randrange and choice, then Word."""
    if sig.rank == 0:
        return Word.identity()
    length = rng.randint(0, max_len)
    return Word([(rng.randrange(sig.rank), rng.choice((1, -1))) for _ in range(length)])


SAMPLED_SIGNATURES = sorted({(0, 0), (0, 1), *(gm for sigs in ALL_MATRIX.values() for gm in sigs)})


@pytest.mark.parametrize("genus, punctures", SAMPLED_SIGNATURES)
def test_sample_word_matches_the_randint_reference(genus, punctures):
    sig = SurfaceSignature(genus, punctures)
    for s in range(60):
        for max_len in range(7):
            new, old = random.Random(f"{s}:{max_len}"), random.Random(f"{s}:{max_len}")
            # three words from one stream, so each starts where the last one left the rng
            for _ in range(3):
                assert sample_word(new, sig, max_len) == old_sample_word(old, sig, max_len)
                assert new.getstate() == old.getstate()


@pytest.mark.parametrize("max_len", [-1, -2, -100])
def test_sample_word_refuses_a_negative_length_before_drawing(max_len):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^max_len must be nonnegative, got {max_len}$"):
        sample_word(rng, SIG, max_len)
    assert rng.getstate() == state
