"""Reduced words in a free surface group.

The fundamental group of a compact oriented surface of genus g with m+1
boundary components is free on 2g+m generators, with the fixed order
p1 < q1 < ... < pg < qg < z1 < ... < zm.  A letter is a pair (generator
index g, exponent e) with e = +1 or -1, and a word is a str of letter codes
chr(2 g + (e < 0)), kept freely reduced: x and x^-1 differ in the lowest bit
of their codes.  A conjugacy class is the CyclicWord, a Word subclass, of
the least rotation of the cyclic reduction in the order of the codes, so
conjugate words normalize to equal words.

String grammar (also used for serialization)::

    word := "1" | token (sep token)*
    sep  := "*" | whitespace
    token := gen ("^" signed-int)?
    gen  := ("p"|"q"|"z") positive-int
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap
from typing import Callable, Iterable, Iterator, Mapping

Letter = tuple[int, int]

# a letter's code chr(2 g + 1) must be a code point, at most 0x10FFFF
MAX_RANK = 0x110000 // 2
_RANK_DIGITS = len(str(MAX_RANK))


class WordParseError(ValueError):
    """Malformed word string; carries the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class _Tokens(dict):
    """Letter code -> "*name" or "*name^-1", filled per code on first use: str.translate
    calls __missing__, and reads a LookupError from it as "keep the character"."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names

    def __missing__(self, code: int) -> str:
        if code >> 1 >= len(self.names):
            raise ValueError(f"generator index {code >> 1} is past rank {len(self.names)}")
        return self.setdefault(code, f"*{self.names[code >> 1]}" + "^-1" * (code & 1))


@dataclass(frozen=True)
class SurfaceSignature:
    """Genus and puncture count; fixes the generator alphabet, its order and names."""

    genus: int
    punctures: int
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    tokens: _Tokens = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 0:
            raise ValueError("genus and punctures must be nonnegative")
        if self.rank > MAX_RANK:
            raise ValueError(f"rank {self.rank} is past {MAX_RANK}, the last with letter codes")
        object.__setattr__(self, "names", tuple(
            [f"{kind}{u + 1}" for u in range(self.genus) for kind in "pq"]
            + [f"z{v + 1}" for v in range(self.punctures)]))
        object.__setattr__(self, "tokens", _Tokens(self.names))

    @property
    def rank(self) -> int:
        return 2 * self.genus + self.punctures

    def gen_name(self, index: int) -> str:
        if not 0 <= index < self.rank:
            raise IndexError(f"generator index {index} out of range")
        return self.names[index]

    def gen_index(self, name: str) -> int:
        kind, num = name[:1], name[1:]
        if (kind not in ("p", "q", "z") or not (num.isascii() and num.isdigit()) or num[0] == "0"
                or len(num) > _RANK_DIGITS):  # int() refuses past 4300 digits
            raise KeyError(name)
        num = int(num)
        if num > (self.punctures if kind == "z" else self.genus):
            raise KeyError(name)
        return 2 * self.genus + num - 1 if kind == "z" else 2 * num - 2 + (kind == "q")

    def is_handle_pair(self, i: int, j: int) -> bool:
        """True when (i, j) are the p/q letters of one handle, in order."""
        return j == i + 1 and i % 2 == 0 and j < 2 * self.genus

    def letter_kind(self, index: int) -> str:
        return "z" if index >= 2 * self.genus else "pq"[index % 2]

    def pair_kind(self, i: int, j: int) -> str:
        """The kind of the generator pair (i, j), which fixes its table values: "q" or
        "pz" for a letter with itself, "handle" or "handle^t" for the p/q letters of one
        handle in order or reversed, and "<" or ">" for any other pair, by order."""
        if i == j:
            return "q" if self.letter_kind(i) == "q" else "pz"
        if self.is_handle_pair(min(i, j), max(i, j)):
            return "handle" if i < j else "handle^t"
        return "<" if i < j else ">"


def _letter_code(gen: int, exp: int) -> int:
    if exp not in (1, -1):
        raise ValueError(f"letter exponent must be +1 or -1, got {exp}")
    if not 0 <= gen < MAX_RANK:
        raise IndexError(f"generator index {gen} out of range")
    return 2 * gen + (exp < 0)


def _reduce(codes: Iterable[int]) -> "Word":
    """The Word of a sequence of letter codes, freely reduced on one stack."""
    stack: list[int] = []
    for code in codes:
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
    return _word("".join(map(chr, stack)))


def code_letter(code: str) -> Letter:
    """The letter (g, e) of one code character."""
    gen, inverse = divmod(ord(code), 2)
    return gen, -1 if inverse else 1


def join(left: str, right: str) -> "Word":
    """The word of two reduced code strings laid end to end.  Only the seam
    can cancel: count the k cancelling letter pairs there, then slice once."""
    if left and right and ord(left[-1]) ^ 1 == ord(right[0]):
        n, k, top = len(left), 1, min(len(left), len(right))
        while k < top and ord(left[n - 1 - k]) ^ 1 == ord(right[k]):
            k += 1
        left, right = left[:n - k], right[k:]
    # the concatenation is reduced, so skip the constructor's check
    return _word(str.__add__(left, right))


class _Flip(dict):
    """Letter code -> code ^ 1, its inverse's, filled per code on first use like _Tokens."""

    def __missing__(self, code: int) -> int:
        return self.setdefault(code, code ^ 1)


_FLIP = _Flip()


class Word(str):
    """A freely reduced word (the empty word is 1): an immutable str of letter
    codes, hashed, compared, sliced and joined in C.  Indexing, slicing (to a
    plain str) and iteration see codes; `letters` decodes them.  A Word orders
    by its codes and equals a plain str of the same codes; src/ never mixes
    the two.  Words multiply by `*` only: `+` and int factors raise TypeError.
    In the group algebra a word is a one-term, group-like element: `items()`
    is ((word, 1),) and `counit()` is 1, so bilinear maps read words as they
    read AlgElems."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Letter] = ()):
        return _reduce(starmap(_letter_code, letters))

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(map(code_letter, self))

    @staticmethod
    def identity() -> "Word":
        return _IDENTITY

    @staticmethod
    def generator(index: int, exp: int = 1) -> "Word":
        return _word(chr(_letter_code(index, exp)))

    def items(self) -> tuple[tuple["Word", int]]:
        return ((self, 1),)

    def counit(self) -> int:
        return 1

    __mul__ = join

    def __add__(self, other):
        return NotImplemented

    __rmul__ = __add__

    def inverse(self) -> "Word":
        return _word(self[::-1].translate(_FLIP))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        if n <= 1:
            return self if n else _IDENTITY
        # self is u c u^-1 with c cyclically reduced, so u c^n u^-1 is reduced
        k, m = _end_pairs(self), len(self)
        return _word(self[:k] + self[k:m - k] * n + self[m - k:])

    def conjugate_by(self, u: "Word") -> "Word":
        return u * self * u.inverse()

    def __getnewargs__(self):
        return (self.letters,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.letters!r})"


# the Word of a reduced code string
_word = partial(str.__new__, Word)
_IDENTITY = Word()


class CyclicWord(Word):
    """Conjugacy class of a word, as the Word of its normal form: the least
    rotation of its cyclic reduction.  It hashes and compares as that Word."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Letter] = ()):
        return CyclicWord.of(Word(letters))

    @staticmethod
    def of(word: Word) -> "CyclicWord":
        # a Word is reduced already: cut off its cancelling end pairs with one slice
        k = _end_pairs(word)
        return str.__new__(CyclicWord, _min_rotation(word[k:len(word) - k]))


def _end_pairs(reduced: str) -> int:
    """The number k of end pairs reduced[i], reduced[~i], i < k, that cancel."""
    k = 0
    while len(reduced) - 2 * k > 1 and ord(reduced[k]) ^ 1 == ord(reduced[~k]):
        k += 1
    return k


def _min_rotation(codes: str) -> str:
    n = len(codes)
    if n < 2:
        return codes
    # a least rotation starts where a longest cyclic run of the least code starts; a
    # run at 0 that goes on from the end is shorter than the run it continues
    least, twice = min(codes), codes + codes
    runs = [(m.start(), m.end() - m.start())
            for m in re.finditer(re.escape(least) + "+", twice) if m.start() < n]
    longest = max(k for _, k in runs)
    return min(twice[i:i + n] for i, k in runs if k == longest)


# --- cut corners ----------------------------------------------------------

_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def signed_corners(weights: Mapping[str, tuple]) -> dict:
    """Integer weights (di, dj, c) on the corners (di, dj) in {0,1}^2 of (x, y),
    (x, y^-1), (x^-1, y) and (x^-1, y^-1) per kind, from weights[kind] on the
    corners 00, 01, 10, 11 of (x, y): x^-1 flips di and y^-1 flips dj, each negating c."""
    return {kind: [tuple((di ^ sx, dj ^ sy, -c if sx ^ sy else c)
                         for (di, dj), c in zip(_CORNERS, key) if c)
                   for sx in (0, 1) for sy in (0, 1)] for kind, key in weights.items()}


def corner_table(sig: SurfaceSignature, signed: Mapping[str, list]) -> dict:
    """signed[sig.pair_kind(i, j)]'s entries for the signed pairs of every (x_i, x_j), by codes."""
    out = {chr(c): {} for c in range(2 * sig.rank)}
    for i in range(sig.rank):
        for j in range(sig.rank):
            for n, entry in enumerate(signed[sig.pair_kind(i, j)]):
                out[chr(2 * i + (n >> 1))][chr(2 * j + (n & 1))] = entry
    return out


def corner_cuts(xs: str, ys: str, table: Mapping) -> Iterator:
    """(i', [(j', c), ...]) per row of cuts with a nonzero weight c, each letter pair
    (i, j) adding the corners (di, dj, c) of table[x_i][y_j] at (i + di, j + dj);
    row i' is done, and yielded, once letter i' has added to it."""
    row = [0] * (len(ys) + 1)
    try:
        for i in range(len(xs) + 1):
            nxt = [0] * (len(ys) + 1)
            if i < len(xs):
                rows, entries = (row, nxt), table[xs[i]]
                for j, y in enumerate(ys):
                    for di, dj, c in entries[y]:
                        rows[di][j + dj] += c
            if cuts := [(j, c) for j, c in enumerate(row) if c]:
                yield i, cuts
            row = nxt
    except KeyError as e:  # a letter past the table's rank
        raise IndexError(f"generator index {ord(e.args[0]) >> 1} out of range "
                         f"for rank {len(table) // 2}") from None


# --- parsing / formatting -------------------------------------------------

_TOKEN_RE = re.compile(r"([pqz])([0-9]+)(?:\^(-?)([0-9]+))?")

# longest word parse_word expands before it gives up, checked before allocating
MAX_WORD_LETTERS = 100_000
_LETTER_DIGITS = len(str(MAX_WORD_LETTERS))


def parse_word(text: str, sig: SurfaceSignature) -> Word:
    """Parse the word grammar; raises WordParseError with a position."""
    s = text.strip()
    if s == "1":
        return Word.identity()
    if not s:
        raise WordParseError("empty word string, use '1' for the identity", 0)
    # each token x^k is one run chr(code) * |k|, a reduced code string
    runs: list[str] = [Word.identity()]
    pos, letters, expect_token = 0, 0, True
    while pos < len(text):
        ch = text[pos]
        if ch.isspace() or ch == "*":
            if ch == "*" and expect_token:
                raise WordParseError("expected generator token before '*'", pos)
            expect_token = expect_token or ch == "*"
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise WordParseError(f"expected generator token, found {text[pos]!r}", pos)
        name = m.group(1) + m.group(2)
        try:
            index = sig.gen_index(name)
        except KeyError:
            raise WordParseError(f"unknown generator {name!r} for genus {sig.genus}, "
                                 f"punctures {sig.punctures}", pos) from None
        # an exponent with more digits than MAX_WORD_LETTERS is too long before int() reads it
        digits = (m.group(4) or "1").lstrip("0")
        n = int(digits or "0") if len(digits) <= _LETTER_DIGITS else MAX_WORD_LETTERS + 1
        letters += n
        if letters > MAX_WORD_LETTERS:
            raise WordParseError(f"word longer than {MAX_WORD_LETTERS} letters", pos)
        runs.append(chr(2 * index + bool(m.group(3))) * n)
        pos = m.end()
        expect_token = False
    if expect_token:
        raise WordParseError("trailing separator", len(text) - 1)
    # join neighbours pairwise (cancelling at each seam): n tokens copy log n times, not n
    while len(runs) > 1:
        runs = [*map(join, runs[::2], runs[1::2]), *runs[len(runs) & ~1:]]
    return runs[0]


# a run of two or more equal codes; re.S, as a code may be chr(10)
_RUN_RE = re.compile(r"((.)\2+)", re.S)


def format_word(word: Word, sig: SurfaceSignature) -> str:
    """Serialize back to the word grammar, collapsing runs into powers."""
    # segment, run, its code, segment, ...: a run of one code is x^k or x^-k, as a
    # reduced word holds no x x^-1; each segment is one str.translate
    parts, tokens = _RUN_RE.split(word), sig.tokens
    for i in range(1, len(parts), 3):
        code, n = ord(parts[i + 1]), len(parts[i])
        parts[i], parts[i + 1] = f"{tokens[code & ~1]}^{-n if code & 1 else n}", ""
    parts[::3] = [segment.translate(tokens) for segment in parts[::3]]
    return "".join(parts)[1:] or "1"


def format_cyclic(cw: CyclicWord, sig: SurfaceSignature) -> str:
    return format_word(cw, sig)


def boundary_word(sig: SurfaceSignature) -> Word:
    """The distinguished boundary element [p1,q1]...[pg,qg] z1...zm with
    commutator [a,b] = a b a^-1 b^-1.

    Pinned as the word whose (verified, see the moment-map suite) double
    bracket against every element has the moment-map shape; its inverse
    does not.
    """
    # p_u, q_u, p_u^-1, q_u^-1 are the codes 4u, 4u + 2, 4u + 1, 4u + 3
    handles = [c for u in range(sig.genus) for c in (4 * u, 4 * u + 2, 4 * u + 1, 4 * u + 3)]
    return _reduce(handles + [2 * z for z in range(2 * sig.genus, sig.rank)])


# --- seeded sampling ------------------------------------------------------

def sample_word(rng: random.Random, sig: SurfaceSignature, max_len: int = 4) -> Word:
    """Random reduced word: length uniform on 0..max_len, then per letter a
    generator uniform on 0..rank-1 and a sign bit (1: inverse), freely reduced.
    A draw on 0..n-1 reads n.bit_length() bits of rng.getrandbits until they
    are below n, as randint, randrange and choice do: same words, same rng state."""
    if sig.rank == 0:
        return Word.identity()
    if max_len < 0:  # getrandbits(0) is 0 forever, so the length draw would never end
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    return _reduce(_letter_draws(rng.getrandbits, sig.rank, max_len))


def _letter_draws(bits: Callable[[int], int], rank: int, max_len: int) -> Iterator[int]:
    k, n = rank.bit_length(), (max_len + 1).bit_length()
    while (length := bits(n)) > max_len:
        pass
    for _ in range(length):
        while (gen := bits(k)) >= rank:
            pass
        while (sign := bits(2)) > 1:
            pass
        yield 2 * gen + sign


def trial_rng(seed: int, label: str, trial: int) -> random.Random:
    """Per-trial PRNG stream derived from (seed, label, trial index)."""
    return random.Random(f"{seed}:{label}:{trial}")
