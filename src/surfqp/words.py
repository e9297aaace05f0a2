"""Reduced words in a free surface group.

The fundamental group of a compact oriented surface of genus g with m+1
boundary components is free on 2g+m generators, with the fixed order
p1 < q1 < ... < pg < qg < z1 < ... < zm.  A word is a tuple of letters
(generator index, exponent) with exponent +1 or -1, kept freely reduced.
Conjugacy classes are represented by the lexicographically minimal
rotation of the cyclic reduction, so conjugate words normalize to equal
objects.

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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Letter = tuple[int, int]


class WordParseError(ValueError):
    """Malformed word string; carries the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


@dataclass(frozen=True)
class SurfaceSignature:
    """Genus and puncture count; fixes the generator alphabet, its order and names."""

    genus: int
    punctures: int
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 0:
            raise ValueError("genus and punctures must be nonnegative")
        object.__setattr__(self, "names", tuple(
            [f"{kind}{u + 1}" for u in range(self.genus) for kind in "pq"]
            + [f"z{v + 1}" for v in range(self.punctures)]))

    @property
    def rank(self) -> int:
        return 2 * self.genus + self.punctures

    def gen_name(self, index: int) -> str:
        if not 0 <= index < self.rank:
            raise IndexError(f"generator index {index} out of range")
        return self.names[index]

    def gen_names(self) -> list[str]:
        return list(self.names)

    def gen_index(self, name: str) -> int:
        m = re.fullmatch(r"([pqz])([1-9][0-9]*)", name)
        if m is None:
            raise KeyError(name)
        kind, num = m.group(1), int(m.group(2))
        if kind in "pq":
            index = 2 * (num - 1) + (0 if kind == "p" else 1)
            if num > self.genus:
                raise KeyError(name)
        else:
            index = 2 * self.genus + num - 1
            if num > self.punctures:
                raise KeyError(name)
        return index

    def is_handle_pair(self, i: int, j: int) -> bool:
        """True when (i, j) are the p/q letters of one handle, in order."""
        return j == i + 1 and i % 2 == 0 and j < 2 * self.genus

    def letter_kind(self, index: int) -> str:
        if index >= 2 * self.genus:
            return "z"
        return "pq"[index % 2]


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {exp}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


class Word:
    """A freely reduced word.  Immutable and hashable; the empty word is 1."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = (), *, _reduced: bool = False):
        if _reduced:
            self.letters = tuple(letters)
        else:
            self.letters = _free_reduce(letters)

    @staticmethod
    def identity() -> "Word":
        return _IDENTITY

    @staticmethod
    def generator(index: int, exp: int = 1) -> "Word":
        return Word(((index, exp),), _reduced=True)

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return join(self.letters, other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)), _reduced=True)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        if n <= 1:
            return self if n else _IDENTITY
        # one free reduction of the n-fold concatenation, linear in its length
        return Word(self.letters * n)

    def conjugate_by(self, u: "Word") -> "Word":
        return u * self * u.inverse()

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.letters!r})"


_IDENTITY = Word((), _reduced=True)


def join(left: tuple[Letter, ...], right: tuple[Letter, ...]) -> Word:
    """The word of two reduced letter tuples laid end to end.  Only the seam
    can cancel: count the k cancelling letter pairs there, then slice once."""
    if left and right and left[-1][0] == right[0][0] and left[-1][1] == -right[0][1]:
        n, k, top = len(left), 1, min(len(left), len(right))
        while k < top and left[n - 1 - k][0] == right[k][0] \
                and left[n - 1 - k][1] == -right[k][1]:
            k += 1
        left, right = left[:n - k], right[k:]
    # the concatenation is reduced, so skip the constructor's check
    out = Word.__new__(Word)
    out.letters = left + right
    return out


class CyclicWord:
    """Conjugacy class of a word: cyclic reduction, minimal rotation."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[Letter], *, _canonical: bool = False):
        self.letters = tuple(letters) if _canonical else _cyclic_normal(_free_reduce(letters))

    @staticmethod
    def of(word: Word) -> "CyclicWord":
        # a Word is reduced already
        return CyclicWord(_cyclic_normal(word.letters), _canonical=True)

    def representative(self) -> Word:
        return Word(self.letters, _reduced=True)

    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(("cyc", self.letters))

    def __repr__(self) -> str:
        return f"CyclicWord({self.letters!r})"


def _cyclic_normal(reduced: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The least rotation of the cyclic reduction: count the k cancelling end
    pairs of a reduced word, then slice once."""
    k = 0
    while len(reduced) - 2 * k > 1 and reduced[k] == (reduced[~k][0], -reduced[~k][1]):
        k += 1
    return _min_rotation(reduced[k:len(reduced) - k])


def _min_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    n = len(letters)
    if n < 2:
        return letters
    # one int key per letter, generators by global index and x before x^-1;
    # a least rotation starts at a least letter
    keys = [2 * g + (e < 0) for g, e in letters] * 2
    least = min(keys)
    best = min((i for i in range(n) if keys[i] == least), key=lambda i: keys[i:i + n])
    return letters[best:] + letters[:best]


def conjugacy_class(word: Word) -> CyclicWord:
    return CyclicWord.of(word)


# --- cut corners ----------------------------------------------------------

def corner_table(values: Mapping, corner_key: Callable) -> dict:
    """Integer weights (di, dj, c) on the corners (di, dj) in {0,1}^2 of every
    signed letter pair from the values on generator pairs (i, j): a term (key, c)
    goes to the first corner with corner_key(x_i, x_j, di, dj) == key (equal keys
    have equal cuts) or raises ValueError.  x^-1 flips di, y^-1 flips dj."""
    corners, out = ((0, 0), (0, 1), (1, 0), (1, 1)), {}
    for (i, j), value in values.items():
        x, y, index = Word.generator(i), Word.generator(j), {}
        for n, d in enumerate(corners):
            index.setdefault(corner_key(x, y, *d), n)
        sums = [0] * 4
        for key, c in value.items():
            if (n := index.get(key)) is None:
                raise ValueError(f"table term {key!r} of pair {(i, j)} is at no cut corner")
            sums[n] += c
        for ex, ey in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            out.setdefault((i, ex), {})[(j, ey)] = tuple((di ^ (ex < 0), dj ^ (ey < 0), ex * ey * c)
                                                         for (di, dj), c in zip(corners, sums) if c)
    return out


def corner_cuts(xs: Sequence[Letter], ys: Sequence[Letter], table: Mapping) -> Iterator:
    """(i', [(j', c), ...]) per row of cuts with a nonzero weight c, each letter pair
    (i, j) adding the corners (di, dj, c) of table[x_i][y_j] at (i + di, j + dj);
    row i' is done, and yielded, once letter i' has added to it."""
    row = [0] * (len(ys) + 1)
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


# --- parsing / formatting -------------------------------------------------

_TOKEN_RE = re.compile(r"([pqz])([0-9]+)(?:\^(-?[0-9]+))?")

# longest word parse_word expands before it gives up, checked before allocating
MAX_WORD_LETTERS = 100_000


def parse_word(text: str, sig: SurfaceSignature) -> Word:
    """Parse the word grammar; raises WordParseError with a position."""
    s = text.strip()
    if s == "1":
        return Word.identity()
    if not s:
        raise WordParseError("empty word string, use '1' for the identity", 0)
    letters: list[Letter] = []
    pos = 0
    expect_token = True
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
        exp = 1 if m.group(3) is None else int(m.group(3))
        sign = 1 if exp >= 0 else -1
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise WordParseError(f"word longer than {MAX_WORD_LETTERS} letters", pos)
        letters.extend((index, sign) for _ in range(abs(exp)))
        pos = m.end()
        expect_token = False
    if expect_token:
        raise WordParseError("trailing separator", len(text) - 1)
    return Word(letters)


def format_word(word: Word, sig: SurfaceSignature) -> str:
    """Serialize back to the word grammar, collapsing runs into powers."""
    if word.is_identity():
        return "1"
    parts: list[str] = []
    run_gen, run_exp = word.letters[0]
    count = run_exp
    for gen, exp in word.letters[1:]:
        if gen == run_gen and (exp > 0) == (count > 0):
            count += exp
        else:
            parts.append(_format_run(run_gen, count, sig))
            run_gen, count = gen, exp
    parts.append(_format_run(run_gen, count, sig))
    return "*".join(parts)


def _format_run(gen: int, exp: int, sig: SurfaceSignature) -> str:
    name = sig.names[gen]
    return name if exp == 1 else f"{name}^{exp}"


def format_cyclic(cw: CyclicWord, sig: SurfaceSignature) -> str:
    return format_word(cw.representative(), sig)


def boundary_word(sig: SurfaceSignature) -> Word:
    """The distinguished boundary element [p1,q1]...[pg,qg] z1...zm with
    commutator [a,b] = a b a^-1 b^-1.

    Pinned as the word whose (verified, see the moment-map suite) double
    bracket against every element has the moment-map shape; its inverse
    does not.
    """
    out = Word.identity()
    for u in range(sig.genus):
        p, q = Word.generator(2 * u), Word.generator(2 * u + 1)
        out = out * p * q * p.inverse() * q.inverse()
    for v in range(sig.punctures):
        out = out * Word.generator(2 * sig.genus + v)
    return out


# --- seeded sampling ------------------------------------------------------

def sample_word(rng: random.Random, sig: SurfaceSignature, max_len: int = 4) -> Word:
    """Random reduced word: length uniform on 0..max_len, letters uniform
    over the signed alphabet, then freely reduced.  Deterministic in rng."""
    if sig.rank == 0:
        return Word.identity()
    length = rng.randint(0, max_len)
    letters = [(rng.randrange(sig.rank), rng.choice((1, -1))) for _ in range(length)]
    return Word(letters)


def trial_rng(seed: int, label: str, trial: int) -> random.Random:
    """Per-trial PRNG stream derived from (seed, label, trial index)."""
    return random.Random(f"{seed}:{label}:{trial}")
