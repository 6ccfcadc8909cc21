"""Monomials, words, letter orderings, and the maps between them.

Letters are canonical indices ``0..n-1``; display names live in
:class:`Alphabet` and matter only for parsing and printing.  A monomial is
an exponent vector over the letters, a word is a finite letter sequence,
and an :class:`Ordering` is a permutation of the letters.  The ordering
induces the sorting section ``sigma`` of the abelianization map ``pi``:
``sigma(m)`` is the unique weakly increasing word whose letter counts are
``m``, and ``pi(sigma(m)) == m``.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left
from dataclasses import dataclass
from operator import le
from typing import Callable, Iterable, Iterator, Sequence

# Exponent arithmetic is checked against a 64-bit budget: exponents may be
# given in binary, so silent wraparound would corrupt verdicts.
MAX_TOTAL_DEGREE = 2**63 - 1


class MonoidealError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetMismatchError(MonoidealError):
    """Operands live over alphabets of different sizes."""


class ExponentOverflowError(MonoidealError):
    """An exponent or total degree exceeded the 64-bit budget."""


class UnitMonomialError(MonoidealError):
    """The unit monomial was passed to an operation requiring nonunits."""


class NotAntichainError(MonoidealError):
    """A monomial set required to be an antichain is not one."""


class NotFinitelyGeneratedError(MonoidealError):
    """A finite generating set was requested for an infinite ideal; ``witness`` says why."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(MonoidealError):
    """An enumeration was stopped because it exceeded its work budget."""


class ParseError(MonoidealError):
    """Malformed textual input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered nonblank lines of a clause or graph file, comments removed.

    `#` starts a comment that runs to the end of the line, and a line
    starting with `c` is a comment.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith("c"):
            yield lineno, line


@dataclass(frozen=True)
class Alphabet:
    """A finite set of letters with display names; index order is fixed."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise MonoidealError("alphabet must contain at least one letter")
        if len(set(self.names)) != len(self.names):
            raise MonoidealError("alphabet names must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MonoidealError(f"unknown letter {name!r}") from None

    @staticmethod
    def default(n: int) -> "Alphabet":
        """x1..xn, used when input declares no letter names."""
        return Alphabet(tuple(f"x{i + 1}" for i in range(n)))


@dataclass(frozen=True)
class Monomial:
    """An element of the free commutative monoid: an exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        total = 0
        for e in self.exponents:
            if not isinstance(e, int) or isinstance(e, bool):
                raise MonoidealError(f"exponent {e!r} is not an integer")
            if e < 0:
                raise MonoidealError(f"negative exponent {e}")
            total += e
        if total > MAX_TOTAL_DEGREE:
            raise ExponentOverflowError(
                f"total degree {total} exceeds the 64-bit limit"
            )

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise AlphabetMismatchError("monomials live over different alphabets")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))


@dataclass(frozen=True)
class Word:
    """An element of the free monoid: a finite sequence of letter indices."""

    letters: tuple[int, ...]

    def __post_init__(self):
        # plain ints with a nonnegative minimum pass in C; the loop names the
        # first bad letter, and accepts int subclasses other than bool
        letters = self.letters
        if set(map(type, letters)) <= {int} and min(letters, default=0) >= 0:
            return
        for x in letters:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise MonoidealError(f"invalid letter index {x!r}")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters


@dataclass(frozen=True)
class Ordering:
    """A total order on the letters, as a permutation.

    ``rank[x]`` is the position of letter ``x``: ``x`` precedes ``y``
    exactly when ``rank[x] < rank[y]``.
    """

    rank: tuple[int, ...]

    def __post_init__(self):
        seq = [-1] * len(self.rank)
        for letter, pos in enumerate(self.rank):
            if not isinstance(pos, int) or isinstance(pos, bool):
                raise MonoidealError(f"ordering rank entry {pos!r} is not an integer")
            if not 0 <= pos < len(seq) or seq[pos] != -1:
                raise MonoidealError("ordering rank must be a permutation of 0..n-1")
            seq[pos] = letter
        # not a field, so repr, == and hash still read the rank alone
        object.__setattr__(self, "_sequence", tuple(seq))

    @property
    def n(self) -> int:
        return len(self.rank)

    def sequence(self) -> tuple[int, ...]:
        """Letters listed from smallest to largest."""
        return self._sequence

    def precedes(self, x: int, y: int) -> bool:
        return self.rank[x] < self.rank[y]

    def reversed(self) -> "Ordering":
        n = self.n
        return Ordering(tuple(n - 1 - r for r in self.rank))

    @staticmethod
    def from_sequence(seq: Sequence[int]) -> "Ordering":
        rank = [-1] * len(seq)
        for pos, letter in enumerate(seq):
            if not 0 <= letter < len(seq) or rank[letter] != -1:
                raise MonoidealError("ordering sequence must list each letter once")
            rank[letter] = pos
        return Ordering(tuple(rank))

    @staticmethod
    def identity(n: int) -> "Ordering":
        return Ordering(tuple(range(n)))


def all_orderings(n: int) -> Iterable[Ordering]:
    for seq in itertools.permutations(range(n)):
        yield Ordering.from_sequence(seq)


# ---------------------------------------------------------------------------
# basic operations


def _check_same_alphabet(u: Monomial, v: Monomial) -> None:
    if u.n != v.n:
        raise AlphabetMismatchError("monomials live over different alphabets")


def _check_letter(x: int, n: int) -> None:
    if not 0 <= x < n:
        raise MonoidealError(f"letter index {x} out of range for {n} letters")


def divides(u: Monomial, v: Monomial) -> bool:
    """Componentwise comparison of exponent vectors."""
    _check_same_alphabet(u, v)
    return all(a <= b for a, b in zip(u.exponents, v.exponents))


def erase(w: Monomial, x: int) -> Monomial:
    """Evaluate letter ``x`` to 1, zeroing its exponent."""
    _check_letter(x, w.n)
    e = list(w.exponents)
    e[x] = 0
    return Monomial(tuple(e))


def support(w: Monomial) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(w.exponents) if e > 0)


def extremal_internal(
    w: Monomial, ord: Ordering
) -> tuple[int, int, frozenset[int]]:
    """Smallest and largest support letters, plus everything strictly between.

    Internal letters need not occur in ``w``: any alphabet letter whose rank
    lies strictly between the extremal ranks counts.
    """
    if w.n != ord.n:
        raise AlphabetMismatchError("monomial and ordering sizes differ")
    ranks = [r for r, e in zip(ord.rank, w.exponents) if e]
    if not ranks:
        raise UnitMonomialError("the unit monomial has no extremal letters")
    lo, hi = min(ranks), max(ranks)
    seq = ord.sequence()
    return seq[lo], seq[hi], frozenset(seq[lo + 1 : hi])


def internal_letters(w: Monomial, ord: Ordering) -> frozenset[int]:
    return frozenset() if w.is_unit else extremal_internal(w, ord)[2]


def is_extremal(w: Monomial, x: int, ord: Ordering) -> bool:
    """Whether ``x`` is the smallest or largest support letter of ``w``."""
    return x in support(w) and x in extremal_internal(w, ord)[:2]


def monomial_set(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Deduplicate, preserving first-occurrence order."""
    out = tuple(dict.fromkeys(monomials))
    if out:
        n = out[0].n
        for m in out:
            if m.n != n:
                raise AlphabetMismatchError("monomial set mixes alphabet sizes")
    return out


def _is_antichain_rows(rows: Sequence[tuple[int, ...]]) -> bool:
    """Whether no exponent row divides another; the rows are distinct and equally long.

    Two distinct rows of equal degree never divide each other, so each row
    is compared only with the rows of strictly smaller degree.
    """
    rows = sorted(rows, key=sum)
    degrees = list(map(sum, rows))
    return not any(
        all(map(le, u, v))
        for d, v in zip(degrees, rows)
        for u in rows[: bisect_left(degrees, d)]
    )


def _check_nonunit_rows(rows: Sequence[tuple[int, ...]], n: int | None) -> None:
    if not all(map(any, rows)):
        raise UnitMonomialError("M contains the unit monomial")
    if n is not None and rows and len(rows[0]) != n:
        raise AlphabetMismatchError("monomial and ordering sizes differ")


def is_antichain(M: Iterable[Monomial]) -> bool:
    return _is_antichain_rows([m.exponents for m in monomial_set(M)])


def nonunit_set(M: Iterable[Monomial], n: int | None = None) -> tuple[Monomial, ...]:
    """The distinct members of ``M``: nonunits over one alphabet, of ``n`` letters if given."""
    ms = monomial_set(M)
    _check_nonunit_rows([m.exponents for m in ms], n)
    return ms


def checked_antichain(M: Iterable[Monomial], n: int | None = None) -> tuple[Monomial, ...]:
    """:func:`nonunit_set` of ``M``, once ``M`` is known to be an antichain.

    A unit beside other members divides them, so it fails the antichain test.
    """
    ms = monomial_set(M)
    rows = [m.exponents for m in ms]
    if not _is_antichain_rows(rows):
        raise NotAntichainError("M is not an antichain")
    _check_nonunit_rows(rows, n)
    return ms


def antichain_reduce(M: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal elements of ``M``; generates the same ideal."""
    ms = monomial_set(M)
    out = []
    for m in ms:
        if not any(other is not m and divides(other, m) for other in ms):
            out.append(m)
    return tuple(out)


def sigma(w: Monomial, ord: Ordering) -> Word:
    """The unique sorted word whose abelianization is ``w``."""
    if w.n != ord.n:
        raise AlphabetMismatchError("monomial and ordering sizes differ")
    letters: list[int] = []
    for x in sorted(range(w.n), key=lambda i: ord.rank[i]):
        letters.extend([x] * w.exponents[x])
    return Word(tuple(letters))


def pi(u: Word, n: int) -> Monomial:
    """Abelianization: count letter occurrences into an exponent vector."""
    e = [0] * n
    for x in u.letters:
        _check_letter(x, n)
        e[x] += 1
    return Monomial(tuple(e))


def sort_word(u: Word, ord: Ordering) -> Word:
    """Rearrange the letters of ``u`` into increasing order; idempotent."""
    return sigma(pi(u, ord.n), ord)


# characters a str can hold; a word set with more distinct letters takes two per letter
_CHARS = sys.maxunicode + 1


def _letter_strings(words: Sequence[Word]) -> list[str]:
    """Each word as a string, so that one word is a factor of another exactly
    when its string is a substring of the other's.

    The distinct letters are relabeled ``chr(0), chr(1), ...``, whatever the
    size of their indices.  Past ``_CHARS`` of them, each letter takes a high
    character and then a low one; a high character starts every code, so a
    substring match starts at a letter.
    """
    letters = set().union(*(w.letters for w in words))
    if len(letters) <= _CHARS:
        codes = map(chr, range(len(letters)))
    else:
        half = _CHARS // 2
        codes = (chr(half + i // half) + chr(i % half) for i in range(len(letters)))
    code = dict(zip(letters, codes))
    return ["".join(map(code.__getitem__, w.letters)) for w in words]


def word_is_factor(u: Word, v: Word) -> bool:
    """Whether ``u`` occurs as a contiguous block of ``v``."""
    a, b = _letter_strings((u, v))
    return a in b


def extremal_degree_max(M: Iterable[Monomial], x: int, ord: Ordering) -> int:
    """Largest degree with which ``x`` occurs as an extremal letter in ``M``."""
    _check_letter(x, ord.n)
    best = 0
    for w in monomial_set(M):
        if w.n != ord.n:
            raise AlphabetMismatchError("monomial and ordering sizes differ")
        if is_extremal(w, x, ord) and w.exponents[x] > best:
            best = w.exponents[x]
    return best


# ---------------------------------------------------------------------------
# brute-force referee for clause instances

def some_assignment_passes(
    variable_count: int,
    clauses: Iterable[Sequence[int]],
    clause_ok: Callable[[list[bool]], bool],
) -> bool:
    """Whether some assignment of variables 1..n passes every clause.

    ``clause_ok`` gets the truth values of a clause's literals (literal
    ``k`` is true when variable ``k`` is, ``-k`` when it is not).
    """
    if variable_count > 24:
        raise MonoidealError("brute force limited to 24 variables")
    for bits in range(1 << variable_count):
        if all(
            clause_ok([((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in clause])
            for clause in clauses
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# printing

def format_monomial(m: Monomial, alphabet: Alphabet) -> str:
    if m.n != alphabet.size:
        raise AlphabetMismatchError("monomial does not match alphabet")
    parts = []
    for i, e in enumerate(m.exponents):
        if e == 1:
            parts.append(alphabet.names[i])
        elif e > 1:
            parts.append(f"{alphabet.names[i]}^{e}")
    return " ".join(parts) if parts else "1"


def format_word(w: Word, alphabet: Alphabet) -> str:
    if not w.letters:
        return "1"
    parts = []
    for letter, run in itertools.groupby(w.letters):
        _check_letter(letter, alphabet.size)
        k = len(list(run))
        name = alphabet.names[letter]
        parts.append(name if k == 1 else f"{name}^{k}")
    return " ".join(parts)


def format_ordering(ord: Ordering, alphabet: Alphabet) -> str:
    return " ".join(alphabet.names[x] for x in ord.sequence())


def sorted_monomials(M: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Deterministic output order: exponent-vector lexicographic."""
    return tuple(sorted(monomial_set(M), key=lambda m: m.exponents))


def sorted_words(words: Iterable[Word]) -> tuple[Word, ...]:
    """Deterministic output order: by (length, letter sequence)."""
    unique = sorted(set(words), key=lambda w: (len(w.letters), w.letters))
    return tuple(unique)
