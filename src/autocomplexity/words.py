"""Combinatorics-on-words core.

Words are finite sequences of integer symbols drawn from ``0..alphabet_size-1``.
This module provides the basic vocabulary used everywhere else: track words
(per-position pairs of two words), coordinate projections, the "slow" canonical
form under alphabet permutations, position partitions induced by symbol
equality, and the classical power/primitivity predicates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


class ParseError(ValueError):
    """A word or serialized object could not be parsed."""


@dataclass(frozen=True)
class Word:
    """An immutable word over the alphabet ``{0, ..., alphabet_size-1}``."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        for s in self.symbols:
            if not 0 <= s < self.alphabet_size:
                raise ValueError(
                    f"symbol {s} out of range for alphabet of size {self.alphabet_size}"
                )

    @classmethod
    def parse(cls, text: str, alphabet_size: int | None = None) -> Word:
        """Parse a digit string like ``"0010"``; empty string gives the empty
        word. A character other than the ASCII digits 0-9 (other Unicode
        digits included) or a digit outside the given alphabet is a parse
        error."""
        if not all("0" <= c <= "9" for c in text):
            raise ParseError(f"word must be a string of digits 0-9, got {text!r}")
        syms = tuple(int(c) for c in text)
        if alphabet_size is None:
            alphabet_size = max(syms, default=0) + 1
        elif max(syms, default=0) >= alphabet_size:
            raise ParseError(f"symbol {max(syms)} out of range for alphabet of size {alphabet_size}")
        return cls(syms, alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __str__(self) -> str:
        if self.alphabet_size <= 10:
            return "".join(str(s) for s in self.symbols)
        return ".".join(str(s) for s in self.symbols)


@dataclass(frozen=True)
class TrackWord(Word):
    """A word over a product alphabet; each symbol decodes to an ordered pair.

    A pair ``(g, d)`` with factor sizes ``(G, D)`` is encoded as ``g*D + d``.
    """

    first_factor_size: int = 1
    second_factor_size: int = 1

    def __post_init__(self) -> None:
        first, second = self.first_factor_size, self.second_factor_size
        if first < 1 or second < 1:
            raise ValueError("factor sizes must be at least 1")
        if self.alphabet_size != first * second:
            raise ValueError("alphabet_size must be the product of the factor sizes")
        Word.__post_init__(self)

    def decode(self, symbol: int) -> tuple[int, int]:
        return divmod(symbol, self.second_factor_size)

    def encode(self, first: int, second: int) -> int:
        if not (0 <= first < self.first_factor_size and 0 <= second < self.second_factor_size):
            raise ValueError("pair out of range for the factor alphabets")
        return first * self.second_factor_size + second

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.decode(s) for s in self.symbols)

    def __str__(self) -> str:
        return "".join(f"({g},{d})" for g, d in self.pairs())


@dataclass(frozen=True)
class Partition:
    """A partition of positions ``{0..ground_size-1}`` into nonempty classes.

    Classes are stored sorted by their least element, so equal partitions
    compare equal.
    """

    ground_size: int
    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("partition classes must be nonempty")
            if cls & seen:
                raise ValueError("partition classes must be disjoint")
            seen |= cls
        if seen != set(range(self.ground_size)):
            raise ValueError("partition classes must cover the ground set")
        canonical = tuple(sorted(self.classes, key=min))
        if canonical != self.classes:
            object.__setattr__(self, "classes", canonical)

    @classmethod
    def from_class_ids(cls, ids) -> Partition:
        groups: dict[object, set[int]] = {}
        ids = list(ids)
        for i, cid in enumerate(ids):
            groups.setdefault(cid, set()).add(i)
        return cls(len(ids), tuple(frozenset(g) for g in groups.values()))

    def class_of(self, i: int) -> frozenset[int]:
        for cls in self.classes:
            if i in cls:
                return cls
        raise IndexError(i)


def track(x: Word, y: Word) -> TrackWord:
    """Zip two equal-length words into the word of pairs ``(x_i, y_i)``."""
    xs, ys = x.symbols, y.symbols
    if len(xs) != len(ys):
        raise ValueError(f"track requires equal lengths, got {len(xs)} and {len(ys)}")
    d = y.alphabet_size
    return TrackWord(tuple([a * d + b for a, b in zip(xs, ys)]), x.alphabet_size * d, x.alphabet_size, d)


def project(w: TrackWord, coordinate: int) -> Word:
    """Extract the first or second coordinate word from a track word."""
    if coordinate == 1:
        return Word(tuple(g for g, _ in w.pairs()), w.first_factor_size)
    if coordinate == 2:
        return Word(tuple(d for _, d in w.pairs()), w.second_factor_size)
    raise ValueError(f"coordinate must be 1 or 2, got {coordinate}")


def slow_symbols(symbols: tuple) -> tuple[int, ...]:
    """Symbols relabeled in order of first occurrence, any hashable ones
    (a pair word's letter pairs, say) included."""
    relabel: dict = {}
    return tuple([relabel.setdefault(s, len(relabel)) for s in symbols])


def slow_normalize(w: Word) -> Word:
    """Relabel symbols in order of first occurrence.

    The result s satisfies s(0)=0 and s(i) <= max(s(j) for j<i) + 1, is the
    unique such image of w under a permutation of its alphabet, and induces
    the same position partition as w.
    """
    return Word(slow_symbols(w.symbols), w.alphabet_size)


def is_slow(w: Word) -> bool:
    top = -1
    for s in w.symbols:
        if s > top + 1:
            return False
        top = max(top, s)
    return True


def induced_partition(w: Word) -> Partition:
    return Partition.from_class_ids(w.symbols)


def refines(p: Partition, q: Partition) -> bool:
    """True iff every class of p lies inside a class of q."""
    if p.ground_size != q.ground_size:
        raise ValueError("refines compares partitions of the same ground set")
    return all(cls <= q.class_of(min(cls)) for cls in p.classes)


def is_permutation_word(w: Word) -> bool:
    return len(set(w.symbols)) == len(w.symbols)


def power(w: Word, k: int) -> Word:
    if k < 0:
        raise ValueError("power exponent must be nonnegative")
    return Word(w.symbols * k, w.alphabet_size)


def contains_kth_power(w: Word, k: int) -> bool:
    """True iff some nonempty factor u with u^k occurs in w."""
    if k < 1:
        raise ValueError("power order k must be at least 1")
    n = len(w)
    s = w.symbols
    for period in range(1, n // k + 1):
        for start in range(0, n - k * period + 1):
            block = s[start : start + period]
            if s[start : start + k * period] == block * k:
                return True
    return False


def is_primitive(w: Word) -> bool:
    """True iff w is not v^m for any m >= 2. Undefined for the empty word."""
    n = len(w)
    if n == 0:
        raise ValueError("primitivity is undefined for the empty word")
    for d in range(1, n):
        if n % d == 0 and w.symbols == w.symbols[:d] * (n // d):
            return False
    return True


@functools.lru_cache(maxsize=64)
def one_class_word(n: int) -> Word:
    """The one-letter word ``0^n``: the condition of an unconditional kind,
    whose walks all read it. Words are immutable, so each length's is built
    once and shared."""
    return Word((0,) * n, 1)


def cyclic_shifts(w: Word) -> set[Word]:
    return {Word(w.symbols[i:] + w.symbols[:i], w.alphabet_size) for i in range(max(len(w), 1))}


def slow_words(n: int, alphabet_size: int):
    """Yield every slow word of length n over the given alphabet, in lex order.

    These are the canonical representatives of words up to alphabet permutation;
    for a binary alphabet and n >= 1 they are exactly the words starting with 0.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, not {n}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be at least 1, not {alphabet_size}")
    if n == 0:
        yield Word((), alphabet_size)
        return

    def extend(prefix: list[int], top: int):
        if len(prefix) == n:
            yield Word(tuple(prefix), alphabet_size)
            return
        for s in range(min(top + 2, alphabet_size)):
            prefix.append(s)
            yield from extend(prefix, max(top, s))
            prefix.pop()

    yield from extend([], -1)


def fractional_power(w: Word, length: int) -> Word:
    """The prefix of length ``length`` of w repeated, e.g. w^(10/3) for |w|=3."""
    if len(w) == 0:
        raise ValueError("fractional power of the empty word is undefined")
    reps = -(-length // len(w))
    return Word((w.symbols * reps)[:length], w.alphabet_size)


def all_relabelings(w: Word):
    """Every image of w under a permutation of its alphabet (brute force)."""
    for perm in itertools.permutations(range(w.alphabet_size)):
        yield Word(tuple(perm[s] for s in w.symbols), w.alphabet_size)
