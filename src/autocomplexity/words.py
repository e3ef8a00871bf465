"""Combinatorics-on-words core.

Words are finite sequences of integer symbols drawn from ``0..alphabet_size-1``.
This module provides the basic vocabulary used everywhere else: the ``Word``
class, the pair word of two words (``track``), the "slow" canonical form under
alphabet permutations, the enumeration of slow words, and the one-letter
condition ``0^n`` of the unconditional kinds.
"""

from __future__ import annotations

import functools
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
        error; an alphabet size below 1 is ``Word``'s error."""
        if not all("0" <= c <= "9" for c in text):
            raise ParseError(f"word must be a string of digits 0-9, got {text!r}")
        syms = tuple(int(c) for c in text)
        if alphabet_size is None:
            alphabet_size = max(syms, default=0) + 1
        elif 0 < alphabet_size <= max(syms, default=0):
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


def track(x: Word, y: Word) -> Word:
    """Zip two equal-length words into the word of pairs ``(x_i, y_i)``, over
    the product alphabet: the pair ``(a, b)`` is the symbol ``a * d + b``,
    with d the alphabet size of y, so ``divmod`` by d gives the pair back."""
    xs, ys = x.symbols, y.symbols
    if len(xs) != len(ys):
        raise ValueError(f"track requires equal lengths, got {len(xs)} and {len(ys)}")
    d = y.alphabet_size
    return Word(tuple([a * d + b for a, b in zip(xs, ys)]), x.alphabet_size * d)


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


def is_slow(symbols) -> bool:
    """Whether a word, or any sequence of ints such as a walk's states,
    starts at 0 and never skips a fresh value: each is at least 0 and at
    most one above all before it."""
    top = -1
    for s in symbols:
        if not 0 <= s <= top + 1:
            return False
        if s > top:
            top = s
    return True


@functools.lru_cache(maxsize=64)
def one_class_word(n: int) -> Word:
    """The one-letter word ``0^n``: the condition of an unconditional kind,
    whose walks all read it. Words are immutable, so each length's is built
    once and shared."""
    return Word((0,) * n, 1)


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
