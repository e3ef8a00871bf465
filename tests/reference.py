"""Brute-force references that the tests compare the package against.

Word predicates and constructions for the acceptance criteria, a direct
acceptance check and label-erasing product for NFAs, and the unit-distance
classification the searches must reproduce. None of them is used by the
package itself.
"""

from __future__ import annotations

import itertools

from autocomplexity.automata import Nfa, product_track
from autocomplexity.words import Word, slow_words


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


def cyclic_shifts(w: Word) -> set[Word]:
    return {Word(w.symbols[i:] + w.symbols[:i], w.alphabet_size) for i in range(max(len(w), 1))}


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


def accepts_word(m: Nfa, w: Word) -> bool:
    """True iff some walk from the start spells w and ends in an accept state."""
    current = {m.start}
    for a in w.symbols:
        current = {to for frm, label, to in m.edges if label == a and frm in current}
        if not current:
            return False
    return bool(current & m.accepts)


def product_project(m1: Nfa, m2: Nfa) -> Nfa:
    """The label-erasing product: ``product_track`` with each pair label
    (b, a) cut to its second coordinate a."""
    pairs = product_track(m1, m2)
    second = m1.alphabet_size // m2.alphabet_size
    edges = frozenset((frm, label % second, to) for frm, label, to in pairs.edges)
    return Nfa(pairs.state_count, pairs.start, pairs.accepts, edges, second)


def expected_unit_distance_pairs(n: int) -> set[frozenset[Word]]:
    """The classification the searches are compared against for n <= 12:
    every pair containing 0^n and, from length 10 on, the alternating word
    paired with a period-3 word."""
    zero = Word((0,) * n, 2)
    pairs = {
        frozenset({zero, w}) for w in slow_words(n, 2) if w != zero
    }
    if n >= 10:
        alternating = fractional_power(Word.parse("01"), n)
        for base in ("001", "010", "011"):
            pairs.add(frozenset({alternating, fractional_power(Word.parse(base), n)}))
    return pairs
