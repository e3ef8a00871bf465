"""Golden digests of the walk search.

Every value, tie-break and node count of the kernel is summed up in one
SHA-256 per query set: for each query, its kind and words, the value,
``explored``, the witnessing state sequence the search found and the
certificate's edges. A change to the kernel that keeps all of them keeps
the digests, so node identity with an earlier commit is one command:

    PYTHONPATH=src python -m pytest -m extended tests/test_kernel_digest.py

The query sets, each computed with no cache value (the search starts at
one state):

* ``all`` (extended): the four unconditional kinds on every binary word
  with n <= 10 and every ternary word with n <= 6, and both conditional
  kinds on every binary pair with n <= 6 and every ternary pair with
  n <= 4, 38,244 queries;
* ``slice`` (tier-1): every 11th query of ``all``, so a kernel drift shows
  without the extended suite (the stride is odd, so every kind is in it);
* ``search`` (extended): seeded binary words at the lengths the ``search``
  benchmark asks, beyond the reach of ``all``: 14 letters for the unique
  kind, 10 for exact, 12 for both DFA kinds and 13 for the conditional
  pairs.

``python tests/test_kernel_digest.py`` prints the line ``digest count
name`` of each set for the code on ``PYTHONPATH``. ``kernel_digest.txt``
holds the digest and count of ``all``; the others are ``PINNED`` below.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

import pytest

from autocomplexity import ComplexityQuery, compute
from autocomplexity.kinds import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
)
from autocomplexity.words import Word

DIGEST_FILE = Path(__file__).with_name("kernel_digest.txt")

UNCONDITIONAL = (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL, KIND_DET_TOTAL)
CONDITIONAL = (KIND_COND_UNIQUE, KIND_COND_EXACT)

SLICE_STRIDE = 11
SEARCH_LENGTHS = {
    KIND_UNIQUE: 14,
    KIND_EXACT: 10,
    KIND_DET_PARTIAL: 12,
    KIND_DET_TOTAL: 12,
    KIND_COND_UNIQUE: 13,
    KIND_COND_EXACT: 13,
}
SEARCH_SEED = 17
SEARCH_WORDS = 96

# (digest, count) of the smaller sets, written by this script with the
# counters that kept a count per state (walks) or per reached state set
# (words), before they kept only the states other walks or words reach
PINNED = {
    "slice": ("7a7863f00267456c397902fcb952c23630733c5ae829664d2b246f59687a4150", 3477),
    "search": ("f83de2d01e123557bcf503bf51d7b97a8385be6bfeeb541c82bca4816a74e08f", 576),
}


class _Recorder:
    """A cache that holds nothing and keeps the record of the last search:
    ``compute`` then searches from one state, as with no cache, and hands
    over the witnessing sequence it found."""

    def __init__(self):
        self.record = None

    def get(self, key):
        return None

    def put(self, key, value, sequence):
        self.record = sequence


def _words(n: int, letters: int) -> list[Word]:
    return [Word(s, letters) for s in itertools.product(range(letters), repeat=n)]


def digest_queries():
    """The 38,244 queries, in a fixed order."""
    for letters, top in ((2, 10), (3, 6)):
        for n in range(top + 1):
            for x in _words(n, letters):
                for kind in UNCONDITIONAL:
                    yield ComplexityQuery(kind, x)
    for letters, top in ((2, 6), (3, 4)):
        for n in range(top + 1):
            words = _words(n, letters)
            for x in words:
                for y in words:
                    for kind in CONDITIONAL:
                        yield ComplexityQuery(kind, x, y)


def slice_queries():
    """Every ``SLICE_STRIDE``-th query of ``digest_queries``."""
    return itertools.islice(digest_queries(), 0, None, SLICE_STRIDE)


def search_queries():
    """Word i of ``SEARCH_WORDS`` seeded random binary words under each kind
    at its ``SEARCH_LENGTHS`` prefix, the conditional kinds given the same
    prefix of word i + 1 (cyclically)."""
    rng = random.Random(SEARCH_SEED)
    longest = max(SEARCH_LENGTHS.values())
    words = [tuple(rng.randrange(2) for _ in range(longest)) for _ in range(SEARCH_WORDS)]
    for i, w in enumerate(words):
        nxt = words[(i + 1) % len(words)]
        for kind, n in SEARCH_LENGTHS.items():
            condition = Word(nxt[:n], 2) if kind in CONDITIONAL else None
            yield ComplexityQuery(kind, Word(w[:n], 2), condition)


QUERY_SETS = {"all": digest_queries, "slice": slice_queries, "search": search_queries}


def kernel_digest(queries) -> tuple[str, int]:
    """The SHA-256 of the line of every query of ``queries``, and their
    number."""
    h = hashlib.sha256()
    count = 0
    for query in queries:
        recorder = _Recorder()
        result = compute(query, cache=recorder)
        nfa = result.certificate.nfa
        condition = None if query.condition is None else query.condition.symbols
        line = (
            query.kind, query.target.symbols, query.target.alphabet_size, condition,
            result.value, result.explored, recorder.record,
            nfa.state_count, nfa.start, sorted(nfa.accepts), sorted(nfa.edges),
        )
        h.update(repr(line).encode())
        h.update(b"\n")
        count += 1
    return h.hexdigest(), count


@pytest.mark.extended
def test_kernel_digest_is_unchanged():
    expected, expected_count = DIGEST_FILE.read_text().split()
    digest, count = kernel_digest(digest_queries())
    assert count == int(expected_count)
    assert digest == expected


def test_kernel_digest_slice_is_unchanged():
    assert kernel_digest(slice_queries()) == PINNED["slice"]


@pytest.mark.extended
def test_kernel_digest_at_search_lengths_is_unchanged():
    assert kernel_digest(search_queries()) == PINNED["search"]


if __name__ == "__main__":
    for name, queries in QUERY_SETS.items():
        print(*kernel_digest(queries()), name)
