"""Golden digest of the walk search over 38,244 queries.

Every value, tie-break and node count of the kernel is summed up in one
SHA-256: for each query, its kind and words, the value, ``explored``, the
witnessing state sequence the search found and the certificate's edges. A
change to the kernel that keeps all of them keeps the digest, so node
identity with an earlier commit is one command:

    PYTHONPATH=src python -m pytest -m extended tests/test_kernel_digest.py

``python tests/test_kernel_digest.py`` prints the digest of the code on
``PYTHONPATH``, which is how ``kernel_digest.txt`` was written.

The queries are the four unconditional kinds on every binary word with
n <= 10 and every ternary word with n <= 6, and both conditional kinds on
every binary pair with n <= 6 and every ternary pair with n <= 4, each
computed with no cache value: the search starts at one state.
"""

from __future__ import annotations

import hashlib
import itertools
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


def kernel_digest() -> tuple[str, int]:
    """The SHA-256 of every query's line, and the number of queries."""
    h = hashlib.sha256()
    count = 0
    for query in digest_queries():
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
    digest, count = kernel_digest()
    assert count == int(expected_count)
    assert digest == expected


if __name__ == "__main__":
    print(*kernel_digest())
