"""Order properties between the kinds, over random binary words and pairs.

The unique and exact kinds run the same walk search with different counters
(accepting walks against accepted words), so these compare the two counters.
Every value is computed with no cache. The exhaustive n <= 5 versions are in
``test_complexity.py``.
"""

from hypothesis import given, settings, strategies as st

from autocomplexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
    ComplexityQuery,
    compute,
    max_complexity,
)
from autocomplexity.words import Word

binary_words = st.lists(st.integers(0, 1), min_size=1, max_size=9).map(lambda s: Word(tuple(s), 2))


@st.composite
def binary_pairs(draw):
    n = draw(st.integers(1, 7))
    x, y = (draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(2))
    return Word(tuple(x), 2), Word(tuple(y), 2)


def value(kind, x, y=None):
    return compute(ComplexityQuery(kind, x, y)).value


@given(binary_words)
@settings(max_examples=40, deadline=None)
def test_exact_at_most_unique_at_most_ceiling(w):
    unique = value(KIND_UNIQUE, w)
    assert value(KIND_EXACT, w) <= unique <= max_complexity(len(w)), w


@given(binary_pairs())
@settings(max_examples=40, deadline=None)
def test_conditional_exact_at_most_conditional_unique(pair):
    x, y = pair
    assert value(KIND_COND_EXACT, x, y) <= value(KIND_COND_UNIQUE, x, y), pair


@given(binary_words)
@settings(max_examples=40, deadline=None)
def test_total_dfa_needs_at_most_one_more_state(w):
    partial = value(KIND_DET_PARTIAL, w)
    assert partial <= value(KIND_DET_TOTAL, w) <= partial + 1, w
