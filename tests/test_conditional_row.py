"""The batch search behind exhaustive table rows: one search per condition
word y carries every target x still active on the current prefix.

The labeled search stays the reference: every value and witnessing sequence
the batch finds must be what ``_search_levels`` from 1 state finds for that
pair, and a row filled by the batch must write the cache records, in the
order, that one ``compute`` per first-missing pair writes. Likewise the
tuple-level ``class_key`` that the provider and the rows use must be the
memo key of ``reversal_class_key``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from autocomplexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
    Budget,
    BudgetExceeded,
    ComplexityQuery,
    ResultCache,
    compute,
)
from autocomplexity.complexity import (
    DEFAULT_MAX_NODES,
    _canonical_part,
    _least_witnesses,
    _search_levels,
    canonical_query,
    class_key,
    class_query,
    memo_key,
    reversal_class_key,
)
from autocomplexity.metrics import ComplexityProvider, distribution_table
from autocomplexity.words import Word, slow_words, track

UNCONDITIONAL = (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL, KIND_DET_TOTAL)
CONDITIONAL = (KIND_COND_UNIQUE, KIND_COND_EXACT)


def words_of(query):
    """The kind and the symbols and alphabet size of both words: all that a
    key or a cache record reads (a track word may stay a ``TrackWord``)."""
    words = (query.target, query.condition)
    return query.kind, [None if w is None else (w.symbols, w.alphabet_size) for w in words]


def assert_class_key(query):
    """``class_key`` is the memo key of ``reversal_class_key`` and names that
    query, and ``canonical_query`` returns a canonical query as it is."""
    rep = reversal_class_key(query)
    key = class_key(memo_key(query))
    assert key == memo_key(rep), query
    assert words_of(class_query(key)) == words_of(rep)
    assert canonical_query(rep) is rep
    assert words_of(canonical_query(query)) == words_of(_canonical_part(query, slice(None)))


def queries_of(x, y):
    """The queries of the provider and the rows on x (given y): every kind,
    and the unique kind of the track word ``track(x, y)``."""
    yield from (ComplexityQuery(kind, x) for kind in UNCONDITIONAL)
    yield from (ComplexityQuery(kind, x, y) for kind in CONDITIONAL)
    yield ComplexityQuery(KIND_UNIQUE, track(x, y))


@pytest.mark.parametrize("letters, max_len", [(2, 7), (3, 5)])
def test_class_key_matches_reversal_class_key(letters, max_len):
    """Every slow word and pair over ``letters`` letters up to ``max_len``."""
    for n in range(max_len + 1):
        words = list(slow_words(n, letters))
        for x in words:
            for y in words:
                for query in queries_of(x, y):
                    assert_class_key(query)


@st.composite
def unslow_pair(draw):
    """Two words over 1-4 letters, drawn in any relabeling and often
    palindromes, so that a word and its reversal tie."""
    n = draw(st.integers(0, 8))
    letters = draw(st.integers(1, 4))

    def word():
        half = draw(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            half[n - n // 2 :] = half[: n // 2][::-1]
        return Word(tuple(half), draw(st.integers(letters, 5)))

    return word(), word()


@given(unslow_pair())
@settings(max_examples=300, deadline=None)
def test_random_class_key_matches_reversal_class_key(pair):
    for query in queries_of(*pair):
        assert_class_key(query)


def assert_batch_is_searched(condition, targets):
    found = _least_witnesses(condition, targets, Budget(), {"nodes": 0})
    assert len(found) == len(targets)
    for x, record in zip(targets, found):
        searched = _search_levels(KIND_COND_UNIQUE, x, condition, 1, Budget(), {"nodes": 0})
        assert record == searched, (x, condition)


@pytest.mark.parametrize("letters, max_len", [(2, 7), (3, 5)])
def test_batch_matches_labeled_search(letters, max_len):
    """Every slow pair over ``letters`` letters up to ``max_len``, one batch
    per condition word with every slow word as a target."""
    for n in range(1, max_len + 1):
        words = list(slow_words(n, letters))
        for y in words:
            assert_batch_is_searched(y, words)


@st.composite
def condition_and_targets(draw, max_len):
    n = draw(st.integers(1, max_len))
    word = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(lambda s: Word(tuple(s), 2))
    return draw(word), draw(st.lists(word, min_size=1, max_size=8))


@given(condition_and_targets(10))
@settings(max_examples=40, deadline=None)
def test_random_batch_matches_labeled_search(case):
    assert_batch_is_searched(*case)


def test_row_records_match_compute_per_pair(tmp_path):
    """The cache file of ``distribution_table(6)`` is byte for byte the one a
    ``compute`` per first-missing class key, taken in ``(y, x)`` order, writes."""
    distribution_table(6, ComplexityProvider(ResultCache(tmp_path / "rows")))
    reference = ResultCache(tmp_path / "reference")
    seen = set()
    for n in range(7):
        ground = list(slow_words(n, 2))
        for y in ground:
            for x in ground:
                rep = reversal_class_key(ComplexityQuery(KIND_COND_UNIQUE, x, y))
                if memo_key(rep) not in seen:
                    seen.add(memo_key(rep))
                    compute(rep, cache=reference)
    written = (tmp_path / "rows" / "results.tsv").read_bytes()
    assert written.count(b"\n") == len(seen) - 1  # n = 0 writes no record
    assert written == (tmp_path / "reference" / "results.tsv").read_bytes()


def test_row_budget_overrun_writes_nothing(tmp_path):
    # row n = 6 spends its first 200 nodes before level 4 of some condition
    # word is searched whole, and a full budget finishes it
    ground = list(slow_words(6, 2))
    provider = ComplexityProvider(ResultCache(tmp_path), max_nodes=200)
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as e:
            provider.conditional_row(ground)
        assert e.value.lower_bound == 4
        assert len(provider.cache) == 0
        assert not (tmp_path / "results.tsv").exists()
        assert not provider._memo
    provider.max_nodes = DEFAULT_MAX_NODES
    provider.conditional_row(ground)
    for y in ground:
        for x in ground:
            want = compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value
            assert provider.conditional(x, y) == want
