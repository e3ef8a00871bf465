"""Bounds between a word's value and those of its factors, cached records of
other words, and the reversal classes of the provider.

Every value used as a reference here is computed with no cache. The
properties check two bounds for walk-generated witnesses (one start, one
accept, the edges of one accepting walk):

* Factors (every walk kind, conditional ones included): take a witness for
  ``w = u v z`` whose accepting walk is at state p after ``u`` and at state
  r after ``uv``, and make p the start and r the only accept. The middle of
  the walk accepts ``v``. A second walk (unique kinds) or a second word
  (exact kinds) of length ``|v|`` from p to r would splice between the
  walk's first ``|u|`` and last ``|z|`` steps into a second one of length n
  for ``w``, and determinism is kept. So ``A(v) <= A(w)`` for every factor
  ``v``.
* One more letter (unique and exact): give a witness for ``w[:-1]`` one
  fresh state f, the only accept, entered only by an edge labeled ``w[-1]``
  from the old accept. Its accepting walks and words of length n are those
  of the old witness extended by that edge, so ``A(w) <= A(w[:-1]) + 1``.

The reversal property checks ``A(w) = A(w^R)``, proven in the docstring of
``complexity.class_key``. ``compute`` reads none of these bounds from a
cache: the records of other words never change a search.
"""

import pytest
from hypothesis import given, settings, strategies as st

from autocomplexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_EXACT,
    KIND_UNIQUE,
    Budget,
    BudgetExceeded,
    ComplexityQuery,
    ResultCache,
    compute,
    value_at_most,
)
from autocomplexity.metrics import ComplexityProvider
from autocomplexity.words import Word, slow_words


def value(kind, x, y=None):
    return compute(ComplexityQuery(kind, x, y)).value


def factor(w, part):
    return Word(w.symbols[part], w.alphabet_size)


def reverse(w):
    return Word(w.symbols[::-1], w.alphabet_size)


def assert_guided_matches_plain(queries, cache):
    """Each query is searched as with no cache, though ``cache`` holds the
    records of the queries before it."""
    for query in queries:
        guided = compute(query, cache=cache)
        plain = compute(query)
        assert guided.value == plain.value, query
        assert guided.certificate == plain.certificate, query
        assert guided.explored == plain.explored, query


def test_guided_conditional_matches_plain_up_to_six():
    cache = ResultCache()
    for n in range(7):
        words = list(slow_words(n, 2))
        assert_guided_matches_plain([ComplexityQuery(KIND_COND_UNIQUE, x, y) for y in words for x in words], cache)


@pytest.mark.parametrize("kind", [KIND_UNIQUE, KIND_EXACT])
def test_guided_unconditional_matches_plain_up_to_ten(kind):
    cache = ResultCache()
    for n in range(11):
        assert_guided_matches_plain([ComplexityQuery(kind, w) for w in slow_words(n, 2)], cache)


def assert_bound_is_searched(query, max_states, cache):
    """``compute`` under ``max_states`` raises with the lower bound and the
    node count of a search with no cache, and returns that bound."""
    with pytest.raises(BudgetExceeded) as cached:
        compute(query, Budget(max_states=max_states), cache)
    with pytest.raises(BudgetExceeded) as plain:
        compute(query, Budget(max_states=max_states))
    assert cached.value.explored == plain.value.explored > 0
    assert cached.value.lower_bound == plain.value.lower_bound
    return cached.value.lower_bound


def test_bound_above_max_states_is_proven_by_a_search():
    cache = ResultCache()
    assert compute(ComplexityQuery(KIND_UNIQUE, Word.parse("0001000", 2)), cache=cache).value == 4
    query = ComplexityQuery(KIND_UNIQUE, Word.parse("00010001", 2))
    assert assert_bound_is_searched(query, 3, cache) >= 4
    assert value_at_most(query, 3, cache) is None
    assert value_at_most(query, 4, cache) == value(KIND_UNIQUE, query.target) == 4


def test_reversed_factor_record_changes_no_search():
    # the cache holds 0010001 only: the reversal of the suffix 1000100 of w
    cache = ResultCache()
    assert compute(ComplexityQuery(KIND_UNIQUE, Word.parse("0010001", 2)), cache=cache).value == 4
    query = ComplexityQuery(KIND_UNIQUE, Word.parse("01000100", 2))
    assert assert_bound_is_searched(query, 3, cache) >= 4
    assert value_at_most(query, 4, cache) == value(KIND_UNIQUE, query.target) == 4


def test_provider_without_cache_matches_disk_cache(tmp_path):
    memory = ComplexityProvider()
    disk = ComplexityProvider(ResultCache(tmp_path))
    for n in range(1, 6):
        words = list(slow_words(n, 2))
        for x in words:
            assert memory.unconditional(x) == disk.unconditional(x)
            assert memory.det_unconditional(x) == disk.det_unconditional(x)
            for y in words:
                assert memory.conditional(x, y) == disk.conditional(x, y)
                assert memory.track_value(x, y) == disk.track_value(x, y)
    assert len(ResultCache(tmp_path)) == len(disk.cache)


def test_provider_shares_values_across_relabelings_and_reversals():
    provider = ComplexityProvider()
    # 0001, its relabeling 1110 and its reversal 1000 form one class
    values = {provider.unconditional(Word.parse(t, 2)) for t in ("0001", "1110", "1000")}
    assert values == {value(KIND_UNIQUE, Word.parse("0001", 2))}
    assert len(provider.cache) == 1
    x, y = Word.parse("0010", 2), Word.parse("0110", 2)
    assert provider.conditional(x, y) == provider.conditional(reverse(x), reverse(y)) == value(
        KIND_COND_UNIQUE, x, y
    )
    assert len(provider.cache) == 2
    # det-partial is not reversal invariant, so its classes are not merged
    provider.det_unconditional(Word.parse("0001", 2))
    provider.det_unconditional(Word.parse("1000", 2))
    assert len(provider.cache) == 4


def test_provider_without_cache_after_construction():
    provider = ComplexityProvider()
    provider.cache = None
    x, y = Word.parse("001011", 2), Word.parse("010011", 2)
    assert provider.conditional(x, y) == value(KIND_COND_UNIQUE, x, y)
    assert provider.unconditional(x) == value(KIND_UNIQUE, x)


binary_words = st.lists(st.integers(0, 1), min_size=1, max_size=9).map(lambda s: Word(tuple(s), 2))


@st.composite
def binary_pairs(draw):
    n = draw(st.integers(1, 7))
    x, y = (draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(2))
    return Word(tuple(x), 2), Word(tuple(y), 2)


@given(binary_words)
@settings(max_examples=40, deadline=None)
def test_factors_never_exceed_the_word(w):
    for kind in (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL):
        whole = value(kind, w)
        for part in (slice(None, -1), slice(1, None)):
            assert value(kind, factor(w, part)) <= whole, (kind, w)


@given(binary_pairs())
@settings(max_examples=40, deadline=None)
def test_pair_factors_never_exceed_the_pair(pair):
    x, y = pair
    for kind in (KIND_COND_UNIQUE, KIND_COND_EXACT):
        whole = value(kind, x, y)
        for part in (slice(None, -1), slice(1, None)):
            assert value(kind, factor(x, part), factor(y, part)) <= whole, (kind, x, y)


@given(binary_words)
@settings(max_examples=40, deadline=None)
def test_one_more_letter_adds_at_most_one_state(w):
    for kind in (KIND_UNIQUE, KIND_EXACT):
        assert value(kind, w) <= value(kind, factor(w, slice(None, -1))) + 1, (kind, w)


@given(binary_words, binary_pairs())
@settings(max_examples=40, deadline=None)
def test_reversal_keeps_the_value(w, pair):
    x, y = pair
    for kind in (KIND_UNIQUE, KIND_EXACT):
        assert value(kind, w) == value(kind, reverse(w)), (kind, w)
    for kind in (KIND_COND_UNIQUE, KIND_COND_EXACT):
        assert value(kind, x, y) == value(kind, reverse(x), reverse(y)), (kind, x, y)
