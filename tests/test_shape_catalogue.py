"""The walk-shape catalogue of a condition word, which serves the provider's
unique-kind values as the catalogue of the one-letter condition ``0^n``.

The labeled search stays the reference: every catalogue lookup and every
record the provider writes from it must be the ``(value, sequence)`` the
labeled search from 1 state finds, with a certificate that verifies. No test
here uses a disk cache except to read back the records of one run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from autocomplexity import (
    KIND_COND_UNIQUE,
    KIND_UNIQUE,
    Budget,
    BudgetExceeded,
    ComplexityQuery,
    ResultCache,
    compute,
    verify_certificate,
)
from autocomplexity.cache import parse_word
from autocomplexity.complexity import (
    DEFAULT_MAX_NODES,
    ShapeCatalogue,
    _certificate_for,
    _search_levels,
    _walk_words,
    reversal_class_key,
)
from autocomplexity.metrics import ComplexityProvider, MetricKind, verify_metric
from autocomplexity.words import Word, slow_words, track


def assert_record_is_searched(target, record, condition=None):
    """``record`` is what the labeled search from 1 state returns for
    ``target`` (given ``condition``, if one is named), and its certificate
    verifies."""
    kind = KIND_UNIQUE if condition is None else KIND_COND_UNIQUE
    query = (kind, target, condition)
    assert record == _search_levels(*query, 1, Budget(), {"nodes": 0}), query
    value, seq = record
    labels = _walk_words(*query)[0]
    cert = _certificate_for(*query, labels, value, seq, {"nodes": 0}, DEFAULT_MAX_NODES)
    assert verify_certificate(cert)[0] and cert.claimed_states == value, query


def assert_provider_records(words):
    """One fresh provider asks for every word; the second lookup reuses, and
    may extend, the levels the first built."""
    provider = ComplexityProvider()
    for w in words:
        provider.unconditional(w)
    for w in words:
        rep = reversal_class_key(ComplexityQuery(KIND_UNIQUE, w))
        record = provider.cache.get(rep)
        assert record is not None and record[0] == provider.unconditional(w)
        assert_record_is_searched(rep.target, record)


@st.composite
def same_length_words(draw, letters, max_len):
    n = draw(st.integers(1, max_len))
    return [
        Word(tuple(draw(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n))), letters)
        for _ in range(2)
    ]


@given(same_length_words(2, 12))
@settings(max_examples=40, deadline=None)
def test_binary_records_match_labeled_search(words):
    assert_provider_records(words)


@given(same_length_words(4, 9))
@settings(max_examples=40, deadline=None)
def test_four_letter_records_match_labeled_search(words):
    assert_provider_records(words)


def test_verify_metric_records_match_labeled_search(tmp_path):
    verify_metric(6, MetricKind.J, ComplexityProvider(ResultCache(tmp_path)))
    unique = 0
    for line in (tmp_path / "results.tsv").read_text(encoding="ascii").splitlines():
        kind, target, _condition, value, seq = line.split("\t")
        if kind == KIND_UNIQUE:
            unique += 1
            record = int(value), tuple(int(s) for s in seq.split(","))
            assert_record_is_searched(parse_word(target), record)
    assert unique > 0


def test_budget_overrun_is_unknown_not_a_value():
    # at n = 8 the levels 1, 2 and 3 of the catalogue cost 8, 56 and 200 nodes
    x, y = Word.parse("00100100", 2), Word.parse("00100011", 2)
    provider = ComplexityProvider(max_nodes=100)
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as e:
            provider.track_value(x, y)
        assert e.value.lower_bound == 3
    # the cut-off level was not kept: a full budget builds it whole
    provider.max_nodes = DEFAULT_MAX_NODES
    assert provider.track_value(x, y) == compute(ComplexityQuery(KIND_UNIQUE, track(x, y))).value


def test_default_budget_gives_the_searched_value():
    # each level below the value is built whole and holds no compatible
    # shape, which refutes it, so the first hit is the minimum
    x, y = Word.parse("00100100", 2), Word.parse("00100011", 2)
    searched = compute(ComplexityQuery(KIND_UNIQUE, track(x, y))).value
    assert ComplexityProvider().track_value(x, y) == searched


@pytest.mark.parametrize("letters, max_len", [(2, 7), (3, 5)])
def test_condition_catalogue_matches_labeled_search(letters, max_len):
    """Every slow pair over ``letters`` letters up to ``max_len``: the
    catalogue of y looks up x exactly as the conditional-unique search does."""
    for n in range(1, max_len + 1):
        words = list(slow_words(n, letters))
        for y in words:
            catalogue = ShapeCatalogue(y)
            for x in words:
                assert_record_is_searched(x, catalogue.lookup(x), y)


@st.composite
def binary_pairs(draw, max_len):
    n = draw(st.integers(1, max_len))
    x, y = (draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(2))
    return Word(tuple(x), 2), Word(tuple(y), 2)


@given(binary_pairs(10))
@settings(max_examples=40, deadline=None)
def test_random_condition_catalogue_matches_labeled_search(pair):
    x, y = pair
    assert_record_is_searched(x, ShapeCatalogue(y).lookup(x), y)


@given(binary_pairs(7))
@settings(max_examples=40, deadline=None)
def test_pair_word_sandwich(pair):
    """max(A(x), A(y), A(x|y), A(y|x)) <= A(x#y) <= min(A(x) A(y|x), A(y) A(x|y)).

    Lower: a witness for x#y has one accepting walk of length n in all, so
    one reads y on the condition coordinate and it spells x; dropping one
    coordinate of every label merges edges but keeps that walk, so the
    result singles out x (or y). Upper: in the product of a witness for x
    and a witness for y given x, an accepting walk's first component is the
    one walk reading x, so its second is the one walk reading x on the
    condition coordinate, which spells y: one walk, reading x#y.

    ``A(x#y)`` comes from the provider (the catalogue), every other value
    from ``compute`` with no cache, so the two routes are checked together.
    """
    x, y = pair
    a_x, a_y = (compute(ComplexityQuery(KIND_UNIQUE, w)).value for w in (x, y))
    a_xy = compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value
    a_yx = compute(ComplexityQuery(KIND_COND_UNIQUE, y, x)).value
    a_pair = ComplexityProvider().track_value(x, y)
    assert max(a_x, a_y, a_xy, a_yx) <= a_pair <= min(a_x * a_yx, a_y * a_xy)
