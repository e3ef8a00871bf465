import itertools
from math import lcm

import pytest
from hypothesis import given, strategies as st

from autocomplexity.words import (
    ParseError,
    Partition,
    Word,
    all_relabelings,
    contains_kth_power,
    cyclic_shifts,
    fractional_power,
    induced_partition,
    is_permutation_word,
    is_primitive,
    is_slow,
    power,
    project,
    refines,
    slow_normalize,
    slow_words,
    track,
)

words = st.builds(
    lambda alpha, symbols: Word(tuple(s % alpha for s in symbols), alpha),
    st.integers(1, 4),
    st.lists(st.integers(0, 3), max_size=10),
)


def test_parse_and_str():
    w = Word.parse("0102")
    assert w.symbols == (0, 1, 0, 2) and w.alphabet_size == 3
    assert str(w) == "0102"
    assert Word.parse("", 2) == Word((), 2)
    assert Word.parse("000").alphabet_size == 1
    with pytest.raises(ParseError):
        Word.parse("01a")
    # a digit outside the given alphabet is a parse error too
    with pytest.raises(ParseError, match="symbol 2 out of range"):
        Word.parse("012", 2)


def test_word_validation():
    with pytest.raises(ValueError):
        Word((2,), 2)
    with pytest.raises(ValueError):
        Word((), 0)


def test_track_pairs_and_errors():
    t = track(Word.parse("01"), Word.parse("01"))
    assert t.pairs() == ((0, 0), (1, 1))
    assert t.alphabet_size == 4
    assert str(t) == "(0,0)(1,1)"
    for g, d in t.pairs():
        assert t.decode(t.encode(g, d)) == (g, d)
    with pytest.raises(ValueError):
        track(Word.parse("01"), Word.parse("0"))
    assert track(Word.parse("", 2), Word.parse("", 2)).symbols == ()


def test_track_matches_componentwise_pairs():
    x = Word.parse("010010010010", 2)
    y = Word.parse("010101010101", 2)
    t = track(x, y)
    assert t.pairs() == tuple(zip(x.symbols, y.symbols))


def test_projections_round_trip():
    x, y = Word.parse("0011"), Word.parse("0101")
    assert project(track(x, y), 1) == x
    assert project(track(x, y), 2) == y
    empty = track(Word.parse("", 2), Word.parse("", 2))
    assert project(empty, 1) == Word((), 2)
    with pytest.raises(ValueError):
        project(empty, 3)


@given(words, st.lists(st.integers(0, 3), max_size=10))
def test_track_project_round_trip_random(x, other_syms):
    y = Word(tuple(s % 3 for s in other_syms[: len(x)]) + (0,) * max(0, len(x) - len(other_syms)), 3)
    t = track(x, y)
    assert project(t, 1) == x
    assert project(t, 2) == y


def test_slow_normalize_examples():
    assert slow_normalize(Word.parse("110")) == Word.parse("001", 2)
    assert slow_normalize(Word.parse("0001")) == Word.parse("0001")
    # first-occurrence relabeling, cross-checked against every relabeling below
    assert slow_normalize(Word.parse("2102")) == Word.parse("0120", 3)


def test_slow_normalize_is_the_unique_slow_relabeling():
    w = Word.parse("2102")
    slow_images = [r for r in all_relabelings(w) if is_slow(r)]
    assert slow_images == [Word.parse("0120", 3)]


@given(words)
def test_slow_normalize_idempotent_and_partition_preserving(w):
    s = slow_normalize(w)
    assert is_slow(s)
    assert slow_normalize(s) == s
    assert induced_partition(s) == induced_partition(w)


def test_is_slow():
    assert is_slow(Word.parse("01"))
    assert not is_slow(Word.parse("10"))
    assert is_slow(Word.parse("012012"))
    assert is_slow(Word.parse("", 1))


def test_induced_partition_and_refines():
    p = induced_partition(Word.parse("0101"))
    assert set(p.classes) == {frozenset({0, 2}), frozenset({1, 3})}
    singletons = induced_partition(Word.parse("0123"))
    assert refines(singletons, induced_partition(Word.parse("0101")))
    assert not refines(induced_partition(Word.parse("0101")), induced_partition(Word.parse("0011")))
    with pytest.raises(ValueError):
        refines(induced_partition(Word.parse("01")), induced_partition(Word.parse("010")))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(2, (frozenset({0}),))
    with pytest.raises(ValueError):
        Partition(2, (frozenset({0, 1}), frozenset({1})))


def test_permutation_words():
    assert is_permutation_word(Word.parse("0123"))
    assert not is_permutation_word(Word.parse("010"))
    assert is_permutation_word(Word.parse("", 1))


def test_power_and_kth_power_detection():
    assert power(Word.parse("01"), 3) == Word.parse("010101")
    assert contains_kth_power(Word.parse("0101"), 2)
    assert not contains_kth_power(Word.parse("01"), 2)
    assert not contains_kth_power(Word.parse("", 2), 2)
    with pytest.raises(ValueError):
        contains_kth_power(Word.parse("01"), 0)
    # a squared permutation word contains no cube
    assert not contains_kth_power(power(Word.parse("0123"), 2), 3)


def test_permutation_powers_are_powerfree_exhaustive():
    # alpha^k contains no (k+1)-th power, for |alpha| <= 4, k <= 4
    for m in range(1, 5):
        alpha = Word(tuple(range(m)), 4)
        for k in range(1, 5):
            assert not contains_kth_power(power(alpha, k), k + 1)


def test_track_of_permutation_powers_is_permutation_word():
    for a in range(1, 5):
        for b in range(1, 5):
            alpha = Word(tuple(range(a)), a)
            beta = Word(tuple(range(b)), b)
            m = lcm(a, b)
            t = track(power(alpha, m // a), power(beta, m // b))
            assert is_permutation_word(t)


def test_primitivity_and_cyclic_shifts():
    assert is_primitive(Word.parse("0110"))
    assert not is_primitive(Word.parse("0101"))
    assert cyclic_shifts(Word.parse("001")) == {
        Word.parse("001"),
        Word.parse("010", 2),
        Word.parse("100", 2),
    }
    with pytest.raises(ValueError):
        is_primitive(Word.parse("", 2))


def test_cyclic_shifts_preserve_primitivity_exhaustive():
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n):
            w = Word(bits, 2)
            if is_primitive(w):
                assert all(is_primitive(s) for s in cyclic_shifts(w))


def test_slow_words_enumeration():
    assert [str(w) for w in slow_words(2, 2)] == ["00", "01"]
    assert len(list(slow_words(6, 2))) == 32
    assert list(slow_words(0, 2)) == [Word((), 2)]
    with pytest.raises(ValueError, match="^n must be at least 0"):
        list(slow_words(-1, 2))
    for n in (0, 3):
        with pytest.raises(ValueError, match="^alphabet_size must be at least 1"):
            list(slow_words(n, 0))
    for w in slow_words(4, 3):
        assert is_slow(w)


def test_fractional_power():
    assert fractional_power(Word.parse("001"), 10) == Word.parse("0010010010", 2)
    assert fractional_power(Word.parse("01"), 5) == Word.parse("01010", 2)
