import itertools
import random

import pytest

from autocomplexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_EXACT,
    KIND_UNIQUE,
    ComplexityQuery,
    Nfa,
    compute,
    count_walks_given_projection,
    count_words_given_projection,
    oracle_min_states,
)
from autocomplexity.oracle import _scan_partitions
from autocomplexity.words import Word, slow_normalize, slow_words, track


def test_oracle_guards():
    with pytest.raises(ValueError):
        oracle_min_states(ComplexityQuery(KIND_UNIQUE, Word.parse("0", 2)), 4)
    with pytest.raises(ValueError):
        oracle_min_states(ComplexityQuery(KIND_UNIQUE, Word(tuple([0] * 9), 2)))
    with pytest.raises(ValueError):
        oracle_min_states(ComplexityQuery(KIND_DET_PARTIAL, Word.parse("0", 2)))
    with pytest.raises(ValueError):
        oracle_min_states(
            ComplexityQuery(KIND_COND_UNIQUE, Word.parse("012", 3), Word.parse("012", 3))
        )


def test_oracle_examples():
    assert oracle_min_states(ComplexityQuery(KIND_UNIQUE, Word.parse("0101", 2))) == 2
    assert oracle_min_states(ComplexityQuery(KIND_UNIQUE, Word.parse("0", 2))) == 1
    assert oracle_min_states(ComplexityQuery(KIND_UNIQUE, Word.parse("", 2))) == 1
    # exact acceptance never needs more states than unique acceptance
    w = Word.parse("00", 1)
    assert (
        oracle_min_states(ComplexityQuery(KIND_EXACT, w))
        <= oracle_min_states(ComplexityQuery(KIND_UNIQUE, w))
    )
    # a word needing more than three states resolves to None
    assert oracle_min_states(ComplexityQuery(KIND_UNIQUE, Word.parse("0001000", 2))) is None


def agreement(kind, x, y=None):
    o = oracle_min_states(ComplexityQuery(kind, x, y), 3)
    c = compute(ComplexityQuery(kind, x, y)).value
    if c <= 3:
        return o == c
    return o is None


def test_oracle_matches_search_unconditional():
    for n in range(0, 7):
        for w in slow_words(n, 2):
            assert agreement(KIND_UNIQUE, w), str(w)
            assert agreement(KIND_EXACT, w), str(w)


def test_oracle_matches_search_conditional_small():
    for n in range(0, 5):
        for x in slow_words(n, 2):
            for y in slow_words(n, 2):
                assert agreement(KIND_COND_UNIQUE, x, y), (str(x), str(y))
                assert agreement(KIND_COND_EXACT, x, y), (str(x), str(y))



def _periodic(rng, n):
    """A seeded binary word of length n that repeats a block of 1..n letters,
    so that pair words of small values are drawn too."""
    block = [rng.randrange(2) for _ in range(rng.randrange(1, n + 1))]
    return Word(tuple(block[i % len(block)] for i in range(n)), 2)


def test_oracle_matches_search_at_the_bench_lengths():
    """The lengths 7 and 8 the bench's oracle sample reaches: every slow x
    against two seeded two-letter conditions per length (conditional-unique)
    and one (conditional-exact), and the unique kind of seeded slow pair
    words, which use up to four letters."""
    rng = random.Random(34)
    for n in (7, 8):
        for y in rng.sample([w for w in slow_words(n, 2) if 1 in w.symbols], 2):
            for x in slow_words(n, 2):
                assert agreement(KIND_COND_UNIQUE, x, y), (str(x), str(y))
    for _ in range(20):
        pair = slow_normalize(track(_periodic(rng, 8), _periodic(rng, 8)))
        assert agreement(KIND_UNIQUE, pair), str(pair)
    rng = random.Random(35)
    for n in (7, 8):
        y = rng.choice([w for w in slow_words(n, 2) if 1 in w.symbols])
        for x in slow_words(n, 2):
            assert agreement(KIND_COND_EXACT, x, y), (str(x), str(y))


def raw_min_states(kind, x, y, max_q):
    """Third route: literally every labeled NFA over the pair alphabet, every
    edge subset and accept set, checked straight off the counting operations.
    Exponential in q*|alphabet|*q, so only run with q <= 2."""
    for q in range(1, max_q + 1):
        all_edges = [
            (frm, label, to)
            for frm in range(q)
            for label in range(4)
            for to in range(q)
        ]
        for bits in range(1 << len(all_edges)):
            edges = frozenset(e for i, e in enumerate(all_edges) if bits >> i & 1)
            for acc_bits in range(1, 1 << q):
                accepts = frozenset(s for s in range(q) if acc_bits >> s & 1)
                m = Nfa(q, 0, accepts, edges, 4)
                if kind == KIND_COND_UNIQUE:
                    r = count_walks_given_projection(m, y)
                else:
                    r = count_words_given_projection(m, y)
                if r.count == 1 and r.reconstruction == x:
                    return q
    return None


def test_oracle_matches_raw_enumeration_two_states():
    for x in slow_words(3, 2):
        for y in slow_words(3, 2):
            for kind in (KIND_COND_UNIQUE, KIND_COND_EXACT):
                raw = raw_min_states(kind, x, y, 2)
                fast = oracle_min_states(ComplexityQuery(kind, x, y), 2)
                assert raw == fast, (kind, str(x), str(y), raw, fast)


def walk_partitions(y, q, variant):
    """The partitions of ``_scan_partitions`` from the accepting walks listed
    one by one: every structure (one digraph per condition letter), every
    accept state f, and every state sequence from 0 to f. Positions t and s
    join when their walks share an edge under one condition letter."""
    n = len(y)
    edges = [(u, v) for u in range(q) for v in range(q)]
    digraphs = [
        {e for i, e in enumerate(edges) if bits >> i & 1} for bits in range(1 << len(edges))
    ]
    walks_to = [
        [(0,) + mid + (f,) for mid in itertools.product(range(q), repeat=n - 1)] for f in range(q)
    ]
    out = set()
    for structure in itertools.product(digraphs, repeat=max(y) + 1):
        for f in range(q):
            walks = [
                w for w in walks_to[f] if all(w[t:t + 2] in structure[y[t]] for t in range(n))
            ]
            if not walks or (variant == "unique" and len(walks) > 1):
                continue
            cells = [{(w[t], w[t + 1], y[t]) for w in walks} for t in range(n)]
            ids, classes = [None] * n, 0
            for t in range(n):
                if ids[t] is None:
                    ids[t], todo, classes = classes, [t], classes + 1
                    while todo:
                        s = todo.pop()
                        for r in range(n):
                            if ids[r] is None and cells[r] & cells[s]:
                                ids[r] = ids[t]
                                todo.append(r)
            out.add(tuple(ids))
    return frozenset(out)


@pytest.mark.parametrize("variant", ["unique", "exact"])
def test_scan_partitions_match_the_walks_listed_one_by_one(variant):
    """Every binary condition up to length 6 at q <= 2, and one-letter
    conditions up to length 4 at q = 3. At q <= 2 the unique and exact sets
    first differ at length 6, so that is where a walk count of 2 shows."""
    cases = [(w.symbols, q) for n in range(1, 7) for w in slow_words(n, 2) for q in (1, 2)]
    cases += [((0,) * n, 3) for n in range(1, 5)]
    for y, q in cases:
        assert _scan_partitions(y, max(y) + 1, q, variant) == walk_partitions(y, q, variant), (y, q)
