"""The batch search behind every many-word query: per length, one search per
level runs over the joint prefixes of all the condition words y, and each
node carries one mask of the pairs (y, x) still active on its prefix. The
unique kind is the one-letter condition ``0^n``.

The labeled search stays the reference: every value and witnessing sequence
the batch finds must be what ``_least_witness`` from 1 state finds for that
pair or word, and what one search per condition word finds, with a
certificate that verifies. The batch spends at most the nodes of the
searches per condition word, and a provider filled by the
batch must write the cache records, in the order, that one ``compute`` per
first-missing class key writes. The ``class_key`` that the provider, its
batches and the rows use is checked against its definition, the least memo
key over the relabelings (and reversals) of the words, and the cache file of
a cold study against digests of the bytes it held before the keys became
symbol tuples.
"""

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from autocomplexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
    BudgetExceeded,
    ComplexityQuery,
    Nfa,
    ResultCache,
    WitnessCertificate,
    compute,
    count_walks_given_projection,
    verify_certificate,
    walk_nfa,
)
from autocomplexity.cache import parse_word
from autocomplexity import complexity as complexity_module
from autocomplexity.complexity import (
    DEFAULT_MAX_NODES,
    _group_witnesses,
    _least_witness,
    _Nodes,
    _record_certificate,
    _walk_words,
    canonical_key,
    canonical_query,
    class_key,
    key_query,
    memo_key,
    value_cap,
)
from autocomplexity.kinds import KINDS
from autocomplexity.metrics import ComplexityProvider, MetricKind, distribution_table, verify_metric
from autocomplexity.words import Word, slow_words, track
from reference import all_relabelings

UNCONDITIONAL = (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL, KIND_DET_TOTAL)
CONDITIONAL = (KIND_COND_UNIQUE, KIND_COND_EXACT)


@functools.cache
def least_relabeling(w):
    """The relabeling of w, over its alphabet, whose symbols sort first."""
    return min(all_relabelings(w), key=lambda r: r.symbols)


def reverse(w):
    return None if w is None else Word(w.symbols[::-1], w.alphabet_size)


def least_key(kind, x, y):
    """The least memo key of the query on x (given y) over every relabeling
    of x and of y, taken separately. The key compares the target first and
    the condition next, and the two are relabeled independently, so it is
    the key of each word's least relabeling."""
    condition = None if y is None else least_relabeling(y)
    return memo_key(ComplexityQuery(kind, least_relabeling(x), condition))


def defined_class_key(kind, x, y):
    """The class key by its definition: ``least_key``, and for the
    reversible kinds the least of it and ``least_key`` of the reversed
    words."""
    keys = [least_key(kind, x, y)]
    if not KINDS[kind].deterministic:
        keys.append(least_key(kind, reverse(x), reverse(y)))
    return min(keys)


def assert_class_key(x, y):
    """``class_key`` meets its definition for every kind on x (given y), a
    class key names its query, and ``canonical_key`` is the least key with
    no reversal. The pair word's key ``("track", x, y)`` is the class key of
    the unique kind on ``track(x, y)``."""
    for kind in UNCONDITIONAL + CONDITIONAL:
        condition = y if kind in CONDITIONAL else None
        query = ComplexityQuery(kind, x, condition)
        key = class_key(memo_key(query))
        assert key == defined_class_key(kind, x, condition), query
        assert memo_key(key_query(key)) == key, query
        assert canonical_key(memo_key(query)) == least_key(kind, x, condition), query
        assert memo_key(canonical_query(query)) == least_key(kind, x, condition), query
    pair = class_key(("track", x.symbols, y.symbols))
    assert pair == class_key((KIND_UNIQUE, track(x, y).symbols, None)), (x, y)
    assert memo_key(key_query(pair)) == pair


@pytest.mark.parametrize("letters, max_len", [(2, 7), (3, 5)])
def test_class_key_meets_its_definition(letters, max_len):
    """Every slow word and pair over ``letters`` letters up to ``max_len``."""
    for n in range(max_len + 1):
        words = list(slow_words(n, letters))
        for x in words:
            for y in words:
                assert_class_key(x, y)


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
def test_random_class_key_meets_its_definition(pair):
    assert_class_key(*pair)


def labeled_record(x, y):
    """The record of x given y from the labeled search, from 1 state."""
    return _least_witness(
        KIND_COND_UNIQUE, *_walk_words(KIND_COND_UNIQUE, x, y), value_cap(KIND_COND_UNIQUE, len(x)), _Nodes(),
    )


def assert_batch_is_searched(condition, targets):
    found = _group_witnesses([condition.symbols], [[x.symbols for x in targets]], _Nodes())[0]
    assert len(found) == len(targets)
    for x, record in zip(targets, found):
        assert record == labeled_record(x, condition), (x, condition)


def assert_group_is_per_condition(conditions, targets, labeled=False):
    """One search of the group ``conditions``, each condition c with the
    targets ``targets[c]``, gives the records of one ``_group_witnesses``
    per condition word, and ``labeled``, those of the labeled search of
    every pair. It spends at most the nodes of the searches per condition
    word, and exactly theirs for one condition."""
    ys = [y.symbols for y in conditions]
    xss = [[x.symbols for x in xs] for xs in targets]
    meter = _Nodes()
    found = _group_witnesses(ys, xss, meter)
    alone = 0
    for y, xs, records in zip(conditions, xss, found):
        nodes = _Nodes()
        assert _group_witnesses([y.symbols], [xs], nodes)[0] == records, y
        alone += nodes.count
    if labeled:
        for y, xs, records in zip(conditions, targets, found):
            for x, record in zip(xs, records):
                assert record == labeled_record(x, y), (x, y)
    assert meter.count <= alone and (len(ys) > 1 or meter.count == alone)


@pytest.mark.parametrize("letters, max_len", [(2, 7), (3, 5)])
def test_batch_matches_labeled_search(letters, max_len):
    """Every slow pair over ``letters`` letters up to ``max_len``: one group
    per length, every slow word a condition and every slow word a target of
    each, against the labeled search per pair and one search per condition
    word."""
    for n in range(1, max_len + 1):
        words = list(slow_words(n, letters))
        assert_group_is_per_condition(words, [words] * len(words), labeled=True)


@st.composite
def condition_and_targets(draw, max_len):
    n = draw(st.integers(1, max_len))
    word = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(lambda s: Word(tuple(s), 2))
    return draw(word), draw(st.lists(word, min_size=1, max_size=8))


@given(condition_and_targets(10))
@settings(max_examples=40, deadline=None)
def test_random_batch_matches_labeled_search(case):
    assert_batch_is_searched(*case)


@st.composite
def condition_group(draw, max_len):
    """Up to 8 distinct conditions of one length over 1-3 letters, each a
    random prefix of one word followed by random letters, so that they
    share prefixes of every length, handed in a random order, with 1-6
    targets each over 1-3 letters, drawn apart from the conditions'
    alphabet (ternary targets given binary conditions and the other way
    round)."""
    n = draw(st.integers(1, max_len))
    condition_letters, target_letters = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    letters = st.integers(0, condition_letters - 1)
    base = draw(st.lists(letters, min_size=n, max_size=n))
    ys: dict[tuple, None] = {}
    for _ in range(draw(st.integers(1, 8))):
        cut = draw(st.integers(0, n))
        ys[tuple(base[:cut] + draw(st.lists(letters, min_size=n - cut, max_size=n - cut)))] = None
    word = st.lists(st.integers(0, target_letters - 1), min_size=n, max_size=n).map(
        lambda s: Word(tuple(s), target_letters)
    )
    return (
        [Word(y, condition_letters) for y in draw(st.permutations(list(ys)))],
        [draw(st.lists(word, min_size=1, max_size=6)) for _ in ys],
    )


@given(condition_group(10))
@settings(max_examples=60, deadline=None)
def test_random_group_matches_labeled_search(case):
    assert_group_is_per_condition(*case, labeled=True)


@given(condition_group(8))
@settings(max_examples=60, deadline=None)
def test_random_group_does_not_depend_on_the_input_order(case):
    """The group handed in sorted-y order spends the same nodes and gives
    each condition the same records."""
    ys = [y.symbols for y in case[0]]
    xss = [[x.symbols for x in xs] for xs in case[1]]
    ranked = sorted(range(len(ys)), key=ys.__getitem__)
    meter, ranked_meter = _Nodes(), _Nodes()
    found = _group_witnesses(ys, xss, meter)
    again = _group_witnesses([ys[c] for c in ranked], [xss[c] for c in ranked], ranked_meter)
    assert again == [found[c] for c in ranked] and ranked_meter.count == meter.count


def test_a_leaf_maps_its_bits_to_the_condition_and_target_handed_in():
    """Conditions handed against their sorted order, with 3, 1 and 2
    targets, binary and ternary: the pair bits are numbered in sorted-y
    order, and each record still lands on its own condition and target."""
    conditions = [Word.parse(y, 2) for y in ("110100", "010011", "011010")]
    targets = [
        [Word.parse(x, 2) for x in ("000000", "010101", "001101")],
        [Word.parse("011011", 2)],
        [Word.parse(x, 3) for x in ("012012", "000111")],
    ]
    found = _group_witnesses([y.symbols for y in conditions], [[x.symbols for x in xs] for xs in targets], _Nodes())
    assert found == [[labeled_record(x, y) for x in xs] for y, xs in zip(conditions, targets)]
    assert [[value for value, _ in records] for records in found] == [[1, 2, 2], [2], [2, 2]]


def test_row_records_match_compute_per_pair(tmp_path):
    """The cache file of a cold ``distribution_table(6)`` followed by
    ``verify_metric(6, k)`` for the four kinds is byte for byte the one a
    ``compute`` per first-missing class key writes: the rows' pairs in
    ``(y, x)`` order, then, pair by pair in ``(x, y)`` order off the 0 case
    of ``j``, the words x and y and the pair word x#y."""
    provider = ComplexityProvider(ResultCache(tmp_path / "rows"))
    distribution_table(6, provider)
    for kind in MetricKind:
        verify_metric(6, kind, provider)
    reference = ResultCache(tmp_path / "reference")
    seen = set()

    def value(query):
        # a class the reference holds is a hit, which writes nothing
        key = class_key(memo_key(query))
        seen.add(key)
        return compute(key_query(key), cache=reference).value

    for n in range(7):
        ground = list(slow_words(n, 2))
        for y in ground:
            for x in ground:
                value(ComplexityQuery(KIND_COND_UNIQUE, x, y))
    for x in ground:
        for y in ground:
            pair = ComplexityQuery(KIND_COND_UNIQUE, x, y), ComplexityQuery(KIND_COND_UNIQUE, y, x)
            if any(value(q) != 1 for q in pair):
                for w in (x, y, track(x, y)):
                    value(ComplexityQuery(KIND_UNIQUE, w))
    written = (tmp_path / "rows" / "results.tsv").read_bytes()
    assert written.count(b"\n") == len(seen) - 1  # n = 0 writes no record
    assert written.count(b"\nunique\t") > 0
    assert written == (tmp_path / "reference" / "results.tsv").read_bytes()


@pytest.mark.parametrize("n, size, lines, digest", [
    pytest.param(
        6, 41_525, 842, "b5271e0408afb0b7d796daa33950a383686cbd14a6dae87b985992a5fca9b158", id="6",
    ),
    pytest.param(
        8, 722_007, 12_586, "f8ef03712a6914ca07ae835b6c72011c05dc48ececd12ff9b8eb155e47835c57", id="8",
        marks=pytest.mark.extended,
    ),
])
def test_cold_study_cache_bytes_are_pinned(tmp_path, n, size, lines, digest):
    """The cache file of a cold ``distribution_table(n)`` followed by
    ``verify_metric(n, k)`` for the four kinds, on a fresh disk cache, is
    the one written before the cache was keyed by symbol tuples: the same
    records, in the same order, in the same format. The other cache tests
    run both of their sides through the same key code, so only a pinned
    digest catches a drift they share."""
    provider = ComplexityProvider(ResultCache(tmp_path))
    distribution_table(n, provider)
    for kind in MetricKind:
        verify_metric(n, kind, provider)
    data = (tmp_path / "results.tsv").read_bytes()
    assert (len(data), data.count(b"\n"), hashlib.sha256(data).hexdigest()) == (size, lines, digest)


@pytest.mark.parametrize("letters, max_len", [(2, 8), (3, 5)])
def test_shape_hits_serve_the_full_check_certificates(letters, max_len, monkeypatch):
    """Every record of the rows n <= ``max_len`` (unique and
    conditional-unique kinds), which lie on fewer walk shapes than there
    are records, is served again with no certificate check, and the value
    and certificate served are those of the full check of its record."""
    provider = ComplexityProvider()
    keys = set()
    for n in range(1, max_len + 1):
        ground = list(slow_words(n, letters))
        provider.prefetch((KIND_UNIQUE, x.symbols, None) for x in ground)
        provider.conditional_row(ground)
        keys.update(class_key((KIND_UNIQUE, x.symbols, None)) for x in ground)
        keys.update(class_key((KIND_COND_UNIQUE, x.symbols, y.symbols)) for y in ground for x in ground)
    cache = provider.cache
    shapes = {(key[2], cache.get(key)[1]) for key in keys}
    assert len(shapes) < len(keys) == len(cache)
    checked = []
    real = complexity_module.verify_certificate
    monkeypatch.setattr(
        complexity_module, "verify_certificate", lambda cert: checked.append(cert) or real(cert)
    )
    served = {key: compute(key_query(key), cache=cache) for key in sorted(keys)}
    assert not checked
    for key, result in served.items():
        query = key_query(key)
        value, seq = cache.get(key)
        cert, why = _record_certificate(query, value, seq, _Nodes())
        assert why is None, key
        assert (result.value, result.certificate, result.explored) == (value, cert, 0), key


def test_known_shape_hits_build_nothing(monkeypatch):
    """A hit on a proven walk shape is checked on the record's symbols: it
    builds no track word and no walk NFA and verifies nothing. Its
    certificate is built when first read, is the full check's, and is kept."""
    provider = ComplexityProvider()
    keys = set()
    for letters, n in ((2, 6), (3, 4)):
        ground = list(slow_words(n, letters))
        provider.prefetch((KIND_UNIQUE, x.symbols, None) for x in ground)
        provider.conditional_row(ground)
        keys.update(class_key((KIND_UNIQUE, x.symbols, None)) for x in ground)
        keys.update(class_key((KIND_COND_UNIQUE, x.symbols, y.symbols)) for y in ground for x in ground)
    cache = provider.cache
    assert len(keys) == len(cache)
    for key in sorted(keys):
        compute(key_query(key), cache=cache)
    calls = {"walk_nfa": 0, "verify_certificate": 0, "track": 0}
    for name in calls:
        real = getattr(complexity_module, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(complexity_module, name, counting)
    served = {key: compute(key_query(key), cache=cache) for key in sorted(keys)}
    assert calls == {"walk_nfa": 0, "verify_certificate": 0, "track": 0}
    monkeypatch.undo()
    for key, result in served.items():
        query = key_query(key)
        value, seq = cache.get(key)
        cert, why = _record_certificate(query, value, seq, _Nodes())
        assert why is None, key
        assert (result.value, result.explored) == (value, 0), key
        assert result.certificate == cert and result.certificate is result.certificate, key
        assert verify_certificate(result.certificate)[0], key


def two_set_check(x, y, sequence, value):
    """The known-shape check as two sets of steps: the walk NFA has
    ``value`` states and as many steps ``(s_i, y_i, x_i, s_i+1)`` as steps
    ``(s_i, y_i, s_i+1)``."""
    frm, to = sequence[:-1], sequence[1:]
    edges = set(zip(frm, y, x, to, strict=True))
    classes = set(zip(frm, y, to, strict=True))
    return max(sequence) + 1 == value and len(edges) == len(classes)


def row_records(letters, max_len):
    """The records ``(key, value, sequence)`` of the rows n <= ``max_len``
    over ``letters`` letters, unique and conditional-unique kinds."""
    provider = ComplexityProvider()
    for n in range(1, max_len + 1):
        ground = list(slow_words(n, letters))
        provider.prefetch((KIND_UNIQUE, x.symbols, None) for x in ground)
        provider.conditional_row(ground)
    return sorted((key, value, sequence) for key, (value, sequence) in provider.cache._memo.items())


def reference_record_check(query, value, sequence):
    """The full check of the record ``(value, sequence)`` of ``query`` built
    as it was before the first sight was made lean: the labels are the
    pair word ``track(condition, target)`` (the target for the unique
    kind), the walk NFA's edges are indexed, and its certificate
    must verify and have ``value`` states. The certificate, else None."""
    labels = query.target if query.condition is None else track(query.condition, query.target)
    edges = frozenset((sequence[i], labels[i], sequence[i + 1]) for i in range(len(labels)))
    nfa = Nfa(max(sequence) + 1, 0, frozenset({sequence[-1]}), edges, labels.alphabet_size)
    cert = WitnessCertificate(query.kind, query.target, nfa, nfa.state_count, query.condition)
    return cert if verify_certificate(cert)[0] and nfa.state_count == value else None


def reference_step_index(sequence, y):
    """The index of the step partition of the walk ``sequence`` reading
    ``y``: at position i, the least j with ``(s_j, y_j, s_j+1) = (s_i, y_i,
    s_i+1)``."""
    first = {}
    return tuple(first.setdefault(step, i) for i, step in enumerate(zip(sequence, y, sequence[1:])))


@pytest.mark.parametrize("letters, max_len", [(2, 6), (3, 4)])
def test_step_index_check_is_the_two_set_check_and_the_full_check(letters, max_len):
    """Every walk shape of the rows n <= ``max_len``, and the empty word's
    of both kinds, is proven with its step-partition index. Against every
    target of its length over the alphabet, on the walk's state count and
    one off it, a hit is served on that index exactly when the two-set
    check holds and exactly when the walk NFA over the target verifies on
    ``value`` states."""
    shapes = {(kind, y, sequence) for (kind, _x, y), _value, sequence in row_records(letters, max_len)}
    shapes |= {(KIND_UNIQUE, None, (0,)), (KIND_COND_UNIQUE, (), (0,))}
    assert {len(sequence) - 1 for _kind, _y, sequence in shapes} == set(range(max_len + 1))
    assert complexity_module._shape_index((), (0,)) == ()
    served_and_not = set()
    for kind, y, sequence in sorted(shapes, key=repr):
        n = len(sequence) - 1
        steps_y = (0,) * n if y is None else y
        assert complexity_module._shape_index(steps_y, sequence) == reference_step_index(sequence, steps_y)
        condition = None if y is None else Word(y, max(y, default=0) + 1)
        states = max(sequence) + 1
        for x in itertools.product(range(letters), repeat=n):
            target = Word(x, letters)
            query = ComplexityQuery(kind, target, condition)
            key = canonical_key(memo_key(query))
            nfa = walk_nfa(sequence, _walk_words(kind, target, condition)[0])
            verifies = verify_certificate(complexity_module._certificate(query, nfa))[0]
            for value in (states - 1, states, states + 1):
                hit = complexity_module._hit_certificate(key, value, sequence, query, _Nodes())
                fast = isinstance(hit, functools.partial)
                old = two_set_check(x, steps_y, sequence, value)
                full = verifies and nfa.state_count == value
                assert fast == old == full, (kind, y, sequence, x, value)
                served_and_not.add(fast)
    assert served_and_not == {True, False}


@pytest.mark.parametrize("letters, max_len", [(2, 6), (3, 4)])
def test_first_sight_check_is_the_record_check(letters, max_len):
    """A hit is served exactly when the reference record check passes, its
    certificate, once read, is the reference's, and the shape of a served
    hit is proven with the step-partition index. Checked with the shape
    memo emptied first, so that each shape's first check proves it and the
    later ones read the memo, on every record of the rows n <= ``max_len``,
    on the record's states, one fewer and one more, for the record's target
    and a forged one (its last letter changed), and for the record's
    sequence and two that are not its witness (all loops on one state, and
    the walk one step late)."""
    complexity_module._shape_index.cache_clear()
    served_and_not = set()
    for key, record_value, record_sequence in row_records(letters, max_len):
        kind, x, y = key
        n = len(x)
        steps_y = (0,) * n if y is None else y
        forged = x[:-1] + ((x[-1] + 1) % letters,)
        for target in (x, forged):
            query = ComplexityQuery(kind, Word(target, letters), None if y is None else Word(y, letters))
            target_key = canonical_key(memo_key(query))
            for sequence in (record_sequence, (0,) * (n + 1), (0,) + record_sequence[:-1]):
                states = max(sequence) + 1
                for value in (states - 1, states, states + 1):
                    hit = complexity_module._hit_certificate(target_key, value, sequence, query, _Nodes())
                    want = reference_record_check(query, value, sequence)
                    assert (hit is None) == (want is None), (key, target, sequence, value)
                    if want is not None:
                        assert hit() == want, (key, target, sequence, value)
                        index = complexity_module._shape_index(steps_y, sequence)
                        assert index == reference_step_index(sequence, steps_y), (key, target, sequence)
                    served_and_not.add(want is not None)
        assert record_value == max(record_sequence) + 1
    assert served_and_not == {True, False}


@pytest.mark.parametrize("letters, max_len", [(2, 6), (3, 4)])
def test_first_pass_verifies_once_per_shape(letters, max_len, monkeypatch):
    """Served from a cache that holds the rows' records, with the shape
    memo emptied first, every record is checked on its walk shape: no walk
    NFA is built and no certificate verified, each distinct shape ``(y,
    sequence)`` is proven once (``0^n`` for the unique kind, so a unique
    record and a conditional-unique one given ``0^n`` share a proof), there
    are fewer shapes than records, and each value is the record's."""
    records = row_records(letters, max_len)
    cache = ResultCache()
    cache.put_many(records)
    complexity_module._shape_index.cache_clear()
    built, verified = [], []
    real_walk, real_verify = complexity_module.walk_nfa, complexity_module.verify_certificate
    monkeypatch.setattr(complexity_module, "walk_nfa", lambda *args: built.append(args) or real_walk(*args))
    monkeypatch.setattr(
        complexity_module, "verify_certificate", lambda cert: verified.append(cert) or real_verify(cert)
    )
    for key, value, _sequence in records:
        assert compute(key_query(key), cache=cache).value == value, key
    shapes = {((0,) * len(x) if y is None else y, sequence) for (_kind, x, y), _value, sequence in records}
    assert complexity_module._shape_index.cache_info().misses == len(shapes) < len(records)
    assert not built and not verified


@st.composite
def walk_records(draw):
    """A unique or conditional-unique query over 2 or 3 letters with n <= 10
    and a record ``(value, sequence)`` for it: the sequence is the least
    witness of the drawn target or any slow walk, the target is then often
    redrawn constant on the walk's step partition and then often forged at
    one position, and the value is the walk's state count or one off it."""
    letters = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 10))
    word = st.lists(st.integers(0, letters - 1), min_size=n, max_size=n).map(tuple)
    kind = draw(st.sampled_from((KIND_UNIQUE, KIND_COND_UNIQUE)))
    y = draw(word) if kind == KIND_COND_UNIQUE else None
    condition = None if y is None else Word(y, letters)
    x = draw(word)
    if draw(st.booleans()):
        labels, classes = _walk_words(kind, Word(x, letters), condition)
        _value, sequence = _least_witness(kind, labels, classes, value_cap(kind, n), _Nodes())
    else:
        sequence = (0,)
        for _ in range(n):
            sequence += (draw(st.integers(0, max(sequence) + 1)),)
    if draw(st.booleans()):
        steps = list(zip(sequence, (0,) * n if y is None else y, sequence[1:]))
        letter = {step: draw(st.integers(0, letters - 1)) for step in dict.fromkeys(steps)}
        x = tuple(letter[step] for step in steps)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        x = x[:i] + ((x[i] + draw(st.integers(1, letters - 1))) % letters,) + x[i + 1 :]
    value = max(sequence) + 1 + draw(st.sampled_from((-1, 0, 0, 1)))
    return ComplexityQuery(kind, Word(x, letters), condition), value, sequence


@given(walk_records())
@settings(max_examples=300, deadline=None)
def test_random_walk_hit_is_the_record_check(record):
    """A unique-kind hit is served exactly when the reference record check
    passes, and its certificate, once read, is the reference's."""
    query, value, sequence = record
    key = canonical_key(memo_key(query))
    hit = complexity_module._hit_certificate(key, value, sequence, query, _Nodes())
    want = reference_record_check(query, value, sequence)
    assert (hit is None) == (want is None)
    if want is not None:
        assert hit() == want


@st.composite
def shapes_and_malformed(draw):
    """A word y over 1 to 3 letters with n <= 10, its alphabet size, and a
    slow walk over y, or a sequence that ``walk_nfa`` refuses: empty, one
    state short or one too many, not slow at one position, or with a
    negative state there."""
    letters = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    y = tuple(draw(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n)))
    walk = [0]
    for _ in range(n):
        walk.append(draw(st.integers(0, max(walk) + 1)))
    how = draw(st.sampled_from(("walk", "walk", "walk", "empty", "short", "long", "not slow", "negative")))
    if how == "empty":
        walk = []
    elif how == "short":
        walk.pop()
    elif how == "long":
        walk.append(draw(st.integers(0, max(walk) + 1)))
    elif how != "walk":
        i = draw(st.integers(0, n))
        skip = max(walk[:i], default=-1) + draw(st.integers(2, 4))
        walk[i] = skip if how == "not slow" else draw(st.integers(-3, -1))
    return y, letters, tuple(walk)


@given(shapes_and_malformed())
@settings(max_examples=500, deadline=None)
def test_mask_proof_is_the_walk_count(shape):
    """``_shape_index(y, sequence)`` is the step-partition index exactly
    when the walk NFA of the sequence over y, built by ``walk_nfa``, has
    exactly one accepting walk reading y
    (``count_walks_given_projection``), and None otherwise, also where
    ``walk_nfa`` raises; it never raises."""
    y, letters, sequence = shape
    condition = Word(y, letters)
    try:
        proven = count_walks_given_projection(walk_nfa(sequence, condition), condition).count == 1
    except ValueError:
        proven = False
    want = reference_step_index(sequence, y) if proven else None
    assert complexity_module._shape_index(y, sequence) == want


def test_row_budget_overrun_writes_nothing(tmp_path):
    # row n = 6 searches level 1 of every condition word in its first 75
    # nodes, and spends its first 200 inside level 2, so every pending pair
    # failed level 1 (one search per condition word, which took each word to
    # its last level before the next began, reached 4 here); a full budget
    # finishes it
    ground = list(slow_words(6, 2))
    provider = ComplexityProvider(ResultCache(tmp_path), max_nodes=200)
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as e:
            provider.conditional_row(ground)
        assert e.value.lower_bound == 2
        assert len(provider.cache) == 0
        assert not (tmp_path / "results.tsv").exists()
        assert not provider._memo
    provider.max_nodes = DEFAULT_MAX_NODES
    provider.conditional_row(ground)
    for y in ground:
        for x in ground:
            want = compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value
            assert provider.conditional(x, y) == want


def record_groups(monkeypatch):
    """A list that collects the groups ``(ys, xss)`` the provider hands to
    ``_group_witnesses``, in call order."""
    from autocomplexity import metrics

    groups = []
    real = metrics._group_witnesses

    def recording(ys, xss, nodes):
        groups.append((list(ys), [list(xs) for xs in xss]))
        return real(ys, xss, nodes)

    monkeypatch.setattr(metrics, "_group_witnesses", recording)
    return groups


def per_condition_nodes(groups):
    """The nodes of the groups searched again alone, and those of one
    ``_group_witnesses`` per condition word of them."""
    grouped = alone = 0
    for ys, xss in groups:
        nodes = _Nodes()
        _group_witnesses(ys, xss, nodes)
        grouped += nodes.count
        for y, xs in zip(ys, xss):
            nodes = _Nodes()
            _group_witnesses([y], [xs], nodes)
            alone += nodes.count
    return grouped, alone


def test_provider_counts_the_nodes_of_its_batches_and_misses(monkeypatch):
    """``provider.nodes`` after ``distribution_table(6)`` is the sum of the
    nodes each group of condition words of one length spends when searched
    again alone, one group per row n = 1..6: 2,285 in all, 1,749 of them
    row 6's. One search per condition word spent 3,924: the shared prefixes
    of the words are counted once. A miss adds the nodes of its
    ``compute``."""
    groups = record_groups(monkeypatch)
    provider = ComplexityProvider()
    distribution_table(6, provider)
    assert [len(ys) for ys, _xss in groups] == [1, 2, 4, 8, 16, 32]
    grouped, alone = per_condition_nodes(groups)
    assert (provider.nodes, grouped, alone) == (2_285, 2_285, 3_924)
    # no factor of x is cached, so the miss searches its class from 1 state
    x = Word.parse("1101001100101100", 2)
    searched = compute(key_query(class_key((KIND_UNIQUE, x.symbols, None)))).explored
    before = provider.nodes
    provider.unconditional(x)
    assert provider.nodes - before == searched > 0


@pytest.mark.parametrize("n, nodes, alone, share", [
    pytest.param(6, 2_644, 4_283, 1, id="6"),
    pytest.param(8, 39_449, 71_869, 0.6, id="8", marks=pytest.mark.extended),
])
def test_cold_study_nodes_are_pinned(tmp_path, monkeypatch, n, nodes, alone, share):
    """The search nodes of a cold ``distribution_table(n)`` followed by
    ``verify_metric(n, k)`` for the four kinds, every one spent by a batch:
    one search per level over the condition words of one length. One search
    per condition word spent ``alone``, which the test counts again; the
    groups spend at most ``share`` of it."""
    groups = record_groups(monkeypatch)
    provider = ComplexityProvider(ResultCache(tmp_path))
    distribution_table(n, provider)
    for kind in MetricKind:
        verify_metric(n, kind, provider)
    assert (provider.nodes, *per_condition_nodes(groups)) == (nodes, nodes, alone)
    assert nodes <= share * alone


def test_provider_counts_the_nodes_of_an_overrun():
    """A ``compute`` or a batch that runs out of nodes adds the nodes it
    spent to ``provider.nodes`` before the overrun reaches the caller."""
    x, y = Word.parse("0110100110", 2), Word.parse("0101010011", 2)
    key = (KIND_COND_UNIQUE, x.symbols, y.symbols)
    for serve in (lambda p: p.conditional(x, y), lambda p: p.prefetch([key])):
        provider = ComplexityProvider(max_nodes=10)
        with pytest.raises(BudgetExceeded) as e:
            serve(provider)
        assert provider.nodes == e.value.explored == 11
    provider = ComplexityProvider(max_nodes=-5)
    with pytest.raises(BudgetExceeded) as e:
        provider.conditional(x, y)
    assert provider.nodes == e.value.explored == 1


def test_a_target_too_long_for_the_batch_is_searched_alone():
    """A class whose target has more than 256 letters, more than the
    batch's byte columns hold, is searched by ``compute``: an overrun raises
    ``BudgetExceeded`` as for any word, and its nodes are counted."""
    provider = ComplexityProvider(max_nodes=1000)
    with pytest.raises(BudgetExceeded) as e:
        provider.prefetch([(KIND_UNIQUE, tuple(range(257)), None)])
    assert (e.value.lower_bound, e.value.explored) == (6, 1001) and provider.nodes == 1001


def assert_record_is_searched(target, record):
    """``record`` is what the labeled unique-kind search from 1 state returns
    for ``target``, and its certificate verifies."""
    query = (KIND_UNIQUE, target, None)
    cap = value_cap(KIND_UNIQUE, len(target))
    assert record == _least_witness(KIND_UNIQUE, *_walk_words(*query), cap, _Nodes()), target
    value, seq = record
    cert, why = _record_certificate(ComplexityQuery(*query), value, seq, _Nodes())
    assert why is None and verify_certificate(cert)[0] and cert.claimed_states == value, target


def assert_provider_records(words):
    """One batch of a fresh provider fills every word's unique-kind value."""
    provider = ComplexityProvider()
    provider.prefetch((KIND_UNIQUE, w.symbols, None) for w in words)
    for w in words:
        key = class_key((KIND_UNIQUE, w.symbols, None))
        record = provider.cache.get(key)
        assert record is not None and record[0] == provider.unconditional(w)
        assert_record_is_searched(key_query(key).target, record)


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
    # a lone pair word is one compute miss: an overrun raises the lower bound
    # that compute proves with the same budget, and nothing is kept
    x, y = Word.parse("00100100", 2), Word.parse("00100011", 2)
    rep = key_query(class_key(("track", x.symbols, y.symbols)))
    with pytest.raises(BudgetExceeded) as searched:
        compute(rep, max_nodes=100)
    provider = ComplexityProvider(max_nodes=100)
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as e:
            provider.track_value(x, y)
        assert e.value.lower_bound == searched.value.lower_bound == 4
        assert not provider._memo and len(provider.cache) == 0
    provider.max_nodes = DEFAULT_MAX_NODES
    assert provider.track_value(x, y) == compute(ComplexityQuery(KIND_UNIQUE, track(x, y))).value


def test_default_budget_gives_the_searched_value():
    x, y = Word.parse("00100100", 2), Word.parse("00100011", 2)
    searched = compute(ComplexityQuery(KIND_UNIQUE, track(x, y))).value
    assert ComplexityProvider().track_value(x, y) == searched
    batch = ComplexityProvider()
    batch.prefetch([("track", x.symbols, y.symbols)])
    assert batch.track_value(x, y) == searched
    with pytest.raises(ValueError):
        batch.prefetch([(KIND_DET_PARTIAL, x.symbols, None)])


@st.composite
def binary_pairs(draw, max_len):
    n = draw(st.integers(1, max_len))
    x, y = (draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(2))
    return Word(tuple(x), 2), Word(tuple(y), 2)


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

    ``A(x#y)`` comes from the provider's batch, every other value from
    ``compute`` with no cache, so the two routes are checked together.
    """
    x, y = pair
    a_x, a_y = (compute(ComplexityQuery(KIND_UNIQUE, w)).value for w in (x, y))
    a_xy = compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value
    a_yx = compute(ComplexityQuery(KIND_COND_UNIQUE, y, x)).value
    provider = ComplexityProvider()
    provider.prefetch([("track", x.symbols, y.symbols)])
    a_pair = provider.track_value(x, y)
    assert max(a_x, a_y, a_xy, a_yx) <= a_pair <= min(a_x * a_yx, a_y * a_xy)


@given(binary_pairs(6), st.data())
@settings(max_examples=200, deadline=None)
def test_product_lemma(pair, data):
    """A(x|z) <= A(x|y) A(y|z), the lemma behind the triangle inequality of
    ``jnum`` (taking logs).

    Proof: take a witness M for y given z and a witness N for x given y, and
    pair their states. The product has an edge labeled ``(c, a)`` from
    ``(m, p)`` to ``(m', p')`` when M has ``m --(c, b)--> m'`` and N has
    ``p --(b, a)--> p'`` for some b. A product walk consistent with z
    projects onto a walk of M consistent with z, which is M's one walk and
    reads y; its N side is then consistent with y, so it is N's one walk
    and spells x. Checked here on the values only, with no cache; building
    the composed witness is still open.
    """
    y, z = pair
    x = Word(tuple(data.draw(st.lists(st.integers(0, 1), min_size=len(y), max_size=len(y)))), 2)

    def a(u, v):
        return compute(ComplexityQuery(KIND_COND_UNIQUE, u, v)).value

    assert a(x, z) <= a(x, y) * a(y, z)
