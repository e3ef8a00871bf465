import functools
import importlib
import itertools
import pkgutil

import pytest
from hypothesis import example, given, settings, strategies as st

import autocomplexity
from autocomplexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
    BudgetExceeded,
    ComplexityQuery,
    ResultCache,
    all_witness_sequences,
    compute,
    emergent_simplicity,
    max_complexity,
    search_emergent,
    sparse_witness_report,
    value_at_most,
    verify_certificate,
    witness_at,
)
from autocomplexity.automata import Nfa, WitnessCertificate, walk_nfa
from autocomplexity.complexity import (
    _counter,
    _group_witnesses,
    _iter_witness_sequences,
    _Nodes,
    _total_dfa,
    _walk_words,
)
from autocomplexity.kinds import KINDS
from autocomplexity.metrics import ComplexityProvider, MetricKind, distribution_table, verify_metric
from autocomplexity.words import Word, slow_words, track


def anu(text, alpha=None):
    return compute(ComplexityQuery(KIND_UNIQUE, Word.parse(text, alpha))).value


def test_query_validation():
    with pytest.raises(ValueError):
        ComplexityQuery("bogus", Word.parse("0"))
    with pytest.raises(ValueError):
        ComplexityQuery(KIND_UNIQUE, Word.parse("0"), Word.parse("0"))
    with pytest.raises(ValueError):
        ComplexityQuery(KIND_COND_UNIQUE, Word.parse("01"), Word.parse("0"))


def test_worked_example_triples():
    x = Word.parse("010010010010", 2)
    y = Word.parse("010101010101", 2)
    assert compute(ComplexityQuery(KIND_UNIQUE, x)).value == 3
    assert compute(ComplexityQuery(KIND_UNIQUE, y)).value == 2
    assert compute(ComplexityQuery(KIND_UNIQUE, track(x, y))).value == 6


def test_worked_example_length_four_pair():
    x = Word.parse("0123")
    y = Word.parse("0001", 2)
    assert compute(ComplexityQuery(KIND_UNIQUE, track(x, y))).value == 3
    assert compute(ComplexityQuery(KIND_UNIQUE, y)).value == 2


def test_worked_example_cyclic_pair():
    x = Word.parse("012301230123", 4)
    y = Word.parse("012345012345", 6)
    assert compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value == 2
    assert compute(ComplexityQuery(KIND_UNIQUE, y)).value == 6
    # the pair word is a 12-symbol permutation word, so the half-length
    # ceiling meets the square-free floor at exactly 7
    assert compute(ComplexityQuery(KIND_UNIQUE, track(x, y))).value == 7


def test_constant_words_are_trivial():
    for n in range(0, 8):
        assert anu("0" * n, 2) == 1


def test_every_result_ships_a_verified_minimal_certificate():
    for text in ["0", "01", "0010", "0001000"]:
        for kind in (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL):
            r = compute(ComplexityQuery(kind, Word.parse(text, 2)))
            assert verify_certificate(r.certificate)[0]
            assert r.certificate.claimed_states == r.value
            if r.value > 1 and kind != KIND_DET_TOTAL:
                assert not list(
                    all_witness_sequences(ComplexityQuery(kind, Word.parse(text, 2)), r.value - 1)
                )


def test_canonical_tie_break_is_lexicographic():
    q = ComplexityQuery(KIND_UNIQUE, Word.parse("0101", 2))
    r = compute(q)
    seqs = list(all_witness_sequences(q, r.value))
    walk = min(seqs)
    rebuilt = compute(q).certificate
    assert rebuilt.nfa == walk_nfa(walk, Word.parse("0101", 2))


def test_empty_word_all_kinds():
    """The empty word has value 1 with no search under every kind, target
    alphabet and condition alphabet: one state, the start and accept, with
    no edges, except that det-total's state loops on every letter."""
    for kind, spec in KINDS.items():
        for a in (1, 2, 3):
            for condition in [Word((), b) for b in (1, 2, 3)] if spec.conditional else [None]:
                r = compute(ComplexityQuery(kind, Word((), a), condition))
                letters = a * (1 if condition is None else condition.alphabet_size)
                loops = {(0, c, 0) for c in range(letters)} if kind == KIND_DET_TOTAL else set()
                assert (r.value, r.explored) == (1, 0)
                assert r.certificate.nfa == Nfa(1, 0, frozenset({0}), frozenset(loops), letters)
                assert verify_certificate(r.certificate)[0]


def test_exact_never_exceeds_unique_small():
    for n in range(0, 6):
        for w in slow_words(n, 2):
            ve = compute(ComplexityQuery(KIND_EXACT, w)).value
            vu = compute(ComplexityQuery(KIND_UNIQUE, w)).value
            assert ve <= vu


def test_deterministic_sandwich():
    # the partial value never exceeds the total one, which exceeds it by at most 1
    for n in range(0, 6):
        for w in slow_words(n, 2):
            partial = compute(ComplexityQuery(KIND_DET_PARTIAL, w)).value
            total = compute(ComplexityQuery(KIND_DET_TOTAL, w)).value
            assert partial <= total <= partial + 1


def test_det_total_examples():
    assert compute(ComplexityQuery(KIND_DET_TOTAL, Word.parse("000", 1))).value == 1
    assert compute(ComplexityQuery(KIND_DET_TOTAL, Word.parse("000", 2))).value == 2
    r = compute(ComplexityQuery(KIND_DET_TOTAL, Word.parse("0001", 2)))
    assert r.value == 3
    assert verify_certificate(r.certificate)[0]


def test_conditional_refinement_and_constant_condition():
    for n in range(1, 6):
        ground = list(slow_words(n, 2))
        zero = Word((0,) * n, 2)
        for x in ground:
            # a constant condition changes nothing
            assert (
                compute(ComplexityQuery(KIND_COND_UNIQUE, x, zero)).value
                == compute(ComplexityQuery(KIND_UNIQUE, x)).value
            )
            for y in ground:
                # x's partition of positions refines y's: y's letter is a function of x's
                if len(set(zip(x.symbols, y.symbols))) == len(set(x.symbols)):
                    assert compute(ComplexityQuery(KIND_COND_UNIQUE, y, x)).value == 1
                # conditioning never hurts
                assert (
                    compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value
                    <= compute(ComplexityQuery(KIND_UNIQUE, x)).value
                )


def test_lone_length_two_conditional_instance():
    # among the four ordered pairs of 00 and 01, only one needs two states
    vals = {}
    for x in slow_words(2, 2):
        for y in slow_words(2, 2):
            vals[(str(x), str(y))] = compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value
    assert vals == {
        ("00", "00"): 1, ("00", "01"): 1, ("01", "01"): 1, ("01", "00"): 2,
    }


def test_budget_raises_with_lower_bound():
    w = Word.parse("00110100101101", 2)
    with pytest.raises(BudgetExceeded) as e:
        compute(ComplexityQuery(KIND_UNIQUE, w), max_nodes=50)
    assert e.value.lower_bound >= 1
    assert e.value.explored > 50


def test_max_states_bound():
    w = Word.parse("0001000", 2)
    with pytest.raises(BudgetExceeded) as e:
        compute(ComplexityQuery(KIND_UNIQUE, w), max_states=3)
    assert e.value.lower_bound == 4
    assert value_at_most(ComplexityQuery(KIND_UNIQUE, w), 3) is None
    assert value_at_most(ComplexityQuery(KIND_UNIQUE, w), 4) == 4
    # a negative allowance proves only the bound 1, which needs no search
    with pytest.raises(BudgetExceeded) as e:
        compute(ComplexityQuery(KIND_UNIQUE, w), max_states=-3)
    assert (e.value.lower_bound, e.value.explored) == (1, 0)
    # running out of nodes proves nothing about the bound: "unknown" raises
    with pytest.raises(BudgetExceeded) as e:
        value_at_most(ComplexityQuery(KIND_UNIQUE, w), 10, max_nodes=5)
    assert e.value.lower_bound <= 4
    # enumerating one level rules out none below it: A(0000) = 1
    q = ComplexityQuery(KIND_UNIQUE, Word.parse("0000", 2))
    with pytest.raises(BudgetExceeded) as e:
        witness_at(q, 3, max_nodes=1)
    assert e.value.lower_bound == 1
    with pytest.raises(BudgetExceeded) as e:
        list(all_witness_sequences(q, 3, max_nodes=1))
    assert e.value.lower_bound == 1


def test_negative_node_budget_is_zero():
    # no node is allowed, so the first one overruns, as under max_nodes=0
    q = ComplexityQuery(KIND_UNIQUE, Word.parse("0110", 2))
    for max_nodes in (0, -5):
        with pytest.raises(BudgetExceeded) as e:
            compute(q, max_nodes=max_nodes)
        assert (e.value.lower_bound, e.value.explored) == (1, 1)
    with pytest.raises(BudgetExceeded) as e:
        value_at_most(q, 3, max_nodes=-3)
    assert (e.value.lower_bound, e.value.explored) == (1, 1)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_empty_word_honours_the_allowance(kind):
    # no automaton has 0 states, so the bound 1 needs no search
    empty = Word((), 2)
    query = ComplexityQuery(kind, empty, empty if KINDS[kind].conditional else None)
    with pytest.raises(BudgetExceeded) as e:
        compute(query, max_states=0)
    assert (e.value.lower_bound, e.value.explored) == (1, 0)
    assert value_at_most(query, 0) is None
    assert value_at_most(query, 1) == 1


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {KIND_DET_TOTAL}))
def test_empty_word_streams_one_sequence_on_one_state(kind):
    """The empty word's walk is the start alone: one sequence on 1 state,
    none on 0 or 2."""
    empty = Word((), 2)
    query = ComplexityQuery(kind, empty, empty if KINDS[kind].conditional else None)
    assert [list(all_witness_sequences(query, q)) for q in (0, 1, 2)] == [[], [(0,)], []]


def test_det_total_dead_state_above_the_allowance():
    """det-partial 0001 is 2 and no filling of a 2-state witness keeps one
    word, so det-total needs the dead state: 3, above the allowance 2."""
    query = ComplexityQuery(KIND_DET_TOTAL, Word.parse("0001", 2))
    assert value_at_most(query, 2) is None
    assert value_at_most(query, 3) == 3


def test_witness_at_exact_state_count():
    cert = witness_at(ComplexityQuery(KIND_UNIQUE, Word.parse("0101", 2)), 3)
    assert cert is not None and cert.claimed_states == 3
    assert verify_certificate(cert)[0]
    assert witness_at(ComplexityQuery(KIND_UNIQUE, Word.parse("0101", 2)), 0) is None
    x, y = Word.parse("0110", 2), Word.parse("0010", 2)
    for kind in (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL, KIND_COND_UNIQUE, KIND_COND_EXACT):
        query = ComplexityQuery(kind, x, y if KINDS[kind].conditional else None)
        assert list(all_witness_sequences(query, 0)) == [], kind


@pytest.mark.parametrize("letters, max_len", [(2, 8), (3, 5)])
def test_det_total_witness_at_the_value_is_the_computed_one(letters, max_len):
    """det-total's ``witness_at`` builds total DFAs as the search does: at
    the value it is ``compute``'s certificate, and one state below there is
    none."""
    for n in range(1, max_len + 1):
        for symbols in itertools.product(range(letters), repeat=n):
            query = ComplexityQuery(KIND_DET_TOTAL, Word(symbols, letters))
            result = compute(query)
            witness = witness_at(query, result.value)
            assert witness is not None and witness.nfa == result.certificate.nfa, symbols
            assert witness_at(query, result.value - 1) is None, symbols


def test_witness_sequences_contain_known_ones():
    x = Word.parse("0000110", 2)
    y = Word.parse("0010100", 2)
    exact = set(all_witness_sequences(ComplexityQuery(KIND_COND_EXACT, x, y), 3))
    assert (0, 0, 1, 1, 1, 2, 0, 0) in exact
    assert (0, 1, 1, 1, 1, 2, 0, 0) in exact
    unique = set(all_witness_sequences(ComplexityQuery(KIND_COND_UNIQUE, x, y), 3))
    assert (0, 1, 2, 0, 0, 2, 1, 0) in unique
    assert list(all_witness_sequences(ComplexityQuery(KIND_UNIQUE, Word.parse("", 2)), 1)) == [(0,)]


def test_sparse_report_on_conditional_pair():
    x = Word.parse("0000110", 2)
    y = Word.parse("0010100", 2)
    report = sparse_witness_report(x, y)
    assert report.exact_value == 3 and report.unique_value == 3
    assert 7 in report.unique_witness_edge_counts
    stars = [
        e for e in report.sparse
        if not e.is_unique_witness and e.edge_count == 6
    ]
    assert stars, "expected the six-edge exact-but-not-unique witness"
    assert stars[0].sequences == ((0, 0, 1, 1, 1, 2, 0, 0), (0, 1, 1, 1, 1, 2, 0, 0))
    assert report.has_sparse_non_unique_witness()


def test_sparse_report_unconditional_non_example():
    report = sparse_witness_report(Word.parse("01110", 2))
    entry = next(e for e in report.exact_witnesses if (0, 1, 1, 2, 2, 0) in e.sequences)
    assert not entry.edge_minimal
    assert entry not in report.sparse
    assert not report.has_sparse_non_unique_witness()


def test_sparse_report_constant_word():
    report = sparse_witness_report(Word.parse("000", 1))
    assert report.exact_value == 1 and report.unique_value == 1
    same = Word.parse("000", 2)
    conditional = sparse_witness_report(same, same)
    assert conditional.exact_value == 1 and conditional.unique_value == 1


def test_emergent_simplicity_values():
    w = Word.parse("0001000", 2)
    assert emergent_simplicity(w)
    # the square's search runs out of nodes, which must not read as "not emergent"
    with pytest.raises(BudgetExceeded):
        emergent_simplicity(w, max_nodes=500)
    assert not emergent_simplicity(Word.parse("0101010", 2))
    assert compute(ComplexityQuery(KIND_UNIQUE, Word(w.symbols * 2, 2))).value == 6
    with pytest.raises(ValueError):
        emergent_simplicity(Word.parse("", 2))


def test_search_emergent_small_lengths_empty():
    assert search_emergent(6) == []
    assert search_emergent(0) == []


@pytest.mark.parametrize("max_len, alphabet_size", [(-1, 2), (0, 0), (3, 0)])
def test_search_emergent_refuses_what_it_cannot_search(max_len, alphabet_size):
    with pytest.raises(ValueError, match="must be at least"):
        search_emergent(max_len, alphabet_size)


def test_compute_uses_cache(tmp_path):
    # 0001 has a det-total witness with a dead state, 0011 one filled in
    cases = [(KIND_UNIQUE, "0001"), (KIND_DET_TOTAL, "0001"), (KIND_DET_TOTAL, "0011")]
    for i, (kind, text) in enumerate(cases):
        cache = ResultCache(tmp_path / str(i))
        w = Word.parse(text, 2)
        first = compute(ComplexityQuery(kind, w), cache=cache)
        assert first.explored > 0 and len(cache) == 1
        again = compute(ComplexityQuery(kind, w), cache=cache)
        assert again.value == first.value and again.certificate == first.certificate
        assert verify_certificate(again.certificate)[0]
        # a relabeled word is served from the same canonical entry
        flipped = Word(tuple(1 - s for s in w.symbols), 2)
        relabeled = compute(ComplexityQuery(kind, flipped), cache=cache)
        assert relabeled.value == first.value and len(cache) == 1
        assert verify_certificate(relabeled.certificate)[0]
        assert relabeled.certificate.target == flipped
        if kind == KIND_UNIQUE:
            assert again.explored == relabeled.explored == 0
        else:
            # a det-total hit fills its total DFA in again, with no level search
            assert again.explored < first.explored and relabeled.explored < first.explored


def test_all_kind_certificates_serialize_round_trip():
    from autocomplexity.automata import certificate_from_json, certificate_to_json

    queries = [
        ComplexityQuery(KIND_UNIQUE, Word.parse("00100", 2)),
        ComplexityQuery(KIND_EXACT, Word.parse("00100", 2)),
        ComplexityQuery(KIND_DET_PARTIAL, Word.parse("00100", 2)),
        ComplexityQuery(KIND_DET_TOTAL, Word.parse("00100", 2)),
        ComplexityQuery(KIND_COND_UNIQUE, Word.parse("00100", 2), Word.parse("01100", 2)),
        ComplexityQuery(KIND_COND_EXACT, Word.parse("00100", 2), Word.parse("01100", 2)),
    ]
    for query in queries:
        cert = compute(query).certificate
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert certificate_to_json(back) == text
        assert verify_certificate(back)[0]


def test_max_complexity_ceiling():
    assert [max_complexity(n) for n in range(0, 6)] == [1, 1, 2, 2, 3, 3]


@st.composite
def short_words(draw, n=None):
    """A word of length up to 8 over 1-4 letters, or of length ``n``."""
    if n is None:
        n = draw(st.integers(0, 8))
    letters = draw(st.integers(1, 4))
    symbols = draw(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n))
    return Word(tuple(symbols), letters)


@st.composite
def short_pairs(draw):
    x = draw(short_words())
    return x, draw(short_words(len(x)))


def conditional_certificate(x, y, nfa):
    return WitnessCertificate(
        kind=KIND_COND_UNIQUE, target=x, condition=y, nfa=nfa, claimed_states=nfa.state_count
    )


@given(short_words())
@settings(max_examples=100, deadline=None)
def test_self_condition_is_one_state(x):
    """``A(x|x) = 1``.

    Proof: one state, both start and accept, with a loop labeled ``(a, a)``
    for each letter a. A walk of length n consistent with x reads ``x_t`` in
    the condition at step t, so it takes the loop ``(x_t, x_t)``: there is
    exactly one such walk, and it spells x. No witness has fewer states.
    """
    sigma = x.alphabet_size
    loops = Nfa(1, 0, {0}, {(0, a * sigma + a, 0) for a in range(sigma)}, sigma * sigma)
    assert verify_certificate(conditional_certificate(x, x, loops))[0]
    assert compute(ComplexityQuery(KIND_COND_UNIQUE, x, x)).value == 1


@given(short_pairs())
@settings(max_examples=100, deadline=None)
def test_condition_never_costs_states(pair):
    """``A(x|y) <= A(x)``.

    Proof: take a witness M for ``A(x)`` and relabel each edge ``(p, a, q)``
    with ``(b, a)`` for every condition letter b. A walk consistent with y
    may then use any edge at any step, so the walks consistent with y are
    exactly the walks of M of length n from start to accept. M has one such
    walk, and it reads x, so the relabeled M witnesses x given y on as many
    states.
    """
    x, y = pair
    witness = compute(ComplexityQuery(KIND_UNIQUE, x))
    m = witness.certificate.nfa
    sigma = x.alphabet_size
    relabeled = Nfa(
        m.state_count, m.start, m.accepts,
        frozenset((p, b * sigma + a, q) for p, a, q in m.edges for b in range(y.alphabet_size)),
        y.alphabet_size * sigma,
    )
    assert verify_certificate(conditional_certificate(x, y, relabeled))[0]
    assert compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).value <= witness.value


@functools.cache
def slow_sequences(n, k):
    """Every slow state sequence s_0..s_n with s_0 = 0 on exactly k states,
    in lexicographic order."""
    found = []
    seq = [0]

    def rec(top):
        if len(seq) == n + 1:
            if top == k - 1:
                found.append(tuple(seq))
            return
        for nxt in range(min(top + 1, k - 1) + 1):
            seq.append(nxt)
            rec(max(top, nxt))
            seq.pop()

    rec(0)
    return found


def every_word(n, alphabet_size):
    return [Word(s, alphabet_size) for s in itertools.product(range(alphabet_size), repeat=n)]


def stream_cases():
    """(kinds, target, condition): every binary word with n <= 5 and ternary
    word with n <= 3 for the unconditional walk kinds, every binary pair
    with n <= 4 for the conditional ones."""
    for alphabet_size, top in ((2, 5), (3, 3)):
        for n in range(top + 1):
            for x in every_word(n, alphabet_size):
                yield (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL), x, None
    for n in range(5):
        words = every_word(n, 2)
        for x in words:
            for y in words:
                yield (KIND_COND_UNIQUE, KIND_COND_EXACT), x, y


def test_witness_stream_is_every_verified_sequence():
    """``all_witness_sequences(q, k)`` yields, in order, exactly the slow
    sequences on k states whose walk NFA is a verified witness: the prunes
    and the counters lose no witness and pass no false one."""
    for kinds, x, y in stream_cases():
        labels = x if y is None else track(y, x)
        for k in range(1, len(x) + 2):
            seqs = slow_sequences(len(x), k)
            nfas = [walk_nfa(seq, labels) for seq in seqs]
            for kind in kinds:
                expected = [
                    seq for seq, nfa in zip(seqs, nfas)
                    if verify_certificate(WitnessCertificate(
                        kind=kind, target=x, condition=y, nfa=nfa, claimed_states=k,
                    ))[0]
                ]
                assert list(all_witness_sequences(ComplexityQuery(kind, x, y), k)) == expected, (
                    kind, x, y, k,
                )


class ReferenceWalkCounts:
    """Partial accepting walks per state in a list, saturated at 2: the walk
    counter before bit masks, kept as the reference for ``_WalkCounts``."""

    def __init__(self, q, class_count):
        self.q = q
        self.adj = [[[] for _ in range(q)] for _ in range(class_count)]

    def start(self):
        v = [0] * self.q
        v[0] = 1
        return v

    def advance(self, v, cls, state):
        nv = [0] * self.q
        adj = self.adj[cls]
        for frm, x in enumerate(v):
            if x:
                for to in adj[frm]:
                    nv[to] = min(nv[to] + x, 2)
        return None if nv[state] >= 2 else nv

    @staticmethod
    def count(v, state):
        return v[state]

    def add_edge(self, frm, label, to, cls):
        self.adj[cls][frm].append(to)
        return True

    def remove_edge(self, frm, label, to, cls):
        self.adj[cls][frm].remove(to)


class ReferenceWordCounts:
    """Distinct partial words per reachable state set from (from, to) pair
    sets, with a determinism map for the DFA kinds: the word counter before
    bit masks and walk counts for the DFA kinds."""

    def __init__(self, class_count, deterministic):
        self.label_pairs = {}
        self.class_labels = [{} for _ in range(class_count)]
        self.det_map = {} if deterministic else None

    @staticmethod
    def start():
        return {1: 1}

    def advance(self, f, cls, state):
        nf = {}
        for label in self.class_labels[cls]:
            for mask, cnt in f.items():
                img = 0
                for frm, to in self.label_pairs[label]:
                    if mask >> frm & 1:
                        img |= 1 << to
                if img:
                    nf[img] = min(nf.get(img, 0) + cnt, 2)
        return None if self.count(nf, state) >= 2 else nf

    @staticmethod
    def count(f, state):
        return min(sum(cnt for mask, cnt in f.items() if mask >> state & 1), 2)

    def add_edge(self, frm, label, to, cls):
        if self.det_map is not None:
            if (frm, label) in self.det_map:
                return False
            self.det_map[(frm, label)] = to
        self.label_pairs.setdefault(label, set()).add((frm, to))
        refs = self.class_labels[cls]
        refs[label] = refs.get(label, 0) + 1
        return True

    def remove_edge(self, frm, label, to, cls):
        pairs = self.label_pairs[label]
        pairs.discard((frm, to))
        if not pairs:
            del self.label_pairs[label]
        refs = self.class_labels[cls]
        refs[label] -= 1
        if not refs[label]:
            del refs[label]
        if self.det_map is not None:
            del self.det_map[(frm, label)]


class ReferenceSearch:
    """The walk search that recounts the whole prefix on every new edge and
    tries every step, kept as the reference for the level search of
    ``_iter_witness_sequences``."""

    def __init__(self, counts, labels, classes):
        self.counts = counts
        self.labels = labels
        self.classes = classes
        self.seq = [0]
        self.stack = [counts.start()]
        self.edge_use = {}
        self.pair_label = {}
        self.records = []

    def try_push(self, nxt):
        seq, stack = self.seq, self.stack
        t = len(seq) - 1
        frm, label, cls = seq[t], self.labels[t], self.classes[t]
        edge = (frm, label, nxt)
        if edge in self.edge_use:
            v = self.counts.advance(stack[t], cls, nxt)
            if v is None:
                return False
            self.edge_use[edge] += 1
            seq.append(nxt)
            stack.append(v)
            self.records.append((edge, None, None))
            return True
        pair_key = (frm, nxt, cls)
        if pair_key in self.pair_label or not self.counts.add_edge(frm, label, nxt, cls):
            return False
        snapshot = stack[1:]
        v = None
        for i in range(1, t + 1):
            v = self.counts.advance(stack[i - 1], self.classes[i - 1], seq[i])
            if v is None:
                break
            stack[i] = v
        else:
            v = self.counts.advance(stack[t], cls, nxt)
        if v is None:
            stack[1:] = snapshot
            self.counts.remove_edge(frm, label, nxt, cls)
            return False
        self.edge_use[edge] = 1
        self.pair_label[pair_key] = label
        seq.append(nxt)
        stack.append(v)
        self.records.append((edge, pair_key, snapshot))
        return True

    def pop(self):
        edge, pair_key, snapshot = self.records.pop()
        self.seq.pop()
        self.stack.pop()
        if pair_key is None:
            self.edge_use[edge] -= 1
        else:
            del self.edge_use[edge]
            del self.pair_label[pair_key]
            self.counts.remove_edge(*edge, pair_key[2])
            self.stack[1:] = snapshot


WALK_KINDS = (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL, KIND_COND_UNIQUE, KIND_COND_EXACT)


def reference_search(query, q):
    """The reference search on q states for ``query``, at the empty walk."""
    labels, classes = _walk_words(query.kind, query.target, query.condition)
    spec = KINDS[query.kind]
    if spec.counts == "walks":
        reference = ReferenceWalkCounts(q, classes.alphabet_size)
    else:
        reference = ReferenceWordCounts(classes.alphabet_size, spec.deterministic)
    return ReferenceSearch(reference, labels.symbols, classes.symbols)


@st.composite
def counter_walks(draw):
    """A walk kind, q states, and a walk s_0..s_n with the labels and
    classes of its steps, plus a few extra edges labeled with the walk's
    labels. A label reads one class, and the edges keep the search's rules:
    one label per (from, to, class) and, for the DFA kinds, one target per
    (from, label). A walk that finds no step within those rules stops
    there."""
    kind = draw(st.sampled_from(WALK_KINDS))
    spec = KINDS[kind]
    q = draw(st.integers(1, 5))
    class_count = draw(st.integers(1, 3)) if spec.conditional else 1
    letters = draw(st.integers(1, 3))
    edges = {}  # (from, to, class) -> label

    def fits(frm, label, to):
        cls = label // letters
        if edges.get((frm, to, cls), label) != label:
            return False
        return not spec.deterministic or all(
            t == to for (f, t, c), a in edges.items() if (f, a) == (frm, label)
        )

    seq, labels = [0], []
    for _ in range(draw(st.integers(1, 10))):
        label = draw(st.integers(0, class_count * letters - 1))
        allowed = [to for to in range(q) if fits(seq[-1], label, to)]
        if not allowed:
            break
        to = draw(st.sampled_from(allowed))
        edges[(seq[-1], to, label // letters)] = label
        seq.append(to)
        labels.append(label)
    for _ in range(draw(st.integers(0, 6)) if labels else 0):
        frm, to = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
        label = draw(st.sampled_from(labels))
        if fits(frm, label, to):
            edges[(frm, to, label // letters)] = label
    classes = [label // letters for label in labels]
    edge_list = [(frm, label, to) for (frm, to, _), label in edges.items()]
    return kind, q, seq, Word(tuple(labels), class_count * letters), Word(tuple(classes), class_count), edge_list


def _counters(kind, q, labels, classes, edges):
    """The search's counter and the reference counter of ``kind`` on the
    same edges."""
    spec = KINDS[kind]
    counts = _counter(kind, q, labels, classes)
    if spec.counts == "walks":
        reference = ReferenceWalkCounts(q, classes.alphabet_size)
    else:
        reference = ReferenceWordCounts(classes.alphabet_size, spec.deterministic)
    cls_of = dict(zip(labels.symbols, classes.symbols))
    for frm, label, to in edges:
        _toggle(counts, frm, label, to, cls_of[label])
        assert reference.add_edge(frm, label, to, cls_of[label])
    return counts, reference


def _toggle(counts, frm, label, to, cls):
    counts.used[label][frm] ^= 1 << to
    counts.paired[cls][frm] ^= 1 << to


def _prefix(counts, seq, t, advance):
    """The vectors along ``seq[:t + 1]``, or None where a step dies."""
    stack = [counts.start()]
    for i in range(t):
        v = advance(stack[i], i, seq[i + 1])
        if v is None:
            return None
        stack.append(v)
    return stack


@given(counter_walks())
@settings(max_examples=300, deadline=None)
def test_counters_decide_as_the_reference_counters(walk):
    """At every step of a walk, the counter of the level search refuses the
    steps the reference counter refuses, ``R`` is the set of states the
    reference reaches (the recount trigger), and the image masks hold
    exactly the targets the reference refuses among those the loop tests
    them on: ``reuse_fails`` on the targets of edges in use from s_t with
    the step's label, ``new_fails`` on the targets of a new edge, with the
    reference stepping from the prefix counts kept before the edge."""
    kind, q, seq, labels, classes, edges = walk
    counts, reference = _counters(kind, q, labels, classes, edges)
    label_s, class_s = labels.symbols, classes.symbols

    def ref_advance(v, i, state):
        return reference.advance(v, class_s[i], state)

    def reached(r):
        if isinstance(r, list):
            return sum(1 << s for s, x in enumerate(r) if x)
        return functools.reduce(int.__or__, r, 0)

    ours, theirs = [counts.start()], [reference.start()]
    for t in range(len(seq) - 1):
        v, r = ours[t], theirs[t]
        assert v[0] == reached(r), (walk, t)
        frm, label, cls = seq[t], label_s[t], class_s[t]
        new_fails, reuse_fails = counts.image(v, t)
        reused = counts.used[label][frm]
        for nxt in range(q):
            if reused >> nxt & 1:
                dies = ref_advance(r, t, nxt) is None
                assert (reuse_fails >> nxt & 1) == dies, (walk, t, nxt)
                assert (counts.advance(v, t, nxt) is None) == dies, (walk, t, nxt)
                continue
            if counts.paired[cls][frm] >> nxt & 1 or (counts.det and reused):
                continue
            _toggle(counts, frm, label, nxt, cls)
            reference.add_edge(frm, label, nxt, cls)
            assert (new_fails >> nxt & 1) == (ref_advance(r, t, nxt) is None), (walk, t, nxt)
            # after the recount of the prefix under the new edge
            stack = _prefix(counts, seq, t, counts.advance)
            ref_stack = _prefix(reference, seq, t, ref_advance)
            assert (stack is None) == (ref_stack is None), (walk, t, nxt)
            if stack is not None:
                dies = ref_advance(ref_stack[t], t, nxt) is None
                assert (counts.advance(stack[t], t, nxt) is None) == dies, (walk, t, nxt)
            _toggle(counts, frm, label, nxt, cls)
            reference.remove_edge(frm, label, nxt, cls)
        w, rw = counts.advance(v, t, seq[t + 1]), ref_advance(r, t, seq[t + 1])
        assert (w is None) == (rw is None), (walk, t)
        if w is None:
            break
        ours.append(w)
        theirs.append(rw)


def _recounted(counts, seq, t):
    """The vectors along ``seq[:t + 1]`` stepped anew with ``advance``
    over the counter's tables, up to the step that dies."""
    stack = [counts.start()]
    for i in range(t):
        v = counts.advance(stack[i], i, seq[i + 1])
        if v is None:
            break
        stack.append(v)
    return stack


@given(counter_walks())
# a walk that takes the new edge again while the delta is carried, and a
# delta that the other walks' mask absorbs in part before it is dropped
@example(("unique", 2, [0, 0, 0, 0], Word((0,) * 3, 1), Word((0,) * 3, 1), [(0, 0, 0)]))
@example((
    "unique", 4, [0, 0, 0, 1, 2, 3], Word((0,) * 5, 1), Word((0,) * 5, 1),
    [(0, 0, 0), (0, 0, 1), (1, 0, 2), (2, 0, 3)],
))
@settings(max_examples=500, deadline=None)
def test_push_recounts_as_the_counts_stepped_anew(walk):
    """At every step t of a walk, for every edge out of s_t the search may
    add, ``push`` leaves ``stack[0..t]`` as ``advance`` steps them anew
    over the new tables, and returns the step to the edge's target that
    ``advance`` takes from the recounted ``stack[t]``. Where a vector
    stepped anew dies at step p, the push returns None, ``stack[:p]`` is
    recounted and ``stack[p..t]`` is as it was: the recount prunes where
    the counts stepped anew do. A reused edge changes nothing and steps as
    ``advance`` does. Both counters are covered: the walk counter's delta
    recount (unique, conditional-unique, det-partial) and the word
    counter's full one (the exact kinds)."""
    kind, q, seq, labels, classes, edges = walk
    counts, _reference = _counters(kind, q, labels, classes, edges)
    label_s, class_s = labels.symbols, classes.symbols
    stack = _recounted(counts, seq, len(seq) - 1)
    for t in range(min(len(stack), len(seq) - 1)):
        frm, label, cls = seq[t], label_s[t], class_s[t]
        reuse_fails = counts.image(stack[t], t)[1]
        reused = counts.used[label][frm]
        for nxt in range(q):
            got = stack[: t + 1]
            if reused >> nxt & 1:
                w = counts.push(got, seq, t, nxt, False, reuse_fails)
                assert w == counts.advance(stack[t], t, nxt), (walk, t, nxt)
                assert got == stack[: t + 1], (walk, t, nxt)
                continue
            if counts.paired[cls][frm] >> nxt & 1 or (counts.det and reused):
                continue
            _toggle(counts, frm, label, nxt, cls)
            w = counts.push(got, seq, t, nxt, True, reuse_fails)
            fresh = _recounted(counts, seq, t)
            p = len(fresh)
            assert got[:p] == fresh, (walk, t, nxt)
            if p <= t:
                assert w is None and got[p:] == stack[p : t + 1], (walk, t, nxt)
            else:
                assert w == counts.advance(fresh[t], t, nxt), (walk, t, nxt)
            _toggle(counts, frm, label, nxt, cls)


def reference_stream(search, n, q, nodes):
    """The level search on q states as a plain depth-first search over the
    reference search: every step of a node is one node of the meter
    ``nodes``, counted before it is tried, and an overrun raises at node
    ``nodes.limit + 1`` with q as the lower bound."""
    seq = search.seq

    def rec(top):
        t = len(seq) - 1
        if t == n:
            if top == q - 1 and search.counts.count(search.stack[-1], seq[-1]) == 1:
                yield tuple(seq)
            return
        if q - 1 - top > n - t:
            return
        for nxt in range(min(top + 1, q - 1) + 1):
            nodes.count += 1
            if nodes.count > nodes.limit:
                raise BudgetExceeded(q, nodes.count)
            if search.try_push(nxt):
                yield from rec(max(top, nxt))
                search.pop()

    yield from rec(0)


def run_stream(stream, nodes):
    """The witnesses a stream yields, the node count of its meter ``nodes``,
    and the lower bound and node count of its overrun (None if it ran to the
    end)."""
    found = []
    try:
        for seq in stream(nodes):
            found.append(seq)
    except BudgetExceeded as e:
        return found, nodes.count, (e.lower_bound, e.explored)
    return found, nodes.count, None


def assert_stream_matches_the_reference(query, q, max_nodes=10**9):
    """The loop yields the witnesses of the reference search in order, with
    the same node count and, on an overrun, the same exception fields. The
    loop's meter is at level q, as a level search sets it."""
    labels, classes = _walk_words(query.kind, query.target, query.condition)
    at_level = _Nodes(max_nodes)
    at_level.level = q
    new = run_stream(lambda nodes: _iter_witness_sequences(
        query.kind, labels, classes, q, nodes,
    ), at_level)
    ref = run_stream(lambda nodes: reference_stream(
        reference_search(query, q), len(labels), q, nodes,
    ), _Nodes(max_nodes))
    assert new == ref, (query, q, max_nodes)


@st.composite
def level_runs(draw):
    """A kind, a target (and condition) of length 1-14 on 1-3 letters, a
    state count, and a node budget: mostly 500-3000 nodes, which stops the
    larger trees partway, and sometimes a handful."""
    kind = draw(st.sampled_from(WALK_KINDS))
    n = draw(st.integers(1, 14))

    def word():
        letters = draw(st.integers(1, 3))
        return Word(tuple(draw(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n))), letters)

    x = word()
    y = word() if KINDS[kind].conditional else None
    # drawn evenly: most trees on one state have a single node
    q = draw(st.sampled_from(range(1, 6)))
    max_nodes = draw(st.integers(500, 3000) | st.integers(0, 20))
    return ComplexityQuery(kind, x, y), q, max_nodes


@given(level_runs())
@settings(max_examples=300, deadline=None)
def test_witness_stream_matches_the_reference_search(run):
    """The level search on the candidate masks yields the same witnesses in
    the same order as a depth-first search that tries every step through the
    reference counters and the full recount, and counts the same nodes,
    refused steps included. An overrun raises at the same node with the same
    lower bound."""
    assert_stream_matches_the_reference(*run)


@pytest.mark.parametrize("x, y, q", [
    ("0120120", "0010201", 3),
    ("2102012", "0011001", 3),
    ("0122101", "0001000", 4),
    ("011020", "012012", 4),
])
def test_ternary_conditional_exact_tree_matches_the_reference(x, y, q):
    """The whole search tree of a ternary conditional-exact pair, where a
    condition class holds several labels and a word can reach several
    states, yields the same witnesses and counts the same nodes as the
    reference search."""
    assert_stream_matches_the_reference(
        ComplexityQuery(KIND_COND_EXACT, Word.parse(x, 3), Word.parse(y, 3)), q
    )


# compute(q).explored at the values the kernel had before bit masks and the
# targeted recount: one seeded query per kind, lengths 10-12
PINNED_EXPLORED = [
    (KIND_UNIQUE, "111010111100", None, 6483),
    (KIND_EXACT, "0110100001", None, 1540),
    (KIND_DET_PARTIAL, "100000110101", None, 1049),
    (KIND_DET_TOTAL, "00001111100", None, 1982),
    (KIND_DET_TOTAL, "00001111", None, 630),
    (KIND_DET_TOTAL, "01101001", None, 590),
    (KIND_COND_UNIQUE, "011111010111", "001100010100", 134),
    (KIND_COND_EXACT, "00010111101", "10111110011", 506),
]


@pytest.mark.parametrize("kind, x, y, explored", PINNED_EXPLORED, ids=[p[0] for p in PINNED_EXPLORED])
def test_explored_pinned(kind, x, y, explored):
    query = ComplexityQuery(kind, Word.parse(x, 2), None if y is None else Word.parse(y, 2))
    assert compute(query).explored == explored


def reference_completion(base, n):
    """The filling of ``base`` into a total DFA as it was before it counted
    with masks: the accepted words recounted from the transition table at
    every node, twice at a leaf. The DFA, or None, and the nodes spent."""
    q, sigma = base.state_count, base.alphabet_size
    table = {(frm, label): to for frm, label, to in base.edges}
    slots = [(s, a) for s in range(q) for a in range(sigma) if (s, a) not in table]
    accept = next(iter(base.accepts))
    nodes = 0

    def accepted_count():
        v = [0] * q
        v[base.start] = 1
        for _ in range(n):
            nv = [0] * q
            for (frm, label), to in table.items():
                if v[frm]:
                    nv[to] = min(nv[to] + v[frm], 2)
            v = nv
        return v[accept]

    def rec(i):
        nonlocal nodes
        nodes += 1
        if accepted_count() >= 2:
            return False
        if i == len(slots):
            return accepted_count() == 1
        for to in range(q):
            table[slots[i]] = to
            if rec(i + 1):
                return True
            del table[slots[i]]
        return False

    if rec(0):
        edges = frozenset((frm, label, to) for (frm, label), to in table.items())
        return Nfa(q, base.start, base.accepts, edges, sigma), nodes
    return None, nodes


def reference_levels(query):
    """The node count at the end of each level of ``compute(query)`` with no
    cache, as the reference search and the reference completion spend them,
    and the witness NFA of the last level."""
    kind, x, y = query.kind, query.target, query.condition
    stream_query = ComplexityQuery(KIND_DET_PARTIAL, x) if kind == KIND_DET_TOTAL else query
    labels = _walk_words(stream_query.kind, x, y)[0]
    meter = _Nodes(10**9)
    ends = []
    for q in itertools.count(1):
        search = reference_search(stream_query, q)
        witness = None
        for seq in reference_stream(search, len(x), q, meter):
            if kind != KIND_DET_TOTAL:
                witness = walk_nfa(seq, labels)
                break
            total, nodes = reference_completion(walk_nfa(seq, labels), len(x))
            meter.count += nodes
            if total is not None:
                witness = total
                break
            # no total DFA on q states: a dead state completes the first walk
            witness = witness or _total_dfa(walk_nfa(seq, labels), q + 1, len(x), meter)
        ends.append(meter.count)
        if witness is not None:
            return ends, witness


@pytest.mark.parametrize("kind, x, y, explored", PINNED_EXPLORED, ids=[p[0] for p in PINNED_EXPLORED])
def test_budget_overrun_matches_the_reference(kind, x, y, explored):
    """A node budget below ``explored`` raises at node ``max_nodes + 1``, with
    the level being searched there as the lower bound, for budgets at a
    stride and on both sides of every level's end; a budget of ``explored``
    finds the reference's witness."""
    query = ComplexityQuery(kind, Word.parse(x, 2), None if y is None else Word.parse(y, 2))
    ends, witness = reference_levels(query)
    assert ends[-1] == explored
    budgets = set(range(0, explored, max(1, explored // 40)))
    budgets.update(end + d for end in ends for d in (-1, 0, 1))
    for max_nodes in sorted(b for b in budgets if 0 <= b < explored):
        with pytest.raises(BudgetExceeded) as e:
            compute(query, max_nodes=max_nodes)
        level = 1 + sum(end <= max_nodes for end in ends)
        assert (e.value.explored, e.value.lower_bound) == (max_nodes + 1, level), max_nodes
    result = compute(query, max_nodes=explored)
    assert result.explored == explored and result.certificate.nfa == witness


def reference_batch(condition, targets, early_return=True):
    """``_group_witnesses`` of the one condition as a plain depth-first
    search over the reference search: the records and the nodes spent.
    Without ``early_return`` a node whose targets have all resolved goes on
    counting its steps."""
    y = condition.symbols
    n = len(y)
    xs = [x.symbols for x in targets]
    found = [None] * len(xs)
    pending = list(range(len(xs)))
    nodes = 0
    for q in range(1, max_complexity(n) + 1):
        if not pending:
            break
        search = ReferenceSearch(ReferenceWalkCounts(q, condition.alphabet_size), y, y)
        seq = search.seq
        first = {}
        active = [pending] * (n + 1)

        def resolve(witness):
            for i in active[n]:
                found[i] = witness
            for lst in {id(lst): lst for lst in active}.values():
                lst[:] = [i for i in lst if found[i] is None]

        def rec(top):
            nonlocal nodes
            t = len(seq) - 1
            if t == n:
                if top == q - 1 and search.counts.count(search.stack[-1], seq[-1]) == 1:
                    resolve((q, tuple(seq)))
                return
            if q - 1 - top > n - t:
                return
            live = active[t]
            for nxt in range(min(top + 1, q - 1) + 1):
                if early_return and not live:
                    return
                nodes += 1
                edge = (seq[t], y[t], nxt)
                j = first.get(edge)
                kept = live if j is None else [i for i in live if xs[i][t] == xs[i][j]]
                if j is not None and not kept:
                    continue
                if search.try_push(nxt):
                    if j is None:
                        first[edge] = t
                    active[t + 1] = kept
                    rec(max(top, nxt))
                    search.pop()
                    if j is None:
                        del first[edge]

        rec(0)
    return found, nodes


@pytest.mark.parametrize("targets", [["001011"], None], ids=["one-target", "every-slow-word"])
def test_batch_nodes_match_the_reference(targets):
    """The batch counts the reference's nodes. Its last target resolves
    partway through a node, whose remaining steps are not counted: without
    that early return the reference counts more. A budget one node short
    raises at the last node with the last level as the lower bound."""
    condition = Word.parse("010011", 2)
    targets = list(slow_words(6, 2)) if targets is None else [Word.parse(x, 2) for x in targets]
    found, nodes = reference_batch(condition, targets)
    assert nodes < reference_batch(condition, targets, early_return=False)[1]
    y, xs = condition.symbols, [x.symbols for x in targets]
    meter = _Nodes()
    assert _group_witnesses([y], [xs], meter)[0] == found
    assert meter.count == nodes
    with pytest.raises(BudgetExceeded) as e:
        _group_witnesses([y], [xs], _Nodes(nodes - 1))
    assert (e.value.lower_bound, e.value.explored) == (max(v for v, _ in found), nodes)
    assert _group_witnesses([y], [xs], _Nodes(nodes))[0] == found


def test_batch_without_a_pair_searches_nothing():
    meter = _Nodes()
    assert _group_witnesses([], [], meter) == []
    assert _group_witnesses([(0, 1), (0, 0)], [[], []], meter) == [[], []]
    assert meter.count == 0 and meter.level == 1


def test_batch_refuses_other_lengths_and_repeated_conditions():
    with pytest.raises(ValueError, match="equal length"):
        _group_witnesses([(0, 1)], [[(0, 1), (0,)]], _Nodes())
    with pytest.raises(ValueError, match="distinct"):
        _group_witnesses([(0, 1), (0, 1)], [[(0, 1)], [(1, 1)]], _Nodes())


def test_every_module_memo_is_bounded():
    """A module-level ``functools.lru_cache`` lives as long as the process,
    so each one in the package has a finite ``maxsize``."""
    memos = []
    for info in pkgutil.iter_modules(autocomplexity.__path__):
        module = importlib.import_module(f"autocomplexity.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                memos.append(name)
                assert value.cache_parameters()["maxsize"] is not None, f"{info.name}.{name}"
    assert {
        "_slow_form", "_word_forms", "_used_word", "_shape_index", "one_class_word",
        "_scan_partitions",
    } <= set(memos)


def module_memos() -> dict:
    """Every module-level ``functools.lru_cache`` of the package, by
    qualified name."""
    memos = {}
    for info in pkgutil.iter_modules(autocomplexity.__path__):
        module = importlib.import_module(f"autocomplexity.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                memos[f"{info.name}.{name}"] = value
    return memos


def test_a_second_study_misses_no_module_memo():
    """Each module memo holds all that an n = 8 study reads: run again in
    the same process, on the records of the first, the study adds no miss
    to any of them. An n = 8 study proves 4,789 walk shapes, in the same
    order each round, so a shape memo bounded below that proves nearly
    every shape again (4,757 misses at a bound of 4,096)."""
    cache = ResultCache()

    def study():
        provider = ComplexityProvider(cache)
        distribution_table(8, provider)
        for kind in MetricKind:
            verify_metric(8, kind, provider)

    memos = module_memos()
    study()
    before = {name: memo.cache_info().misses for name, memo in memos.items()}
    study()
    added = {name: memo.cache_info().misses - before[name] for name, memo in memos.items()}
    assert added == dict.fromkeys(memos, 0)
