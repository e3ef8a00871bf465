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
from autocomplexity.automata import Nfa, WitnessCertificate
from autocomplexity.words import Word, induced_partition, refines, slow_words, track


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
    from autocomplexity.automata import walk_nfa

    assert rebuilt.nfa == walk_nfa(walk, Word.parse("0101", 2))


def test_empty_word_all_kinds():
    for kind in (KIND_UNIQUE, KIND_EXACT, KIND_DET_PARTIAL, KIND_DET_TOTAL):
        r = compute(ComplexityQuery(kind, Word.parse("", 2)))
        assert r.value == 1 and verify_certificate(r.certificate)[0]
    r = compute(ComplexityQuery(KIND_COND_UNIQUE, Word.parse("", 2), Word.parse("", 2)))
    assert r.value == 1


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
                if refines(induced_partition(x), induced_partition(y)):
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
        compute(ComplexityQuery(KIND_UNIQUE, w), Budget(max_nodes=50))
    assert e.value.lower_bound >= 1
    assert e.value.explored > 50


def test_max_states_bound():
    w = Word.parse("0001000", 2)
    with pytest.raises(BudgetExceeded) as e:
        compute(ComplexityQuery(KIND_UNIQUE, w), Budget(max_states=3))
    assert e.value.lower_bound == 4
    assert value_at_most(ComplexityQuery(KIND_UNIQUE, w), 3) is None
    assert value_at_most(ComplexityQuery(KIND_UNIQUE, w), 4) == 4
    # running out of nodes proves nothing about the bound: "unknown" raises
    with pytest.raises(BudgetExceeded) as e:
        value_at_most(ComplexityQuery(KIND_UNIQUE, w), 10, max_nodes=5)
    assert e.value.lower_bound <= 4


def test_witness_at_exact_state_count():
    cert = witness_at(ComplexityQuery(KIND_UNIQUE, Word.parse("0101", 2)), 3)
    assert cert is not None and cert.claimed_states == 3
    assert verify_certificate(cert)[0]


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
