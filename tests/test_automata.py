import itertools

import pytest
from hypothesis import given, settings, strategies as st

from autocomplexity.automata import (
    CapacityError,
    Nfa,
    WitnessCertificate,
    accepts_word,
    certificate_from_json,
    certificate_to_dot,
    certificate_to_json,
    count_accepted_words,
    count_accepting_walks,
    count_walks_given_projection,
    count_words_given_projection,
    is_deterministic,
    is_total,
    product_project,
    product_track,
    to_dot,
    verify_certificate,
    walk_nfa,
)
from autocomplexity.kinds import KINDS
from autocomplexity.words import ParseError, Word, track


def two_state_example():
    """Self-loops on 0 at both states plus a 0-edge between them: accepts 00
    on two walks, so exactly but not uniquely."""
    return Nfa(2, 0, frozenset({1}), frozenset({(0, 0, 0), (0, 0, 1), (1, 0, 1)}), 1)


def pair_witness():
    """The 2-state pair-labeled NFA that reads (012345)^2 on its condition
    coordinate along exactly one walk, spelling (0123)^3 on the other."""
    edges = set()
    for c, d in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 0)]:
        edges.add((0, c * 4 + d, 0))
    edges.add((0, 5 * 4 + 1, 1))
    for c, d in [(0, 2), (1, 3), (2, 0), (3, 1), (4, 2)]:
        edges.add((1, c * 4 + d, 1))
    edges.add((1, 5 * 4 + 3, 0))
    return Nfa(2, 0, frozenset({0}), frozenset(edges), 24)


Y12 = Word.parse("012345012345", 6)
X12 = Word.parse("012301230123", 4)


def test_nfa_validation():
    with pytest.raises(ValueError):
        Nfa(1, 1, frozenset(), frozenset(), 2)
    with pytest.raises(ValueError):
        Nfa(1, 0, frozenset({0}), frozenset({(0, 2, 0)}), 2)
    with pytest.raises(ValueError):
        Nfa(0, 0, frozenset(), frozenset(), 1)


def test_two_state_example_counts():
    m = two_state_example()
    assert count_accepting_walks(m, 2).count == 2
    assert count_accepted_words(m, 2).count == 1
    assert count_accepted_words(m, 2).reconstruction == Word.parse("00", 1)


def test_walk_count_trivia():
    lonely = Nfa(1, 0, frozenset({0}), frozenset(), 2)
    assert count_accepting_walks(lonely, 0).count == 1
    # a 2-cycle has no odd closed walks
    cyc = Nfa(2, 0, frozenset({0}), frozenset({(0, 0, 1), (1, 1, 0)}), 2)
    assert count_accepting_walks(cyc, 3).count == 0
    no_accepts = Nfa(2, 0, frozenset(), frozenset({(0, 0, 1)}), 2)
    assert count_accepted_words(no_accepts, 1).count == 0
    with pytest.raises(ValueError):
        count_accepting_walks(lonely, 1, cap=1)


def test_conditional_walk_counting_on_pair_witness():
    r = count_walks_given_projection(pair_witness(), Y12)
    assert r.count == 1
    assert r.reconstruction == X12


def test_conditional_walk_counting_diagonal():
    m = Nfa(1, 0, frozenset({0}), frozenset({(0, 0, 0), (0, 3, 0)}), 4)
    y = Word.parse("0110", 2)
    r = count_walks_given_projection(m, y)
    assert r.count == 1 and r.reconstruction == y


def test_conditional_walk_counting_saturates():
    # loops (0,0) and (0,1): two choices per step once y is constant 0
    m = Nfa(1, 0, frozenset({0}), frozenset({(0, 0, 0), (0, 1, 0)}), 2)
    r = count_walks_given_projection(m, Word.parse("00", 1))
    assert r.count == 2 and not r.exact and r.reconstruction is None


def test_conditional_word_counting():
    r = count_words_given_projection(pair_witness(), Y12)
    assert r.count == 1 and r.reconstruction == X12
    dead = Nfa(1, 0, frozenset(), frozenset({(0, 0, 0)}), 2)
    assert count_words_given_projection(dead, Word.parse("00", 1)).count == 0


def test_conditional_word_counting_sparse_example():
    x = Word.parse("0000110", 2)
    y = Word.parse("0010100", 2)
    m = walk_nfa((0, 0, 1, 1, 1, 2, 0, 0), track(y, x))
    assert m.edge_count() == 6
    r = count_words_given_projection(m, y)
    assert r.count == 1 and r.reconstruction == x
    # the same NFA accepts along two condition-consistent walks
    assert count_walks_given_projection(m, y).count == 2


def test_alphabet_mismatch_rejected():
    m = Nfa(1, 0, frozenset({0}), frozenset(), 3)
    with pytest.raises(ValueError):
        count_walks_given_projection(m, Word.parse("0", 2))


def test_product_project_recovers_target_automaton():
    m1 = pair_witness()
    cycle = Nfa(
        6, 0, frozenset({0}),
        frozenset((i, i, (i + 1) % 6) for i in range(6)), 6,
    )
    prod = product_project(m1, cycle)
    assert prod.state_count == 12
    assert prod.alphabet_size == 4
    assert accepts_word(prod, X12)
    assert count_accepting_walks(prod, 12).count == 1


def test_product_track_builds_pair_certificate():
    m1 = pair_witness()
    cycle = Nfa(
        6, 0, frozenset({0}),
        frozenset((i, i, (i + 1) % 6) for i in range(6)), 6,
    )
    prod = product_track(m1, cycle)
    assert prod.state_count == 12
    cert = WitnessCertificate(
        kind="unique", target=track(Y12, X12), nfa=prod, claimed_states=12
    )
    ok, why = verify_certificate(cert)
    assert ok, why


def test_product_trivial_cases():
    m1 = pair_witness()
    no_edges = Nfa(1, 0, frozenset({0}), frozenset(), 6)
    assert product_project(m1, no_edges).edge_count() == 0
    # a diagonal one-state pair NFA lifts the second automaton unchanged
    diag = Nfa(1, 0, frozenset({0}), frozenset({(0, 0, 0), (0, 3, 0)}), 4)
    m2 = Nfa(2, 0, frozenset({1}), frozenset({(0, 0, 1), (1, 1, 1)}), 2)
    lifted = product_project(diag, m2)
    assert lifted.state_count == 2
    assert lifted.edges == m2.edges


def test_walk_nfa_examples():
    x = Word.parse("0000110", 2)
    y = Word.parse("0010100", 2)
    m = walk_nfa((0, 0, 1, 1, 1, 2, 0, 0), track(y, x))
    assert m.state_count == 3 and m.accepts == frozenset({0})
    assert walk_nfa((0, 1, 2, 0, 0, 2, 1, 0), track(y, x)).edge_count() == 7
    tiny = walk_nfa((0,), Word.parse("", 2))
    assert tiny.state_count == 1 and tiny.edge_count() == 0
    with pytest.raises(ValueError):
        walk_nfa((0, 2), Word.parse("0", 2))
    with pytest.raises(ValueError):
        walk_nfa((), Word.parse("", 2))
    with pytest.raises(ValueError):
        walk_nfa((0, 1), Word.parse("01", 2))


def test_determinism_and_totality():
    # the 3-state walk NFA branches on (state 0, label 0), so it is not
    # deterministic, which direct edge-set inspection confirms below
    m = walk_nfa((0, 0, 1, 1, 1, 2, 0, 0), Word.parse("0010100", 2))
    assert {(0, 0, 0), (0, 0, 1)} <= set(m.edges)
    assert not is_deterministic(m)
    both_loops = Nfa(1, 0, frozenset({0}), frozenset({(0, 0, 0), (0, 1, 0)}), 2)
    assert is_deterministic(both_loops) and is_total(both_loops)
    assert not is_total(Nfa(1, 0, frozenset({0}), frozenset({(0, 0, 0)}), 2))
    assert not is_deterministic(two_state_example())


@given(st.data())
@settings(max_examples=150)
def test_walk_nfa_accepts_its_word(data):
    n = data.draw(st.integers(0, 8))
    word = Word(tuple(data.draw(st.integers(0, 1)) for _ in range(n)), 2)
    states = [0]
    top = 0
    for _ in range(n):
        nxt = data.draw(st.integers(0, min(top + 1, 7)))
        states.append(nxt)
        top = max(top, nxt)
    m = walk_nfa(states, word)
    assert accepts_word(m, word)


def random_nfa(data, max_states=3):
    q = data.draw(st.integers(1, max_states))
    edges = data.draw(
        st.frozensets(
            st.tuples(st.integers(0, q - 1), st.integers(0, 1), st.integers(0, q - 1)),
            max_size=8,
        )
    )
    accepts = data.draw(st.frozensets(st.integers(0, q - 1), max_size=q))
    return Nfa(q, 0, accepts, edges, 2)


@given(st.data())
@settings(max_examples=200)
def test_words_never_outnumber_walks(data):
    m = random_nfa(data)
    n = data.draw(st.integers(0, 6))
    assert count_accepted_words(m, n, cap=64).count <= count_accepting_walks(m, n, cap=64).count


def test_words_never_outnumber_walks_exhaustive_tiny():
    # every 1-state binary NFA, every length up to 4
    for loops in itertools.product((0, 1), repeat=2):
        edges = frozenset((0, a, 0) for a in range(2) if loops[a])
        m = Nfa(1, 0, frozenset({0}), edges, 2)
        for n in range(5):
            assert (
                count_accepted_words(m, n, cap=64).count
                <= count_accepting_walks(m, n, cap=64).count
            )


def test_diagonal_conditional_identity():
    # one state with matching-pair loops reads back any condition word
    m = Nfa(1, 0, frozenset({0}), frozenset({(0, 0, 0), (0, 3, 0)}), 4)
    for bits in itertools.product((0, 1), repeat=5):
        y = Word(bits, 2)
        r = count_walks_given_projection(m, y)
        assert r.count == 1 and r.reconstruction == y


def test_subset_capacity_limit():
    big = Nfa(25, 0, frozenset({0}), frozenset(), 2)
    with pytest.raises(CapacityError):
        count_accepted_words(big, 3)


def test_certificate_validation():
    m = walk_nfa((0, 1), Word.parse("0", 2))
    with pytest.raises(ValueError):
        WitnessCertificate(kind="unique", target=Word.parse("0", 2), nfa=m, claimed_states=3)
    with pytest.raises(ValueError):
        WitnessCertificate(kind="nope", target=Word.parse("0", 2), nfa=m, claimed_states=2)
    with pytest.raises(ValueError):
        WitnessCertificate(
            kind="conditional-unique", target=Word.parse("0", 2), nfa=m, claimed_states=2
        )


def test_verify_certificate_kinds():
    cert = WitnessCertificate(
        kind="conditional-unique", target=X12, condition=Y12,
        nfa=pair_witness(), claimed_states=2,
    )
    assert verify_certificate(cert) == (True, "ok")

    m = two_state_example()
    w = Word.parse("00", 1)
    as_unique = WitnessCertificate(kind="unique", target=w, nfa=m, claimed_states=2)
    ok, why = verify_certificate(as_unique)
    assert not ok and "walk count" in why
    as_exact = WitnessCertificate(kind="exact", target=w, nfa=m, claimed_states=2)
    assert verify_certificate(as_exact)[0]

    diag = Nfa(1, 0, frozenset({0}), frozenset({(0, 0, 0), (0, 3, 0)}), 4)
    y = Word.parse("0101", 2)
    self_cond = WitnessCertificate(
        kind="conditional-unique", target=y, condition=y, nfa=diag, claimed_states=1
    )
    assert verify_certificate(self_cond)[0]


def reference_verify(cert: WitnessCertificate) -> tuple[bool, str]:
    """The six-branch check that ``verify_certificate`` replaced, kept as the
    reference it is compared against: one branch per kind name, with the
    unconditional kinds counted apart from the conditional ones."""
    m = cert.nfa
    n = len(cert.target)
    kind = cert.kind

    def exact_check() -> tuple[bool, str]:
        r = count_accepted_words(m, n)
        if r.count != 1:
            return False, f"distinct accepted word count is {r.count}, want 1"
        if r.reconstruction != cert.target:
            return False, "the single accepted word is not the target"
        return True, "ok"

    if kind == "unique":
        if not accepts_word(m, cert.target):
            return False, "target is not accepted"
        r = count_accepting_walks(m, n)
        if r.count != 1:
            return False, f"accepting walk count is {r.count}, want 1"
        return True, "ok"
    if kind == "exact":
        return exact_check()
    if kind == "conditional-unique":
        r = count_walks_given_projection(m, cert.condition)
        if r.count != 1:
            return False, f"condition-consistent walk count is {r.count}, want 1"
        if r.reconstruction != cert.target:
            return False, "the unique walk does not spell the target"
        return True, "ok"
    if kind == "conditional-exact":
        r = count_words_given_projection(m, cert.condition)
        if r.count != 1:
            return False, f"condition-consistent word count is {r.count}, want 1"
        if r.reconstruction != cert.target:
            return False, "the unique accepted word does not spell the target"
        return True, "ok"
    if kind == "det-partial":
        if not is_deterministic(m):
            return False, "automaton is not deterministic"
        return exact_check()
    if kind == "det-total":
        if not is_deterministic(m):
            return False, "automaton is not deterministic"
        if not is_total(m):
            return False, "automaton is not total"
        return exact_check()
    raise ValueError(f"unknown certificate kind {kind!r}")


def enumerated_runs(m: Nfa, condition: Word) -> list[tuple[int, ...]]:
    """The second coordinates read by each accepting walk whose first
    coordinate spells ``condition``, one entry per walk, by enumeration."""
    second = m.alphabet_size // condition.alphabet_size
    walks = [(m.start, ())]
    for c in condition.symbols:
        walks = [
            (to, read + (label % second,))
            for at, read in walks
            for frm, label, to in m.edges
            if frm == at and label // second == c
        ]
    return [read for at, read in walks if at in m.accepts]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_verify_certificate_matches_the_reference(data):
    """On random NFAs (1-4 states, 1-3 letters per factor, n <= 6) every
    kind's check agrees with ``reference_verify``, and the projection
    counts, at caps 2 to 4, with an enumeration of the walks."""
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    conditional = KINDS[kind].conditional
    a = data.draw(st.integers(1, 3))
    b = data.draw(st.integers(1, 3)) if conditional else 1
    n = data.draw(st.integers(0, 6))
    q = data.draw(st.integers(1, 4))
    state, letter = st.integers(0, q - 1), st.integers(0, a - 1)
    condition = Word(tuple(data.draw(st.integers(0, b - 1)) for _ in range(n)), b)
    target = Word(tuple(data.draw(letter) for _ in range(n)), a)
    edges = set(data.draw(st.frozensets(st.tuples(state, st.integers(0, a * b - 1), state), max_size=8)))
    accepts = set(data.draw(st.frozensets(state, max_size=q)))
    if data.draw(st.booleans()):
        # the target is read along a random walk, whose edges join the NFA
        walk = [0] + [data.draw(state) for _ in range(n)]
        edges |= {(walk[i], condition[i] * a + target[i], walk[i + 1]) for i in range(n)}
        accepts.add(walk[-1])
    if KINDS[kind].deterministic and data.draw(st.booleans()):
        # one successor per (state, label), and for det-total every one
        table = {(frm, label): to for frm, label, to in sorted(edges)}
        if kind == "det-total":
            for s in range(q):
                for label in range(a * b):
                    table.setdefault((s, label), data.draw(state))
        edges = {(frm, label, to) for (frm, label), to in table.items()}
    m = Nfa(q, 0, frozenset(accepts), frozenset(edges), a * b)
    cert = WitnessCertificate(kind, target, m, q, condition if conditional else None)
    assert verify_certificate(cert)[0] == reference_verify(cert)[0]
    runs = enumerated_runs(m, condition)
    cap = data.draw(st.integers(2, 4))
    walks = count_walks_given_projection(m, condition, cap)
    assert walks.count == min(len(runs), cap)
    assert walks.reconstruction == (Word(runs[0], a) if len(runs) == 1 else None)
    words = count_words_given_projection(m, condition, cap)
    assert words.count == min(len(set(runs)), cap)
    assert words.reconstruction == (Word(runs[0], a) if len(set(runs)) == 1 else None)


def test_verify_certificate_det_kinds():
    chain = walk_nfa((0, 1, 2), Word.parse("01", 2))
    cert = WitnessCertificate(kind="det-partial", target=Word.parse("01"), nfa=chain, claimed_states=3)
    assert verify_certificate(cert)[0]
    total_cert = WitnessCertificate(kind="det-total", target=Word.parse("01"), nfa=chain, claimed_states=3)
    ok, why = verify_certificate(total_cert)
    assert not ok and "total" in why


def test_dot_output():
    m = pair_witness()
    text = to_dot(m, second_factor_size=4)
    assert text.startswith("digraph {")
    assert "doublecircle" in text
    assert "__start -> q0;" in text
    assert "(5,1)" in text
    # parallel labels merge into one arrow
    assert "(0,0), (1,1), (2,2), (3,3), (4,0)" in text
    empty = Nfa(1, 0, frozenset(), frozenset(), 2)
    assert "q0 [shape=circle];" in to_dot(empty)


def test_certificate_json_round_trip():
    cert = WitnessCertificate(
        kind="conditional-unique", target=X12, condition=Y12,
        nfa=pair_witness(), claimed_states=2,
    )
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back == cert
    assert certificate_to_json(back) == text
    assert "doublecircle" in certificate_to_dot(back)


def test_certificate_json_errors():
    with pytest.raises(ParseError) as e:
        certificate_from_json("{not json")
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        certificate_from_json('{"kind": "unique"}')
