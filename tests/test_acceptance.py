"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Tests
marked ``extended`` are the non-gating long runs; enable them with
``-m extended`` (or ``-m ''`` for everything).
"""

import random
import time

import pytest

from autocomplexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_EXACT,
    KIND_UNIQUE,
    ComplexityQuery,
    Nfa,
    WitnessCertificate,
    compute,
    contains_kth_power,
    is_primitive,
    max_complexity,
    oracle_min_states,
    power,
    product_track,
    search_emergent,
    sparse_witness_report,
    value_at_most,
    verify_certificate,
)
from autocomplexity.metrics import (
    MetricKind,
    classify_unit_distance,
    distribution_table,
    expected_unit_distance_pairs,
    metric_value,
    sample_distribution,
    verify_metric,
)
from autocomplexity.words import Word, slow_words, track

APPENDIX_ROWS = {
    0: (1,),
    1: (1,),
    2: (3, 1),
    3: (7, 9),
    4: (15, 45, 4),
    5: (31, 197, 28),
    6: (63, 755, 191, 15),
    7: (127, 2299, 1561, 109),
    8: (255, 5905, 9604, 571, 49),
    9: (511, 14005, 47416, 3205, 399),
    10: (1023, 31439, 206342, 21066, 2102, 172),
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def timed_value(query, provider, limit=10.0):
    start = time.perf_counter()
    value = compute(query, cache=provider.cache).value
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"query exceeded {limit}s ({elapsed:.1f}s)"
    return value


def test_criterion_1a_product_alphabet_triple(provider):
    x = Word.parse("010010010010", 2)
    y = Word.parse("010101010101", 2)
    got = (
        timed_value(ComplexityQuery(KIND_UNIQUE, x), provider),
        timed_value(ComplexityQuery(KIND_UNIQUE, y), provider),
        timed_value(ComplexityQuery(KIND_UNIQUE, track(x, y)), provider),
    )
    report("1a worked examples (period 3 x period 2)", got == (3, 2, 6), f"got {got}")
    assert got == (3, 2, 6)


def test_criterion_1b_length_four_pair(provider):
    x = Word.parse("0123")
    y = Word.parse("0001", 2)
    got = (
        timed_value(ComplexityQuery(KIND_UNIQUE, track(x, y)), provider),
        timed_value(ComplexityQuery(KIND_UNIQUE, y), provider),
    )
    report("1b worked examples (permutation word over 0001)", got == (3, 2), f"got {got}")
    assert got == (3, 2)


def test_criterion_1c_cyclic_pair(provider):
    x = Word.parse("012301230123", 4)
    y = Word.parse("012345012345", 6)
    cond = timed_value(ComplexityQuery(KIND_COND_UNIQUE, x, y), provider)
    base = timed_value(ComplexityQuery(KIND_UNIQUE, y), provider)
    pair = timed_value(ComplexityQuery(KIND_UNIQUE, track(x, y)), provider)
    got = (cond, base, pair)
    # track(x, y) has 12 pairwise distinct symbols (lcm(4, 6) = 12), so it is
    # square-free: the half-length ceiling gives pair <= 12 // 2 + 1 = 7 and
    # the power-free bound (n + 1) / k with k = 2 gives pair >= 13 / 2, so
    # pair = 7. The 12-state cyclic product is a valid but non-minimal witness.
    ok = got == (2, 6, 7)
    report("1c worked examples (two-state cyclic pair)", ok, f"expected (2, 6, 7), got {got}")
    assert got == (2, 6, 7)


def test_criterion_2_distribution_rows(provider):
    start = time.perf_counter()
    rows = distribution_table(7, provider)
    elapsed = time.perf_counter() - start
    got = {r.n: r.counts for r in rows}
    want = {n: APPENDIX_ROWS[n] for n in range(8)}
    ok = got == want and elapsed < 600
    report("2 distribution rows n<=7", ok, f"{elapsed:.0f}s")
    assert got == want
    assert elapsed < 600


@pytest.mark.extended
@pytest.mark.parametrize("n", [8, 9, 10])
def test_criterion_2_extended_rows(n, provider):
    row = distribution_table(n, provider)[n]
    ok = row.counts == APPENDIX_ROWS[n]
    report(f"2x distribution row n={n}", ok, f"got {row.counts}")
    assert row.counts == APPENDIX_ROWS[n]


def test_criterion_3_metric_axioms(provider):
    start = time.perf_counter()
    bad = {}
    for kind in MetricKind:
        for n in range(1, 7):
            rep = verify_metric(n, kind, provider)
            if not rep.ok:
                bad[(kind.value, n)] = rep.violation_count
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1800
    report("3 metric axioms all kinds n<=6", ok, f"{elapsed:.0f}s, violations: {bad}")
    assert not bad
    assert elapsed < 1800


def test_criterion_4_jaccard_value(provider):
    start = time.perf_counter()
    v = metric_value(MetricKind.J, Word.parse("00001000", 2), Word.parse("00001001", 2), provider)
    elapsed = time.perf_counter() - start
    ok = abs(v - 0.46) <= 0.005 and elapsed < 60
    report("4 J(00001000, 00001001) = 0.46 +- 0.005", ok, f"got {v:.4f} in {elapsed:.1f}s")
    assert abs(v - 0.46) <= 0.005
    assert elapsed < 60


def test_criterion_5_emergent_simplicity(provider):
    start = time.perf_counter()
    none_at_six = search_emergent(6, cache=provider.cache)
    found = {str(w) for w in search_emergent(7, cache=provider.cache)}
    square_value = compute(
        ComplexityQuery(KIND_UNIQUE, Word.parse("00010000001000", 2)), cache=provider.cache
    ).value
    elapsed = time.perf_counter() - start
    # 0010100 is not emergent: emergence needs the maximal value
    # max_complexity(7) = 4, but this deterministic 3-state automaton has
    # exactly one accepting walk of length 7 (closed walks from 0 have
    # length 3 + 2k), and it spells 0010100.
    not_maximal = WitnessCertificate(
        kind=KIND_UNIQUE,
        target=Word.parse("0010100", 2),
        nfa=Nfa(
            3, 0, frozenset({0}),
            frozenset({(0, 0, 1), (1, 0, 2), (2, 0, 0), (2, 1, 1)}), 2,
        ),
        claimed_states=3,
    )
    ok_empty = none_at_six == []
    ok_square = square_value == 6
    ok_set = found == {"0001000"}
    report("5 emergent search length<=6 empty", ok_empty)
    report("5 emergent square value 6", ok_square, f"got {square_value}")
    report(
        "5 emergent search length 7 set", ok_set,
        f"expected {{0001000}}, got {sorted(found)} in {elapsed:.0f}s",
    )
    assert ok_empty
    assert ok_square
    assert elapsed < 300
    assert verify_certificate(not_maximal) == (True, "ok")
    assert found == {"0001000"}


def test_criterion_6_sparse_witnesses(provider):
    start = time.perf_counter()
    x = Word.parse("0000110", 2)
    y = Word.parse("0010100", 2)
    rep = sparse_witness_report(x, y, cache=provider.cache)
    star = [
        e for e in rep.sparse
        if e.edge_count == 6 and not e.is_unique_witness and e.nfa.state_count == 3
    ]
    ok_pair = (
        rep.exact_value == 3
        and bool(star)
        and star[0].edge_minimal
        and star[0].sequences == ((0, 0, 1, 1, 1, 2, 0, 0), (0, 1, 1, 1, 1, 2, 0, 0))
        and 7 in rep.unique_witness_edge_counts
        and (0, 1, 2, 0, 0, 2, 1, 0) in {
            s for e in rep.exact_witnesses if e.is_unique_witness for s in e.sequences
        }
        and rep.has_sparse_non_unique_witness()
    )
    offenders = []
    for n in range(1, 7):
        for w in slow_words(n, 2):
            if sparse_witness_report(w, cache=provider.cache).has_sparse_non_unique_witness():
                offenders.append(str(w))
    elapsed = time.perf_counter() - start
    report("6 sparse witness pair study", ok_pair)
    report("6 no unconditional sparse-not-unique witness |x|<=6", not offenders, str(offenders))
    assert ok_pair
    assert not offenders
    assert elapsed < 300


@pytest.mark.extended
def test_criterion_6_extended_scan(provider):
    offenders = []
    for n in (7, 8):
        for w in slow_words(n, 2):
            if sparse_witness_report(w, cache=provider.cache).has_sparse_non_unique_witness():
                offenders.append(str(w))
    report("6x no unconditional sparse-not-unique witness |x|<=8", not offenders, str(offenders))
    assert not offenders


def test_criterion_7_unit_conditional_characterization(provider):
    start = time.perf_counter()
    bad = []
    for n in range(1, 8):
        zero = Word((0,) * n, 2)
        for x in slow_words(n, 2):
            for y in slow_words(n, 2):
                is_one = value_at_most(ComplexityQuery(KIND_COND_UNIQUE, x, y), 1, provider.cache) == 1
                expected = x == y or x == zero
                if is_one != expected:
                    bad.append((str(x), str(y)))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 600
    report("7 unit conditional iff equal or constant, n<=7", ok, f"{elapsed:.0f}s {bad[:5]}")
    assert not bad
    assert elapsed < 600


def test_criterion_8_classification(provider):
    bad = {}
    for n in range(1, 11):
        got = classify_unit_distance(n, provider)
        want = expected_unit_distance_pairs(n)
        if got != want:
            bad[n] = (len(got - want), len(want - got))
    report("8 unit-distance classification n<=10", not bad, str(bad))
    assert not bad


@pytest.mark.extended
@pytest.mark.parametrize("n", [11, 12])
def test_criterion_8_extended_classification(n, provider):
    got = classify_unit_distance(n, provider)
    want = expected_unit_distance_pairs(n)
    ok = got == want
    detail = f"extra {[tuple(map(str, p)) for p in got - want]}, missing {[tuple(map(str, p)) for p in want - got]}"
    report(f"8x classification n={n}", ok, "" if ok else detail)
    assert got == want


def test_criterion_9a_half_length_ceiling(provider):
    bad = []
    for n in range(1, 13):
        words = list(slow_words(n, 2))
        # one batch per length; each value is then read as any caller reads it
        provider.prefetch((KIND_UNIQUE, w.symbols, None) for w in words)
        for w in words:
            if provider.unconditional(w) > max_complexity(n):
                bad.append(str(w))
    report("9a half-length ceiling n<=12", not bad, str(bad[:5]))
    assert not bad


def test_criterion_9b_exact_at_most_unique(provider):
    bad = []
    for n in range(1, 9):
        for w in slow_words(n, 2):
            ve = compute(ComplexityQuery(KIND_EXACT, w), cache=provider.cache).value
            if ve > provider.unconditional(w):
                bad.append(str(w))
    report("9b exact <= unique n<=8", not bad, str(bad[:5]))
    assert not bad


def test_criterion_9c_pair_word_bounds(provider):
    bad = []
    for n in range(1, 7):
        for x in slow_words(n, 2):
            for y in slow_words(n, 2):
                pair_value = provider.track_value(x, y)
                lower = max(provider.unconditional(x), provider.unconditional(y))
                upper = provider.conditional(x, y) * provider.unconditional(y)
                if not lower <= pair_value <= upper:
                    bad.append((str(x), str(y), lower, pair_value, upper))
    xs = Word.parse("0123")
    ys = Word.parse("0001", 2)
    strict = provider.track_value(xs, ys)
    product = provider.conditional(xs, ys) * provider.unconditional(ys)
    strict_ok = strict == 3 and strict < product
    report("9c pair-word sandwich n<=6 with strictness witness", not bad and strict_ok, str(bad[:3]))
    assert not bad
    assert strict_ok


def test_criterion_9d_relativized_inequality(provider):
    rng = random.Random(20260808)
    bad = []
    for _ in range(10_000):
        n = rng.randint(1, 5)
        x, y, z = (
            Word(tuple(rng.randrange(2) for _ in range(n)), 2) for _ in range(3)
        )
        a_xz = provider.conditional(x, z)
        a_yz = provider.conditional(y, z)
        a_x_yz = compute(
            ComplexityQuery(KIND_COND_UNIQUE, x, track(y, z)), cache=provider.cache
        ).value
        if a_xz > a_yz * a_x_yz:
            bad.append((str(x), str(y), str(z)))
    report("9d relativized inequality, 10^4 seeded triples", not bad, str(bad[:3]))
    assert not bad


def test_criterion_9e_powerfree_lower_bound(provider):
    bad = []
    for n in range(1, 11):
        for w in slow_words(n, 2):
            value = provider.unconditional(w)
            for k in range(1, 5):
                if not contains_kth_power(w, k) and value < (n + 1) / k:
                    bad.append((str(w), k))
    report("9e powerfree lower bound n<=10, k<=4", not bad, str(bad[:5]))
    assert not bad


def test_criterion_9f_permutation_powers(provider):
    bad = []
    for a in range(1, 5):
        alpha = Word(tuple(range(a)), a)
        for k in (2, 3, 4):
            value = compute(ComplexityQuery(KIND_UNIQUE, power(alpha, k)), cache=provider.cache).value
            if value != a:
                bad.append((a, k, value))
    report("9f permutation word powers", not bad, str(bad))
    assert not bad


def test_criterion_9g_primitive_powers(provider):
    bad = []
    for n in range(1, 5):
        for w in slow_words(n, 2):
            if is_primitive(w):
                high = power(w, n)
                if value_at_most(ComplexityQuery(KIND_UNIQUE, high), n - 1, provider.cache) is not None:
                    bad.append(str(w))
    report("9g primitive word high powers", not bad, str(bad))
    assert not bad


def test_criterion_9h_product_composition(provider):
    bad = []
    for n in range(0, 7):
        for x in slow_words(n, 2):
            for y in slow_words(n, 2):
                m1 = compute(
                    ComplexityQuery(KIND_COND_UNIQUE, x, y), cache=provider.cache
                ).certificate.nfa
                m2 = compute(ComplexityQuery(KIND_UNIQUE, y), cache=provider.cache).certificate.nfa
                prod = product_track(m1, m2)
                cert = WitnessCertificate(
                    kind=KIND_UNIQUE,
                    target=track(y, x),
                    nfa=prod,
                    claimed_states=prod.state_count,
                )
                if not verify_certificate(cert)[0]:
                    bad.append((str(x), str(y)))
    report("9h pair-keeping product composes witnesses n<=6", not bad, str(bad[:5]))
    assert not bad


def test_criterion_9i_oracle_equivalence(provider):
    bad = []
    for n in range(0, 7):
        for w in slow_words(n, 2):
            for kind in (KIND_UNIQUE, KIND_EXACT):
                got = oracle_min_states(ComplexityQuery(kind, w), 3)
                val = compute(ComplexityQuery(kind, w), cache=provider.cache).value
                if (got != val) if val <= 3 else (got is not None):
                    bad.append((kind, str(w)))
    for n in range(0, 6):
        for x in slow_words(n, 2):
            for y in slow_words(n, 2):
                for kind in (KIND_COND_UNIQUE, KIND_COND_EXACT):
                    got = oracle_min_states(ComplexityQuery(kind, x, y), 3)
                    val = compute(ComplexityQuery(kind, x, y), cache=provider.cache).value
                    if (got != val) if val <= 3 else (got is not None):
                        bad.append((kind, str(x), str(y)))
    report("9i oracle equivalence (full enumeration <=3 states)", not bad, str(bad[:5]))
    assert not bad


def test_criterion_10_symmetry_of_information_fails(provider):
    x = Word.parse("0001", 2)
    y = Word.parse("0011", 2)
    left = provider.conditional(x, y) * provider.unconditional(y)
    right = provider.conditional(y, x) * provider.unconditional(x)
    ok = left != right
    report("10 symmetry of information fails", ok, f"{left} vs {right}")
    assert left != right


@pytest.mark.extended
@pytest.mark.parametrize("n", [16, 20])
def test_criterion_11_mode_drift(n, provider):
    row = sample_distribution(n, 10_000, seed=42, provider=provider)
    target = -(-n // 4)
    ok = row.mode in {target - 1, target, target + 1}
    report(f"11x sampled mode near n/4 at n={n}", ok, f"mode {row.mode}")
    assert ok
