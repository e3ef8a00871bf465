import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from autocomplexity import KIND_UNIQUE, ComplexityQuery, oracle_min_states
from autocomplexity.metrics import (
    ComplexityProvider,
    MetricKind,
    _triangle_violations,
    classify_unit_distance,
    distribution_table,
    expected_unit_distance_pairs,
    format_table,
    is_unit_j_distance,
    metric_value,
    sample_distribution,
    verify_metric,
)
from autocomplexity.words import Word, power, slow_normalize, slow_words


def test_metric_kind_parse():
    assert MetricKind.parse("jnum-max") is MetricKind.J_NUM_MAX
    with pytest.raises(ValueError):
        MetricKind.parse("euclid")


def test_distance_to_self_is_zero(provider):
    for kind in MetricKind:
        for text in ["0", "0101", "0011010"]:
            w = Word.parse(text, 2)
            assert metric_value(kind, w, w, provider) == 0.0


def test_length_mismatch_rejected(provider):
    with pytest.raises(ValueError):
        metric_value(MetricKind.J, Word.parse("0"), Word.parse("01"), provider)


def test_constant_word_at_unit_distance(provider):
    x = Word.parse("0110", 2)
    zero = Word.parse("0000", 2)
    assert metric_value(MetricKind.J, x, zero, provider) == 1.0
    assert is_unit_j_distance(x, zero, provider)


def test_jaccard_value_formula(provider):
    # distances decompose into the five integer complexities
    x, y = Word.parse("00100", 2), Word.parse("01100", 2)
    a_xy = provider.conditional(x, y)
    a_yx = provider.conditional(y, x)
    a_x, a_y = provider.unconditional(x), provider.unconditional(y)
    a_t = provider.track_value(x, y)
    got = metric_value(MetricKind.J, x, y, provider)
    want = math.log2(a_xy * a_yx) / (math.log2(a_xy * a_yx * a_x * a_y) - math.log2(a_t))
    assert got == pytest.approx(want)
    assert metric_value(MetricKind.J_NUM, x, y, provider) == pytest.approx(
        math.log2(a_xy * a_yx)
    )
    assert metric_value(MetricKind.J_NUM_MAX, x, y, provider) == pytest.approx(
        math.log2(max(a_xy, a_yx))
    )


def test_powers_of_coprime_permutation_words_are_unit_distance(provider):
    x = power(Word.parse("01"), 6)
    y = power(Word.parse("012"), 4)
    assert metric_value(MetricKind.J, x, y, provider) == 1.0


def test_symmetry_by_construction(provider):
    ground = list(slow_words(4, 2))
    for kind in MetricKind:
        for x in ground:
            for y in ground:
                assert metric_value(kind, x, y, provider) == metric_value(kind, y, x, provider)


def test_jnum_zero_iff_same_slow_form(provider):
    for n in range(1, 6):
        ground = list(slow_words(n, 2))
        for x in ground:
            for y in ground:
                zero = metric_value(MetricKind.J_NUM, x, y, provider) == 0.0
                assert zero == (x == y)
    # relabelings collapse to distance zero
    a, b = Word.parse("0110", 2), Word.parse("1001", 2)
    assert slow_normalize(b) == a
    assert metric_value(MetricKind.J_NUM, a, b, provider) == 0.0


def test_range_of_normalized_metrics(provider):
    for n in range(1, 6):
        ground = list(slow_words(n, 2))
        for kind in (MetricKind.J, MetricKind.J_MAX):
            for x in ground:
                for y in ground:
                    v = metric_value(kind, x, y, provider)
                    assert 0.0 <= v <= 1.0


def test_intermediate_distance_exists_at_length_eight(provider):
    x = Word.parse("00001000", 2)
    y = Word.parse("00001001", 2)
    v = metric_value(MetricKind.J, x, y, provider)
    assert 0.0 < v < 0.5


def test_verify_metric_small(provider):
    for kind in MetricKind:
        report = verify_metric(4, kind, provider)
        assert report.ok and report.ground_set_size == 8
    trivial = verify_metric(1, MetricKind.J, provider)
    assert trivial.ok and trivial.ground_set_size == 1


def test_verify_metric_one_sided_corruption_reported(provider):
    class Lying(ComplexityProvider):
        def conditional(self, x, y):
            if (x.symbols, y.symbols) == ((0, 1, 1), (0, 0, 1)):
                return 3
            return provider.conditional(x, y)

    report = verify_metric(3, MetricKind.J_NUM, Lying())
    assert not report.ok
    assert report.symmetry_violations or report.triangle_violations


def test_jmax_triangle_counterexample(provider):
    # jmax is not a metric: verify-metric finds 28 triangle violations at
    # n = 8, against the paper's claim; this pins one of them
    x, y, z = (Word.parse(t, 2) for t in ("00100100", "00100011", "01010100"))
    assert [provider.unconditional(w) for w in (x, y, z)] == [3, 5, 3]
    assert provider.conditional(x, z) == provider.conditional(z, x) == 3
    pairs = ((x, y), (y, x), (y, z), (z, y))
    assert [provider.conditional(a, b) for a, b in pairs] == [2, 2, 2, 2]
    assert oracle_min_states(ComplexityQuery(KIND_UNIQUE, y)) is None

    def d(a, b):
        return metric_value(MetricKind.J_MAX, a, b, provider)

    assert d(x, z) == 1.0
    assert d(x, y) + d(y, z) == pytest.approx(2 / math.log2(5))
    assert d(x, z) > d(x, y) + d(y, z)


def triangle_loop(d, tolerance):
    """The triple loop ``_triangle_violations`` replaces, kept as its reference."""
    size = len(d)
    return [
        (i, j, k, d[i][k], d[i][j] + d[j][k])
        for i in range(size)
        for j in range(size)
        for k in range(size)
        if d[i][k] > d[i][j] + d[j][k] + tolerance
    ]


def test_triangle_sweep_matches_loop_on_jmax_at_length_eight(provider):
    ground = list(slow_words(8, 2))
    provider.conditional_row(ground)
    d = [[metric_value(MetricKind.J_MAX, x, y, provider) for y in ground] for x in ground]
    swept = _triangle_violations(d, 1e-9)
    assert len(swept) == 28
    assert swept == triangle_loop(d, 1e-9)
    # numbers from the list, never NumPy scalars, which print differently
    assert all(type(v) is int for t in swept for v in t[:3])
    assert all(type(v) is float for t in swept for v in t[3:])


def test_triangle_sweep_at_the_tolerance_boundary():
    # (0.5 + 0.45) + 1e-9 is one ulp below 0.5 + (0.45 + 1e-9): the sweep
    # must add left to right, as the loop does
    a, b, tolerance = 0.5, 0.45, 1e-9
    edge = (a + b) + tolerance
    assert edge < a + (b + tolerance)
    for d_02, flagged in ((edge, False), (math.nextafter(edge, math.inf), True)):
        d = [[0.0, a, d_02], [a, 0.0, b], [d_02, b, 0.0]]
        swept = _triangle_violations(d, tolerance)
        assert swept == triangle_loop(d, tolerance)
        want = [(0, 1, 2, d_02, a + b), (2, 1, 0, d_02, b + a)] if flagged else []
        assert swept == want


def test_triangle_sweep_builds_no_cube():
    # a size**3 float temporary at 256 words would take 134 MB
    size = 256
    d = [[float(i != j) for j in range(size)] for i in range(size)]
    d[0][1] = d[1][0] = 2.5
    tracemalloc.start()
    try:
        swept = _triangle_violations(d, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swept == [(0, k, 1, 2.5, 2.0) for k in range(2, size)] + [
        (1, k, 0, 2.5, 2.0) for k in range(2, size)
    ]
    assert peak < 4 * 2**20


@pytest.mark.extended
def test_metric_axioms_at_length_nine():
    # jnum, jnum-max and j pass every axiom at n = 9; jmax breaks the
    # triangle inequality 64 times (28 at n = 8)
    provider = ComplexityProvider()
    distribution_table(9, provider)
    counts = {}
    for kind in MetricKind:
        report = verify_metric(9, kind, provider)
        counts[kind] = tuple(
            len(v)
            for v in (report.identity_violations, report.symmetry_violations, report.triangle_violations)
        )
    assert counts == {
        MetricKind.J_NUM: (0, 0, 0),
        MetricKind.J_NUM_MAX: (0, 0, 0),
        MetricKind.J: (0, 0, 0),
        MetricKind.J_MAX: (0, 0, 64),
    }


def test_jmax_det_baseline_flag(provider):
    x, y = Word.parse("0010", 2), Word.parse("0111", 2)
    default = metric_value(MetricKind.J_MAX, x, y, provider)
    det = metric_value(MetricKind.J_MAX, x, y, provider, det_baseline=True)
    assert 0.0 <= det <= 1.0 and 0.0 <= default <= 1.0


def test_track_coordinate_swap_invariance(provider):
    for n in range(1, 5):
        ground = list(slow_words(n, 2))
        for x in ground:
            for y in ground:
                assert provider.track_value(x, y) == provider.track_value(y, x)


def test_distribution_small_rows(provider):
    rows = distribution_table(4, provider)
    assert [r.counts for r in rows] == [(1,), (1,), (3, 1), (7, 9), (15, 45, 4)]
    assert [r.mode for r in rows] == [1, 1, 1, 2, 2]
    for r in rows:
        assert r.total == (4 ** (r.n - 1) if r.n >= 1 else 1)


def test_distribution_table_guards_length(provider):
    with pytest.raises(ValueError):
        distribution_table(11, provider)


def test_format_table_brackets_mode(provider):
    text = format_table(distribution_table(4, provider))
    assert "[45]" in text and text.splitlines()[0].startswith("n\\q")


def test_sampling_is_seeded(provider):
    one = sample_distribution(6, 200, seed=11, provider=provider)
    two = sample_distribution(6, 200, seed=11, provider=provider)
    other = sample_distribution(6, 200, seed=12, provider=provider)
    assert one.counts == two.counts
    assert one.sampled == 200
    assert sum(one.counts) == 200
    assert one.counts != other.counts or one.mode == other.mode


def test_classification_fast_equals_exhaustive(provider):
    for n in (4, 5, 6):
        fast = classify_unit_distance(n, provider, "fast")
        audit = classify_unit_distance(n, provider, "exhaustive")
        assert fast == audit
        assert fast == expected_unit_distance_pairs(n)
        for pair in fast:
            assert len(pair) == 2  # never a self-pair


def test_expected_pairs_shape():
    assert len(expected_unit_distance_pairs(4)) == 7
    ten = expected_unit_distance_pairs(10)
    assert len(ten) == 511 + 3
    alternating = Word.parse("0101010101", 2)
    assert sum(1 for p in ten if alternating in p and Word.parse("0" * 10, 2) not in p) == 3


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
       st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_max_combination_inequality(a, b, c, a2, b2, c2):
    # if a <= b*c and a' <= b'*c' then max(a,a') <= max(b,b')*max(c,c')
    if a <= b * c and a2 <= b2 * c2:
        assert max(a, a2) <= max(b, b2) * max(c, c2)


@st.composite
def metric_space_with_admissible_offset(draw):
    size = draw(st.integers(2, 5))
    weights = {}
    for i in range(size):
        for j in range(i + 1, size):
            weights[(i, j)] = draw(st.integers(1, 9))
    # shortest-path closure makes the weights a metric
    d = [[0.0] * size for _ in range(size)]
    for (i, j), w in weights.items():
        d[i][j] = d[j][i] = float(w)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    # a = scale*d + shift satisfies a(x,z) <= a(x,y) + d(y,z) when scale <= 1
    scale = draw(st.floats(0.0, 1.0, allow_nan=False))
    shift = draw(st.floats(0.0, 5.0, allow_nan=False))
    a = [[scale * d[i][j] + shift for j in range(size)] for i in range(size)]
    return d, a, size


@given(metric_space_with_admissible_offset())
@settings(max_examples=200)
def test_normalized_quotient_is_a_metric(space):
    d, a, size = space
    tol = 1e-9

    def dq(i, j):
        if d[i][j] == 0.0:
            return 0.0
        return d[i][j] / (a[i][j] + d[i][j])

    for i in range(size):
        assert dq(i, i) == 0.0
        for j in range(size):
            assert abs(dq(i, j) - dq(j, i)) <= tol
            for k in range(size):
                assert dq(i, k) <= dq(i, j) + dq(j, k) + tol
