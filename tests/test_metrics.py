import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autocomplexity import KIND_UNIQUE, ComplexityQuery, ResultCache, compute, oracle_min_states
from autocomplexity.complexity import class_key, memo_key
from autocomplexity.metrics import (
    ComplexityProvider,
    MetricKind,
    MetricReport,
    _distance_matrix,
    _log2,
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
from autocomplexity.words import Word, power, slow_normalize, slow_words, track


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


@pytest.mark.parametrize("tolerance", [-0.5, -1e-12, math.nan, math.inf, -math.inf])
def test_verify_metric_refuses_a_tolerance_that_is_no_finite_bound(provider, tolerance):
    """A negative tolerance flags every diagonal entry, NaN flags nothing
    (``jmax`` at n = 8 has 28 triangle violations) and an infinite one
    flags every pair, so each is refused before any distance is read."""
    with pytest.raises(ValueError, match="tolerance"):
        verify_metric(4, MetricKind.J_NUM, provider, tolerance=tolerance)


def test_verify_metric_takes_a_zero_tolerance(provider):
    for kind in MetricKind:
        assert verify_metric(4, kind, provider, tolerance=0.0) == verify_metric(4, kind, provider)


def test_verify_metric_one_sided_corruption_reported(provider):
    class Lying(ComplexityProvider):
        def conditional(self, x, y):
            if (x.symbols, y.symbols) == ((0, 1, 1), (0, 0, 1)):
                return 3
            return provider.conditional(x, y)

    report = verify_metric(3, MetricKind.J_NUM, Lying())
    assert not report.ok
    assert report.symmetry_violations or report.triangle_violations


def test_verify_metric_reads_unconditional_and_track_through_the_provider(provider):
    # a one-sided lie in track_value breaks the symmetry of j, and a lie in
    # unconditional moves jmax; both are read through the subclass
    class Lying(ComplexityProvider):
        def unconditional(self, x):
            value = provider.unconditional(x)
            return value + 4 if x.symbols == (0, 1, 1, 0) else value

        def track_value(self, x, y):
            if (x.symbols, y.symbols) == ((0, 0, 1, 0), (0, 1, 1, 1)):
                return self.unconditional(x) * self.unconditional(y)
            return provider.track_value(x, y)

    for kind in (MetricKind.J, MetricKind.J_MAX):
        report = verify_metric(4, kind, Lying())
        assert not report.ok
        assert report == reference_report(4, kind, Lying())
        assert report != verify_metric(4, kind, provider)
    assert verify_metric(4, MetricKind.J, Lying()).symmetry_violations


def test_verify_metric_lists_identity_violations_in_loop_order(provider):
    # w given itself costs 2 and every other pair through w costs 1: row w
    # holds d(w, w) > 0 followed by zeros, which the loop lists diagonal first
    w = Word.parse("0110", 2)

    class Lying(ComplexityProvider):
        def conditional(self, x, y):
            if x == w or y == w:
                return 2 if x == y else 1
            return provider.conditional(x, y)

    for kind in (MetricKind.J_NUM, MetricKind.J_NUM_MAX):
        report = verify_metric(4, kind, Lying())
        assert report == reference_report(4, kind, Lying())
        assert report.identity_violations[0] == (Word.parse("0000", 2), w, 0.0)
        row = [v for v in report.identity_violations if v[0] == w]
        assert row[0] == (w, 1.0 if kind is MetricKind.J_NUM_MAX else 2.0) and len(row) == 8


def test_verify_metric_raises_on_a_zero_denominator(provider):
    # j: a pair word as complex as the product of all four other values;
    # jmax: both unconditional values 1 while the numerator is not
    x, y = Word.parse("0010", 2), Word.parse("0111", 2)

    class ZeroJ(ComplexityProvider):
        def track_value(self, a, b):
            if (a, b) == (x, y):
                return (provider.conditional(a, b) * provider.conditional(b, a)
                        * provider.unconditional(a) * provider.unconditional(b))
            return provider.track_value(a, b)

    class ZeroJmax(ComplexityProvider):
        def unconditional(self, a):
            return 1 if a == x else provider.unconditional(a)

    zero = Word.parse("0000", 2)
    for lying, kind, other in ((ZeroJ(), MetricKind.J, y), (ZeroJmax(), MetricKind.J_MAX, zero)):
        with pytest.raises(ZeroDivisionError):
            metric_value(kind, x, other, lying)
        with pytest.raises(ZeroDivisionError):
            verify_metric(4, kind, lying)


def reference_report(n, kind, provider, tolerance=1e-9):
    """``verify_metric`` as one ``metric_value`` per ordered pair and a
    triple loop, kept as the reference for the matrix path."""
    ground = list(slow_words(n, 2))
    provider.conditional_row(ground)
    d = [[metric_value(kind, x, y, provider) for y in ground] for x in ground]
    identity = []
    symmetry = []
    for i, x in enumerate(ground):
        if abs(d[i][i]) > tolerance:
            identity.append((x, d[i][i]))
        for j, y in enumerate(ground):
            if i != j and abs(d[i][j]) <= tolerance:
                identity.append((x, y, d[i][j]))
            if i < j and abs(d[i][j] - d[j][i]) > tolerance:
                symmetry.append((x, y, d[i][j], d[j][i]))
    triangle = [
        (ground[i], ground[j], ground[k], d_ik, d_ijk)
        for i, j, k, d_ik, d_ijk in triangle_loop(d, tolerance)
    ]
    return MetricReport(n, kind, len(ground), tuple(identity), tuple(symmetry), tuple(triangle))


def test_distance_matrix_equals_metric_value_bit_for_bit(provider):
    for n in range(8):
        ground = list(slow_words(n, 2))
        provider.conditional_row(ground)
        for kind in MetricKind:
            m = _distance_matrix(kind, ground, provider)
            for i, x in enumerate(ground):
                for j, y in enumerate(ground):
                    # hex() tells 0.0 from -0.0 and every last bit apart
                    assert m[i, j].hex() == metric_value(kind, x, y, provider).hex(), (kind, x, y)


def test_verify_metric_equals_reference_loop(provider):
    for n in range(8):
        for kind in MetricKind:
            assert verify_metric(n, kind, provider) == reference_report(n, kind, provider)


class SparseJmax(ComplexityProvider):
    """C(x|000000) = 1 for every x but 011110, so that the pairs off the 0
    case of jmax name 011110, alone in its reversal class, out of order."""

    def conditional(self, x, y):
        if y == Word((0,) * 6, 2) and x != Word.parse("011110", 2):
            return 1
        return super().conditional(x, y)


def test_verify_metric_writes_the_reference_cache_lines(tmp_path):
    # the matrix path writes the records one metric_value per pair writes,
    # in the same order, and leaves the same memo
    runs = [(kind, ComplexityProvider) for kind in MetricKind] + [(MetricKind.J_MAX, SparseJmax)]
    for kind, provider_type in runs:
        files, memos = [], []
        for name, check in (("matrix", verify_metric), ("loop", reference_report)):
            cache = ResultCache(tmp_path / provider_type.__name__ / kind.value / name)
            provider = provider_type(cache)
            check(6, kind, provider)
            files.append(cache.path.read_bytes())
            memos.append(provider._memo)
        assert files[0] == files[1], (kind, provider_type)
        assert memos[0] == memos[1], (kind, provider_type)


def test_track_value_keys_the_pair_word_by_its_query():
    # the pair word's class key comes from symbol tuples; it is the class
    # key of the query on track(x, y), and the value is that query's
    provider = ComplexityProvider()
    for x in (Word(s, 2) for s in itertools.product(range(2), repeat=3)):
        for y in (Word(s, 3) for s in itertools.product(range(3), repeat=3)):
            query = ComplexityQuery(KIND_UNIQUE, track(x, y))
            rep_key = class_key(memo_key(query))
            before = set(provider._memo)
            value = provider.track_value(x, y)
            assert set(provider._memo) - before <= {("track", x.symbols, y.symbols), rep_key}
            assert provider._memo[rep_key] == value == compute(query).value
    with pytest.raises(ValueError):
        provider.track_value(Word.parse("01", 2), Word.parse("0", 2))


def test_log2_table_matches_math_log2():
    # NumPy's log2 can differ from math.log2 in the last bit; on x86-64 with
    # NumPy 2.4 it does at 1621, 3242 and 7957
    values = np.array([[1, 2, 1621], [3242, 7957, 49]])
    assert [v.hex() for v in _log2(values).ravel()] == [
        math.log2(v).hex() for v in values.ravel().tolist()
    ]
    with pytest.raises(ValueError):
        _log2(np.array([3, 0]))


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


def axiom_violation_counts(n: int, provider: ComplexityProvider) -> dict:
    """(identity, symmetry, triangle) violation counts of each metric kind
    over the binary slow words of length n."""
    counts = {}
    for kind in MetricKind:
        report = verify_metric(n, kind, provider)
        counts[kind] = tuple(
            len(v)
            for v in (report.identity_violations, report.symmetry_violations, report.triangle_violations)
        )
    return counts


@pytest.mark.extended
def test_metric_axioms_at_length_nine():
    # jnum, jnum-max and j pass every axiom at n = 9; jmax breaks the
    # triangle inequality 64 times (28 at n = 8)
    provider = ComplexityProvider()
    distribution_table(9, provider)
    assert axiom_violation_counts(9, provider) == {
        MetricKind.J_NUM: (0, 0, 0),
        MetricKind.J_NUM_MAX: (0, 0, 0),
        MetricKind.J: (0, 0, 0),
        MetricKind.J_MAX: (0, 0, 64),
    }


@pytest.mark.extended
def test_metric_axioms_at_length_ten():
    # the 512 slow words of length 10: jnum, jnum-max and j still pass every
    # axiom, and jmax breaks the triangle inequality 884 times
    assert axiom_violation_counts(10, ComplexityProvider()) == {
        MetricKind.J_NUM: (0, 0, 0),
        MetricKind.J_NUM_MAX: (0, 0, 0),
        MetricKind.J: (0, 0, 0),
        MetricKind.J_MAX: (0, 0, 884),
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
    with pytest.raises(ValueError, match="^n_max must be at least 0"):
        distribution_table(-1, provider)


def test_sampling_refuses_rows_it_cannot_draw(provider):
    for n, samples, name in ((0, 3, "n"), (-2, 3, "n"), (5, 0, "samples")):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            sample_distribution(n, samples, seed=1, provider=provider)


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
