"""Correctness checks for the benchmark's outputs, run after the timed part.

None of them compares against a recording of the program's own output:

* the study's rows must equal the paper's appendix rows, and must satisfy two
  counting facts that follow from the definitions alone;
* a seeded sample of values must agree with the full-enumeration oracle
  wherever the value is at most 3;
* every axiom report is recomputed from the integer complexities with the
  distance formulas restated here;
* every search result must carry a certificate that re-verifies, and the six
  kinds must keep the orders the definitions force.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
import random

import numpy as np

from autocomplexity.automata import verify_certificate
from autocomplexity.complexity import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
    ComplexityQuery,
)
from autocomplexity.metrics import MetricKind
from autocomplexity.oracle import oracle_min_states
from autocomplexity.words import Word, slow_normalize, slow_words, track

# Conditional-complexity distribution of the paper's appendix, rows n = 0..8:
# counts of ordered pairs of slow binary words per value q = 1, 2, ...
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
}

TOLERANCE = 1e-9  # the tolerance verify_metric uses by default
ORACLE_BOUND = 3


def check_rows(rows, n_max: int) -> list[str]:
    problems = []
    if [r.n for r in rows] != list(range(n_max + 1)):
        return [f"rows cover n = {[r.n for r in rows]}, want 0..{n_max}"]
    for r in rows:
        counts = tuple(r.counts)
        if counts != APPENDIX_ROWS[r.n]:
            problems.append(f"row {r.n} is {counts}, the appendix has {APPENDIX_ROWS[r.n]}")
        if r.n == 0:
            continue
        # there are 2^(n-1) slow binary words, so 4^(n-1) ordered pairs
        if sum(counts) != 4 ** (r.n - 1):
            problems.append(f"row {r.n} sums to {sum(counts)}, want {4 ** (r.n - 1)}")
        # C(x|y) = 1 exactly when x = y (2^(n-1) pairs) or x = 0^n (2^(n-1) - 1 more)
        if counts[0] != 2 ** r.n - 1:
            problems.append(f"row {r.n} has {counts[0]} pairs at value 1, want {2 ** r.n - 1}")
    return problems


def _random_slow(rng: random.Random, n: int) -> Word:
    return Word((0,) + tuple(rng.randrange(2) for _ in range(n - 1)), 2)


def check_oracle_sample(provider, n_max: int, seed: int, conditions: int = 3) -> list[str]:
    """Compare sampled values with ``oracle_min_states``.

    For each of a few seeded conditions y (one two-class oracle scan each),
    two cells C(x|y) are checked, plus C(x) and C(x#y) for one x. A value of
    at most 3 must equal the oracle's; a larger value must be one the oracle
    finds no witness for within 3 states.
    """
    rng = random.Random(seed)
    problems = []
    for _ in range(conditions):
        n = rng.randrange(max(1, n_max - 2), n_max + 1)
        y = _random_slow(rng, n)
        xs = [_random_slow(rng, n) for _ in range(2)]
        cells = [(ComplexityQuery(KIND_COND_UNIQUE, x, y), provider.conditional(x, y)) for x in xs]
        x = xs[0]
        cells.append((ComplexityQuery(KIND_UNIQUE, x), provider.unconditional(x)))
        pair = slow_normalize(track(x, y))
        cells.append((ComplexityQuery(KIND_UNIQUE, pair), provider.track_value(x, y)))
        for query, value in cells:
            oracle = oracle_min_states(query, ORACLE_BOUND)
            expected = value if value <= ORACLE_BOUND else None
            if oracle != expected:
                problems.append(
                    f"{query.kind} {query.target} | {query.condition}: value {value}, "
                    f"oracle {oracle}"
                )
    return problems


def distance(kind: MetricKind, a_xy: int, a_yx: int, a_x, a_y, a_track) -> float:
    """The four distances, restated from their definitions (logs base 2,
    0/0 = 0, and the 0 and 1 cases decided on the integers). ``a_x``, ``a_y``
    and ``a_track`` are called only where the formula needs them."""
    if kind is MetricKind.J_NUM:
        return math.log2(a_xy * a_yx)
    if kind is MetricKind.J_NUM_MAX:
        return math.log2(max(a_xy, a_yx))
    if kind is MetricKind.J:
        if a_xy == 1 and a_yx == 1:
            return 0.0
        a_x, a_y, a_track = a_x(), a_y(), a_track()
        if a_track == a_x * a_y:
            return 1.0
        num = math.log2(a_xy * a_yx)
        return num / (math.log2(a_xy * a_yx * a_x * a_y) - math.log2(a_track))
    num = max(a_xy, a_yx)
    if num == 1:
        return 0.0
    den = max(a_x(), a_y())
    if num == den:
        return 1.0
    return math.log2(num) / math.log2(den)


def axiom_violations(kind: MetricKind, n: int, provider) -> dict[str, set]:
    """Identity, symmetry and triangle violations over the slow words of length n,
    as sets of word-string tuples."""
    ground = list(slow_words(n, 2))
    size = len(ground)
    d = np.zeros((size, size))
    for i, x in enumerate(ground):
        for j, y in enumerate(ground):
            d[i, j] = distance(
                kind,
                provider.conditional(x, y),
                provider.conditional(y, x),
                lambda: provider.unconditional(x),
                lambda: provider.unconditional(y),
                lambda: provider.track_value(x, y),
            )
    names = [str(w) for w in ground]
    identity = {(names[i],) for i in range(size) if abs(d[i, i]) > TOLERANCE}
    identity |= {
        (names[i], names[j])
        for i, j in zip(*np.nonzero(np.abs(d) <= TOLERANCE))
        if i != j
    }
    symmetry = {
        (names[i], names[j])
        for i, j in zip(*np.nonzero(np.abs(d - d.T) > TOLERANCE))
        if i < j
    }
    # d[i, k] > d[i, j] + d[j, k], indexed [i, j, k]
    bad = d[:, None, :] > d[:, :, None] + d[None, :, :] + TOLERANCE
    triangle = {(names[i], names[j], names[k]) for i, j, k in zip(*np.nonzero(bad))}
    return {"identity": identity, "symmetry": symmetry, "triangle": triangle}


def reported_violations(report) -> dict[str, set]:
    def words(entry):
        return tuple(str(e) for e in entry if isinstance(e, Word))

    return {
        "identity": {words(e) for e in report.identity_violations},
        "symmetry": {words(e) for e in report.symmetry_violations},
        "triangle": {words(e) for e in report.triangle_violations},
    }


def check_axioms(reports: dict, n: int, provider, known_faults: frozenset) -> list[str]:
    """Recompute each report; only kinds in ``known_faults`` may list violations."""
    problems = []
    for kind, report in reports.items():
        want = axiom_violations(kind, n, provider)
        got = reported_violations(report)
        for axiom in ("identity", "symmetry", "triangle"):
            if got[axiom] != want[axiom]:
                problems.append(
                    f"{kind.value}: {len(got[axiom])} {axiom} violations reported, "
                    f"{len(want[axiom])} recomputed"
                )
        if not report.ok and kind not in known_faults:
            problems.append(f"{kind.value}: {report.violation_count} axiom violations")
    return problems


def check_search(results: dict, at_most) -> list[str]:
    """``results`` maps (word index, kind) to (query, result); ``at_most(i,
    kind, n, bound)`` tells whether word i's length-n prefix has a ``kind``
    witness on at most ``bound`` states."""
    problems = []
    for (i, kind), (query, result) in results.items():
        cert = result.certificate
        ok, why = verify_certificate(cert)
        if not ok:
            problems.append(f"word {i} {kind}: certificate fails: {why}")
        if cert.claimed_states != result.value:
            problems.append(f"word {i} {kind}: value {result.value}, certificate {cert.claimed_states}")
        if (cert.kind, cert.target.symbols, cert.condition and cert.condition.symbols) != (
            query.kind, query.target.symbols, query.condition and query.condition.symbols
        ):
            problems.append(f"word {i} {kind}: certificate is for another query")
    for i in sorted({i for i, _ in results}):
        def v(kind):
            return results[(i, kind)][1].value

        def n(kind):
            return len(results[(i, kind)][0].target)

        exact, total, cond = v(KIND_EXACT), v(KIND_DET_TOTAL), v(KIND_COND_UNIQUE)
        relations = [
            ("unique <= n//2 + 1", v(KIND_UNIQUE) <= n(KIND_UNIQUE) // 2 + 1),
            ("exact <= unique", not at_most(i, KIND_UNIQUE, n(KIND_EXACT), exact - 1)),
            ("exact <= det-partial", not at_most(i, KIND_DET_PARTIAL, n(KIND_EXACT), exact - 1)),
            ("det-partial <= det-total", at_most(i, KIND_DET_PARTIAL, n(KIND_DET_TOTAL), total)),
            ("det-total <= det-partial + 1",
             not at_most(i, KIND_DET_PARTIAL, n(KIND_DET_TOTAL), total - 2)),
            ("conditional-exact <= conditional-unique", v(KIND_COND_EXACT) <= cond),
            ("conditional-unique <= unique",
             not at_most(i, KIND_UNIQUE, n(KIND_COND_UNIQUE), cond - 1)),
        ]
        problems += [f"word {i}: {name} fails" for name, holds in relations if not holds]
    return problems
