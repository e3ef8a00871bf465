"""Similarity metrics built on conditional automatic complexity.

Four distances over words of a fixed length, compared on the slow
representatives (binary: the words starting with 0):

* ``jnum``     log2(C(x|y) * C(y|x))
* ``jnum-max`` max(log2 C(x|y), log2 C(y|x))
* ``j``        jnum / (log2(C(x|y) C(y|x) C(x) C(y)) - log2 C(x#y))
* ``jmax``     log2 max(C(x|y), C(y|x)) / log2 max(C(x), C(y))

where C is the unique-acceptance complexity and x#y the pair word. The
quotients use the convention 0/0 = 0, and the boundary decisions (is the
distance exactly 0, exactly 1?) are made on the integer complexities, never by
comparing floats.

NumPy is imported inside the functions that build and check the distance
matrices, so importing the package, and every command but ``verify-metric``,
does not load it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .cache import ResultCache
from .complexity import (
    DEFAULT_MAX_NODES,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_UNIQUE,
    Budget,
    BudgetExceeded,
    _least_witnesses,
    _Nodes,
    class_key,
    compute,
    key_query,
    max_complexity,
)
from .words import Word, fractional_power, slow_words

if TYPE_CHECKING:
    import numpy as np


class MetricKind(Enum):
    J_NUM = "jnum"
    J_NUM_MAX = "jnum-max"
    J = "j"
    J_MAX = "jmax"

    @classmethod
    def parse(cls, name: str) -> MetricKind:
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown metric kind {name!r}")


class ComplexityProvider:
    """Memoized complexity values, shared across relabeling and reversal classes.

    The memo is keyed on the memo keys of the words as given, so a repeated
    call costs one dictionary lookup. On a miss the key is mapped to its
    class key (``complexity.class_key``): the slow forms of the words, and
    for the unique and conditional-unique kinds those of the reversed words
    when they sort first. ``det-partial`` keeps the forward form: reversal
    does not keep determinism. The value is memoized under both keys, and
    ``compute`` searches and certifies the class key's query
    (``complexity.key_query``).

    Without a cache argument the provider keeps a memory-only
    ``ResultCache``, so that the records of ``prefetch``'s batches and the
    proven walk shapes persist across calls. The cache's ``shapes`` hold
    proofs, not values: the walk shapes that a full certificate check of a
    hit passed, each with its step-partition index, so that a hit of the
    unique kinds on a proven shape is served on lookups and one comparison
    of its target with the index, with no NFA built. They live and end with
    the cache object. Setting
    ``cache`` to None later is allowed: the values then come from searches.

    ``prefetch`` memoizes many unique and conditional-unique values with one
    batch search per condition word, which ``max_nodes`` bounds; a single
    miss goes to ``compute``. ``nodes`` is the total of the search nodes
    that the batches and the ``compute`` calls have spent, overruns
    included.
    """

    def __init__(self, cache: ResultCache | None = None, max_nodes: int = DEFAULT_MAX_NODES):
        self.cache = cache if cache is not None else ResultCache()
        self.max_nodes = max_nodes
        self.nodes = 0
        self._memo: dict[tuple, int] = {}

    def _compute(self, key: tuple, cache: ResultCache) -> int:
        """The value of ``key`` by ``compute`` under ``max_nodes``, its nodes,
        those of an overrun too, added to ``nodes``."""
        try:
            result = compute(key_query(key), Budget(max_nodes=self.max_nodes), cache)
        except BudgetExceeded as e:
            self.nodes += e.explored
            raise
        self.nodes += result.explored
        return result.value

    def _miss(self, key: tuple) -> int:
        """Value of the memo key ``key``, memoized under it and under its
        class key; the class query is built only when the memo lacks the
        class."""
        rep_key = class_key(key)
        value = self._memo.get(rep_key)
        if value is None:
            value = self._memo[rep_key] = self._compute(rep_key, self.cache)
        self._memo[key] = value
        return value

    def prefetch(self, keys) -> None:
        """Memoize the value of every key of ``keys``, the memo keys the
        public methods build: ``(KIND_UNIQUE, x.symbols, None)``,
        ``(KIND_COND_UNIQUE, x.symbols, y.symbols)`` and
        ``("track", x.symbols, y.symbols)``.

        A class the memo or the cache holds (``class_key``) is served at
        once. The others are grouped by condition word, the unique kind's
        being ``0^n`` since ``A(x) = A(x | 0^n)``, and one
        ``_least_witnesses`` per group finds their records. These go to the
        cache in one ``put_many``, in the order ``keys`` first miss them, as
        one read per key writes them, and every value is then served by
        ``compute`` as a checked hit: re-verified, or on a walk shape that
        a full verification on the same cache proved. A node-budget overrun
        raises ``BudgetExceeded`` before any record is written. Without a
        cache a throwaway memory cache is used.
        """
        memo = self._memo
        cache = self.cache if self.cache is not None else ResultCache()
        # A missing class is kept as its key, and each key that reads it in
        # `waiting`, its class key in `classes`: a query per read raised the
        # peak resident set by 8 MB at n = 8, and a (key, class key) pair per
        # read, with the pairs of `_pair_reads` in a list, by 1.5 MB
        misses: dict[tuple, tuple] = {}  # class key -> itself, in first-miss order
        waiting: list[tuple] = []
        classes: list[tuple] = []
        for key in keys:
            if key in memo:
                continue
            if key[0] not in ("track", KIND_UNIQUE, KIND_COND_UNIQUE):
                raise ValueError(f"no batch serves the kind {key[0]!r}")
            rep_key = class_key(key)
            if rep_key in misses:
                rep_key = misses[rep_key]
            else:
                value = memo.get(rep_key)
                # compute answers the empty word with no search and no record
                if value is None and (not rep_key[1] or cache.get(rep_key) is not None):
                    value = memo[rep_key] = self._compute(rep_key, cache)
                if value is not None:
                    memo[key] = value
                    continue
                misses[rep_key] = rep_key
            waiting.append(key)
            classes.append(rep_key)

        groups: dict[tuple, list[tuple]] = {}  # condition symbols -> class keys
        for rep_key in misses:
            _kind, x, y = rep_key
            groups.setdefault((0,) * len(x) if y is None else y, []).append(rep_key)
        found = {}
        nodes = _Nodes(self.max_nodes)
        try:
            for y, rep_keys in groups.items():
                found.update(zip(rep_keys, _least_witnesses(y, [k[1] for k in rep_keys], nodes)))
        finally:
            self.nodes += nodes.count
        cache.put_many((k, *found.pop(k)) for k in misses)
        for rep_key in misses:
            memo[rep_key] = self._compute(rep_key, cache)
        for key, rep_key in zip(waiting, classes):
            memo[key] = memo[rep_key]

    def conditional_row(self, ground: list[Word]) -> None:
        """Memoize ``conditional(x, y)`` for every pair of ``ground``, words
        of one length: ``prefetch`` of their keys in ``(y, x)`` order."""
        self.prefetch((KIND_COND_UNIQUE, x.symbols, y.symbols) for y in ground for x in ground)

    def unconditional(self, x: Word) -> int:
        key = (KIND_UNIQUE, x.symbols, None)
        return self._memo.get(key) or self._miss(key)

    def conditional(self, x: Word, y: Word) -> int:
        key = (KIND_COND_UNIQUE, x.symbols, y.symbols)
        return self._memo.get(key) or self._miss(key)

    def track_value(self, x: Word, y: Word) -> int:
        key = ("track", x.symbols, y.symbols)
        return self._memo.get(key) or self._miss(key)

    def det_unconditional(self, x: Word) -> int:
        key = (KIND_DET_PARTIAL, x.symbols, None)
        return self._memo.get(key) or self._miss(key)


def is_unit_j_distance(x: Word, y: Word, provider: ComplexityProvider) -> bool:
    """Integer-side test for J(x,y) = 1: the pair word is as complex as the
    product of the parts, and the numerator is nonzero."""
    if provider.conditional(x, y) == 1 and provider.conditional(y, x) == 1:
        return False
    return provider.track_value(x, y) == provider.unconditional(x) * provider.unconditional(y)


def metric_value(
    kind: MetricKind,
    x: Word,
    y: Word,
    provider: ComplexityProvider,
    det_baseline: bool = False,
) -> float:
    """Evaluate one of the four distances; logs are base 2.

    ``det_baseline`` swaps the unconditional values inside ``jmax`` for their
    deterministic (partial-DFA) counterparts, for comparison runs.
    """
    if len(x) != len(y):
        raise ValueError("metric arguments must have equal length")
    a_xy = provider.conditional(x, y)
    a_yx = provider.conditional(y, x)
    if kind is MetricKind.J_NUM:
        return math.log2(a_xy * a_yx)
    if kind is MetricKind.J_NUM_MAX:
        return math.log2(max(a_xy, a_yx))
    if kind is MetricKind.J:
        if a_xy == 1 and a_yx == 1:
            return 0.0
        # the three words share the batch of 0^n: at n = 16 it took 1.2-1.3 s
        # against 1.4-3.2 s for three searches
        provider.prefetch([
            (KIND_UNIQUE, x.symbols, None), (KIND_UNIQUE, y.symbols, None), ("track", x.symbols, y.symbols)
        ])
        a_x = provider.unconditional(x)
        a_y = provider.unconditional(y)
        a_track = provider.track_value(x, y)
        if a_track == a_x * a_y:
            return 1.0
        num = math.log2(a_xy * a_yx)
        return num / (math.log2(a_xy * a_yx * a_x * a_y) - math.log2(a_track))
    if kind is MetricKind.J_MAX:
        num = max(a_xy, a_yx)
        if num == 1:
            return 0.0
        if det_baseline:
            den = max(provider.det_unconditional(x), provider.det_unconditional(y))
        else:
            den = max(provider.unconditional(x), provider.unconditional(y))
        if num == den:
            return 1.0
        return math.log2(num) / math.log2(den)
    raise ValueError(f"unknown metric kind {kind!r}")


@dataclass(frozen=True)
class MetricReport:
    n: int
    kind: MetricKind
    ground_set_size: int
    identity_violations: tuple
    symmetry_violations: tuple
    triangle_violations: tuple

    @property
    def ok(self) -> bool:
        return not (
            self.identity_violations
            or self.symmetry_violations
            or self.triangle_violations
        )

    @property
    def violation_count(self) -> int:
        return (
            len(self.identity_violations)
            + len(self.symmetry_violations)
            + len(self.triangle_violations)
        )


def _triangle_violations(d, tolerance: float) -> list[tuple]:
    """``(i, j, k, d[i][k], d[i][j] + d[j][k])`` for every ordered triple
    with ``d[i][k] > d[i][j] + d[j][k] + tolerance``, in ``(i, j, k)`` order,
    for a square matrix ``d`` of floats (a NumPy array or nested lists).

    One ``size x size`` comparison per ``i``: entry ``(j, k)`` is that test,
    with the sums taken left to right in float64 as Python takes them, so
    exactly the triples of the triple loop are flagged; ``np.nonzero`` walks
    them in C order. The reported numbers are Python floats, never NumPy
    scalars, which print differently. A ``size**3`` array is never built: at
    n = 8 it would take 16.8 MB.
    """
    import numpy as np

    m = np.asarray(d, dtype=np.float64)
    found = []
    for i, row in enumerate(m):
        bad = row[None, :] > (row[:, None] + m) + tolerance
        for j, k in zip(*(a.tolist() for a in np.nonzero(bad))):
            found.append((i, j, k, float(row[k]), float(row[j]) + float(m[j, k])))
    return found


def _log2(values: np.ndarray) -> np.ndarray:
    """``math.log2`` of every entry of an integer array, read from a table of
    ``math.log2`` over the distinct entries (NumPy's ``log2`` may differ from
    it in the last bit). An entry below 1 raises as ``math.log2`` does."""
    import numpy as np

    distinct = sorted(set(values.ravel().tolist()))
    table = np.array([math.log2(v) for v in distinct], dtype=np.float64)
    return table[np.searchsorted(distinct, values)]


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` entry by entry; a zero denominator raises as float
    division does, never giving ``inf`` or ``nan``."""
    if not den.all():
        raise ZeroDivisionError("float division by zero")
    return num / den


def _pair_reads(ground: list[Word], needed: np.ndarray, provider, with_track: bool):
    """What ``metric_value`` reads past the conditional values, for the pairs
    ``(x, y) = (ground[i], ground[j])`` with ``needed[i, j]``. Their keys go
    to ``provider.prefetch`` in its order: pair by pair in ``(i, j)`` order,
    ``unconditional(x)``, then ``unconditional(y)``, then, ``with_track``,
    ``track_value(x, y)``. So classes first miss, and their records reach
    the cache, as under one ``metric_value`` per pair. The values are then
    read through the public methods.

    Returns the unconditional values as an array over ``ground`` (0 for a
    word no pair names) and the pair-word values as a list, in pair order.
    """
    import numpy as np

    # generated twice, never held (see ComplexityProvider.prefetch)
    def pairs():
        for i, row in enumerate(needed):
            for j in np.flatnonzero(row).tolist():
                yield i, j

    named: dict[int, None] = {}  # the words the pairs name, in first-read order

    def keys():
        for i, j in pairs():
            for k in (i, j):
                # each word once: asked again, its value would be a memo hit
                if k not in named:
                    named[k] = None
                    yield KIND_UNIQUE, ground[k].symbols, None
            if with_track:
                yield "track", ground[i].symbols, ground[j].symbols

    provider.prefetch(keys())
    u = np.zeros(len(ground), dtype=np.int64)
    for k in named:
        u[k] = provider.unconditional(ground[k])
    t = [provider.track_value(ground[i], ground[j]) for i, j in pairs()] if with_track else []
    return u, t


def _distance_matrix(kind: MetricKind, ground: list[Word], provider) -> np.ndarray:
    """``metric_value(kind, x, y, provider)`` for every pair of ``ground``,
    as a float64 matrix, from integer arrays of the provider's values.

    The values are read through the provider's public methods, so a
    subclass that overrides one is seen, and only where ``metric_value``
    reads them: ``C[i, j] = conditional(x_i, x_j)`` for every pair, and the
    unconditional and pair-word values (``_pair_reads``) for the pairs off
    the 0 case of ``j`` and ``jmax``. The 0 and 1 cases are decided on the
    integers; each log comes from ``math.log2`` and each quotient is one
    float64 operation in the scalar order, so every entry equals
    ``metric_value``'s bit for bit.
    """
    import numpy as np

    size = len(ground)
    c = np.empty((size, size), dtype=np.int64)
    for i, x in enumerate(ground):
        c[i] = [provider.conditional(x, y) for y in ground]
    ct = c.T
    if kind is MetricKind.J_NUM:
        return _log2(c * ct)
    if kind is MetricKind.J_NUM_MAX:
        return _log2(np.maximum(c, ct))
    if kind is MetricKind.J:
        needed = (c != 1) | (ct != 1)
        u, t = _pair_reads(ground, needed, provider, True)
        num = (c * ct)[needed]
        product = np.multiply.outer(u, u)[needed]
        t = np.array(t, dtype=np.int64)
        rest = t != product
        num, product, t = num[rest], product[rest], t[rest]
        values = _quotient(_log2(num), _log2(num * product) - _log2(t))
    elif kind is MetricKind.J_MAX:
        top = np.maximum(c, ct)
        needed = top != 1
        u, _ = _pair_reads(ground, needed, provider, False)
        num = top[needed]
        den = np.maximum.outer(u, u)[needed]
        rest = num != den
        values = _quotient(_log2(num[rest]), _log2(den[rest]))
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    # off the 0 case: 1 where the integers say so, the quotient elsewhere
    off_zero = np.ones(rest.shape)
    off_zero[rest] = values
    d = np.zeros((size, size))
    d[needed] = off_zero
    return d


def verify_metric(
    n: int,
    kind: MetricKind,
    provider: ComplexityProvider | None = None,
    tolerance: float = 1e-9,
) -> MetricReport:
    """Exhaustively check the metric axioms on the slow binary words of length n.

    Checks d(x,x)=0, d(x,y)=0 => x=y, symmetry, and the triangle inequality
    over every ordered triple, comparing reals within the tolerance. The
    distances are those of ``metric_value``, entry for entry
    (``_distance_matrix``).

    Identity holds for every n and alphabet: ``A(x|y) = 1`` exactly when x
    is a letter-to-letter image of y. A one-state witness reads y along one
    loop per condition letter, which fixes the target letter of each, and
    those loops witness every such image. So ``A(x|y) = A(y|x) = 1`` (a
    ``jnum`` or ``jnum-max`` of 0) holds only when x and y are relabelings
    of each other, which share one slow word.
    """
    import numpy as np

    provider = provider or ComplexityProvider()
    ground = list(slow_words(n, 2))
    provider.conditional_row(ground)
    size = len(ground)
    d = _distance_matrix(kind, ground, provider)

    identity = []
    flagged = np.abs(d) <= tolerance
    np.fill_diagonal(flagged, np.abs(d.diagonal()) > tolerance)
    for i in np.flatnonzero(flagged.any(axis=1)).tolist():
        x = ground[i]
        if flagged[i, i]:
            identity.append((x, float(d[i, i])))
        identity.extend(
            (x, ground[j], float(d[i, j])) for j in np.flatnonzero(flagged[i]).tolist() if j != i
        )
    symmetry = [
        (ground[i], ground[j], float(d[i, j]), float(d[j, i]))
        for i, j in zip(*(a.tolist() for a in np.nonzero(np.abs(d - d.T) > tolerance)))
        if i < j
    ]
    triangle = [
        (ground[i], ground[j], ground[k], d_ik, d_ijk)
        for i, j, k, d_ik, d_ijk in _triangle_violations(d, tolerance)
    ]
    return MetricReport(
        n=n,
        kind=kind,
        ground_set_size=size,
        identity_violations=tuple(identity),
        symmetry_violations=tuple(symmetry),
        triangle_violations=tuple(triangle),
    )


@dataclass(frozen=True)
class DistributionRow:
    """Counts of pairs (x, y) per conditional complexity value q, q = 1, 2, ..."""

    n: int
    counts: tuple[int, ...]
    sampled: int | None = None  # number of samples, None for exhaustive rows

    @property
    def mode(self) -> int:
        best = max(range(len(self.counts)), key=lambda i: self.counts[i])
        return best + 1

    @property
    def total(self) -> int:
        return sum(self.counts)


def _tally(values) -> tuple[int, ...]:
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts)
    return tuple(counts.get(q, 0) for q in range(1, top + 1))


def _distribution_row(n: int, provider: ComplexityProvider) -> DistributionRow:
    ground = list(slow_words(n, 2))
    provider.conditional_row(ground)
    values = [
        provider.conditional(x, y) for y in ground for x in ground
    ]
    return DistributionRow(n=n, counts=_tally(values))


def distribution_table(
    n_max: int, provider: ComplexityProvider | None = None
) -> list[DistributionRow]:
    """Exhaustive conditional-complexity distribution rows for n = 0..n_max.

    Each row's values come from one batch search per condition word
    (``ComplexityProvider.conditional_row``).
    """
    if n_max > 10:
        raise ValueError("exhaustive rows stop at length 10; sample longer lengths")
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, not {n_max}")
    provider = provider or ComplexityProvider()
    return [_distribution_row(n, provider) for n in range(n_max + 1)]


def sample_distribution(
    n: int, samples: int, seed: int, provider: ComplexityProvider | None = None
) -> DistributionRow:
    """Empirical conditional-complexity distribution over ``samples`` random
    slow pairs of length ``n``; both must be at least 1."""
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    provider = provider or ComplexityProvider()
    rng = random.Random(seed)

    def draw() -> Word:
        return Word((0,) + tuple(rng.randrange(2) for _ in range(n - 1)), 2)

    values = [provider.conditional(draw(), draw()) for _ in range(samples)]
    return DistributionRow(n=n, counts=_tally(values), sampled=samples)


def format_table(rows: list[DistributionRow]) -> str:
    """Aligned text layout with the modal count of each row in brackets."""
    width = max(len(r.counts) for r in rows)
    header = ["n\\q"] + [str(q) for q in range(1, width + 1)]
    body = [header]
    for r in rows:
        cells = [str(r.n)]
        for i in range(width):
            if i < len(r.counts):
                text = str(r.counts[i])
                if i + 1 == r.mode:
                    text = f"[{text}]"
                cells.append(text)
            else:
                cells.append("")
        body.append(cells)
    widths = [max(len(row[c]) for row in body) for c in range(width + 1)]
    lines = [
        "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in body
    ]
    return "\n".join(lines) + "\n"


def classify_unit_distance(
    n: int,
    provider: ComplexityProvider | None = None,
    method: str = "fast",
) -> set[frozenset[Word]]:
    """All unordered pairs of distinct slow binary words at J distance 1.

    The fast path only examines pairs that could satisfy
    C(x#y) = C(x) * C(y): since the pair word obeys the half-length ceiling,
    both factors must be small, so candidates are the words of complexity at
    most ceiling/2 plus every pair containing the constant word. The
    exhaustive path evaluates every pair and is kept as an audit.
    """
    provider = provider or ComplexityProvider()
    ground = list(slow_words(n, 2))
    if method == "exhaustive":
        provider.conditional_row(ground)
        return _unit_pairs([(x, y) for i, x in enumerate(ground) for y in ground[i + 1 :]], provider)
    if method != "fast":
        raise ValueError("method must be 'fast' or 'exhaustive'")

    zero = Word((0,) * n, 2)
    # the pairs with 0^n come first: they read every other word's value
    pairs = _unit_pairs([(zero, x) for x in ground if x != zero], provider)
    ceiling = max_complexity(n)
    candidates = []
    for x in ground:
        if x == zero:
            continue
        v = provider.unconditional(x)
        if 2 <= v <= ceiling // 2:
            candidates.append((x, v))
    near = [(x, y) for i, (x, vx) in enumerate(candidates) for y, vy in candidates[i + 1 :] if vx * vy <= ceiling]
    return pairs | _unit_pairs(near, provider)


def _unit_pairs(pairs: list[tuple[Word, Word]], provider: ComplexityProvider) -> set[frozenset[Word]]:
    """The pairs of ``pairs`` at J distance 1. The keys that
    ``is_unit_j_distance`` reads go to ``provider.prefetch`` first, one
    step of its reads at a time: ``conditional(x, y)``, then
    ``conditional(y, x)`` where that is 1, then ``track_value(x, y)``,
    ``unconditional(x)`` and ``unconditional(y)`` where the two are not
    both 1."""
    c = provider.conditional
    provider.prefetch((KIND_COND_UNIQUE, x.symbols, y.symbols) for x, y in pairs)
    provider.prefetch((KIND_COND_UNIQUE, y.symbols, x.symbols) for x, y in pairs if c(x, y) == 1)
    provider.prefetch(
        key
        for x, y in pairs
        if c(x, y) != 1 or c(y, x) != 1
        for key in (
            ("track", x.symbols, y.symbols), (KIND_UNIQUE, x.symbols, None), (KIND_UNIQUE, y.symbols, None)
        )
    )
    return {frozenset({x, y}) for x, y in pairs if is_unit_j_distance(x, y, provider)}


def expected_unit_distance_pairs(n: int) -> set[frozenset[Word]]:
    """The classification the searches are compared against for n <= 12:
    every pair containing 0^n and, from length 10 on, the alternating word
    paired with a period-3 word."""
    zero = Word((0,) * n, 2)
    pairs = {
        frozenset({zero, w}) for w in slow_words(n, 2) if w != zero
    }
    if n >= 10:
        alternating = fractional_power(Word.parse("01"), n)
        for base in ("001", "010", "011"):
            pairs.add(frozenset({alternating, fractional_power(Word.parse(base), n)}))
    return pairs
