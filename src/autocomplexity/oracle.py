"""Full-enumeration oracle for small state counts.

This is the package's second, independent route to the complexity values: it
never restricts attention to walk-generated automata. Instead it enumerates
*every* automaton structure on q <= 3 states (start fixed at 0) and decides
witness-hood straight from the acceptance definitions.

Three label reductions keep the enumeration finite without losing witnesses;
each is justified by the definitions alone:

* accept sets: a witness stays a witness when its accept set is shrunk to the
  single state its accepted walk ends in, so singleton accept sets suffice;
* parallel labels: two labels in the same condition class on one edge either
  sit on an accepting walk (then swapping them yields a second walk or a
  second word, contradicting witness-hood) or can be dropped without touching
  the accepted walk, so one label per (edge, condition class) suffices;
* label values: which symbol sits on an edge only matters through equality
  between positions, so a structure is scanned once and the set of achievable
  target words is read off as a partition of positions.

Concretely, a structure is one digraph per condition letter, and the
structures on q states form one grid with an axis of digraphs per letter.
Forward and backward walk counts, saturated at 2, are broadcast products over
the whole grid (NumPy, imported on first use, not with the package). For each
accept state, a structure with one accepting walk (unique) or at least one
(exact) is summarized by its on-walk cells: the (position, edge) pairs its
accepting walks use. Positions that share an edge under the same condition
letter must carry one target letter. That relation is one boolean product
over the distinct on-walk rows, and boolean squarings close it
transitively; each position's least class member names its class, which
gives the partition of positions any witnessed target must respect.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .complexity import ComplexityQuery, canonical_query
from .kinds import KINDS
from .words import Word, one_class_word, slow_symbols

if TYPE_CHECKING:
    import numpy as np

ORACLE_MAX_STATES = 3
ORACLE_MAX_LENGTH = 8


def _digraph_matrices(q: int) -> np.ndarray:
    """All 2^(q*q) digraphs on q vertices as a (count, q, q) 0/1 array."""
    import numpy as np

    count = 1 << (q * q)
    ids = np.arange(count, dtype=np.uint64)
    mats = np.zeros((count, q, q), dtype=np.uint8)
    for u in range(q):
        for v in range(q):
            mats[:, u, v] = (ids >> np.uint64(u * q + v)) & np.uint64(1)
    return mats


@lru_cache(maxsize=256)
def _scan_partitions(
    y_symbols: tuple[int, ...], letters: int, q: int, variant: str
) -> frozenset[tuple[int, ...]]:
    """All position partitions achievable by a q-state witness structure.

    ``y_symbols`` is a non-empty word over the condition letters
    0..letters-1 that uses each of them. ``variant`` is "unique" (exactly
    one filtered accepting walk) or "exact" (all filtered accepting walks
    must spell one word). A target x is witnessed at q states iff it is
    constant on the classes of some returned partition.

    The structures form a grid with one axis of digraphs per condition
    letter: letter c's digraph sits on axis c, so every product below
    broadcasts over all structures at once. Walk counts are saturated at 2
    (an entry before saturation is at most 2q, within uint8).
    """
    import numpy as np

    n = len(y_symbols)
    mats = _digraph_matrices(q)
    axes = [(1,) * c + (len(mats),) + (1,) * (letters - 1 - c) for c in range(letters)]
    steps = [mats.reshape(axes[c] + (q, q)) for c in y_symbols]
    fwd = [np.eye(q, dtype=np.uint8)[:1]]  # a row: the walks from start 0
    for m in steps:
        fwd.append(np.minimum(fwd[-1] @ m, 2))
    bwd = [np.eye(q, dtype=np.uint8)]
    for m in reversed(steps):
        bwd.insert(0, np.minimum(m @ bwd[0], 2))
    grid = fwd[n].shape[:-2]
    same = np.equal.outer(y_symbols, y_symbols)

    partitions = set()
    for f in range(q):
        counts = fwd[n][..., 0, f]
        chosen = np.nonzero(counts == 1 if variant == "unique" else counts >= 1)

        def pick(a: np.ndarray) -> np.ndarray:
            return np.broadcast_to(a, grid + a.shape[-2:])[chosen] > 0

        # cells (t, u, v) on an accepting walk: reached, an edge, and on to f
        cells = np.empty((len(chosen[0]), n, q, q), dtype=bool)
        for t in range(n):
            reached = pick(fwd[t])[:, 0, :, None] & pick(steps[t])
            np.logical_and(reached, pick(bwd[t + 1])[:, None, :, f], out=cells[:, t])
        rows = np.packbits(cells.reshape(len(cells), n * q * q), axis=1)
        width = rows.shape[1]  # a row as one opaque item: np.unique sorts these far faster
        rows = np.unique(rows.view(f"V{width}")).view(np.uint8).reshape(-1, width)
        on = np.unpackbits(rows, axis=1, count=n * q * q).reshape(-1, n, q * q).view(bool)
        # positions t, s join when their walks share an edge under one condition letter;
        # a path through all n positions has at most n - 1 steps, and squaring k times
        # closes paths of up to 2^k steps, so n.bit_length() squarings close the relation
        join = (on @ on.swapaxes(1, 2)) & same
        for _ in range(n.bit_length()):
            join = join @ join
        least = join.argmax(axis=2).astype(np.uint8)  # each position's least class member
        for row in np.unique(least.view(f"V{n}")).view(np.uint8).reshape(-1, n):
            partitions.add(slow_symbols(row.tolist()))
    return frozenset(partitions)


def _compatible(partition: tuple[int, ...], x: Word) -> bool:
    value_of_class: dict[int, int] = {}
    for t, cls in enumerate(partition):
        seen = value_of_class.setdefault(cls, x[t])
        if seen != x[t]:
            return False
    return True


def oracle_min_states(query: ComplexityQuery, max_states: int = ORACLE_MAX_STATES) -> int | None:
    """Least state count <= max_states admitting a witness, by full enumeration.

    Returns None when no witness exists within the bound. Deterministic kinds
    are not covered; lengths above 8 and bounds above 3 are rejected.
    """
    kind = KINDS[query.kind]
    if kind.deterministic:
        raise ValueError(f"the oracle does not handle kind {query.kind!r}")
    if max_states > ORACLE_MAX_STATES or max_states < 1:
        raise ValueError(f"oracle state bound must be within 1..{ORACLE_MAX_STATES}")
    if len(query.target) > ORACLE_MAX_LENGTH:
        raise ValueError(f"oracle target length is limited to {ORACLE_MAX_LENGTH}")

    query = canonical_query(query)
    x = query.target
    n = len(x)
    y = one_class_word(n) if query.condition is None else query.condition
    if y.alphabet_size > 2:
        raise ValueError("oracle supports condition alphabets of size at most 2")
    variant = "unique" if kind.counts == "walks" else "exact"

    if n == 0:
        return 1

    for q in range(1, max_states + 1):
        partitions = _scan_partitions(y.symbols, y.alphabet_size, q, variant)
        if any(_compatible(p, x) for p in partitions):
            return q
    return None
