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

Concretely, a structure is one digraph per condition symbol. For each
structure and accept state the filtered walk counts are computed with a
saturating DP (vectorized with NumPy across all structures at once; NumPy
is imported on first use, not with the package); the surviving structures
are summarized by the partition of word positions that any witnessed target
must respect.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .complexity import ComplexityQuery, canonical_query
from .kinds import KINDS
from .words import Word, one_class_word

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


def _positions_partition(cells_by_position: list[tuple], n: int) -> tuple[int, ...]:
    """Union positions that share a cell; return first-occurrence class ids."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_of: dict[tuple, int] = {}
    for t in range(n):
        for cell in cells_by_position[t]:
            if cell in first_of:
                a, b = find(first_of[cell]), find(t)
                if a != b:
                    parent[b] = a
            else:
                first_of[cell] = t
    ids: dict[int, int] = {}
    out = []
    for t in range(n):
        root = find(t)
        out.append(ids.setdefault(root, len(ids)))
    return tuple(out)


@lru_cache(maxsize=256)
def _scan_partitions(
    y_symbols: tuple[int, ...], y_alpha: int, q: int, variant: str
) -> frozenset[tuple[int, ...]]:
    """All position partitions achievable by a q-state witness structure.

    ``variant`` is "unique" (exactly one filtered accepting walk) or "exact"
    (all filtered accepting walks must spell one word). A target x is
    witnessed at q states iff it is constant on the classes of some returned
    partition.
    """
    n = len(y_symbols)
    if n == 0:
        return frozenset({()})
    if y_alpha == 1:
        return _scan_one_class(y_symbols, q, variant)
    if y_alpha == 2:
        return _scan_two_classes(y_symbols, q, variant)
    raise ValueError("oracle supports condition alphabets of size at most 2")


def _collect(keys: np.ndarray, mask: np.ndarray, y_symbols, q) -> set:
    """Decode incidence-bit keys of the masked structures into partitions."""
    import numpy as np

    n = len(y_symbols)
    chosen = keys[mask]
    if chosen.size == 0:
        return set()
    rows = np.unique(chosen.reshape(-1, keys.shape[-1]), axis=0)
    partitions = set()
    for row in rows:
        cells_by_position: list[tuple] = []
        for t in range(n):
            cells = []
            for u in range(q):
                for v in range(q):
                    idx = t * q * q + u * q + v
                    word_i, bit = divmod(idx, 60)
                    if int(row[word_i]) >> bit & 1:
                        cells.append((u, v, y_symbols[t]))
            cells_by_position.append(tuple(cells))
        partitions.add(_positions_partition(cells_by_position, n))
    return partitions


def _incidence_keys(fwd, bwd, mats_step, n: int, q: int, f: int, words: int):
    """Pack on-an-accepting-walk bits (t,u,v) into per-structure integer keys."""
    import numpy as np

    shape = fwd[0].shape[:-1]
    keys = np.zeros(shape + (words,), dtype=np.uint64)
    for t in range(n):
        m = mats_step(t)
        for u in range(q):
            fu = fwd[t][..., u] > 0
            for v in range(q):
                bit = fu & (m[..., u, v] > 0) & (bwd[t + 1][..., v, f] > 0)
                idx = t * q * q + u * q + v
                word_i, off = divmod(idx, 60)
                keys[..., word_i] |= bit.astype(np.uint64) << np.uint64(off)
    return keys


def _scan_one_class(y_symbols, q, variant):
    import numpy as np

    n = len(y_symbols)
    mats = _digraph_matrices(q)
    fwd = [np.zeros((mats.shape[0], q), dtype=np.uint8)]
    fwd[0][:, 0] = 1
    for _t in range(n):
        step = np.einsum("auv,au->av", mats, fwd[-1])
        fwd.append(np.minimum(step, 2).astype(np.uint8))
    bwd = [None] * (n + 1)
    bwd[n] = np.broadcast_to(np.eye(q, dtype=np.uint8), (mats.shape[0], q, q)).copy()
    for t in range(n - 1, -1, -1):
        step = np.einsum("auv,avf->auf", mats, bwd[t + 1])
        bwd[t] = np.minimum(step, 2).astype(np.uint8)

    words = (n * q * q + 59) // 60
    partitions = set()
    for f in range(q):
        if variant == "unique":
            mask = fwd[n][:, f] == 1
        else:
            mask = fwd[n][:, f] >= 1
        keys = _incidence_keys(fwd, bwd, lambda t: mats, n, q, f, words)
        partitions |= _collect(keys, mask, y_symbols, q)
    return frozenset(partitions)


def _scan_two_classes(y_symbols, q, variant):
    import numpy as np

    n = len(y_symbols)
    mats = _digraph_matrices(q)
    nd = mats.shape[0]
    m_a = mats[:, None, :, :]  # digraph for condition symbol 0, broadcast over b
    m_b = mats[None, :, :, :]  # digraph for condition symbol 1, broadcast over a

    def step_mat(t):
        return m_a if y_symbols[t] == 0 else m_b

    fwd = [np.zeros((nd, nd, q), dtype=np.uint8)]
    fwd[0][:, :, 0] = 1
    for t in range(n):
        if y_symbols[t] == 0:
            step = np.einsum("auv,abu->abv", mats, fwd[-1])
        else:
            step = np.einsum("buv,abu->abv", mats, fwd[-1])
        fwd.append(np.minimum(step, 2).astype(np.uint8))
    bwd = [None] * (n + 1)
    eye = np.eye(q, dtype=np.uint8)
    bwd[n] = np.broadcast_to(eye, (nd, nd, q, q)).copy()
    for t in range(n - 1, -1, -1):
        if y_symbols[t] == 0:
            step = np.einsum("auv,abvf->abuf", mats, bwd[t + 1])
        else:
            step = np.einsum("buv,abvf->abuf", mats, bwd[t + 1])
        bwd[t] = np.minimum(step, 2).astype(np.uint8)

    words = (n * q * q + 59) // 60
    partitions = set()
    for f in range(q):
        if variant == "unique":
            mask = fwd[n][:, :, f] == 1
        else:
            mask = fwd[n][:, :, f] >= 1
        keys = _incidence_keys(fwd, bwd, step_mat, n, q, f, words)
        partitions |= _collect(keys, mask, y_symbols, q)
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
    if y.alphabet_size > 2 and len(set(y.symbols)) > 2:
        raise ValueError("oracle supports condition alphabets of size at most 2")
    variant = "unique" if kind.counts == "walks" else "exact"

    if n == 0:
        return 1

    # after slow normalization the distinct condition symbols are 0..max
    effective_alpha = max(y.symbols) + 1
    for q in range(1, max_states + 1):
        partitions = _scan_partitions(y.symbols, effective_alpha, q, variant)
        if any(_compatible(p, x) for p in partitions):
            return q
    return None
