"""Exhaustive pruned search for the automatic complexity kinds.

The minimum state count for every acceptance discipline handled here is
attained by a witness generated by a single accepting walk: restricting any
witness to the edges of one accepting walk keeps it a witness (it can only
remove competing walks or shrink the language) and uses no more states. The
search therefore enumerates slow state sequences s_0..s_n with s_0 = 0 in
lexicographic order, for an ascending number of allowed states, and checks the
walk-generated NFA.

Two prunes keep the enumeration small, both sound because a partial walk's
competitors extend along the remaining walk edges:

* exact walk/word counting is maintained incrementally; as soon as the count
  of partial walks (or distinct words) reaching the walk's current position
  hits 2, the branch dies;
* two distinct labels sharing a (from, to) pair and a condition class would
  let the final walk swap edges, so such a pair is rejected immediately.

Deterministic-total automata are not walk-generated; they are handled by
completing walk-generated deterministic witnesses into total transition
tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .automata import (
    Nfa,
    WitnessCertificate,
    verify_certificate,
    walk_nfa,
)
from .words import Word, slow_words, track

KIND_UNIQUE = "unique"
KIND_EXACT = "exact"
KIND_DET_TOTAL = "det-total"
KIND_DET_PARTIAL = "det-partial"
KIND_COND_UNIQUE = "conditional-unique"
KIND_COND_EXACT = "conditional-exact"

COMPLEXITY_KINDS = frozenset(
    {
        KIND_UNIQUE,
        KIND_EXACT,
        KIND_DET_TOTAL,
        KIND_DET_PARTIAL,
        KIND_COND_UNIQUE,
        KIND_COND_EXACT,
    }
)

CONDITIONAL_KINDS = frozenset({KIND_COND_UNIQUE, KIND_COND_EXACT})

# kinds whose value is invariant under reversing the word(s); see ``compute``
REVERSIBLE_KINDS = frozenset({KIND_UNIQUE, KIND_EXACT, KIND_COND_UNIQUE, KIND_COND_EXACT})

# short names accepted by the command line
KIND_ALIASES = {
    "anu": KIND_UNIQUE,
    "ane": KIND_EXACT,
    "a": KIND_DET_TOTAL,
    "aminus": KIND_DET_PARTIAL,
}

DEFAULT_MAX_NODES = 10**9


class BudgetExceeded(RuntimeError):
    """Search budget ran out; ``lower_bound`` is proven, the value is unknown."""

    def __init__(self, lower_bound: int, explored: int):
        super().__init__(
            f"search budget exhausted; the value is at least {lower_bound}"
        )
        self.lower_bound = lower_bound
        self.explored = explored


@dataclass(frozen=True)
class ComplexityQuery:
    kind: str
    target: Word
    condition: Word | None = None

    def __post_init__(self) -> None:
        if self.kind not in COMPLEXITY_KINDS:
            raise ValueError(f"unknown complexity kind {self.kind!r}")
        if (self.condition is not None) != (self.kind in CONDITIONAL_KINDS):
            raise ValueError("condition must be present exactly for conditional kinds")
        if self.condition is not None and len(self.condition) != len(self.target):
            raise ValueError("condition and target must have equal length")


@dataclass
class Budget:
    """Limits for one query: allowed witness states and visited search nodes."""

    max_states: int | None = None
    max_nodes: int = DEFAULT_MAX_NODES


@dataclass(frozen=True)
class ComplexityResult:
    value: int
    certificate: WitnessCertificate
    explored: int
    elapsed: float


def _walk_labels(kind: str, target: Word, condition: Word | None) -> Word:
    if kind in CONDITIONAL_KINDS:
        assert condition is not None
        return track(condition, target)
    return target


def _step_classes(kind: str, target: Word, condition: Word | None) -> tuple[tuple[int, ...], int]:
    if kind in CONDITIONAL_KINDS:
        assert condition is not None
        return condition.symbols, condition.alphabet_size
    return (0,) * len(target), 1


class _UniqueWalkSearch:
    """Incremental accepting-walk counting for unique-acceptance kinds."""

    __slots__ = ("q", "labels", "classes", "seq", "v_stack", "edge_use", "pair_label", "adj", "records")

    def __init__(self, labels: tuple[int, ...], classes: tuple[int, ...], class_count: int, q: int):
        self.q = q
        self.labels = labels
        self.classes = classes
        self.seq: list[int] = [0]
        v0 = [0] * q
        v0[0] = 1
        self.v_stack: list[list[int]] = [v0]
        self.edge_use: dict[tuple[int, int, int], int] = {}
        self.pair_label: dict[tuple[int, int, int], int] = {}
        # successors per (condition class, source); one entry per pair because
        # the pair_label prune forbids class-mates on a shared pair
        self.adj: list[list[list[int]]] = [
            [[] for _ in range(q)] for _ in range(class_count)
        ]
        self.records: list = []

    def _step(self, v: list[int], cls: int) -> list[int]:
        nv = [0] * self.q
        adj = self.adj[cls]
        for frm, x in enumerate(v):
            if x:
                for to in adj[frm]:
                    c = nv[to] + x
                    nv[to] = c if c < 2 else 2
        return nv

    def try_push(self, nxt: int) -> bool:
        seq = self.seq
        t = len(seq) - 1
        frm = seq[t]
        label = self.labels[t]
        cls = self.classes[t]
        edge = (frm, label, nxt)
        use = self.edge_use.get(edge)
        if use is not None:
            v = self._step(self.v_stack[t], cls)
            if v[nxt] >= 2:
                return False
            self.edge_use[edge] = use + 1
            seq.append(nxt)
            self.v_stack.append(v)
            self.records.append((edge, None, None))
            return True
        pair_key = (frm, nxt, cls)
        if pair_key in self.pair_label:
            # a second label on this pair within one class doubles the walk
            return False
        self.edge_use[edge] = 1
        self.pair_label[pair_key] = label
        self.adj[cls][frm].append(nxt)
        vs = self.v_stack
        snapshot = vs[1 : t + 1]
        ok = True
        for i in range(1, t + 1):
            vi = self._step(vs[i - 1], self.classes[i - 1])
            vs[i] = vi
            if vi[seq[i]] >= 2:
                ok = False
                break
        if ok:
            v = self._step(vs[t], cls)
            if v[nxt] >= 2:
                ok = False
        if not ok:
            vs[1 : t + 1] = snapshot
            del self.edge_use[edge]
            del self.pair_label[pair_key]
            self.adj[cls][frm].remove(nxt)
            return False
        seq.append(nxt)
        vs.append(v)
        self.records.append((edge, pair_key, snapshot))
        return True

    def pop(self) -> None:
        edge, pair_key, snapshot = self.records.pop()
        self.seq.pop()
        self.v_stack.pop()
        if pair_key is None:
            self.edge_use[edge] -= 1
        else:
            del self.edge_use[edge]
            del self.pair_label[pair_key]
            self.adj[pair_key[2]][pair_key[0]].remove(pair_key[1])
            t = len(self.seq) - 1
            self.v_stack[1 : t + 1] = snapshot

    def leaf_ok(self) -> bool:
        return self.v_stack[-1][self.seq[-1]] == 1


class _ExactWalkSearch:
    """Incremental distinct-word counting for exact-acceptance kinds."""

    __slots__ = (
        "q", "labels", "classes", "seq", "f_stack", "edge_use", "pair_label",
        "label_pairs", "class_labels", "det_map", "records",
    )

    def __init__(
        self,
        labels: tuple[int, ...],
        classes: tuple[int, ...],
        class_count: int,
        q: int,
        deterministic: bool = False,
    ):
        self.q = q
        self.labels = labels
        self.classes = classes
        self.seq: list[int] = [0]
        self.f_stack: list[dict[int, int]] = [{1: 1}]  # mask of {state 0} -> one word
        self.edge_use: dict[tuple[int, int, int], int] = {}
        self.pair_label: dict[tuple[int, int, int], int] = {}
        self.label_pairs: dict[int, set[tuple[int, int]]] = {}
        self.class_labels: list[dict[int, int]] = [dict() for _ in range(class_count)]
        self.det_map: dict[tuple[int, int], int] | None = {} if deterministic else None
        self.records: list = []

    def _step(self, f: dict[int, int], cls: int) -> dict[int, int]:
        nf: dict[int, int] = {}
        for label in self.class_labels[cls]:
            pairs = self.label_pairs[label]
            for mask, cnt in f.items():
                img = 0
                for frm, to in pairs:
                    if mask >> frm & 1:
                        img |= 1 << to
                if img:
                    c = nf.get(img, 0) + cnt
                    nf[img] = c if c < 2 else 2
        return nf

    @staticmethod
    def _covering(f: dict[int, int], state: int) -> int:
        total = 0
        for mask, cnt in f.items():
            if mask >> state & 1:
                total += cnt
                if total >= 2:
                    return 2
        return total

    def try_push(self, nxt: int) -> bool:
        seq = self.seq
        t = len(seq) - 1
        frm = seq[t]
        label = self.labels[t]
        cls = self.classes[t]
        edge = (frm, label, nxt)
        use = self.edge_use.get(edge)
        if use is not None:
            f = self._step(self.f_stack[t], cls)
            if self._covering(f, nxt) >= 2:
                return False
            self.edge_use[edge] = use + 1
            seq.append(nxt)
            self.f_stack.append(f)
            self.records.append((edge, None, None))
            return True
        if self.det_map is not None and self.det_map.get((frm, label), nxt) != nxt:
            return False
        pair_key = (frm, nxt, cls)
        if pair_key in self.pair_label:
            # swapping labels on a shared pair would accept a second word
            return False
        self.edge_use[edge] = 1
        self.pair_label[pair_key] = label
        self.label_pairs.setdefault(label, set()).add((frm, nxt))
        self.class_labels[cls][label] = self.class_labels[cls].get(label, 0) + 1
        if self.det_map is not None:
            self.det_map[(frm, label)] = nxt
        fs = self.f_stack
        snapshot = fs[1 : t + 1]
        ok = True
        for i in range(1, t + 1):
            fi = self._step(fs[i - 1], self.classes[i - 1])
            fs[i] = fi
            if self._covering(fi, seq[i]) >= 2:
                ok = False
                break
        if ok:
            f = self._step(fs[t], cls)
            if self._covering(f, nxt) >= 2:
                ok = False
        if not ok:
            fs[1 : t + 1] = snapshot
            self._remove_edge(edge, pair_key, cls)
            return False
        seq.append(nxt)
        fs.append(f)
        self.records.append((edge, pair_key, snapshot))
        return True

    def _remove_edge(self, edge, pair_key, cls) -> None:
        frm, label, nxt = edge
        del self.edge_use[edge]
        del self.pair_label[pair_key]
        pairset = self.label_pairs[label]
        pairset.discard((frm, nxt))
        if not pairset:
            del self.label_pairs[label]
        refs = self.class_labels[cls]
        refs[label] -= 1
        if not refs[label]:
            del refs[label]
        if self.det_map is not None:
            del self.det_map[(frm, label)]

    def pop(self) -> None:
        edge, pair_key, snapshot = self.records.pop()
        self.seq.pop()
        self.f_stack.pop()
        if pair_key is None:
            self.edge_use[edge] -= 1
        else:
            t = len(self.seq) - 1
            cls = self.classes[t]
            self._remove_edge(edge, pair_key, cls)
            self.f_stack[1 : t + 1] = snapshot

    def leaf_ok(self) -> bool:
        return self._covering(self.f_stack[-1], self.seq[-1]) == 1


def _make_search(kind: str, labels: Word, classes: tuple[int, ...], class_count: int, q: int):
    if kind in (KIND_UNIQUE, KIND_COND_UNIQUE):
        return _UniqueWalkSearch(labels.symbols, classes, class_count, q)
    if kind in (KIND_EXACT, KIND_COND_EXACT, KIND_DET_PARTIAL):
        return _ExactWalkSearch(
            labels.symbols, classes, class_count, q,
            deterministic=(kind == KIND_DET_PARTIAL),
        )
    raise ValueError(f"kind {kind!r} has no walk search")


def _iter_witness_sequences(
    kind: str,
    target: Word,
    condition: Word | None,
    q: int,
    counter: dict[str, int],
    max_nodes: int,
    proven_lower: int,
    leaf_filter: Callable[[list[int]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every slow sequence on exactly q states whose walk NFA witnesses."""
    n = len(target)
    if n == 0:
        if q == 1:
            yield (0,)
        return
    labels = _walk_labels(kind, target, condition)
    classes, class_count = _step_classes(kind, target, condition)
    search = _make_search(kind, labels, classes, class_count, q)
    seq = search.seq

    def rec(top: int) -> Iterator[tuple[int, ...]]:
        t = len(seq) - 1
        if t == n:
            if top == q - 1 and search.leaf_ok():
                if leaf_filter is None or leaf_filter(seq):
                    yield tuple(seq)
            return
        if q - 1 - top > n - t:
            return
        limit = min(top + 1, q - 1)
        for nxt in range(limit + 1):
            counter["nodes"] += 1
            if counter["nodes"] > max_nodes:
                raise BudgetExceeded(proven_lower, counter["nodes"])
            if search.try_push(nxt):
                yield from rec(top if nxt <= top else nxt)
                search.pop()

    yield from rec(0)


def _empty_word_certificate(kind: str, target: Word, condition: Word | None) -> WitnessCertificate:
    labels = _walk_labels(kind, target, condition)
    if kind == KIND_DET_TOTAL:
        edges = frozenset((0, a, 0) for a in range(labels.alphabet_size))
        nfa = Nfa(1, 0, frozenset({0}), edges, labels.alphabet_size)
    else:
        nfa = walk_nfa([0], Word((), labels.alphabet_size))
    return WitnessCertificate(kind=kind, target=target, condition=condition, nfa=nfa, claimed_states=1)


def _certificate_for(
    kind: str, target: Word, condition: Word | None, sequence: tuple[int, ...]
) -> WitnessCertificate:
    labels = _walk_labels(kind, target, condition)
    nfa = walk_nfa(sequence, labels)
    return WitnessCertificate(
        kind=kind,
        target=target,
        condition=condition,
        nfa=nfa,
        claimed_states=nfa.state_count,
    )


def _complete_to_total(
    base: Nfa, n: int, counter: dict[str, int], max_nodes: int, proven_lower: int
) -> Nfa | None:
    """Try to fill a deterministic exact witness into a total DFA, keeping
    exactly one accepted word of length n."""
    q = base.state_count
    sigma = base.alphabet_size
    table: dict[tuple[int, int], int] = {}
    for frm, label, to in base.edges:
        table[(frm, label)] = to
    slots = [
        (s, a) for s in range(q) for a in range(sigma) if (s, a) not in table
    ]
    accept = next(iter(base.accepts))

    def accepted_count() -> int:
        v = [0] * q
        v[base.start] = 1
        for _ in range(n):
            nv = [0] * q
            for (frm, label), to in table.items():
                if v[frm]:
                    c = nv[to] + v[frm]
                    nv[to] = c if c < 2 else 2
            v = nv
        return v[accept]

    def rec(i: int) -> bool:
        counter["nodes"] += 1
        if counter["nodes"] > max_nodes:
            raise BudgetExceeded(proven_lower, counter["nodes"])
        if accepted_count() >= 2:
            return False
        if i == len(slots):
            return accepted_count() == 1
        slot = slots[i]
        for to in range(q):
            table[slot] = to
            if rec(i + 1):
                return True
            del table[slot]
        return False

    if rec(0):
        edges = frozenset((frm, label, to) for (frm, label), to in table.items())
        return Nfa(q, base.start, base.accepts, edges, sigma)
    return None


def _sink_completion(base: Nfa) -> Nfa:
    """Total DFA with one extra dead state absorbing all undefined transitions."""
    q = base.state_count
    sigma = base.alphabet_size
    defined = {(frm, label) for frm, label, _ in base.edges}
    edges = set(base.edges)
    for s in range(q + 1):
        for a in range(sigma):
            if (s, a) not in defined:
                edges.add((s, a, q))
    return Nfa(q + 1, base.start, base.accepts, frozenset(edges), sigma)


def _compute_det_total(
    query: ComplexityQuery, budget: Budget, started: float
) -> ComplexityResult:
    counter = {"nodes": 0}
    target = query.target
    n = len(target)
    cap = budget.max_states if budget.max_states is not None else n + 2
    base_cert: WitnessCertificate | None = None
    for q in range(1, cap + 1):
        found_partial = None
        for seq in _iter_witness_sequences(
            KIND_DET_PARTIAL, target, None, q, counter, budget.max_nodes, q
        ):
            if found_partial is None:
                found_partial = seq
            nfa = walk_nfa(seq, target)
            total = _complete_to_total(nfa, n, counter, budget.max_nodes, q)
            if total is not None:
                cert = WitnessCertificate(
                    kind=KIND_DET_TOTAL, target=target, nfa=total,
                    claimed_states=total.state_count,
                )
                return ComplexityResult(q, cert, counter["nodes"], time.perf_counter() - started)
        if found_partial is not None:
            # no total DFA at the minimum: one extra dead state always suffices
            total = _sink_completion(walk_nfa(found_partial, target))
            if total.state_count <= cap:
                cert = WitnessCertificate(
                    kind=KIND_DET_TOTAL, target=target, nfa=total,
                    claimed_states=total.state_count,
                )
                return ComplexityResult(
                    total.state_count, cert, counter["nodes"], time.perf_counter() - started
                )
            raise BudgetExceeded(q + 1, counter["nodes"])
    raise BudgetExceeded(cap + 1, counter["nodes"])


def _slow(symbols: tuple[int, ...]) -> Word:
    """Symbols relabeled in order of first occurrence, over exactly the symbols used."""
    relabel: dict[int, int] = {}
    slow = tuple([relabel.setdefault(s, len(relabel)) for s in symbols])
    return Word(slow, max(len(relabel), 1))


def _canonical_part(query: ComplexityQuery, part: slice) -> ComplexityQuery:
    """Canonical key of the query on ``symbols[part]`` of both words."""
    condition = None if query.condition is None else _slow(query.condition.symbols[part])
    return ComplexityQuery(query.kind, _slow(query.target.symbols[part]), condition)


def canonical_query(query: ComplexityQuery) -> ComplexityQuery:
    """The cache key form: both words relabeled to their slow representatives.

    Relabeling either alphabet permutes labels pointwise, and symbols that
    never occur cannot appear on any witness edge, so shrinking to the slow
    form over the used symbols preserves every counting discipline along with
    the witness state sequences.
    """
    return _canonical_part(query, slice(None))


def reversal_class_key(query: ComplexityQuery) -> ComplexityQuery:
    """The canonical key of the query or of its reversal, whichever sorts first.

    Both have the same value for the kinds in ``REVERSIBLE_KINDS`` (see
    ``compute``); other kinds get the plain canonical key. The key names a
    value, not a certificate: the witnesses of the two orientations differ.
    """
    key = canonical_query(query)
    if key.kind not in REVERSIBLE_KINDS:
        return key
    back = _canonical_part(key, slice(None, None, -1))

    def order(q: ComplexityQuery) -> tuple:
        return q.target.symbols, () if q.condition is None else q.condition.symbols

    return min(key, back, key=order)


# w[:-1] and w[1:], then the same two factors reversed
_FACTORS = (slice(None, -1), slice(1, None))
_FACTORS_BOTH_WAYS = _FACTORS + (slice(-2, None, -1), slice(None, 0, -1))


def _factor_floor(key: ComplexityQuery, cache) -> int:
    """The largest value ``cache`` holds for the two aligned factors of length
    n - 1 of the canonical query ``key``, looked up in both orientations for
    the reversible kinds. A factor the cache lacks counts as 1; none is
    computed here."""
    floor = 1
    for part in _FACTORS_BOTH_WAYS if key.kind in REVERSIBLE_KINDS else _FACTORS:
        hit = cache.get(_canonical_part(key, part))
        if hit is not None and hit[0] > floor:
            floor = hit[0]
    return floor


def compute(
    query: ComplexityQuery,
    budget: Budget | None = None,
    cache=None,
) -> ComplexityResult:
    """Smallest witness state count for the query, with a verified certificate.

    Searches walk-generated witnesses on increasing state counts, so the first
    hit is minimal and the lexicographically least witnessing sequence is
    returned. Without a cache the search starts at 1 state. With a cache and
    n >= 2 letters it starts at the *factor floor*: the largest value the
    cache already holds for ``w[:-1]`` and ``w[1:]`` (for the conditional
    kinds the aligned pairs ``x[:-1] | y[:-1]`` and ``x[1:] | y[1:]``), each
    looked up in both orientations for ``REVERSIBLE_KINDS``. A factor the
    cache lacks counts as 1 and is never computed here. Levels below the
    floor hold no witness, so the value and the certificate are the ones a
    search from 1 finds. The floor trusts cached values exactly as a cache
    hit already does: the hit re-verifies its witness, but its minimality,
    like the floor's, rests on the value having been searched for.

    The bounds behind the floor, for walk-generated witnesses (one start, one
    accept, the edges of one accepting walk):

    * Factors (every walk kind, conditional ones included): take a witness
      for ``w = u v z`` whose accepting walk is at state p after ``u`` and at
      state r after ``uv``, and make p the start and r the only accept. The
      middle of the walk accepts ``v``. A second walk (unique kinds) or a
      second word (exact kinds) of length ``|v|`` from p to r would splice
      between the walk's first ``|u|`` and last ``|z|`` steps into a second
      one of length n for ``w``, and determinism is kept. So
      ``A(v) <= A(w)`` for every factor ``v``.
    * One more letter (unique and exact): give a witness for ``w[:-1]`` one
      fresh state f, the only accept, entered only by an edge labeled
      ``w[-1]`` from the old accept. Its accepting walks and words of length
      n are those of the old witness extended by that edge, so
      ``A(w) <= A(w[:-1]) + 1``: once the cache holds ``w[:-1]``, the
      value is the floor or one more.
    * Reversal (unique, exact and both conditional kinds): reversing every
      edge and swapping start and accept maps the walks of length n from
      start to accept one to one onto walks reading the reversed word(s), so
      ``A(w) = A(w^R)``. Reversal does not keep determinism, so the DFA kinds
      are excluded.
    """
    budget = budget or Budget()
    started = time.perf_counter()
    target, condition, kind = query.target, query.condition, query.kind
    n = len(target)

    if n == 0:
        cert = _empty_word_certificate(kind, target, condition)
        ok, why = verify_certificate(cert)
        assert ok, why
        return ComplexityResult(1, cert, 0, time.perf_counter() - started)

    if kind == KIND_DET_TOTAL:
        return _compute_det_total(query, budget, started)

    key = canonical_query(query)
    floor = 1
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            value, seq = hit
            if budget.max_states is not None and value > budget.max_states:
                # the true value is known and provably beyond the allowance
                raise BudgetExceeded(budget.max_states + 1, 0)
            cert = _certificate_for(kind, target, condition, seq)
            ok, _why = verify_certificate(cert)
            if ok and cert.claimed_states == value:
                return ComplexityResult(value, cert, 0, time.perf_counter() - started)
        if n >= 2:
            floor = _factor_floor(key, cache)
            if budget.max_states is not None and floor > budget.max_states:
                raise BudgetExceeded(floor, 0)

    counter = {"nodes": 0}
    cap = budget.max_states if budget.max_states is not None else n + 1
    for q in range(floor, cap + 1):
        for seq in _iter_witness_sequences(
            kind, target, condition, q, counter, budget.max_nodes, q
        ):
            cert = _certificate_for(kind, target, condition, seq)
            if cache is not None:
                cache.put(key, q, seq)
            return ComplexityResult(q, cert, counter["nodes"], time.perf_counter() - started)
    raise BudgetExceeded(cap + 1, counter["nodes"])


def value_at_most(
    query: ComplexityQuery, max_states: int, cache=None, max_nodes: int = DEFAULT_MAX_NODES
) -> int | None:
    """The complexity value if it is <= max_states, else None."""
    try:
        return compute(query, Budget(max_states=max_states, max_nodes=max_nodes), cache).value
    except BudgetExceeded:
        return None


def witness_at(query: ComplexityQuery, states: int, max_nodes: int = DEFAULT_MAX_NODES) -> WitnessCertificate | None:
    """First witness using exactly ``states`` states, without proving minimality."""
    counter = {"nodes": 0}
    for seq in _iter_witness_sequences(
        query.kind, query.target, query.condition, states, counter, max_nodes, states
    ):
        return _certificate_for(query.kind, query.target, query.condition, seq)
    return None


def all_witness_sequences(
    query: ComplexityQuery, at_states: int, max_nodes: int = DEFAULT_MAX_NODES
) -> Iterator[tuple[int, ...]]:
    """Every witnessing slow state sequence using exactly at_states states."""
    if query.kind == KIND_DET_TOTAL:
        raise ValueError("total DFAs are not walk-generated; no sequence stream")
    counter = {"nodes": 0}
    yield from _iter_witness_sequences(
        query.kind, query.target, query.condition, at_states,
        counter, max_nodes, at_states,
    )


@dataclass(frozen=True)
class SparseWitnessEntry:
    nfa: Nfa
    edge_count: int
    edge_minimal: bool
    sequences: tuple[tuple[int, ...], ...]
    is_unique_witness: bool


@dataclass(frozen=True)
class SparseWitnessReport:
    """Exact-acceptance witnesses at the minimum state count, with the edge
    bookkeeping needed to decide sparseness.

    A witness is *sparse* when removing any edge destroys it and it has no more
    edges than some unique-acceptance witness. Every edge-minimal exact witness
    is generated by each of its own accepting walks (an edge missed by some
    accepting walk could be dropped), so enumerating walk-generated witnesses
    is complete here.
    """

    exact_value: int
    unique_value: int
    exact_witnesses: tuple[SparseWitnessEntry, ...]
    unique_witness_edge_counts: frozenset[int]
    sparse: tuple[SparseWitnessEntry, ...]

    def has_sparse_non_unique_witness(self) -> bool:
        return any(not e.is_unique_witness for e in self.sparse)


def sparse_witness_report(
    x: Word, y: Word | None = None, max_nodes: int = DEFAULT_MAX_NODES, cache=None
) -> SparseWitnessReport:
    exact_kind = KIND_COND_EXACT if y is not None else KIND_EXACT
    unique_kind = KIND_COND_UNIQUE if y is not None else KIND_UNIQUE
    exact_query = ComplexityQuery(exact_kind, x, y)
    unique_query = ComplexityQuery(unique_kind, x, y)

    exact_value = compute(exact_query, Budget(max_nodes=max_nodes), cache).value
    unique_value = compute(unique_query, Budget(max_nodes=max_nodes), cache).value

    by_nfa: dict[Nfa, list[tuple[int, ...]]] = {}
    for seq in all_witness_sequences(exact_query, exact_value, max_nodes):
        nfa = walk_nfa(seq, _walk_labels(exact_kind, x, y))
        by_nfa.setdefault(nfa, []).append(seq)

    unique_edge_counts = set()
    for seq in all_witness_sequences(unique_query, unique_value, max_nodes):
        unique_edge_counts.add(walk_nfa(seq, _walk_labels(unique_kind, x, y)).edge_count())

    entries = []
    for nfa, seqs in sorted(by_nfa.items(), key=lambda kv: sorted(kv[1])[0]):
        minimal = True
        for edge in nfa.edges:
            reduced = nfa.without_edge(edge)
            cert = WitnessCertificate(
                kind=exact_kind, target=x, condition=y, nfa=reduced,
                claimed_states=reduced.state_count,
            )
            if verify_certificate(cert)[0]:
                minimal = False
                break
        unique_cert = WitnessCertificate(
            kind=unique_kind, target=x, condition=y, nfa=nfa,
            claimed_states=nfa.state_count,
        )
        entries.append(
            SparseWitnessEntry(
                nfa=nfa,
                edge_count=nfa.edge_count(),
                edge_minimal=minimal,
                sequences=tuple(sorted(seqs)),
                is_unique_witness=verify_certificate(unique_cert)[0],
            )
        )

    max_unique_edges = max(unique_edge_counts, default=0)
    sparse = tuple(
        e for e in entries if e.edge_minimal and e.edge_count <= max_unique_edges
    )
    return SparseWitnessReport(
        exact_value=exact_value,
        unique_value=unique_value,
        exact_witnesses=tuple(entries),
        unique_witness_edge_counts=frozenset(unique_edge_counts),
        sparse=sparse,
    )


def max_complexity(n: int) -> int:
    """The exact ceiling for the unique-acceptance complexity of length-n words."""
    return n // 2 + 1


def emergent_simplicity(w: Word, cache=None, max_nodes: int = DEFAULT_MAX_NODES) -> bool:
    """True iff w has maximal complexity but its square drops below |w| states.

    That is, ``A_Nu(w) == len(w) // 2 + 1`` (the half-length ceiling
    ``max_complexity``) and ``A_Nu(ww) <= len(w) - 1``, both for the unique
    kind. The paper's own wording of the definition is not in this repository;
    this is the definition the acceptance suite checks. A word with a smaller
    witness, such as ``0010100`` (3 states, below the ceiling 4), is excluded.
    """
    n = len(w)
    if n < 1:
        raise ValueError("emergent simplicity is undefined for the empty word")
    value = compute(ComplexityQuery(KIND_UNIQUE, w), Budget(max_nodes=max_nodes), cache).value
    if value != max_complexity(n):
        return False
    square = Word(w.symbols * 2, w.alphabet_size)
    return value_at_most(
        ComplexityQuery(KIND_UNIQUE, square), n - 1, cache, max_nodes
    ) is not None


def search_emergent(max_len: int, alphabet_size: int = 2, cache=None) -> list[Word]:
    """All slow words of length <= max_len showing emergent simplicity."""
    found = []
    for n in range(1, max_len + 1):
        for w in slow_words(n, alphabet_size):
            if emergent_simplicity(w, cache):
                found.append(w)
    return found


def alt_conditional_value(
    x: Word, y: Word, max_nodes: int = DEFAULT_MAX_NODES
) -> int:
    """Conditional complexity computed through the single-track reformulation.

    Searches NFAs over the condition alphabet alone that read y along exactly
    one walk, requiring the walk's edge sequence to repeat an edge only where x
    repeats a symbol. Used as an experimental cross-check of the pair-label
    search, not as its implementation.
    """
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    n = len(y)
    if n == 0:
        return 1

    def edge_partition_refines_x(seq: list[int]) -> bool:
        value_of_edge: dict[tuple[int, int, int], int] = {}
        for i in range(n):
            edge = (seq[i], y[i], seq[i + 1])
            seen = value_of_edge.setdefault(edge, x[i])
            if seen != x[i]:
                return False
        return True

    counter = {"nodes": 0}
    for q in range(1, n + 2):
        for _seq in _iter_witness_sequences(
            KIND_COND_UNIQUE,
            # the "target" never constrains this search; reuse y's shape
            Word((0,) * n, 1),
            y,
            q,
            counter,
            max_nodes,
            q,
            leaf_filter=edge_partition_refines_x,
        ):
            return q
    raise BudgetExceeded(n + 2, counter["nodes"])
