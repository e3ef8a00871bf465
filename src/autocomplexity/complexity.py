"""Exhaustive pruned search for the automatic complexity kinds.

The minimum state count for every acceptance discipline handled here is
attained by a witness generated by a single accepting walk: restricting any
witness to the edges of one accepting walk keeps it a witness (it can only
remove competing walks or shrink the language) and uses no more states. The
search therefore enumerates slow state sequences s_0..s_n with s_0 = 0 in
lexicographic order, for an ascending number of allowed states, and checks the
walk-generated NFA.

Two prunes keep the enumeration small, both sound because a partial walk's
competitors extend along the remaining walk edges, and a third rule settles
most steps before the counts are recounted:

* exact walk/word counting is maintained incrementally; as soon as the count
  of partial walks (or distinct words) reaching the walk's current position
  hits 2, the branch dies. The unique kinds count walks and the exact kinds
  words. The DFA kinds are searched by walk counts with one successor per
  (state, label): in a DFA a word has at most one walk, so the walk counts
  are the word counts (see ``_WalkCounts``). Their certificates are still
  verified as exact-kind witnesses;
* two distinct labels sharing a (from, to) pair and a condition class would
  let the final walk swap edges, so such a pair is rejected immediately;
* the *image* of a search node, its counts one step on under the current
  edges, is computed once and shared by every step out of it. A step along
  an edge the walk already uses pushes the image, and dies where the image
  holds 2. A step along a new edge dies where another walk or word already
  arrives in the image: exactly one walk (one word u) reaches the walk's
  position, and the new edge adds only that walk (only u followed by the
  edge's label) to its target. Adding an edge never lowers a count, so the
  counts that the recount of the prefix would find are at least those the
  image was taken from, and such a step would die after the recount too.
  The same steps survive, so the nodes and witnesses are those of the full
  recount.

Deterministic-total automata are not walk-generated; they are handled by
completing walk-generated deterministic witnesses into total transition
tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .automata import (
    Nfa,
    WitnessCertificate,
    verify_certificate,
    walk_nfa,
)
from .kinds import (
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
    KINDS,
)
from .words import Word, is_slow, slow_words, track

COMPLEXITY_KINDS = frozenset(KINDS)
CONDITIONAL_KINDS = frozenset(k.name for k in KINDS.values() if k.conditional)

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


def _walk_words(kind: str, target: Word, condition: Word | None) -> tuple[Word, Word]:
    """The word a query's walks read and the word of their step classes,
    built once per query: ``track(condition, target)`` and ``condition`` for
    the conditional kinds, else ``target`` and the one-class word ``0^n``."""
    if KINDS[kind].conditional:
        assert condition is not None
        return track(condition, target), condition
    return target, Word((0,) * len(target), 1)


class _WalkCounts:
    """Partial accepting walks per state, saturated at 2, as the pair of bit
    masks ``(one, two)`` of the states reached by at least one and by at
    least two walks (unique and DFA kinds).

    A deterministic counter also keeps the set of (state, label) pairs in use
    and refuses a second successor for one of them. In a DFA the words read
    from the start and the walks from the start correspond one to one: a walk
    reads one word, and determinism leaves each word at most one walk. So
    the number of walks reaching a state is the number of words reaching it,
    and the prune and the leaf test of the word counts are unchanged.
    """

    __slots__ = ("q", "succ", "det")

    def __init__(self, q: int, class_count: int, deterministic: bool):
        self.q = q
        # successor mask per (condition class, source); each bit is one edge
        # because the pair-label prune forbids class-mates on a shared pair
        self.succ: list[list[int]] = [[0] * q for _ in range(class_count)]
        self.det: set[tuple[int, int]] | None = set() if deterministic else None

    @staticmethod
    def start() -> tuple[int, int]:
        return 1, 0  # one walk at state 0

    def advance(self, v: tuple[int, int], cls: int, state: int) -> tuple[int, int] | None:
        """The counts one step on, or None when 2 walks reach ``state``."""
        one, two = v
        succ = self.succ[cls]
        n1 = n2 = 0
        while one:
            low = one & -one
            s = succ[low.bit_length() - 1]
            # a state gets 2 walks from a source with 2, or from a second source
            n2 |= s if low & two else n1 & s
            n1 |= s
            one ^= low
        return None if n2 >> state & 1 else (n1, n2)

    def image(
        self, v: tuple[int, int], cls: int, frm: int, label: int
    ) -> tuple[tuple[int, int], int, int]:
        """The counts ``(n1, n2)`` one step on from ``v`` under the current
        edges, then the states a new edge and a reused edge out of ``frm``
        cannot enter: ``n1`` and ``n2``. One walk is at ``frm``, and a new
        edge carries exactly that walk to its target, so a target already
        in ``n1`` would hold 2 (or, reached over another edge out of ``frm``
        in this class, be refused by the pair-label prune)."""
        # no walk reaches state q, so the step is never pruned
        nv = self.advance(v, cls, self.q)
        return nv, nv[0], nv[1]

    @staticmethod
    def count(v: tuple[int, int], state: int) -> int:
        return 2 if v[1] >> state & 1 else v[0] >> state & 1

    @staticmethod
    def reaches(v: tuple[int, int], state: int) -> int:
        return v[0] >> state & 1

    def add_edge(self, frm: int, label: int, to: int, cls: int) -> bool:
        """Add the edge, or return False if it breaks determinism."""
        det = self.det
        if det is not None:
            if (frm, label) in det:
                return False
            det.add((frm, label))
        self.succ[cls][frm] |= 1 << to
        return True

    def remove_edge(self, frm: int, label: int, to: int, cls: int) -> None:
        self.succ[cls][frm] &= ~(1 << to)
        if self.det is not None:
            self.det.remove((frm, label))


class _WordCounts:
    """Distinct partial words per reachable state set (a bit mask), saturated
    at 2 (exact kinds), with one successor mask per (label, source)."""

    __slots__ = ("q", "class_labels")

    def __init__(self, q: int, class_count: int):
        self.q = q
        # per condition class: label -> successor mask per source state
        self.class_labels: list[dict[int, list[int]]] = [dict() for _ in range(class_count)]

    @staticmethod
    def start() -> dict[int, int]:
        return {1: 1}  # mask of {state 0} -> one word

    def advance(self, f: dict[int, int], cls: int, state: int) -> dict[int, int] | None:
        """The counts one step on, or None when 2 words reach ``state``."""
        nf: dict[int, int] = {}
        for succ in self.class_labels[cls].values():
            for mask, cnt in f.items():
                img = 0
                while mask:
                    low = mask & -mask
                    img |= succ[low.bit_length() - 1]
                    mask ^= low
                if img:
                    c = nf.get(img, 0) + cnt
                    nf[img] = c if c < 2 else 2
        return None if self.count(nf, state) >= 2 else nf

    def image(
        self, f: dict[int, int], cls: int, frm: int, label: int
    ) -> tuple[dict[int, int], int, int]:
        """The counts one step on from ``f`` under the current edges, then
        the states a new edge ``frm --label-->`` and a reused edge cannot
        enter. One word u reaches ``frm``, and a new edge adds only
        ``u label`` to its target, so it cannot enter a state that another
        word reaches: one reached by 2 words, or by a word whose states are
        not ``own``, the ``label`` image of u's states."""
        # no word reaches state q, so the step is never pruned
        nf = self.advance(f, cls, self.q)
        any1 = any2 = 0
        for mask, cnt in nf.items():
            any2 |= mask if cnt > 1 else any1 & mask
            any1 |= mask
        own = 0
        succ = self.class_labels[cls].get(label)
        if succ is not None:
            for mask in f:
                if mask >> frm & 1:
                    while mask:
                        low = mask & -mask
                        own |= succ[low.bit_length() - 1]
                        mask ^= low
                    break
        return nf, any2 | (any1 & ~own), any2

    @staticmethod
    def count(f: dict[int, int], state: int) -> int:
        total = 0
        for mask, cnt in f.items():
            if mask >> state & 1:
                total += cnt
                if total >= 2:
                    return 2
        return total

    @staticmethod
    def reaches(f: dict[int, int], state: int) -> bool:
        for mask in f:
            if mask >> state & 1:
                return True
        return False

    def add_edge(self, frm: int, label: int, to: int, cls: int) -> bool:
        refs = self.class_labels[cls]
        succ = refs.get(label)
        if succ is None:
            succ = refs[label] = [0] * self.q
        succ[frm] |= 1 << to
        return True

    def remove_edge(self, frm: int, label: int, to: int, cls: int) -> None:
        refs = self.class_labels[cls]
        succ = refs[label]
        succ[frm] &= ~(1 << to)
        if not any(succ):
            del refs[label]


class _WalkSearch:
    """One walk's state sequence, grown and shrunk one step at a time, with
    the competing walks or words counted incrementally by ``counts``.

    ``stack[t]`` holds the counts after t steps. A step along an edge the
    walk already uses only extends the stack. A new edge ``(frm, label,
    nxt)`` of class ``cls`` can change ``stack[i + 1]`` only at a step i of
    class ``cls`` whose counts reach ``frm``, so the prefix is recounted
    from the first such step. Where a recounted vector comes out as it was,
    the steps up to the next one that can take the edge keep theirs too. The
    stack is rolled back to a snapshot if the recount prunes.

    ``images[t]`` holds the counter's ``image`` of ``stack[t]``: the counts
    one step on under the current edges, and the masks of the states a new
    and a reused edge out of ``seq[t]`` cannot enter. It is computed at the
    first push from depth t and serves every sibling push, because a failed
    push and ``pop`` restore the edges and ``stack[1..t]``; ``pop`` drops the
    image of the depth it leaves. A reused edge pushes the image's counts.
    A new edge is refused on the image's mask before it is added: counts
    only grow as edges are added, so a state that holds a second walk or
    word under the old counts holds it after the recount as well.
    """

    __slots__ = (
        "counts", "advance", "reaches", "image", "labels", "classes", "seq", "stack",
        "images", "edge_use", "pair_label", "records",
    )

    def __init__(self, counts, labels: tuple[int, ...], classes: tuple[int, ...]):
        self.counts = counts
        self.advance = counts.advance
        self.reaches = counts.reaches
        self.image = counts.image
        self.labels = labels
        self.classes = classes
        self.seq: list[int] = [0]
        self.stack: list = [counts.start()]
        self.images: list = []
        self.edge_use: dict[tuple[int, int, int], int] = {}
        self.pair_label: dict[tuple[int, int, int], int] = {}
        self.records: list = []

    def try_push(self, nxt: int) -> bool:
        seq = self.seq
        t = len(seq) - 1
        frm = seq[t]
        label = self.labels[t]
        cls = self.classes[t]
        edge = (frm, label, nxt)
        stack = self.stack
        images = self.images
        if len(images) == t:
            images.append(self.image(stack[t], cls, frm, label))
        v, new_fails, reuse_fails = images[t]
        use = self.edge_use.get(edge)
        if use is not None:
            if reuse_fails >> nxt & 1:
                return False
            self.edge_use[edge] = use + 1
            seq.append(nxt)
            stack.append(v)
            self.records.append((edge, None, None))
            return True
        if new_fails >> nxt & 1:
            return False
        pair_key = (frm, nxt, cls)
        # a second label on a pair within one class would let the walk swap
        # edges, doubling the walk or the word
        if pair_key in self.pair_label or not self.counts.add_edge(frm, label, nxt, cls):
            return False
        self.edge_use[edge] = 1
        self.pair_label[pair_key] = label
        snapshot = stack[1 : t + 1]
        advance = self.advance
        reaches = self.reaches
        classes = self.classes
        i = 0
        while i < t:
            if classes[i] != cls or not reaches(stack[i], frm):
                i += 1
                continue
            # recount until a vector comes out as it was
            while i < t:
                v = advance(stack[i], classes[i], seq[i + 1])
                i += 1
                if v is None or v == stack[i]:
                    break
                stack[i] = v
            if v is None:
                break
        else:
            v = advance(stack[t], cls, nxt)
        if v is None:
            stack[1 : t + 1] = snapshot
            del self.edge_use[edge]
            del self.pair_label[pair_key]
            self.counts.remove_edge(frm, label, nxt, cls)
            return False
        seq.append(nxt)
        stack.append(v)
        self.records.append((edge, pair_key, snapshot))
        return True

    def pop(self) -> None:
        edge, pair_key, snapshot = self.records.pop()
        self.seq.pop()
        self.stack.pop()
        del self.images[len(self.seq):]
        if pair_key is None:
            self.edge_use[edge] -= 1
        else:
            del self.edge_use[edge]
            del self.pair_label[pair_key]
            self.counts.remove_edge(*edge, pair_key[2])
            self.stack[1 : len(self.seq)] = snapshot

    def leaf_ok(self) -> bool:
        return self.counts.count(self.stack[-1], self.seq[-1]) == 1


def _counter(kind: str, q: int, class_count: int):
    """The counter a kind's walk search keeps on q states: walks for the
    unique and DFA kinds (see ``_WalkCounts``), words for the exact kinds."""
    spec = KINDS[kind]
    if spec.counts == "words" and not spec.deterministic:
        return _WordCounts(q, class_count)
    return _WalkCounts(q, class_count, spec.deterministic)


def _iter_witness_sequences(
    kind: str,
    labels: Word,
    classes: Word,
    q: int,
    counter: dict[str, int],
    max_nodes: int,
    proven_lower: int,
) -> Iterator[tuple[int, ...]]:
    """Yield every slow sequence on exactly q states whose walk NFA, reading
    ``labels`` with step classes ``classes`` (see ``_walk_words``), witnesses."""
    if kind == KIND_DET_TOTAL:
        raise ValueError("total DFAs are not walk-generated; no sequence stream")
    n = len(labels)
    if n == 0:
        if q == 1:
            yield (0,)
        return
    search = _WalkSearch(_counter(kind, q, classes.alphabet_size), labels.symbols, classes.symbols)
    seq = search.seq

    def rec(top: int) -> Iterator[tuple[int, ...]]:
        t = len(seq) - 1
        if t == n:
            if top == q - 1 and search.leaf_ok():
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


def _empty_word_certificate(
    kind: str, target: Word, condition: Word | None, labels: Word
) -> WitnessCertificate:
    if kind == KIND_DET_TOTAL:
        edges = frozenset((0, a, 0) for a in range(labels.alphabet_size))
        nfa = Nfa(1, 0, frozenset({0}), edges, labels.alphabet_size)
    else:
        nfa = walk_nfa([0], Word((), labels.alphabet_size))
    return WitnessCertificate(kind=kind, target=target, condition=condition, nfa=nfa, claimed_states=1)


def _certificate_for(
    kind: str, target: Word, condition: Word | None, labels: Word, value: int,
    sequence: tuple[int, ...], counter: dict[str, int], max_nodes: int,
) -> WitnessCertificate | None:
    """The certificate of a (value, sequence) record: the walk NFA of the
    sequence reading ``labels``, or for det-total the total DFA
    ``_total_dfa`` builds from it (None if there is none)."""
    nfa = walk_nfa(sequence, labels)
    if kind == KIND_DET_TOTAL:
        nfa = _total_dfa(nfa, value, len(target), counter, max_nodes)
        if nfa is None:
            return None
    return WitnessCertificate(
        kind=kind,
        target=target,
        condition=condition,
        nfa=nfa,
        claimed_states=nfa.state_count,
    )


def _record_certificate(
    kind: str, target: Word, condition: Word | None, labels: Word, value: int,
    sequence: tuple[int, ...], counter: dict[str, int], max_nodes: int,
) -> tuple[WitnessCertificate | None, str | None]:
    """``(certificate, None)`` for a cached ``(value, sequence)`` record whose
    certificate (``_certificate_for``) is built, verifies and has ``value``
    states, else ``(None, reason)``."""
    cert = _certificate_for(kind, target, condition, labels, value, sequence, counter, max_nodes)
    if cert is None:
        return None, f"no total DFA on {value} states is built from the walk"
    ok, why = verify_certificate(cert)
    if not ok:
        return None, f"the certificate fails: {why}"
    if cert.claimed_states != value:
        return None, f"the certificate has {cert.claimed_states} states, not {value}"
    return cert, None


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


def _total_dfa(
    base: Nfa, value: int, n: int, counter: dict[str, int], max_nodes: int
) -> Nfa | None:
    """A total DFA on ``value`` states from the deterministic witness ``base``:
    ``base`` filled in when ``value`` is its state count, ``base`` plus one
    dead state when ``value`` is one more; None otherwise or if no filling
    keeps a single accepted word."""
    if value == base.state_count + 1:
        return _sink_completion(base)
    if value == base.state_count:
        return _complete_to_total(base, n, counter, max_nodes, value)
    return None


def value_cap(kind: str, n: int) -> int:
    """The largest value a length-n query of ``kind`` can have, and the last
    level its search tries: ``max_complexity(n)`` for the unique, exact and
    conditional kinds, n + 1 for det-partial (a path) and n + 2 for det-total
    (a path and a dead state). The exact and conditional values are at most
    the unique one: one walk reads one word, and a unique witness whose walk
    edges are tagged with the condition letters of their steps keeps its one
    walk."""
    if kind == KIND_DET_PARTIAL:
        return n + 1
    if kind == KIND_DET_TOTAL:
        return n + 2
    return max_complexity(n)


def _least_witness(
    kind: str, labels: Word, classes: Word, floor: int, budget: Budget, counter: dict[str, int],
) -> tuple[int, tuple[int, ...]]:
    """The least state count from ``floor`` on with a witness reading
    ``labels`` in ``classes``, and the least witnessing sequence there."""
    cap = budget.max_states if budget.max_states is not None else value_cap(kind, len(labels))
    for q in range(floor, cap + 1):
        for seq in _iter_witness_sequences(kind, labels, classes, q, counter, budget.max_nodes, q):
            return q, seq
    raise BudgetExceeded(cap + 1, counter["nodes"])


def _search_levels(
    kind: str, target: Word, condition: Word | None, floor: int, budget: Budget,
    counter: dict[str, int],
) -> tuple[int, tuple[int, ...]]:
    """``_least_witness`` for one query: the labeled search every other route
    to a value is checked against."""
    return _least_witness(kind, *_walk_words(kind, target, condition), floor, budget, counter)


def _least_witnesses(
    condition: Word, targets: list[Word], budget: Budget, counter: dict[str, int],
) -> list[tuple[int, tuple[int, ...]]]:
    """``_search_levels(KIND_COND_UNIQUE, x, condition, 1, budget, ...)`` for
    every x of ``targets``, from one search per level over the shapes of the
    condition word y.

    The shapes of level q are the sequences ``_iter_witness_sequences``
    yields for the conditional-unique kind on q states with labels = classes
    = y, in that order: the slow sequences whose walk graph has exactly one
    walk from start to accept reading y. Walk counts read only the step
    classes, and the pair-label prune gives each state pair one label per
    class, so a shape witnesses x given y exactly when x is constant on its
    step partition (positions i and j share a class when
    ``(s_i, y_i, s_i+1) = (s_j, y_j, s_j+1)``). The labeled search for x
    given y therefore yields the compatible shapes of each level in this
    order. The unique kind is the one-letter condition,
    ``A(x) = A(x | 0^n)``: with y = ``Word((0,) * n, 1)`` the records are
    those of ``_search_levels(KIND_UNIQUE, x, None, 1, ...)``.

    The search carries the list of targets still active on the current
    prefix. A step along an edge ``(p, y_t, q)`` first used at position j
    drops the targets with ``x_t != x_j``, and a branch with no active
    target left is pruned. A target drops out only where every extension of
    the prefix is incompatible with it, so the first shape at which it is
    active at a leaf is its first compatible shape: the value and least
    witnessing sequence of its labeled search. Each target resolves there
    and leaves every active list. Only ``budget.max_nodes`` applies: an
    overrun raises ``BudgetExceeded`` with the level being searched as its
    lower bound, since the targets still pending failed every level below
    it.
    """
    y = condition.symbols
    n = len(y)
    xs = [x.symbols for x in targets]
    if any(len(x) != n for x in xs):
        raise ValueError("condition and targets must have equal length")
    found: list = [None] * len(xs)
    pending = list(range(len(xs)))
    max_nodes = budget.max_nodes
    cap = value_cap(KIND_COND_UNIQUE, n)
    for q in range(1, cap + 1):
        if not pending:
            return found
        search = _WalkSearch(_WalkCounts(q, condition.alphabet_size, False), y, y)
        seq = search.seq
        first: dict[tuple[int, int, int], int] = {}
        # active[t]: the targets active after t steps; lists are shared
        # along steps that drop none
        active = [pending] * (n + 1)

        def resolve(witness: tuple[int, tuple[int, ...]]) -> None:
            for i in active[n]:
                found[i] = witness
            shrunk = None
            for lst in active:
                if lst is not shrunk:
                    lst[:] = [i for i in lst if found[i] is None]
                    shrunk = lst

        def rec(top: int) -> None:
            t = len(seq) - 1
            if t == n:
                if top == q - 1 and search.leaf_ok():
                    resolve((q, tuple(seq)))
                return
            if q - 1 - top > n - t:
                return
            live = active[t]
            frm, c = seq[t], y[t]
            for nxt in range(min(top + 1, q - 1) + 1):
                if not live:
                    return
                counter["nodes"] += 1
                if counter["nodes"] > max_nodes:
                    raise BudgetExceeded(q, counter["nodes"])
                edge = (frm, c, nxt)
                j = first.get(edge)
                if j is None:
                    kept = live
                else:
                    kept = [i for i in live if xs[i][t] == xs[i][j]]
                    if not kept:
                        continue
                if search.try_push(nxt):
                    if j is None:
                        first[edge] = t
                    active[t + 1] = kept
                    rec(top if nxt <= top else nxt)
                    search.pop()
                    if j is None:
                        del first[edge]

        rec(0)
    if pending:
        raise BudgetExceeded(cap + 1, counter["nodes"])
    return found


def _search_det_total(
    target: Word, classes: Word, budget: Budget, counter: dict[str, int]
) -> tuple[int, tuple[int, ...], Nfa]:
    """The det-total value, the det-partial sequence its witness is built
    from, and the witness: the first deterministic witness on the fewest
    states that fills in to a total DFA, else the first one plus a dead state.
    ``classes`` is the one-class word of ``_walk_words``."""
    n = len(target)
    cap = budget.max_states if budget.max_states is not None else value_cap(KIND_DET_TOTAL, n)
    for q in range(1, cap + 1):
        first = None
        for seq in _iter_witness_sequences(
            KIND_DET_PARTIAL, target, classes, q, counter, budget.max_nodes, q
        ):
            if first is None:
                first = seq
            total = _total_dfa(walk_nfa(seq, target), q, n, counter, budget.max_nodes)
            if total is not None:
                return q, seq, total
        if first is not None:
            # no total DFA at the minimum: one extra dead state always suffices
            if q + 1 > cap:
                raise BudgetExceeded(q + 1, counter["nodes"])
            return q + 1, first, _sink_completion(walk_nfa(first, target))
    raise BudgetExceeded(cap + 1, counter["nodes"])


def _slow_symbols(symbols: tuple[int, ...]) -> tuple[int, ...]:
    """Symbols relabeled in order of first occurrence."""
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(s, len(relabel)) for s in symbols])


def _slow_word(slow: tuple[int, ...]) -> Word:
    """The word of slow symbols over exactly the symbols used."""
    return Word(slow, max(slow, default=0) + 1)


def _is_slow_word(w: Word) -> bool:
    """True iff ``w`` is slow and over exactly the symbols it uses."""
    return is_slow(w) and w.alphabet_size == max(w.symbols, default=0) + 1


def _canonical_part(query: ComplexityQuery, part: slice) -> ComplexityQuery:
    """Canonical key of the query on ``symbols[part]`` of both words."""
    condition = query.condition
    if condition is not None:
        condition = _slow_word(_slow_symbols(condition.symbols[part]))
    target = _slow_word(_slow_symbols(query.target.symbols[part]))
    if query.kind == KIND_DET_TOTAL:
        target = Word(target.symbols, query.target.alphabet_size)
    return ComplexityQuery(query.kind, target, condition)


def canonical_query(query: ComplexityQuery) -> ComplexityQuery:
    """The cache key form: both words relabeled to their slow representatives.

    Relabeling either alphabet permutes labels pointwise, and symbols that
    never occur cannot appear on any witness edge, so shrinking to the slow
    form over the used symbols preserves every counting discipline along with
    the witness state sequences. det-total keeps its alphabet size: a total
    DFA has an edge for every letter, used or not. A query already in that
    form is returned as it is.
    """
    target, condition = query.target, query.condition
    if query.kind == KIND_DET_TOTAL:
        canonical = is_slow(target)
    else:
        canonical = _is_slow_word(target) and (condition is None or _is_slow_word(condition))
    return query if canonical else _canonical_part(query, slice(None))


def memo_key(query: ComplexityQuery) -> tuple:
    """The flat memo key ``(kind, target symbols, condition symbols or None)``.

    Alphabet sizes are left out, so the words as given and their canonical
    forms can share one key when their symbols agree; unused letters label
    no witness edge, so the values agree too. det-total, which takes no
    condition, holds its alphabet size in the third place instead.
    """
    condition = query.condition
    if condition is not None:
        return query.kind, query.target.symbols, condition.symbols
    if query.kind == KIND_DET_TOTAL:
        return query.kind, query.target.symbols, query.target.alphabet_size
    return query.kind, query.target.symbols, None


def reversal_class_key(query: ComplexityQuery) -> ComplexityQuery:
    """The canonical key of the query or of its reversal, whichever sorts first.

    Both have the same value for the reversible kinds (see ``compute``);
    other kinds get the plain canonical key. The key names a
    value, not a certificate: the witnesses of the two orientations differ.
    """
    key = canonical_query(query)
    if not KINDS[key.kind].reversible:
        return key
    back = _canonical_part(key, slice(None, None, -1))

    def order(q: ComplexityQuery) -> tuple:
        return q.target.symbols, () if q.condition is None else q.condition.symbols

    return min(key, back, key=order)


def class_key(key: tuple) -> tuple:
    """``memo_key(reversal_class_key(q))`` from ``key = memo_key(q)``.

    The symbol tuples are relabeled to their slow forms and, for the
    reversible kinds, so are their reversals; the smaller of the two keys
    wins, the forward one on a tie, by the order ``reversal_class_key`` uses.
    No ``Word`` and no query is built.
    """
    kind, target, third = key
    if kind == KIND_DET_TOTAL:
        return kind, _slow_symbols(target), third
    forward = kind, _slow_symbols(target), None if third is None else _slow_symbols(third)
    if not KINDS[kind].reversible:
        return forward
    back = kind, _slow_symbols(target[::-1]), None if third is None else _slow_symbols(third[::-1])
    return back if back < forward else forward


def class_query(key: tuple) -> ComplexityQuery:
    """The canonical query whose ``memo_key`` is the class key ``key``."""
    kind, target, third = key
    if kind == KIND_DET_TOTAL:
        return ComplexityQuery(kind, Word(target, third))
    return ComplexityQuery(kind, _slow_word(target), None if third is None else _slow_word(third))


# w[:-1] and w[1:], then the same two factors reversed
_FACTORS = (slice(None, -1), slice(1, None))
_FACTORS_BOTH_WAYS = _FACTORS + (slice(-2, None, -1), slice(None, 0, -1))


def _factor_floor(key: ComplexityQuery, cache) -> int:
    """The largest value ``cache`` holds for the two aligned factors of length
    n - 1 of the canonical query ``key``, looked up in both orientations for
    the reversible kinds. A factor the cache lacks, or holds above its
    ``value_cap``, counts as 1; none is computed here."""
    floor = 1
    cap = value_cap(key.kind, len(key.target) - 1)
    for part in _FACTORS_BOTH_WAYS if KINDS[key.kind].reversible else _FACTORS:
        hit = cache.get(_canonical_part(key, part))
        if hit is not None and floor < hit[0] <= cap:
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
    looked up in both orientations for the reversible kinds. A factor the
    cache lacks counts as 1 and is never computed here. Levels below the
    floor hold no witness, so the value and the certificate are the ones a
    search from 1 finds. The floor trusts cached values exactly as a cache
    hit already does: the hit re-verifies its witness, but its minimality,
    like the floor's, rests on the value having been searched for. Only
    ``autocomplexity cache audit`` (``audit_record``) proves it. A cache file
    holding just the line ``unique 0000@1 - 3 0,1,2,2,2`` (fields separated
    by tabs) is served as ``A(0000) = 3`` with 0 nodes, since that 3-state
    walk is a valid witness within the cap, though the value is 1; through
    the floor, ``00000`` then gets 3 as well. A cached
    value above ``value_cap`` is never served nor used as a floor; the query
    is searched again and its record rewritten. det-total
    always starts at 1; its cache record keeps the deterministic walk its
    total DFA was built from, and a hit builds that DFA again.

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
    labels, classes = _walk_words(kind, target, condition)

    if n == 0:
        cert = _empty_word_certificate(kind, target, condition, labels)
        ok, why = verify_certificate(cert)
        assert ok, why
        return ComplexityResult(1, cert, 0, time.perf_counter() - started)

    key = canonical_query(query)
    counter = {"nodes": 0}
    floor = 1
    if cache is not None:
        hit = cache.get(key)
        # a value above the cap is wrong whatever its witness: search again
        if hit is not None and hit[0] <= value_cap(kind, n):
            value, seq = hit
            if budget.max_states is not None and value > budget.max_states:
                # the true value is known and provably beyond the allowance
                raise BudgetExceeded(budget.max_states + 1, 0)
            cert, _why = _record_certificate(
                kind, target, condition, labels, value, seq, counter, budget.max_nodes
            )
            if cert is not None:
                return ComplexityResult(value, cert, counter["nodes"], time.perf_counter() - started)
        if n >= 2 and kind != KIND_DET_TOTAL:
            floor = _factor_floor(key, cache)
            if budget.max_states is not None and floor > budget.max_states:
                raise BudgetExceeded(floor, 0)

    if kind == KIND_DET_TOTAL:
        value, seq, nfa = _search_det_total(target, classes, budget, counter)
        cert = WitnessCertificate(kind=kind, target=target, nfa=nfa, claimed_states=value)
    else:
        value, seq = _least_witness(kind, labels, classes, floor, budget, counter)
        cert = _certificate_for(
            kind, target, condition, labels, value, seq, counter, budget.max_nodes
        )
    ok, why = verify_certificate(cert)
    assert ok, why
    if cache is not None:
        cache.put(key, value, seq)
    return ComplexityResult(value, cert, counter["nodes"], time.perf_counter() - started)


def value_at_most(
    query: ComplexityQuery, max_states: int, cache=None, max_nodes: int = DEFAULT_MAX_NODES
) -> int | None:
    """The complexity value if it is <= max_states, None if it is proven
    above; a node-budget overrun, which proves neither, raises
    ``BudgetExceeded``."""
    try:
        return compute(query, Budget(max_states=max_states, max_nodes=max_nodes), cache).value
    except BudgetExceeded as e:
        if e.lower_bound > max_states:
            return None
        raise


def audit_record(query: ComplexityQuery, value: int, sequence: tuple[int, ...]) -> str | None:
    """Why a cache must not serve the record ``(value, sequence)`` of
    ``query``, or None when the record holds.

    The record is first checked as ``compute`` checks a hit: the value is at
    most ``value_cap`` and the certificate rebuilt from the sequence verifies
    with ``value`` states. Its minimality is then proven by
    ``value_at_most(query, value - 1)`` with no cache, so that neither the
    record nor a factor floor read from the same file vouches for itself; a
    value of 1 is minimal by definition. That is a full search per record,
    which is why a hit is never checked this way. A node-budget overrun
    raises ``BudgetExceeded``.
    """
    kind, target, condition = query.kind, query.target, query.condition
    cap = value_cap(kind, len(target))
    if value > cap:
        return f"the value is above the cap of {cap}"
    labels = _walk_words(kind, target, condition)[0]
    _cert, why = _record_certificate(
        kind, target, condition, labels, value, sequence, {"nodes": 0}, DEFAULT_MAX_NODES
    )
    if why is not None:
        return why
    if value > 1:
        smaller = value_at_most(query, value - 1)
        if smaller is not None:
            return f"not minimal: the value is {smaller}"
    return None


def witness_at(query: ComplexityQuery, states: int, max_nodes: int = DEFAULT_MAX_NODES) -> WitnessCertificate | None:
    """First witness using exactly ``states`` states, without proving minimality."""
    counter = {"nodes": 0}
    labels, classes = _walk_words(query.kind, query.target, query.condition)
    for seq in _iter_witness_sequences(
        query.kind, labels, classes, states, counter, max_nodes, states
    ):
        return _certificate_for(
            query.kind, query.target, query.condition, labels, states, seq, counter, max_nodes
        )
    return None


def all_witness_sequences(
    query: ComplexityQuery, at_states: int, max_nodes: int = DEFAULT_MAX_NODES
) -> Iterator[tuple[int, ...]]:
    """Every witnessing slow state sequence using exactly at_states states."""
    counter = {"nodes": 0}
    yield from _iter_witness_sequences(
        query.kind, *_walk_words(query.kind, query.target, query.condition), at_states,
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

    # the exact and unique kinds read the same labels
    labels = _walk_words(exact_kind, x, y)[0]
    by_nfa: dict[Nfa, list[tuple[int, ...]]] = {}
    for seq in all_witness_sequences(exact_query, exact_value, max_nodes):
        by_nfa.setdefault(walk_nfa(seq, labels), []).append(seq)

    unique_edge_counts = set()
    for seq in all_witness_sequences(unique_query, unique_value, max_nodes):
        unique_edge_counts.add(walk_nfa(seq, labels).edge_count())

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
    # a node-budget overrun raises: "unknown" is not "not emergent"
    return value_at_most(
        ComplexityQuery(KIND_UNIQUE, square), n - 1, cache, max_nodes
    ) is not None


def search_emergent(
    max_len: int, alphabet_size: int = 2, cache=None, max_nodes: int = DEFAULT_MAX_NODES
) -> list[Word]:
    """All slow words of length <= max_len showing emergent simplicity;
    ``max_nodes`` bounds each search, and an overrun raises ``BudgetExceeded``."""
    found = []
    for n in range(1, max_len + 1):
        for w in slow_words(n, alphabet_size):
            if emergent_simplicity(w, cache, max_nodes):
                found.append(w)
    return found

