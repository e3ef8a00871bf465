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

* exact walk/word counting is maintained incrementally; as soon as a second
  walk (or word) reaches the walk's current position, the branch dies. The
  counters keep the masks of the states some walk (word) reaches, and of
  those that one other than the walk's own walk (own word) reaches. The
  unique kinds count walks and the exact kinds words. The DFA kinds are
  searched by walk counts with one successor per (state, label): in a DFA a
  word has at most one walk, so the walk counts are the word counts (see
  ``_WalkCounts``). Their certificates are still verified as exact-kind
  witnesses;
* two distinct labels sharing a (from, to) pair and a condition class would
  let the final walk swap edges, so such a pair is rejected immediately;
* the *image masks* of a search node are the states that a step along a new
  and along a reused edge cannot enter, given once by the counter and
  shared by every step out of the node: those where a walk or word other
  than the own one arrives under the current edges (plus, for a new edge
  of walks, the targets of the own walk's edges). Adding an edge never
  lowers a count, so such a step would die after the recount too, and the
  nodes and witnesses are those of the full recount.

The three bit tests of a node make one *candidate mask*, computed once per
node from the edge tables ``used[label][frm]`` and ``paired[cls][frm]`` and the
image masks (see ``_iter_witness_sequences``). Only its set bits are pushed,
in ascending order; the refused steps between them are counted in bulk, so
the node count, and where a budget runs out, are those of a search that
tries every step. The pair rule refuses nothing the image masks do not: the
target of a second label of the class from the walk's position is reached
by another walk, the one there followed by that label's edge (for words, by
the own word followed by that label). Only the walk search's new edges are
recounted, inside the loop.

Deterministic-total automata are not walk-generated; they are handled by
completing walk-generated deterministic witnesses into total transition
tables.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, NoReturn

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
from .words import Word, slow_symbols, slow_words, track

COMPLEXITY_KINDS = frozenset(KINDS)
CONDITIONAL_KINDS = frozenset(k.name for k in KINDS.values() if k.conditional)

DEFAULT_MAX_NODES = 10**9


class BudgetExceeded(RuntimeError):
    """Search budget ran out; the value is unknown. ``lower_bound`` is
    proven: the search ruled out every state count below it. Only a search
    from one state (``compute``, ``value_at_most``) rules out any, so an
    overrun of a record check, ``witness_at`` or a sequence stream reports
    1 (see ``_Nodes``). No cache record ever sets it."""

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
    """A query's value, its certificate, the search nodes spent and the
    seconds taken.

    ``certificate`` is built once, when first read, and then kept. A search
    or a full check hands over the certificate it has just verified; a hit
    on a known walk shape hands over the function that builds it (see
    ``_hit_certificate``), since a study reads values only."""

    value: int
    _certificate: WitnessCertificate | Callable[[], WitnessCertificate] = field(repr=False, compare=False)
    explored: int
    elapsed: float

    @property
    def certificate(self) -> WitnessCertificate:
        cert = self._certificate
        if not isinstance(cert, WitnessCertificate):
            cert = cert()
            object.__setattr__(self, "_certificate", cert)
        return cert


def _walk_words(kind: str, target: Word, condition: Word | None) -> tuple[Word, Word]:
    """The word a query's walks read and the word of their step classes,
    built once per query: ``track(condition, target)`` and ``condition`` for
    the conditional kinds, else ``target`` and the one-class word ``0^n``."""
    if KINDS[kind].conditional:
        assert condition is not None
        return track(condition, target), condition
    return target, Word((0,) * len(target), 1)


class _SetBits(dict):
    """The positions of the set bits of a mask, in ascending order. A mask
    below ``2**16`` keeps its entry, so the dict holds at most 65,536."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        if mask >> 16 == 0:
            self[mask] = bits
        return bits


_SET_BITS = _SetBits()


class _WalkCounts:
    """The partial accepting walks as the bit masks ``(R, O)`` (unique,
    conditional-unique and both DFA kinds): after t steps, the states some
    walk reaches and those some walk other than the own walk s_0..s_t
    reaches. The own position s_t is ``R & ~O``, as a second walk at s_t
    would have pruned the node.

    The edge tables are the search's: ``used[label][frm]`` is the mask of
    the targets of the edges ``frm --label-->`` in use, and
    ``paired[cls][frm]`` that of the states some edge of class ``cls`` joins
    to ``frm``. Walk counts read only the classes, so ``paired`` is their
    successor table ``succ``, and each bit of it is one edge: the pair-label
    prune gives a pair one label per class. Step t, of class c, gives::

        R' = succ_c(O) | succ_c(s_t)
        O' = succ_c(O) | (succ_c(s_t) & ~bit(s_t+1))

    since each other walk extends along every edge out of its state, and the
    own walk along every edge out of s_t but its own. One walk reaches s_t,
    so a second walk reaches s_t+1 exactly when it is in ``succ_c(O)``: the
    prune of a count per state, saturated at 2. The image masks are
    ``succ_c(O) | succ_c(s_t)`` for a new edge, which brings the own walk to
    its target on top of those there, and ``succ_c(O)`` for a reused edge,
    whose target the own walk reaches already.

    A deterministic counter takes no second successor for a (state, label)
    pair. A DFA's walks from the start and the words they read correspond
    one to one, so its walk counts are its word counts.
    """

    __slots__ = ("q", "used", "paired", "steps", "det")

    def __init__(self, q: int, labels: Word, classes: Word, deterministic: bool):
        self.q = q
        self.used = [[0] * q for _ in range(labels.alphabet_size)]
        self.paired = [[0] * q for _ in range(classes.alphabet_size)]
        # per step, the successor table of its class
        self.steps = [self.paired[cls] for cls in classes.symbols]
        self.det = deterministic

    @staticmethod
    def start() -> tuple[int, int]:
        return 1, 0  # the empty walk at state 0

    def advance(self, v: tuple[int, int], i: int, state: int) -> tuple[int, int] | None:
        """The masks after step i, to ``state``, or None when a second walk
        reaches ``state``."""
        reached, others = v
        succ = self.steps[i]
        n = 0
        for s in _SET_BITS[others]:
            n |= succ[s]
        if n >> state & 1:
            return None
        mine = succ[(reached ^ others).bit_length() - 1]
        return n | mine, n | (mine & ~(1 << state))

    def image(self, v: tuple[int, int], t: int) -> tuple[int, int]:
        """The image masks of step t, for a new and for a reused edge."""
        reached, others = v
        succ = self.steps[t]
        n = 0
        for s in _SET_BITS[others]:
            n |= succ[s]
        return n | succ[(reached ^ others).bit_length() - 1], n


class _WordCounts:
    """The partial words as the bit masks ``(R, W, O)`` (exact kinds): after
    t steps, the states the own word ``labels[:t]`` reaches (W), those some
    other word reaches (O), and ``R = W | O``; a word's letter at each step
    is a label that the step's class reads. With l the own label of step t,
    L the labels its class reads and d_a the successors along ``used[a]``::

        W' = d_l(W)
        O' = d_l(O) | union of d_a(R) over a in L, a != l

    since the other words one step on are the other words followed by any
    label of L and the own word followed by any other label, and d_a
    distributes over union. The own word reaches s_t+1 along the own walk,
    so a second word reaches it exactly when it is in O'. O' does not depend
    on s_t+1, and it is both image masks: a reused edge's target the own
    word reaches already, and a new edge ``s_t --l--> nxt`` brings only the
    own word to ``nxt``, since no other word reaches s_t.
    """

    __slots__ = ("q", "used", "paired", "steps")
    det = False

    def __init__(self, q: int, labels: Word, classes: Word):
        self.q = q
        self.used = [[0] * q for _ in range(labels.alphabet_size)]
        self.paired = [[0] * q for _ in range(classes.alphabet_size)]
        read: list[dict[int, None]] = [{} for _ in self.paired]
        pairs = list(zip(labels.symbols, classes.symbols))
        for label, cls in pairs:
            read[cls][label] = None
        # per step, the successor tables of its label and of the others of its class
        self.steps = [
            (self.used[label], [self.used[a] for a in read[cls] if a != label])
            for label, cls in pairs
        ]

    @staticmethod
    def start() -> tuple[int, int, int]:
        return 1, 1, 0  # the empty word at state 0

    def advance(
        self, v: tuple[int, int, int], i: int, state: int
    ) -> tuple[int, int, int] | None:
        """The masks after step i, to ``state``, or None when a second word
        reaches ``state``."""
        reached, mine, others = v
        own, rest = self.steps[i]
        nm = no = 0
        for s in _SET_BITS[mine]:
            nm |= own[s]
        for s in _SET_BITS[others]:
            no |= own[s]
        for succ in rest:
            for s in _SET_BITS[reached]:
                no |= succ[s]
        return None if no >> state & 1 else (nm | no, nm, no)

    def image(self, v: tuple[int, int, int], t: int) -> tuple[int, int]:
        """The image masks of step t: O' for both."""
        # no word reaches state q, so the step is never pruned
        others = self.advance(v, t, self.q)[2]
        return others, others


def _counter(kind: str, q: int, labels: Word, classes: Word):
    """The counter a kind's walk search keeps on q states, reading ``labels``
    in ``classes``: walks for the unique and DFA kinds (see
    ``_WalkCounts``), words for the exact kinds."""
    spec = KINDS[kind]
    if spec.counts == "words" and not spec.deterministic:
        return _WordCounts(q, labels, classes)
    return _WalkCounts(q, labels, classes, spec.deterministic)


class _Nodes:
    """The node meter of one search: ``count`` of its ``limit`` nodes spent
    (a negative limit is 0), and ``level``, the least state count it has not
    ruled out.

    ``level`` starts at 1, and only the level loops (``_least_witness``,
    ``_search_det_total`` and ``_least_witnesses``) set it, to each state
    count q as they enter it: they searched every level below q in full.
    A sequence stream or a record check sets no level, as it rules nothing
    out. Every overrun goes through ``overrun``, so its lower bound is the
    level and never one a caller chose.
    """

    __slots__ = ("count", "limit", "level")

    def __init__(self, limit: int = DEFAULT_MAX_NODES):
        self.count = 0
        self.limit = max(limit, 0)
        self.level = 1

    def overrun(self) -> NoReturn:
        """Raise ``BudgetExceeded`` at node ``limit + 1``, where a search
        counting one node at a time stops, with the level as its bound."""
        self.count = self.limit + 1
        raise BudgetExceeded(self.level, self.count)


def _iter_witness_sequences(
    kind: str, labels: Word, classes: Word, q: int, nodes: _Nodes, targets=None,
) -> Iterator[tuple[int, ...]]:
    """Yield every slow sequence on exactly q states whose walk NFA, reading
    ``labels`` with step classes ``classes`` (see ``_walk_words``), witnesses.

    The search grows one walk s_0..s_t a step at a time and keeps, per
    depth, ``seq[t]`` and the counts ``stack[t]`` after t steps. Its edges
    are the mask tables ``used`` and ``paired`` of the counter. A node is
    one prefix, and its steps are the states ``nxt`` up to ``limit`` that
    keep the sequence slow; each step is one node of the meter ``nodes``.

    At a node the counter's ``image`` of ``stack[t]`` gives the masks
    ``new_fails`` and ``reuse_fails`` of the states a new and a reused edge
    out of ``s_t`` cannot enter under the current edges. Counts only grow
    as edges are added, so a state that holds a second walk or word under
    the old counts holds it after a recount as well, and such a step would
    die there too. A step along a second label on a pair within one class
    would let the walk swap edges, doubling the walk or the word
    (``new_fails`` holds its target already, see the module docstring), and
    a DFA kind takes no new edge once ``(s_t, label)`` has one. What
    survives these bit tests is the candidate mask, computed once per
    node::

        (used & ~reuse_fails) | ~(paired | new_fails)   up to bit limit

    (only its first half for a DFA kind whose ``(s_t, label)`` has an edge).
    The loop visits its set bits in ascending order and counts the refused
    steps between them in bulk, so ``nodes.count`` is at every step what a
    count of one node per step would be, and an overrun raises at the same
    node (``_Nodes.overrun``). A step pushes the counter's ``advance`` of
    ``stack[t]`` to ``nxt``. A new edge
    ``(s_t, label, nxt)`` of class ``cls`` can change ``stack[i + 1]`` only
    at a step i of class ``cls`` whose counts reach ``s_t`` (in
    ``stack[i][0]``), so the prefix is recounted first, from the first such
    step; where a recounted vector comes out as it was, the steps up to the
    next one that can take the edge keep theirs too. The prefix is restored
    if the recount prunes, and when the step is popped. A leaf on q states
    is a witness: its last push left one walk or word at the accept.

    ``targets``, if given, filters the steps: ``targets.admit(t, frm, nxt,
    new)`` is asked about every step that survives the bit tests, after it
    is counted, and a step it refuses is not taken; after each step taken,
    an empty ``targets.active[t]`` ends the node with no further count (see
    ``_least_witnesses``).
    """
    if kind == KIND_DET_TOTAL:
        raise ValueError("total DFAs are not walk-generated; no sequence stream")
    if q < 1:
        return
    n = len(labels)
    if n == 0:
        if q == 1:
            yield (0,)
        return
    counts = _counter(kind, q, labels, classes)
    advance, image = counts.advance, counts.image
    used, paired, det = counts.used, counts.paired, counts.det
    labels_s, classes_s = labels.symbols, classes.symbols
    admit = active = None
    if targets is not None:
        admit, active = targets.admit, targets.active
    limit_nodes = nodes.limit
    last = q - 1
    seq = [0]
    stack = [counts.start()]

    def node(t: int, top: int) -> Iterator[tuple[int, ...]]:
        if t == n:
            if top == last:
                yield tuple(seq)
            return
        if last - top > n - t:
            return
        limit = top + 1 if top < last else last
        frm, label, cls = seq[t], labels_s[t], classes_s[t]
        new_fails, reuse_fails = image(stack[t], t)
        used_row, paired_row = used[label], paired[cls]
        reused = used_row[frm]
        cand = reused & ~reuse_fails
        if not (det and reused):
            cand |= ~(paired_row[frm] | new_fails)
        cand &= (2 << limit) - 1
        done = -1
        while cand:
            low = cand & -cand
            cand ^= low
            nxt = low.bit_length() - 1
            count = nodes.count + nxt - done
            if count > limit_nodes:
                nodes.overrun()
            nodes.count = count
            done = nxt
            new = not (reused & low)
            if admit is not None and not admit(t, frm, nxt, new):
                continue
            snapshot = None
            w = stack[t]
            if new:
                used_row[frm] |= low
                paired_row[frm] |= low
                i = 0
                while i < t:
                    if classes_s[i] != cls or not stack[i][0] >> frm & 1:
                        i += 1
                        continue
                    if snapshot is None:
                        snapshot = stack[1 : t + 1]
                    # recount until a vector comes out as it was
                    while i < t:
                        w = advance(stack[i], i, seq[i + 1])
                        i += 1
                        if w is None or w == stack[i]:
                            break
                        stack[i] = w
                    if w is None:
                        break
            if w is not None:
                w = advance(stack[t], t, nxt)
            if w is not None:
                seq.append(nxt)
                stack.append(w)
                yield from node(t + 1, top if nxt <= top else nxt)
                seq.pop()
                stack.pop()
            if new:
                if snapshot is not None:
                    stack[1 : t + 1] = snapshot
                used_row[frm] ^= low
                paired_row[frm] ^= low
            if active is not None and not active[t]:
                return
        count = nodes.count + limit - done
        if count > limit_nodes:
            nodes.overrun()
        nodes.count = count

    yield from node(0, 0)


def _record_certificate(
    query: ComplexityQuery, value: int, sequence: tuple[int, ...], nodes: _Nodes, nfa: Nfa | None = None,
) -> tuple[WitnessCertificate | None, str | None]:
    """``(certificate, None)`` for the record ``(value, sequence)`` of
    ``query`` when its certificate is built, verifies and has ``value``
    states, else ``(None, reason)``.

    The certificate is ``nfa``, the witness a search has just built, or
    else the walk NFA of the sequence over the query's labels
    (``_walk_words``); for det-total, the total DFA ``_total_dfa`` builds
    from that walk NFA, spending the nodes of the meter ``nodes``. A check sets no level, so
    before a search an overrun raises ``BudgetExceeded(1)``. The empty
    word's record is ``(1, (0,))``: one state, no edges, and for det-total a
    loop per letter.
    """
    if nfa is None:
        nfa = walk_nfa(sequence, _walk_words(query.kind, query.target, query.condition)[0])
        if query.kind == KIND_DET_TOTAL:
            nfa = _total_dfa(nfa, value, len(query.target), nodes)
            if nfa is None:
                return None, f"no total DFA on {value} states is built from the walk"
    cert = _certificate(query, nfa)
    ok, why = verify_certificate(cert)
    if not ok:
        return None, f"the certificate fails: {why}"
    if cert.claimed_states != value:
        return None, f"the certificate has {cert.claimed_states} states, not {value}"
    return cert, None


def _hit_certificate(
    cache, key: tuple, value: int, sequence: tuple[int, ...], query: ComplexityQuery, nodes: _Nodes,
) -> WitnessCertificate | Callable[[], WitnessCertificate] | None:
    """The certificate of the record ``(value, sequence)`` that ``cache``
    holds for the canonical key ``key`` of ``query``, or the function that
    builds it, when the record may be served; else None.

    Each record of a kind that counts walks (unique, conditional-unique) is
    checked once per *shape*, ``(kind, condition symbols, sequence)``. A
    shape whose walk NFA a full ``_record_certificate`` has passed is kept
    in ``cache.shapes`` with the index ``first`` of its *step partition*,
    in which steps i and j share a class when ``(s_i, y_i, s_i+1) = (s_j,
    y_j, s_j+1)`` (y is the condition, ``0^n`` for the unique kind):
    ``first[i]`` is the least j in the class of i (``_step_index``). A
    record on a known shape is served when ``len(x) == len(first)``, its
    walk NFA has ``value`` states and ``x == tuple(map(x.__getitem__,
    first))``: one lookup and one comparison, with no NFA built. The NFA
    has ``max(sequence) + 1`` states, as a known shape's sequence is slow.
    The comparison holds exactly when the target x is constant on the step
    partition, that is, when the NFA has one edge per class: if steps i and
    k share a class, then ``first[i] = first[k]`` and ``x[i] = x[first[i]]
    = x[k]``; conversely ``first[i]`` lies in the class of i. Such a hit
    returns the builder of its certificate, the walk NFA over the query's
    labels (``_walk_words``), run only if the certificate is read. Any
    other record is checked in full and, when it passes, adds its shape.

    Why one proof per shape suffices. Let ``M_x``, the walk NFA of the
    sequence reading ``track(y, x)`` (x for the unique kind), verify. Then
    x is constant on the step partition: otherwise two parallel edges would
    give two walks. Let x' be constant on it too. The map
    ``(s_i, (y_i, x_i), s_i+1) -> (s_i, (y_i, x'_i), s_i+1)`` is then a
    bijection of the edges that keeps their endpoints and first
    coordinates. So the walks that read y (for the unique kind, all walks)
    correspond one to one, ``M_x'`` has exactly one, and it is the walk
    that generates ``M_x'`` and spells x'. ``M_x'`` verifies, on the states
    of the sequence. The exact and DFA kinds are excluded: their checks
    count words, which depend on labels beyond the step partition.
    """
    kind, x = query.kind, query.target.symbols
    shape = (kind, key[2], sequence) if KINDS[kind].counts == "walks" else None
    if shape is not None:
        first = cache.shapes.get(shape)
        if (
            first is not None
            and len(x) == len(first)
            and max(sequence) + 1 == value
            and x == tuple(map(x.__getitem__, first))
        ):
            return functools.partial(_walk_certificate, query, sequence)
    cert, _why = _record_certificate(query, value, sequence, nodes)
    if cert is not None and shape is not None:
        y = (0,) * len(x) if query.condition is None else query.condition.symbols
        cache.add_shape(shape, _step_index(sequence, y))
    return cert


def _step_index(sequence: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The index of the step partition of the walk ``sequence`` reading the
    condition ``y``: at position i, the least j with ``(s_j, y_j, s_j+1) =
    (s_i, y_i, s_i+1)``."""
    first: dict = {}
    return tuple([first.setdefault(step, i) for i, step in enumerate(zip(sequence, y, sequence[1:]))])


def _walk_certificate(query: ComplexityQuery, sequence: tuple[int, ...]) -> WitnessCertificate:
    """The certificate of a hit on a known walk shape: the walk NFA of
    ``sequence`` over the labels of ``query``, which the shape's proof
    (``_hit_certificate``) shows verifies on the record's value of states."""
    return _certificate(query, walk_nfa(sequence, _walk_words(query.kind, query.target, query.condition)[0]))


def _certificate(query: ComplexityQuery, nfa: Nfa) -> WitnessCertificate:
    """The claim that ``nfa`` witnesses ``query`` on its own states."""
    return WitnessCertificate(
        kind=query.kind, target=query.target, condition=query.condition, nfa=nfa, claimed_states=nfa.state_count
    )


def _complete_to_total(base: Nfa, n: int, nodes: _Nodes) -> Nfa | None:
    """Try to fill a deterministic exact witness into a total DFA, keeping
    exactly one accepted word of length n.

    Each node of the filling counts the accepted words once. In a DFA a word
    has one walk, so the words are counted as walks from the start,
    saturated at 2, as the masks ``(one, two)`` of the states at least one
    and at least two walks of each length reach. A state gets a second walk
    from a second source, or from a source with two. Two labels may join one
    pair of states here, so a source also keeps the mask of the targets that
    two of its labels reach: those get a second walk from the source's
    one."""
    q = base.state_count
    sigma = base.alphabet_size
    table: dict[tuple[int, int], int] = {}
    for frm, label, to in base.edges:
        table[(frm, label)] = to
    slots = [
        (s, a) for s in range(q) for a in range(sigma) if (s, a) not in table
    ]
    accept = 1 << next(iter(base.accepts))
    # per source: the targets of its edges, and those two of its labels reach
    targets = [0] * q
    doubled = [0] * q

    def refresh(s: int) -> None:
        one = two = 0
        for a in range(sigma):
            to = table.get((s, a))
            if to is not None:
                two |= one & 1 << to
                one |= 1 << to
        targets[s] = one
        doubled[s] = two

    def accepted_count() -> int:
        one, two = 1 << base.start, 0
        for _ in range(n):
            n1 = n2 = 0
            while one:
                low = one & -one
                s = low.bit_length() - 1
                succ = targets[s]
                n2 |= succ if low & two else (n1 & succ) | doubled[s]
                n1 |= succ
                one ^= low
            one, two = n1, n2
        return 2 if two & accept else 1 if one & accept else 0

    def rec(i: int) -> bool:
        nodes.count += 1
        if nodes.count > nodes.limit:
            nodes.overrun()
        accepted = accepted_count()
        if accepted >= 2:
            return False
        if i == len(slots):
            return accepted == 1
        slot = slots[i]
        for to in range(q):
            table[slot] = to
            refresh(slot[0])
            if rec(i + 1):
                return True
            del table[slot]
            refresh(slot[0])
        return False

    for s in range(q):
        refresh(s)
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


def _total_dfa(base: Nfa, value: int, n: int, nodes: _Nodes) -> Nfa | None:
    """A total DFA on ``value`` states from the deterministic witness ``base``:
    ``base`` filled in when ``value`` is its state count, ``base`` plus one
    dead state when ``value`` is one more; None otherwise or if no filling
    keeps a single accepted word."""
    if value == base.state_count + 1:
        return _sink_completion(base)
    if value == base.state_count:
        return _complete_to_total(base, n, nodes)
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
    kind: str, labels: Word, classes: Word, cap: int, nodes: _Nodes,
) -> tuple[int, tuple[int, ...]]:
    """The least state count from 1 to ``cap`` with a witness reading
    ``labels`` in ``classes``, and the least witnessing sequence there."""
    for q in range(1, cap + 1):
        nodes.level = q
        for seq in _iter_witness_sequences(kind, labels, classes, q, nodes):
            return q, seq
    raise BudgetExceeded(cap + 1, nodes.count)


def _least_witnesses(
    y: tuple[int, ...], xs: list[tuple[int, ...]], nodes: _Nodes,
) -> list[tuple[int, tuple[int, ...]]]:
    """``_least_witness`` from 1 state for the conditional-unique kind of
    every target x of ``xs`` given the condition y, all symbol tuples, from
    one search per level over the shapes of y.

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
    those of the unique kind's ``_least_witness`` for x.

    The search carries the list of targets still active on the current
    prefix. A step along an edge ``(p, y_t, q)`` first used at position j
    drops the targets with ``x_t != x_j``, and a branch with no active
    target left is pruned. A target drops out only where every extension of
    the prefix is incompatible with it, so the first shape at which it is
    active at a leaf is its first compatible shape: the value and least
    witnessing sequence of its labeled search. Each target resolves there
    and leaves every active list. The meter ``nodes`` may be shared by
    several batches: each sets its level from 1, and an overrun raises
    ``BudgetExceeded`` with the level being searched as its lower bound,
    since the targets still pending failed every level below it.
    """
    n = len(y)
    if any(len(x) != n for x in xs):
        raise ValueError("condition and targets must have equal length")
    found: list = [None] * len(xs)
    pending = list(range(len(xs)))
    condition = _used_word(y)
    cap = value_cap(KIND_COND_UNIQUE, n)
    for q in range(1, cap + 1):
        if not pending:
            return found
        nodes.level = q
        targets = _ActiveTargets(xs, y, found, pending)
        for seq in _iter_witness_sequences(KIND_COND_UNIQUE, condition, condition, q, nodes, targets):
            targets.resolve((q, seq))
    if pending:
        raise BudgetExceeded(cap + 1, nodes.count)
    return found


class _ActiveTargets:
    """The targets of ``_least_witnesses`` still active on the prefix of one
    level's search, as the ``targets`` hook of ``_iter_witness_sequences``.

    ``active[t]`` lists the targets active after t steps; the lists are
    shared along steps that drop none, and ``active[0]`` is the list of
    pending targets. ``first[edge]`` is the step that put ``edge`` in use.
    An entry outlives its edge, but it is read only while the edge is in
    use, and the step that last added the edge wrote it.
    """

    __slots__ = ("xs", "y", "found", "active", "first")

    def __init__(self, xs: list[tuple[int, ...]], y: tuple[int, ...], found: list, pending: list[int]):
        self.xs = xs
        self.y = y
        self.found = found
        self.active = [pending] * (len(y) + 1)
        self.first: dict[tuple[int, int, int], int] = {}

    def admit(self, t: int, frm: int, nxt: int, new: bool) -> bool:
        """Take the step to ``nxt`` after t steps, keeping the targets it
        leaves active; False when it leaves none."""
        edge = (frm, self.y[t], nxt)
        live = self.active[t]
        if new:
            self.first[edge] = t
            self.active[t + 1] = live
            return True
        j = self.first[edge]
        xs = self.xs
        kept = [i for i in live if xs[i][t] == xs[i][j]]
        if not kept:
            return False
        self.active[t + 1] = kept
        return True

    def resolve(self, witness: tuple[int, tuple[int, ...]]) -> None:
        """Record ``witness`` for the targets active at the leaf, and drop
        them from every active list."""
        found = self.found
        for i in self.active[-1]:
            found[i] = witness
        shrunk = None
        for lst in self.active:
            if lst is not shrunk:
                lst[:] = [i for i in lst if found[i] is None]
                shrunk = lst


def _search_det_total(
    target: Word, classes: Word, cap: int, nodes: _Nodes
) -> tuple[int, tuple[int, ...], Nfa]:
    """The det-total value up to ``cap``, the det-partial sequence its
    witness is built from, and the witness: the first deterministic witness
    on the fewest states that fills in to a total DFA, else the first one
    plus a dead state. ``classes`` is the one-class word of ``_walk_words``."""
    n = len(target)
    for q in range(1, cap + 1):
        nodes.level = q
        first = None
        for seq in _iter_witness_sequences(KIND_DET_PARTIAL, target, classes, q, nodes):
            if first is None:
                first = seq
            total = _complete_to_total(walk_nfa(seq, target), n, nodes)
            if total is not None:
                return q, seq, total
        if first is not None:
            # no total DFA at the minimum: one extra dead state always suffices
            if q + 1 > cap:
                raise BudgetExceeded(q + 1, nodes.count)
            return q + 1, first, _sink_completion(walk_nfa(first, target))
    raise BudgetExceeded(cap + 1, nodes.count)


def memo_key(query: ComplexityQuery) -> tuple:
    """The flat key ``(kind, target symbols, third)``, a query's identity in
    the cache, the provider's memo and its batches. The third place holds
    the condition symbols, det-total's alphabet size (a total DFA has an
    edge for every letter, used or not) or None. Other alphabet sizes are
    left out: unused letters label no witness edge, so they change no value.
    """
    condition = query.condition
    if condition is not None:
        return query.kind, query.target.symbols, condition.symbols
    if query.kind == KIND_DET_TOTAL:
        return query.kind, query.target.symbols, query.target.alphabet_size
    return query.kind, query.target.symbols, None


# the words of key_query, shared (words are immutable) and bounded
_used_word = functools.lru_cache(maxsize=4096)(lambda s: Word(s, max(s, default=0) + 1))


def key_query(key: tuple) -> ComplexityQuery:
    """The query whose ``memo_key`` is ``key``, its words over exactly the
    symbols they use (det-total over the alphabet size the key holds)."""
    kind, target, third = key
    if kind == KIND_DET_TOTAL:
        return ComplexityQuery(kind, Word(target, third))
    return ComplexityQuery(kind, _used_word(target), None if third is None else _used_word(third))


# the slow forms canonical_key reads, each word's taken once; bounded, since
# a study reads each pair word about once
_slow_form = functools.lru_cache(maxsize=4096)(slow_symbols)


def canonical_key(key: tuple) -> tuple:
    """The cache key of the memo key ``key``: its symbol tuples relabeled to
    their slow forms (``words.slow_symbols``), read from a bounded per-word
    memo: a study asks for the keys of the same few words again and again.

    Relabeling either alphabet permutes labels pointwise, and symbols that
    never occur cannot appear on any witness edge, so the slow form over the
    used symbols preserves every counting discipline along with the witness
    state sequences. A condition already in slow form is kept as the same
    object, so the walk shapes a cache keeps (``_hit_certificate``) share
    the condition tuples of the queries' words.
    """
    kind, target, third = key
    if kind in CONDITIONAL_KINDS:
        slow = _slow_form(third)
        third = third if slow == third else slow
    return kind, _slow_form(target), third


def canonical_query(query: ComplexityQuery) -> ComplexityQuery:
    """The query of ``canonical_key``: both words relabeled to their slow
    representatives over the symbols they use; det-total keeps its alphabet
    size."""
    return key_query(canonical_key(memo_key(query)))


def _slow_forms(symbols: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The slow forms of a word's symbols and of their reversal."""
    return slow_symbols(symbols), slow_symbols(symbols[::-1])


# the forms of the words that class keys read, each taken once; bounded,
# since a sampled study reads most of its words about once
_word_forms = functools.lru_cache(maxsize=4096)(_slow_forms)


def class_key(key: tuple) -> tuple:
    """The key of the class of queries that share the value of ``key``, a
    memo key or the provider's ``("track", x, y)`` for the unique kind of
    ``track(x, y)``: the least memo key over every relabeling of each word,
    taken separately, and for the reversible kinds over the same for the
    reversed words.

    Relabeling x alone maps the witnesses for ``C(x|y)``, ``C(y|x)``,
    ``C(x)`` and ``C(x#y)`` one to one onto witnesses of the same size: it
    permutes the letters of x on the edge labels, pointwise, and leaves the
    states and walks as they are. So each distance depends on x and y only
    up to separate relabelings, and the least relabeling of a word is its
    slow form. det-total keeps its alphabet size. For the reversible kinds
    (unique, exact and both conditional kinds) ``A(w) = A(w^R)``: reversing
    every edge of a walk-generated witness and swapping its start and accept
    maps the walks of length n from start to accept one to one onto walks
    reading the reversed word(s). Reversal does not keep determinism, so the
    DFA kinds are excluded. The reversed key wins when it sorts first, the
    forward one on a tie. A pair word is relabeled from
    its letter pairs, which name the letters of ``track(x, y)`` one to one;
    pair words are met once each, so only single words' forms are kept.

    The key names a value, not a certificate: the witnesses of the two
    orientations differ.
    """
    kind, target, third = key
    forms = _word_forms
    if kind == "track":
        kind, target, third = KIND_UNIQUE, tuple(zip(target, third, strict=True)), None
        forms = _slow_forms
    fx, bx = forms(target)
    if kind == KIND_DET_TOTAL:
        return kind, fx, third
    fy, by = (None, None) if third is None else forms(third)
    forward = kind, fx, fy
    if not KINDS[kind].reversible:
        return forward
    back = kind, bx, by
    return back if back < forward else forward


def compute(
    query: ComplexityQuery,
    budget: Budget | None = None,
    cache=None,
) -> ComplexityResult:
    """Smallest witness state count for the query, with a verified certificate.

    Searches walk-generated witnesses on increasing state counts from 1, so
    the first hit is minimal and the lexicographically least witnessing
    sequence is returned. The search stops at the *cap*:
    ``budget.max_states`` when given (0 if negative), but never above
    ``value_cap``. When no level up to the cap holds a witness,
    ``BudgetExceeded(cap + 1)`` says the value is above it. The empty word
    is the record ``(1, (0,))`` with no search, and under a cap of 0 it
    raises ``BudgetExceeded(1, 0)``: no automaton has 0 states.

    A cache serves one record only, the query's own, and only when its value
    is within the cap; any other query is searched, and the search writes
    its record. The hit is checked by ``_hit_certificate``: its certificate
    is rebuilt and verified, or, for the unique and conditional-unique
    kinds, it lies on a walk shape that a full verification on the same
    cache object proved and its target is constant on that shape's step
    partition (the proof is in the ``_hit_certificate`` docstring). That
    check reads the record's symbols and builds nothing: the result's
    certificate is built when it is first read. ``track(condition,
    target)`` is built only for a search or a full check. A record that
    fails is not served; the query is searched and its record rewritten.
    det-total's record keeps the deterministic walk its total DFA was built
    from, and a hit builds that DFA again.

    A hit's witness is verified, but its minimality rests on the value
    having been searched for. Only ``autocomplexity cache audit``
    (``audit_record``) proves it. A cache file holding just the line
    ``unique 0000@1 - 3 0,1,2,2,2`` (fields separated by tabs) is served as
    ``A(0000) = 3`` with 0 nodes, since that 3-state walk is a valid witness
    within the cap, though the value is 1. Under ``max_states=2`` the record
    is above the cap, so ``0000`` is searched, gets 1 and rewrites it. No
    record bounds a value from below: every lower bound ``compute`` and
    ``value_at_most`` report rests on a search of the same call. A hit's
    check sets no level, so a node-budget overrun there raises
    ``BudgetExceeded(1)`` (``_Nodes``).
    """
    budget = budget or Budget()
    started = time.perf_counter()
    target, condition, kind = query.target, query.condition, query.kind
    n = len(target)
    cap = value_cap(kind, n)
    if budget.max_states is not None:
        cap = min(cap, max(budget.max_states, 0))
    if n == 0:
        if cap == 0:
            raise BudgetExceeded(1, 0)
        # the empty word's record; det-total's loops are filled in, not searched
        cert, why = _record_certificate(query, 1, (0,), _Nodes())
        assert why is None, why
        return ComplexityResult(1, cert, 0, time.perf_counter() - started)

    nodes = _Nodes(budget.max_nodes)
    if cache is not None:
        key = canonical_key(memo_key(query))
        hit = cache.get(key)
        # a value above the cap is not the value the search would return
        if hit is not None and hit[0] <= cap:
            cert = _hit_certificate(cache, key, *hit, query, nodes)
            if cert is not None:
                return ComplexityResult(hit[0], cert, nodes.count, time.perf_counter() - started)

    labels, classes = _walk_words(kind, target, condition)
    if kind == KIND_DET_TOTAL:
        value, seq, nfa = _search_det_total(target, classes, cap, nodes)
    else:
        value, seq = _least_witness(kind, labels, classes, cap, nodes)
        nfa = walk_nfa(seq, labels)
    cert, why = _record_certificate(query, value, seq, nodes, nfa)
    assert why is None, why
    if cache is not None:
        cache.put(key, value, seq)
    return ComplexityResult(value, cert, nodes.count, time.perf_counter() - started)


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
    ``value_at_most(query, value - 1)``, a search from one state with no
    cache; a value of 1 is minimal by definition. That is a full search per
    record, which is why a hit is never checked this way. A node-budget
    overrun raises ``BudgetExceeded``.
    """
    cap = value_cap(query.kind, len(query.target))
    if value > cap:
        return f"the value is above the cap of {cap}"
    _cert, why = _record_certificate(query, value, sequence, _Nodes())
    if why is not None:
        return why
    if value > 1:
        smaller = value_at_most(query, value - 1)
        if smaller is not None:
            return f"not minimal: the value is {smaller}"
    return None


def witness_at(query: ComplexityQuery, states: int, max_nodes: int = DEFAULT_MAX_NODES) -> WitnessCertificate | None:
    """First witness using exactly ``states`` states, without proving
    minimality, or None when there is none.

    For det-total it is a total DFA: the first det-partial witness on
    ``states - 1`` states plus a dead state, else the first det-partial
    witness on ``states`` states that fills in to a total DFA. At the value
    this is the certificate ``compute`` finds (``_search_det_total``). No
    level below ``states`` is ruled out, so a node-budget overrun raises
    ``BudgetExceeded(1)``."""
    nodes = _Nodes(max_nodes)
    kind = query.kind
    labels, classes = _walk_words(kind, query.target, query.condition)
    walks, levels = kind, (states,)
    if kind == KIND_DET_TOTAL:
        walks, levels = KIND_DET_PARTIAL, range(max(states - 1, 1), states + 1)
    for q in levels:
        for seq in _iter_witness_sequences(walks, labels, classes, q, nodes):
            cert, _why = _record_certificate(query, states, seq, nodes)
            if cert is not None:
                return cert
    return None


def all_witness_sequences(
    query: ComplexityQuery, at_states: int, max_nodes: int = DEFAULT_MAX_NODES
) -> Iterator[tuple[int, ...]]:
    """Every witnessing slow state sequence using exactly at_states states,
    none for fewer than 1. det-total has no sequence stream (its witnesses
    are not walk-generated): iterating it raises ``ValueError``. No level
    is ruled out, so a node-budget overrun raises ``BudgetExceeded(1)``."""
    yield from _iter_witness_sequences(
        query.kind, *_walk_words(query.kind, query.target, query.condition), at_states, _Nodes(max_nodes)
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
            if verify_certificate(_certificate(exact_query, nfa.without_edge(edge)))[0]:
                minimal = False
                break
        entries.append(
            SparseWitnessEntry(
                nfa=nfa,
                edge_count=nfa.edge_count(),
                edge_minimal=minimal,
                sequences=tuple(sorted(seqs)),
                is_unique_witness=verify_certificate(_certificate(unique_query, nfa))[0],
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
    if max_len < 0:
        raise ValueError(f"max_len must be at least 0, not {max_len}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be at least 1, not {alphabet_size}")
    found = []
    for n in range(1, max_len + 1):
        for w in slow_words(n, alphabet_size):
            if emergent_simplicity(w, cache, max_nodes):
                found.append(w)
    return found

