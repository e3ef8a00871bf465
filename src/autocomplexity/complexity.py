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

The rules of a node make one *candidate mask*, computed once per node from
the edge table ``used[label][frm]`` and the image masks (see
``_iter_witness_sequences``). Only its set bits are pushed, in ascending
order; the refused steps between them are counted in bulk, so the node
count, and where a budget runs out, are those of a search that tries every
step. The pair rule refuses nothing the image masks do not, so the mask
needs no term of its own for it: the target of a second label of the class
from the walk's position is reached by another walk, the one there followed
by that label's edge (for words, by the own word followed by that label).

Only a step along a new edge recounts the prefix, and the counter does it
(its ``push``). A new edge ``frm -> nxt`` adds walks, and only the walks
through it; the own walk is not among them, as its edges are in use. So
the walk counter recounts by a *delta mask* D, the states those walks
reach: D steps along each step's class as the other walks do, takes
``nxt`` at each earlier step of the edge's class whose counts reach
``frm``, kills the prefix where it holds the walk's next state, and joins
both masks of the step. Once D lies within the other walks' mask O, it is
dropped: O's walks already carry it along the old edges, and the new edge
is taken from ``frm`` at every later step of its class anyway. The step
itself is the node's reused-edge image mask, the successors of O, together
with those of D: the edge leaves from the walk's position, which O does
not hold, so the image mask is still that of the new tables. The word
counter recounts in full.

Deterministic-total automata are not walk-generated; they are handled by
completing walk-generated deterministic witnesses into total transition
tables.
"""

from __future__ import annotations

import collections
import functools
import itertools
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
from .words import Word, one_class_word, slow_symbols, slow_words, track

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


@dataclass(frozen=True)
class ComplexityResult:
    """A query's value, its certificate and the search nodes spent.

    ``certificate`` is built once, when first read, and then kept. A search
    or a full check hands over the certificate it has just verified; a hit
    of the unique kinds, checked on its proven walk shape, hands over the
    function that builds it (see ``_hit_certificate``), since a study reads
    values only."""

    value: int
    _certificate: WitnessCertificate | Callable[[], WitnessCertificate] = field(repr=False, compare=False)
    explored: int

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
    the conditional kinds, else ``target`` and the one-class word ``0^n``.
    ``words.track`` is the one pair encoder."""
    if KINDS[kind].conditional:
        assert condition is not None
        return track(condition, target), condition
    return target, one_class_word(len(target))


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

    A new edge ``frm -> nxt`` of class c changes the prefix only by the
    walks through it, and ``push`` recounts by their mask D. The own walk
    is not one of them: its edges are in use and this one is new. So with
    the new tables, and D_0 empty::

        D_i+1 = succ_c_i(D_i) | (bit(nxt) if c_i = c and frm in R_i)
        R_i+1 = R_i+1 | D_i+1,  O_i+1 = O_i+1 | D_i+1

    since a walk through the edge extends along every edge, and any walk
    at ``frm`` before a step of class c takes the edge there (the own walk
    too, if s_i = ``frm``: it is then another walk). The prefix dies where
    D_i+1 holds s_i+1. Only ``D & ~O`` is carried: a walk through the edge
    at a state of O goes on along the old edges as O's walks do, which the
    old masks hold, and along the new one by the injection, as O is within
    R. So an absorbed D is dropped, and the steps up to the next injection
    keep their masks. The step out of s_t = ``frm`` itself needs
    ``succ_c(O_t | D_t)``: that is ``fails | succ_c(D_t)``, where ``fails``
    is the node's reused-edge image mask ``succ_c(O_t)`` under the old
    tables. It is that of the new tables too, as the new edge leaves
    ``frm``, which O_t does not hold.

    A deterministic counter takes no second successor for a (state, label)
    pair. A DFA's walks from the start and the words they read correspond
    one to one, so its walk counts are its word counts.
    """

    __slots__ = ("used", "paired", "steps", "det")

    def __init__(self, q: int, labels: Word, classes: Word, deterministic: bool):
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
        reaches ``state``: the step computed anew, which ``push`` takes
        without a pass over O."""
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

    def push(
        self, stack: list, seq: list[int], t: int, state: int, new: bool, fails: int,
    ) -> tuple[int, int] | None:
        """The masks after step t, to ``state``, or None when a second walk
        reaches it; ``fails`` is the reused-edge image mask of ``stack[t]``.
        A new edge ``seq[t] -> state``, already in the tables, first
        recounts ``stack[1..t]`` in place by its delta mask D (see the class
        docstring; the caller restores them)."""
        steps = self.steps
        succ = steps[t]
        frm = seq[t]
        delta = 0
        if new:
            low = 1 << state
            i = 0
            while i < t:
                if delta:
                    step = steps[i]
                    d = low if step is succ and stack[i][0] >> frm & 1 else 0
                    for s in _SET_BITS[delta]:
                        d |= step[s]
                elif steps[i] is succ and stack[i][0] >> frm & 1:
                    d = low
                else:
                    i += 1
                    continue
                i += 1
                if d >> seq[i] & 1:
                    return None
                reached, others = stack[i]
                delta = d & ~others
                if delta:
                    stack[i] = reached | delta, others | delta
        n = fails
        for s in _SET_BITS[delta]:
            n |= succ[s]
        if n >> state & 1:
            return None
        mine = succ[frm]
        return n | mine, n | (mine & ~(1 << state))


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

    __slots__ = ("q", "used", "paired", "steps", "classes")
    det = False

    def __init__(self, q: int, labels: Word, classes: Word):
        self.q = q
        self.classes = classes.symbols
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

    def push(
        self, stack: list, seq: list[int], t: int, state: int, new: bool, fails: int,
    ) -> tuple[int, int, int] | None:
        """The masks after step t, to ``state``, or None when a second word
        reaches it; ``fails`` is the image mask of ``stack[t]``. A new edge
        out of ``seq[t]``, already in the tables, first recounts
        ``stack[1..t]`` in place, from each step of its class whose counts
        reach ``seq[t]`` until a vector comes out as it was (the caller
        restores them). Where the recount leaves ``stack[t]`` as it was,
        O' is ``fails`` under the new tables too: the edge's label leaves
        ``seq[t]``, which O does not hold, and the other labels' edges are
        as they were."""
        if new:
            advance, classes, frm = self.advance, self.classes, seq[t]
            cls = classes[t]
            i = 0
            while i < t:
                if classes[i] != cls or not stack[i][0] >> frm & 1:
                    i += 1
                    continue
                while i < t:
                    w = advance(stack[i], i, seq[i + 1])
                    i += 1
                    if w is None:
                        return None
                    if w == stack[i]:
                        break
                    stack[i] = w
                else:
                    # the recount changed stack[t]
                    return advance(stack[t], t, state)
        if fails >> state & 1:
            return None
        own = self.steps[t][0]
        mine = 0
        for s in _SET_BITS[stack[t][1]]:
            mine |= own[s]
        return mine | fails, mine, fails


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

    ``level`` starts at 1, and only the level loops (``_least_witness`` and
    ``_group_witnesses``) set it, to each state count q as they enter it:
    they searched every level below q in full.
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
    kind: str, labels: Word, classes: Word, q: int, nodes: _Nodes,
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

        (used & ~reuse_fails) | ~new_fails   up to bit limit

    (only its first half for a DFA kind whose ``(s_t, label)`` has an edge).
    The loop visits its set bits in ascending order and counts the refused
    steps between them in bulk, so ``nodes.count`` is at every step what a
    count of one node per step would be, and an overrun raises at the same
    node (``_Nodes.overrun``). A step is the counter's ``push`` to ``nxt``.
    A new edge ``(s_t, label, nxt)`` of class ``cls`` can change
    ``stack[i + 1]`` only at a step i of class ``cls`` whose counts reach
    ``s_t`` (in ``stack[i][0]``), and only by the walks or words it adds,
    so the push recounts the prefix in place first. The walk counter
    carries the delta mask of the walks through the edge, injected at each
    such step and dropped once the other walks' mask holds it, since those
    walks carry it on already (``_WalkCounts``); the word counter recounts
    in full from each such step until a vector comes out as it was. The
    step is then built from ``reuse_fails`` and what the recount added to
    ``stack[t]``, not from a second pass over ``stack[t]``: the new edge
    leaves ``s_t``, where no other walk or word is, so the image mask is
    that of the new tables as well. The prefix is restored when the step is
    popped, or at once if it dies. A leaf on q states is a witness: its
    last push left one walk or word at the accept.

    The depth prune (a prefix that cannot reach q states) and the leaf's
    state-count test matter only to a stream at a fixed level above the
    value (``witness_at``, ``all_witness_sequences``). In a search from one
    state the lemma of ``_group_witnesses`` keeps them from firing for the
    NFA kinds: a live prefix extends along fresh states to a witness on
    top + 1 + n - t states, and no level below q had one. A DFA kind's
    fresh path cannot leave an ``(s_t, label)`` that has an edge, so the
    lemma does not cover it, though neither test fired in its searches
    from one state over every binary word up to length 8 and ternary word
    up to length 5.
    """
    if kind == KIND_DET_TOTAL:
        raise ValueError("total DFAs are not walk-generated; no sequence stream")
    if q < 1:
        return
    n = len(labels)
    counts = _counter(kind, q, labels, classes)
    push, image = counts.push, counts.image
    used, paired, det = counts.used, counts.paired, counts.det
    labels_s, classes_s = labels.symbols, classes.symbols
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
            cand |= ~new_fails
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
            if new:
                used_row[frm] |= low
                paired_row[frm] |= low
                snapshot = stack[1 : t + 1]
            w = push(stack, seq, t, nxt, new, reuse_fails)
            if w is not None:
                seq.append(nxt)
                stack.append(w)
                yield from node(t + 1, top if nxt <= top else nxt)
                seq.pop()
                stack.pop()
            if new:
                stack[1 : t + 1] = snapshot
                used_row[frm] ^= low
                paired_row[frm] ^= low
        count = nodes.count + limit - done
        if count > limit_nodes:
            nodes.overrun()
        nodes.count = count

    yield from node(0, 0)


def _record_certificate(
    query: ComplexityQuery, value: int, sequence: tuple[int, ...], nodes: _Nodes,
) -> tuple[WitnessCertificate | None, str | None]:
    """``(certificate, None)`` for the record ``(value, sequence)`` of
    ``query`` when its certificate is built, verifies and has ``value``
    states, else ``(None, reason)``.

    The certificate is the walk NFA of the sequence over the query's labels
    (``_walk_words``); for det-total, the total DFA ``_total_dfa`` builds
    from that walk NFA, spending the nodes of the meter ``nodes``. A
    sequence that is not a slow walk of one step per letter builds none.
    ``verify_certificate`` judges the certificate; this is the check of a
    search's result (``compute``), the hit check of the exact and DFA kinds
    (``_hit_certificate``) and the first check of ``audit_record``. A check
    sets no level, so before a search an overrun raises
    ``BudgetExceeded(1)``. The empty word's record is ``(1, (0,))``: one
    state, no edges, and for det-total a loop per letter.
    """
    labels = _walk_words(query.kind, query.target, query.condition)[0]
    try:
        nfa = walk_nfa(sequence, labels)
    except ValueError as e:
        return None, f"no walk NFA: {e}"
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
    key: tuple, value: int, sequence: tuple[int, ...], query: ComplexityQuery, nodes: _Nodes,
) -> WitnessCertificate | Callable[[], WitnessCertificate] | None:
    """The certificate of the record ``(value, sequence)`` held under the
    canonical key ``key`` of ``query``, or the function that builds it,
    when the record may be served; else None.

    The exact and DFA kinds, whose checks count words, are checked in full
    by ``_record_certificate``. A record of the unique kinds lies on the
    *walk shape* ``(y, sequence)``, y the condition ``key[2]``, or the
    symbols of ``one_class_word(n)`` for the unique kind's None, so that a
    unique record and a conditional-unique one given ``0^n`` share one
    proof. Steps i and j share a class of its *step
    partition* when ``(s_i, y_i, s_i+1) = (s_j, y_j, s_j+1)``, and
    ``_shape_index`` gives the index ``first`` of a proven shape,
    ``first[i]`` the least j in the class of i. The record is served when
    ``len(x) == len(first)``, ``value == max(sequence) + 1`` and ``x ==
    tuple(map(x.__getitem__, first))``, which holds exactly when the target
    x is constant on the partition: if i and k share a class, ``x[i] =
    x[first[i]] = x[k]``, and ``first[i]`` lies in the class of i. Such a
    hit builds nothing and returns the builder of its certificate
    (``_walk_certificate``), run only if the certificate is read.

    Why this is the full check. Let ``M_y`` be the walk NFA of the sequence
    reading y and ``M_x`` the one reading ``track(y, x)`` (x for the unique
    kind). If x is constant on the partition, ``(s_i, y_i, s_i+1) -> (s_i,
    (y_i, x_i), s_i+1)`` is a bijection of their edges that keeps the
    endpoints and maps each label of ``M_x`` to its first coordinate. So
    the walks that read y correspond one to one, and ``M_x`` has exactly
    one exactly when the shape is proven: the walk that generates ``M_x``,
    which spells x. ``M_x`` then verifies, on the states of the sequence.
    If x is not constant on the partition, two parallel edges of one class
    give that walk a twin, and ``M_x`` fails. The proof does not read x,
    so one proof serves every record on the shape.
    """
    kind, x = query.kind, query.target.symbols
    if KINDS[kind].counts != "walks":
        return _record_certificate(query, value, sequence, nodes)[0]
    y = one_class_word(len(x)).symbols if key[2] is None else key[2]
    first = _shape_index(y, sequence)
    if (
        first is not None
        and len(x) == len(first)
        and value == max(sequence) + 1
        and x == tuple(map(x.__getitem__, first))
    ):
        return functools.partial(_walk_certificate, query, sequence)
    return None


@functools.lru_cache(maxsize=8192)
def _shape_index(y: tuple[int, ...], sequence: tuple[int, ...]) -> tuple[int, ...] | None:
    """The step-partition index of the walk shape ``(y, sequence)`` (see
    ``_hit_certificate``) when the walk NFA of ``sequence`` reading y has
    exactly one accepting walk that reads y, else None, also for a sequence
    that ``walk_nfa`` refuses: empty, not one longer than y, not slow, or
    with a negative state. A shape that is not proven is kept as well.

    Bounded, like ``_slow_form``, at 8,192 shapes: an n <= 8 study meets
    4,789 shapes, in the same order each round, so a bound below that
    evicts each shape just before the next round asks for it again (4,757
    proofs per round at 4,096), while this one proves each shape once per
    process. A cold binary row 10 proves 41,201 shapes; against a bound of
    4,096, this one raised its peak resident set by under 1 MB, and 16,384
    by about 3 MB (CPython 3.11, x86-64 Linux).

    The walks are counted with bit masks, with no NFA built:

    1. the sequence is refused where ``walk_nfa`` refuses it;
    2. in the same pass over the steps ``(s_i, y_i, s_i+1)``, the index,
       and from each distinct step the successor masks ``succ[c][1 << s]``:
       the states that an edge of letter c leads to from s;
    3. reading ``y[:t]``, ``(one, two)`` are the masks of the states that
       at least one and at least two walks from state 0 reach. A state gets
       a second walk from a second source, or from a source that already
       has two. The steps form a set, so one letter joins two states by at
       most one edge, and no source counts twice (``_complete_to_total``,
       which counts the words of a DFA, needs that term);
    4. the last state is in ``one``, reached by the walk of the sequence
       itself, and the shape is proven when it is not in ``two``.
    """
    if len(sequence) != len(y) + 1 or sequence[0] != 0:
        return None
    first: dict = {}
    succ: dict = {}
    index = []
    top = 0
    for i, step in enumerate(zip(sequence, y, sequence[1:])):
        to = step[2]
        if to > top:
            if to != top + 1:
                return None
            top = to
        elif to < 0:
            return None
        j = first.setdefault(step, i)
        index.append(j)
        if j == i:
            row = succ.setdefault(step[1], {})
            bit = 1 << step[0]
            row[bit] = row.get(bit, 0) | 1 << to
    one, two = 1, 0
    for c in y:
        one_next = two_next = 0
        for bit, mask in succ[c].items():
            if one & bit:
                two_next |= one_next & mask
                if two & bit:
                    two_next |= mask
                one_next |= mask
        one, two = one_next, two_next
    return None if two >> sequence[-1] & 1 else tuple(index)


def _walk_certificate(query: ComplexityQuery, sequence: tuple[int, ...]) -> WitnessCertificate:
    """The certificate of a unique-kind hit: the walk NFA of ``sequence``
    over the labels of ``query``, which the shape's proof
    (``_hit_certificate``) shows verifies on the record's value of states."""
    return _certificate(query, walk_nfa(sequence, _walk_words(query.kind, query.target, query.condition)[0]))


def _certificate(query: ComplexityQuery, nfa: Nfa) -> WitnessCertificate:
    """The claim that ``nfa`` witnesses ``query`` on its own states."""
    return WitnessCertificate(query.kind, query.target, nfa, nfa.state_count, query.condition)


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
    one. Each count builds these per-source masks from the table as it
    stands. The slots are filled in the order of their source and label,
    each with the targets in ascending order, and the first filling that
    keeps one word is the certificate."""
    q = base.state_count
    sigma = base.alphabet_size
    table: dict[tuple[int, int], int] = {}
    for frm, label, to in base.edges:
        table[(frm, label)] = to
    slots = [
        (s, a) for s in range(q) for a in range(sigma) if (s, a) not in table
    ]
    accept = 1 << next(iter(base.accepts))

    def accepted_count() -> int:
        # per source: the targets of its edges, and those two of its labels reach
        targets = [0] * q
        doubled = [0] * q
        for (s, _), to in table.items():
            doubled[s] |= targets[s] & 1 << to
            targets[s] |= 1 << to
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
            if rec(i + 1):
                return True
            del table[slot]
        return False

    if rec(0):
        edges = frozenset((frm, label, to) for (frm, label), to in table.items())
        return Nfa(q, base.start, base.accepts, edges, sigma)
    return None


def _total_dfa(base: Nfa, value: int, n: int, nodes: _Nodes) -> Nfa | None:
    """A total DFA on ``value`` states from the deterministic witness ``base``:
    ``base`` filled in when ``value`` is its state count, ``base`` plus one
    dead state that takes every transition ``base`` leaves undefined when
    ``value`` is one more; None otherwise or if no filling keeps a single
    accepted word."""
    q = base.state_count
    if value == q + 1:
        defined = {(frm, label) for frm, label, _ in base.edges}
        dead = {(s, a, q) for s in range(value) for a in range(base.alphabet_size) if (s, a) not in defined}
        return Nfa(value, base.start, base.accepts, base.edges | dead, base.alphabet_size)
    if value == q:
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
    ``labels`` in ``classes``, and the least witnessing sequence there.

    det-total streams the det-partial sequences of each level q and keeps
    the first whose walk NFA fills in to a total DFA on q states
    (``_total_dfa``, its nodes spent on ``nodes``). A level with sequences
    but no filling gives ``(q + 1, first)``, its first sequence plus a dead
    state, as a total DFA needs at most one state more than a partial one;
    above the cap that is ``BudgetExceeded(q + 1)``."""
    walks = KIND_DET_PARTIAL if kind == KIND_DET_TOTAL else kind
    for q in range(1, cap + 1):
        nodes.level = q
        first = None
        for seq in _iter_witness_sequences(walks, labels, classes, q, nodes):
            if kind != KIND_DET_TOTAL or _total_dfa(walk_nfa(seq, labels), q, len(labels), nodes) is not None:
                return q, seq
            first = first or seq
        if first is not None:
            if q + 1 > cap:
                raise BudgetExceeded(q + 1, nodes.count)
            return q + 1, first
    raise BudgetExceeded(cap + 1, nodes.count)


# The pairs of a batch whose conditions share ``y[:t]`` (see
# ``_group_witnesses``): a run of pair bits from bit ``lo``, with ``mask`` a
# bit per pair, a depth-n run's condition ``cond``, ``(a, shift, mask,
# child)`` per next letter a, and its slices of ``EQ[t][j]`` by t * n + j
_PairRange = collections.namedtuple("_PairRange", "lo mask cond children eq")


def _group_witnesses(
    ys: list[tuple[int, ...]], xss: list[list[tuple[int, ...]]], nodes: _Nodes,
) -> list[list[tuple[int, tuple[int, ...]]]]:
    """``_least_witness`` from 1 state for the conditional-unique kind of
    every target x of ``xss[c]`` given the condition ``ys[c]``, for distinct
    conditions of one length, all symbol tuples: one search per level over
    the shapes of every condition at once.

    The shapes of y on level q are the sequences ``_iter_witness_sequences``
    yields for the conditional-unique kind on q states with labels = classes
    = y, in that order: the slow sequences whose walk graph has exactly one
    walk from start to accept reading y. Walk counts read only the step
    classes, and the pair-label prune gives each state pair one label per
    class, so a shape witnesses x given y exactly when x is constant on its
    step partition (positions i and j share a class when ``(s_i, y_i,
    s_i+1) = (s_j, y_j, s_j+1)``): the labeled search for x given y yields
    the compatible shapes of each level in this order. With y = ``(0,) *
    n`` the records are the unique kind's, as ``A(x) = A(x | 0^n)``.

    A node is a joint prefix, the letters ``y[:t]`` of its conditions and
    the states ``s_0..s_t``, with one int, its *pair mask*: the (condition,
    target) pairs still active there. Pairs are numbered by condition, the
    conditions sorted on y, so those sharing ``y[:t]`` own one run of bits,
    a ``_PairRange``, to which the node's mask is relative. A node branches
    on the letter y_t, in ascending order, shifting its mask into the child
    run, then on the steps of ``_iter_witness_sequences`` with class y_t.
    A step along an edge ``(p, y_t, q)`` first used at step j
    (``first[edge]``, read while the edge is in use) ANDs the child run's
    slice of ``EQ[t][j]``, the union over b of ``L[t][b] & L[j][b]``, where
    ``L[t][b]`` holds the pairs whose target reads b at t. ``EQ[t][j]`` is
    kept as bytes, and a run reads its slice once from the bytes it spans,
    so no node pays for the group's width; a step keeping no pair is
    refused. A pair drops only where every extension of the prefix is
    incompatible with it, so the first leaf where it is active is its first
    compatible shape, the record of its labeled search. Distinct conditions
    part before depth n, so a leaf's run is one condition's, whose targets
    are its set bits. A node returns the bits resolved below it for its
    parent to clear, so masks hold pending pairs alone; a letter branch
    with none left ends with no further count.

    No node tests its level: the depth prune and the leaf test of
    ``_iter_witness_sequences`` cannot fire here. A pair active at a node
    of level q failed every level below q. Its prefix s_0..s_t on the
    states 0..top extends, along a path of n - t fresh states, to a witness
    on top + 1 + n - t states that is compatible with the pair. Each fresh
    edge is used once, so no ``EQ`` slice drops the pair. The own walk is
    alone at s_t after t steps, so another walk enters the path from s_t
    at another step; it runs along the path out of step with the own walk
    and is not at the path's end, the accept, after n steps. Hence top + 1
    + n - t >= q at every node, and every leaf (t = n) is on q states.

    Each condition's steps are those of its one-condition search, in order,
    so its records are too; shared prefixes are counted once, and one
    condition spends that search's nodes. The meter ``nodes`` may be shared
    by several groups: each sets its level from 1, and an overrun raises
    ``BudgetExceeded`` with the level being searched as its lower bound,
    since the targets still pending failed every level below it. The target
    columns are bytes, so every target letter must be below 256, as in a
    slow form of at most 256 letters (``ComplexityProvider.prefetch`` sends
    a longer target to ``compute``).
    """
    n = len(ys[0]) if ys else 0
    if any(map(n.__ne__, map(len, itertools.chain(ys, *xss)))):
        raise ValueError("conditions and targets must have equal length")
    if len(set(ys)) != len(ys):
        raise ValueError("the conditions of a group must be distinct")
    found: list[list] = [[None] * len(xs) for xs in xss]
    order = sorted(range(len(ys)), key=ys.__getitem__)
    offsets = list(itertools.accumulate((len(xss[c]) for c in order), initial=0))
    pending = (1 << offsets[-1]) - 1
    if not pending:
        return found
    # reads[t]: L[t][b] for each letter b of the targets, from the column flat[t::n], bit 0 the first pair
    flat = bytes(itertools.chain.from_iterable(x for c in order for x in xss[c]))
    tables = [bytes(48 + (i == b) for i in range(256)) for b in set(flat)]
    reads = [[int(flat[t::n][::-1].translate(table), 2) for table in tables] for t in range(n)]

    def split(t: int, lo: int, hi: int) -> _PairRange:
        """The run of the sorted conditions ``order[lo:hi]``, which share ``y[:t]``."""
        rng = _PairRange(offsets[lo], (1 << offsets[hi] - offsets[lo]) - 1, order[lo], [], {})
        for a, run in itertools.groupby(range(lo, hi) if t < n else (), lambda k: ys[order[k]][t]):
            run = list(run)
            child = split(t + 1, run[0], run[-1] + 1)
            rng.children.append((a, child.lo - rng.lo, child.mask, child))
        return rng

    rows: dict[int, bytes] = {}  # EQ[t][j] by t * n + j, little-endian

    def equal(rng: _PairRange, key: int) -> int:
        """``rng``'s slice of ``EQ[t][j]``, for ``key = t * n + j``; the
        letters' pairs are disjoint, so their sum is their union."""
        if key not in rows:
            t, j = divmod(key, n)
            rows[key] = sum(map(int.__and__, reads[t], reads[j])).to_bytes(offsets[-1] // 8 + 1, "little")
        lo = rng.lo
        part = rows[key][lo >> 3 : (lo + rng.mask.bit_length() >> 3) + 1]
        eq = rng.eq[key] = int.from_bytes(part, "little") >> (lo & 7) & rng.mask
        return eq

    root = split(0, 0, len(ys))
    del split  # a recursive closure is a reference cycle: free it now, not at a later collection
    # counter tables for every condition's letters; step t's is set when the search branches on y_t
    blank = Word((0,) * n, max((max(y, default=0) for y in ys), default=0) + 1)
    limit_nodes = nodes.limit
    cap = value_cap(KIND_COND_UNIQUE, n)
    for q in range(1, cap + 1):
        nodes.level = q
        counts = _WalkCounts(q, blank, blank, False)
        push, image, succ, steps = counts.push, counts.image, counts.paired, counts.steps
        first: dict[tuple[int, int, int], int] = {}
        last = q - 1
        seq = [0]
        stack = [counts.start()]

        def node(t: int, top: int, rng: _PairRange, mask: int) -> int:
            """Search below ``seq`` with the pairs ``mask`` of ``rng``
            active, and return those that resolve there."""
            if t == n:
                witness, done, left = (q, tuple(seq)), found[rng.cond], mask
                while left:
                    done[(left & -left).bit_length() - 1] = witness
                    left &= left - 1
                return mask
            limit = top + 1 if top < last else last
            frm = seq[t]
            resolved = 0
            for a, shift, width, child in rng.children:
                live = mask >> shift & width
                if not live:
                    continue
                row = steps[t] = succ[a]
                new_fails, reuse_fails = image(stack[t], t)
                reused = row[frm]
                cand = ((reused & ~reuse_fails) | ~new_fails) & ((2 << limit) - 1)
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
                    if new:
                        first[frm, a, nxt] = t
                        keep = live
                        row[frm] |= low
                        snapshot = stack[1 : t + 1]
                    else:
                        key = t * n + first[frm, a, nxt]
                        keep = live & (child.eq[key] if key in child.eq else equal(child, key))
                        if not keep:
                            continue
                    w = push(stack, seq, t, nxt, new, reuse_fails)
                    if w is not None:
                        seq.append(nxt)
                        stack.append(w)
                        below = node(t + 1, top if nxt <= top else nxt, child, keep)
                        seq.pop()
                        stack.pop()
                        if below:
                            live ^= below
                            resolved |= below << shift
                    if new:
                        stack[1 : t + 1] = snapshot
                        row[frm] ^= low
                    if not live:
                        break
                else:
                    count = nodes.count + limit - done
                    if count > limit_nodes:
                        nodes.overrun()
                    nodes.count = count
            return resolved

        pending ^= node(0, 0, root, pending)
        del node  # likewise, with the level's tables
        if not pending:
            return found
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
    object, so the keys of the shape memo (``_shape_index``) share the
    condition tuples of the queries' words.
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
    if KINDS[kind].deterministic:
        return forward
    back = kind, bx, by
    return back if back < forward else forward


def compute(
    query: ComplexityQuery,
    cache=None,
    *,
    max_states: int | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> ComplexityResult:
    """Smallest witness state count for the query, with a verified certificate.

    Searches walk-generated witnesses on increasing state counts from 1, so
    the first hit is minimal and the lexicographically least witnessing
    sequence is returned. The search stops at the *cap*:
    ``max_states`` when given (0 if negative), but never above
    ``value_cap``. When no level up to the cap holds a witness,
    ``BudgetExceeded(cap + 1)`` says the value is above it. The empty word
    is the record ``(1, (0,))`` with no search, and under a cap of 0 it
    raises ``BudgetExceeded(1, 0)``: no automaton has 0 states.

    A cache serves one record only, the query's own, and only when its value
    is within the cap; any other query is searched, and the search writes
    its record. The hit is checked by ``_hit_certificate``. For the unique
    and conditional-unique kinds the record's walk shape must be proven
    (``_shape_index``, once per shape, whatever cache holds the record) and
    its target constant on the shape's step partition; the proof that this
    is the full check is in the ``_hit_certificate`` docstring. That check
    reads the record's symbols and builds nothing, and neither does the
    shape's proof, one pass of bit masks over its steps: the result's
    certificate is built when it is first read. For the other kinds the
    certificate is rebuilt and verified. ``track(condition, target)`` is
    built only for a search or such a full check. A record that fails, a
    sequence that is no slow walk over the word among them, is not served;
    the query is searched and its record rewritten.
    det-total's record keeps the deterministic walk its total DFA was built
    from, and a hit builds that DFA again.

    A search's result is certified as a full hit check is: its record goes
    through ``_record_certificate``, which builds and verifies the
    certificate. The check runs on a meter of its own with the query's node
    limit, so det-total's filling, which the search built within that limit,
    is rebuilt within it and is not counted twice in ``explored``.

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
    ``BudgetExceeded(1)`` (``_Nodes``). ``max_nodes`` is the node limit of
    the search and of each check.
    """
    target, condition, kind = query.target, query.condition, query.kind
    n = len(target)
    cap = value_cap(kind, n)
    if max_states is not None:
        cap = min(cap, max(max_states, 0))
    if n == 0:
        if cap == 0:
            raise BudgetExceeded(1, 0)
        # the empty word's record; det-total's loops are filled in, not searched
        cert, why = _record_certificate(query, 1, (0,), _Nodes())
        assert why is None, why
        return ComplexityResult(1, cert, 0)

    nodes = _Nodes(max_nodes)
    if cache is not None:
        key = canonical_key(memo_key(query))
        hit = cache.get(key)
        # a value above the cap is not the value the search would return
        if hit is not None and hit[0] <= cap:
            cert = _hit_certificate(key, *hit, query, nodes)
            if cert is not None:
                return ComplexityResult(hit[0], cert, nodes.count)

    value, seq = _least_witness(kind, *_walk_words(kind, target, condition), cap, nodes)
    cert, why = _record_certificate(query, value, seq, _Nodes(nodes.limit))
    assert why is None, why
    if cache is not None:
        cache.put(key, value, seq)
    return ComplexityResult(value, cert, nodes.count)


def value_at_most(
    query: ComplexityQuery, max_states: int, cache=None, max_nodes: int = DEFAULT_MAX_NODES
) -> int | None:
    """The complexity value if it is <= max_states, None if it is proven
    above; a node-budget overrun, which proves neither, raises
    ``BudgetExceeded``."""
    try:
        return compute(query, cache, max_states=max_states, max_nodes=max_nodes).value
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
    this is the certificate ``compute`` finds (``_least_witness``). No
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

    exact_value = compute(exact_query, cache, max_nodes=max_nodes).value
    unique_value = compute(unique_query, cache, max_nodes=max_nodes).value

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
    value = compute(ComplexityQuery(KIND_UNIQUE, w), cache, max_nodes=max_nodes).value
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

