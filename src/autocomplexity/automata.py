"""NFA data model, saturating walk/word counting, products, and certificates.

All automata here are epsilon-free NFAs over integer label alphabets. Counting
operations saturate at a caller-supplied cap (default 2) because every check in
this package only distinguishes 0, 1, and "2 or more".

Conditional counting treats the NFA's alphabet as a product alphabet whose
first factor is a condition alphabet: a label encodes the pair
``(condition_symbol, target_symbol)`` as ``condition_symbol * target_size +
target_symbol``. The unconditional counts are the conditional ones given
the one-letter word ``0^n``.

Walks and words are both counted as runs, in one forward pass
(``_count_runs``). A walk's run moves over the states. A word's run moves
over the state sets of the subset construction, since each word read so
far reaches exactly one set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .kinds import KIND_DET_TOTAL, KINDS
from .words import ParseError, Word

SUBSET_STATE_LIMIT = 24


class CapacityError(RuntimeError):
    """An operation exceeded a hard structural limit (see SUBSET_STATE_LIMIT)."""


@dataclass(frozen=True)
class Nfa:
    """An NFA with integer states ``0..state_count-1`` and integer labels."""

    state_count: int
    start: int
    accepts: frozenset[int]
    edges: frozenset[tuple[int, int, int]]  # (from, label, to)
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.state_count < 1:
            raise ValueError("an NFA needs at least one state")
        if not 0 <= self.start < self.state_count:
            raise ValueError("start state out of range")
        if not isinstance(self.accepts, frozenset):
            object.__setattr__(self, "accepts", frozenset(self.accepts))
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for q in self.accepts:
            if not 0 <= q < self.state_count:
                raise ValueError("accept state out of range")
        for frm, label, to in self.edges:
            if not (0 <= frm < self.state_count and 0 <= to < self.state_count):
                raise ValueError("edge endpoint out of range")
            if not 0 <= label < self.alphabet_size:
                raise ValueError("edge label out of range")

    def edge_count(self) -> int:
        return len(self.edges)

    def without_edge(self, edge: tuple[int, int, int]) -> Nfa:
        return Nfa(
            self.state_count,
            self.start,
            self.accepts,
            self.edges - {edge},
            self.alphabet_size,
        )


@dataclass(frozen=True)
class CountResult:
    """A saturating count; ``count == cap`` means "at least cap".

    When the count is exactly 1, ``reconstruction`` is the second
    projection of the one walk's or word's label word; otherwise it is None.
    """

    count: int
    cap: int
    reconstruction: Word | None = None

    @property
    def exact(self) -> bool:
        return self.count < self.cap


def _saturating(a: int, b: int, cap: int) -> int:
    s = a + b
    return s if s < cap else cap


def count_accepting_walks(m: Nfa, n: int, cap: int = 2) -> CountResult:
    """Count length-n walks from the start to an accept state: the walks
    given the one-letter condition ``0^n``, over which the NFA's alphabet is
    the pair alphabet.

    Parallel edges (same endpoints, different labels) count separately; the
    labels themselves are otherwise ignored.
    """
    return count_walks_given_projection(m, Word((0,) * n, 1), cap)


def accepts_word(m: Nfa, w: Word) -> bool:
    """True iff some walk from the start spells w and ends in an accept state."""
    current = {m.start}
    for a in w.symbols:
        current = {to for frm, label, to in m.edges if label == a and frm in current}
        if not current:
            return False
    return bool(current & m.accepts)


def _count_runs(start, steps, y: Word, accepting, second: int, cap: int) -> CountResult:
    """Count the runs from ``start`` that read y and end where ``accepting``
    holds, saturating at cap, in one forward pass.

    ``steps(end, c)`` gives the ``(target, letter)`` steps out of a run's end
    on the condition letter c, letter being the step's second coordinate.
    Each reached end keeps its run count and the second-coordinate word of
    one run that reaches it. A total of 1 leaves one accepting end with one
    run, whose word is the reconstruction.
    """
    # a word is kept reversed as nested pairs (last letter, the word before)
    layer = {start: (1, None)}
    for c in y.symbols:
        nxt: dict = {}
        for end, (count, word) in layer.items():
            for target, letter in steps(end, c):
                seen = nxt.get(target)
                if seen is None:
                    nxt[target] = (count, (letter, word))
                else:
                    nxt[target] = (_saturating(seen[0], count, cap), seen[1])
        layer = nxt
    total = 0
    for end, (count, word) in layer.items():
        if accepting(end):
            total = _saturating(total, count, cap)
            last = word
    if total != 1:
        return CountResult(total, cap)
    letters = []
    while last is not None:
        letter, last = last
        letters.append(letter)
    return CountResult(1, cap, Word(tuple(reversed(letters)), second))


def count_words_given_projection(m: Nfa, y: Word, cap: int = 2) -> CountResult:
    """Count distinct accepted words whose first coordinate spells y.

    The runs are those of the subset construction: each word read so far
    reaches one set of states, and a label with a nonempty image of that
    set is one step. The reconstruction is the single word's second
    projection.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    if m.state_count > SUBSET_STATE_LIMIT:
        raise CapacityError(
            f"subset construction limited to {SUBSET_STATE_LIMIT} states, "
            f"got {m.state_count}"
        )
    second = _split_product_alphabet(m, y.alphabet_size)
    by_label: dict[int, list[tuple[int, int]]] = {}
    for frm, label, to in m.edges:
        by_label.setdefault(label, []).append((frm, to))
    accept_mask = sum(1 << q for q in m.accepts)

    def steps(mask: int, c: int):
        for d in range(second):
            img = 0
            for frm, to in by_label.get(c * second + d, ()):
                if mask >> frm & 1:
                    img |= 1 << to
            if img:
                yield img, d

    return _count_runs(1 << m.start, steps, y, lambda mask: mask & accept_mask, second, cap)


def count_accepted_words(m: Nfa, n: int, cap: int = 2) -> CountResult:
    """Count distinct words of length n in L(M): the words given the
    one-letter condition ``0^n``."""
    return count_words_given_projection(m, Word((0,) * n, 1), cap)


def _split_product_alphabet(m: Nfa, condition_alphabet: int) -> int:
    if condition_alphabet < 1 or m.alphabet_size % condition_alphabet != 0:
        raise ValueError(
            f"NFA alphabet of size {m.alphabet_size} does not factor over a "
            f"condition alphabet of size {condition_alphabet}"
        )
    return m.alphabet_size // condition_alphabet


def count_walks_given_projection(m: Nfa, y: Word, cap: int = 2) -> CountResult:
    """Count accepting walks of length |y| whose label's first coordinate spells y.

    A step is an edge out of the walk's end whose label's first coordinate
    is the condition letter. When exactly one such walk exists, its
    second-coordinate word is reconstructed.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    second = _split_product_alphabet(m, y.alphabet_size)
    # rows[c][q]: the (target, second letter) edges out of q on condition letter c
    rows = [[[] for _ in range(m.state_count)] for _ in range(y.alphabet_size)]
    for frm, label, to in m.edges:
        c, d = divmod(label, second)
        rows[c][frm].append((to, d))
    return _count_runs(m.start, lambda q, c: rows[c][q], y, m.accepts.__contains__, second, cap)


def product_project(m1: Nfa, m2: Nfa) -> Nfa:
    """The label-erasing product: ``product_track`` with each pair label
    (b, a) cut to its second coordinate a."""
    pairs = product_track(m1, m2)
    second = m1.alphabet_size // m2.alphabet_size
    edges = frozenset((frm, label % second, to) for frm, label, to in pairs.edges)
    return Nfa(pairs.state_count, pairs.start, pairs.accepts, edges, second)


def product_track(m1: Nfa, m2: Nfa) -> Nfa:
    """The pair-keeping product: pair states, keep the pair labels.

    m1 runs over pair labels (b, a) and m2 over the b's; the product has an
    edge ((q,q'), (b,a), (r,r')) whenever m1 has (q, (b,a), r) and m2 has
    (q', b, r').
    """
    second = _split_product_alphabet(m1, m2.alphabet_size)

    def idx(q1: int, q2: int) -> int:
        return q1 * m2.state_count + q2

    edges = set()
    for frm1, label, to1 in m1.edges:
        b = label // second
        for frm2, label2, to2 in m2.edges:
            if label2 == b:
                edges.add((idx(frm1, frm2), label, idx(to1, to2)))
    return Nfa(
        m1.state_count * m2.state_count,
        idx(m1.start, m2.start),
        frozenset(idx(f1, f2) for f1 in m1.accepts for f2 in m2.accepts),
        frozenset(edges),
        m1.alphabet_size,
    )


def walk_nfa(states: Sequence[int], labels: Word) -> Nfa:
    """The NFA generated by one walk: its states, its edges, accept at the end.

    The state sequence must be slow (start at 0, never skip a fresh index), so
    each NFA is produced by a canonical sequence rather than by every relabeling.
    """
    states = list(states)
    if not states:
        raise ValueError("state sequence must be nonempty")
    if len(states) != len(labels) + 1:
        raise ValueError("state sequence must be one longer than the label word")
    top = -1
    for s in states:
        if s > top + 1:
            raise ValueError(f"state sequence {states} is not slow")
        top = max(top, s)
    edges = frozenset(
        (states[i], labels[i], states[i + 1]) for i in range(len(labels))
    )
    return Nfa(top + 1, states[0], frozenset({states[-1]}), edges, labels.alphabet_size)


def is_deterministic(m: Nfa) -> bool:
    seen: set[tuple[int, int]] = set()
    for frm, label, _to in m.edges:
        if (frm, label) in seen:
            return False
        seen.add((frm, label))
    return True


def is_total(m: Nfa) -> bool:
    seen = {(frm, label) for frm, label, _to in m.edges}
    return all(
        (q, a) in seen for q in range(m.state_count) for a in range(m.alphabet_size)
    )


@dataclass(frozen=True)
class WitnessCertificate:
    """An NFA together with a machine-checkable claim about a word.

    ``kind`` says which acceptance discipline the NFA is claimed to satisfy for
    ``target`` (given ``condition`` for the conditional kinds), and
    ``claimed_states`` pins the advertised state count.
    """

    kind: str
    target: Word
    nfa: Nfa
    claimed_states: int
    condition: Word | None = None

    def __post_init__(self) -> None:
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.claimed_states != self.nfa.state_count:
            raise ValueError("claimed_states must equal the NFA state count")
        if (self.condition is not None) != kind.conditional:
            raise ValueError("condition must be present exactly for conditional kinds")
        # normalize Word subclasses so that round-trips compare equal
        if type(self.target) is not Word:
            object.__setattr__(
                self, "target", Word(self.target.symbols, self.target.alphabet_size)
            )
        if self.condition is not None:
            if len(self.condition) != len(self.target):
                raise ValueError("condition and target must have equal length")
            if type(self.condition) is not Word:
                object.__setattr__(
                    self,
                    "condition",
                    Word(self.condition.symbols, self.condition.alphabet_size),
                )
            expected = self.condition.alphabet_size * self.target.alphabet_size
        else:
            expected = self.target.alphabet_size
        if self.nfa.alphabet_size != expected:
            raise ValueError(
                f"NFA alphabet size {self.nfa.alphabet_size} does not match "
                f"the certified words (expected {expected})"
            )


def verify_certificate(cert: WitnessCertificate) -> tuple[bool, str]:
    """Check that the certificate's NFA proves its claim; returns (ok, why).

    Every kind is checked in its conditional form: a certificate of an
    unconditional kind for x is one for x given the one-letter word ``0^n``,
    over which its alphabet is the pair alphabet, since ``A(x) = A(x | 0^n)``.
    The kind's ``counts`` says what must be single: the accepting walks
    whose first coordinate spells the condition, or the accepted words that
    do. That one walk or word must spell the target. The deterministic kinds
    also allow one successor per (state, label), and det-total needs one.
    """
    kind = KINDS[cert.kind]
    m = cert.nfa
    if kind.deterministic:
        if not is_deterministic(m):
            return False, "automaton is not deterministic"
        if kind.name == KIND_DET_TOTAL and not is_total(m):
            return False, "automaton is not total"
    condition = cert.condition
    if condition is None:
        condition = Word((0,) * len(cert.target), 1)
    if kind.counts == "walks":
        r, what = count_walks_given_projection(m, condition), "walk"
    else:
        r, what = count_words_given_projection(m, condition), "word"
    if r.count != 1:
        return False, f"condition-consistent {what} count is {r.count}, want 1"
    if r.reconstruction != cert.target:
        return False, f"the single condition-consistent {what} does not spell the target"
    return True, "ok"


def to_dot(m: Nfa, second_factor_size: int | None = None) -> str:
    """Render the NFA as a DOT digraph with a start marker and doubled accepts.

    Pass second_factor_size to render pair labels as (first,second) tuples.
    """

    def fmt(label: int) -> str:
        if second_factor_size is not None:
            c, d = divmod(label, second_factor_size)
            return f"({c},{d})"
        return str(label)

    lines = ["digraph {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for q in range(m.state_count):
        shape = "doublecircle" if q in m.accepts else "circle"
        lines.append(f"  q{q} [shape={shape}];")
    lines.append(f"  __start -> q{m.start};")
    grouped: dict[tuple[int, int], list[int]] = {}
    for frm, label, to in sorted(m.edges):
        grouped.setdefault((frm, to), []).append(label)
    for (frm, to), labels in sorted(grouped.items()):
        text = ", ".join(fmt(label) for label in sorted(labels))
        lines.append(f'  q{frm} -> q{to} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def certificate_to_dot(cert: WitnessCertificate) -> str:
    second = cert.target.alphabet_size if cert.condition is not None else None
    return to_dot(cert.nfa, second_factor_size=second)


def certificate_to_json(cert: WitnessCertificate, indent: int | None = None) -> str:
    doc: dict = {
        "kind": cert.kind,
        "target": list(cert.target.symbols),
        "alphabet": {"target_size": cert.target.alphabet_size},
        "nfa": {
            "states": cert.nfa.state_count,
            "start": cert.nfa.start,
            "accepts": sorted(cert.nfa.accepts),
            "edges": [list(e) for e in sorted(cert.nfa.edges)],
        },
        "claimed_states": cert.claimed_states,
    }
    if cert.condition is not None:
        doc["condition"] = list(cert.condition.symbols)
        doc["alphabet"]["condition_size"] = cert.condition.alphabet_size
    return json.dumps(doc, indent=indent, sort_keys=True)


def certificate_from_json(text: str) -> WitnessCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid certificate JSON at position {e.pos}: {e.msg}") from e
    try:
        kind = doc["kind"]
        alphabet = doc["alphabet"]
        target = Word(tuple(int(s) for s in doc["target"]), int(alphabet["target_size"]))
        condition = None
        if "condition" in doc and doc["condition"] is not None:
            condition = Word(
                tuple(int(s) for s in doc["condition"]), int(alphabet["condition_size"])
            )
        nfa_doc = doc["nfa"]
        if condition is not None:
            alpha = condition.alphabet_size * target.alphabet_size
        else:
            alpha = target.alphabet_size
        nfa = Nfa(
            int(nfa_doc["states"]),
            int(nfa_doc["start"]),
            frozenset(int(q) for q in nfa_doc["accepts"]),
            frozenset(
                (int(f), int(label), int(t)) for f, label, t in nfa_doc["edges"]
            ),
            alpha,
        )
        return WitnessCertificate(
            kind=kind,
            target=target,
            condition=condition,
            nfa=nfa,
            claimed_states=int(doc["claimed_states"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"malformed certificate document: {e}") from e
