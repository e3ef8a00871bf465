"""The six complexity kinds and the facts every layer needs about them."""

from __future__ import annotations

from dataclasses import dataclass

KIND_UNIQUE = "unique"
KIND_EXACT = "exact"
KIND_DET_TOTAL = "det-total"
KIND_DET_PARTIAL = "det-partial"
KIND_COND_UNIQUE = "conditional-unique"
KIND_COND_EXACT = "conditional-exact"


@dataclass(frozen=True)
class Kind:
    """One acceptance discipline.

    ``counts`` names what a witness must make unique among the runs of the
    word's length: accepting ``"walks"`` or accepted ``"words"``; certificates
    are verified against it. The walk search keeps that count, except that
    it counts walks for the ``deterministic`` kinds, whose witnesses allow
    one successor per (state, label): there each word has at most one walk,
    so the two counts agree. Reversing a witness keeps it one for the
    reversed word but does not keep determinism, so ``A(w) = A(w^R)`` holds
    for the kinds that are not ``deterministic`` and is used for them only
    (see ``complexity.class_key``). ``alias`` is the command-line
    ``--kind`` name, shared by a kind and its conditional form, and
    ``symbol`` its display name.
    """

    name: str
    alias: str
    symbol: str
    conditional: bool
    counts: str
    deterministic: bool = False


KINDS = {
    k.name: k
    for k in (
        Kind(KIND_UNIQUE, "anu", "A_Nu", False, "walks"),
        Kind(KIND_EXACT, "ane", "A_Ne", False, "words"),
        Kind(KIND_DET_TOTAL, "a", "A", False, "words", deterministic=True),
        Kind(KIND_DET_PARTIAL, "aminus", "A-", False, "words", deterministic=True),
        Kind(KIND_COND_UNIQUE, "anu", "A_Nu", True, "walks"),
        Kind(KIND_COND_EXACT, "ane", "A_Ne", True, "words"),
    )
}

# short names of the unconditional kinds accepted by the command line
KIND_ALIASES = {k.alias: k.name for k in KINDS.values() if not k.conditional}
