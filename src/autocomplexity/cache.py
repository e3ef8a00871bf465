"""On-disk memo for computed complexity values, keyed by canonical keys.

A key is ``complexity.canonical_key`` of a query's ``memo_key``: the kind,
the slow target symbols and the slow condition symbols (det-total: its
alphabet size; other unconditional kinds: None). One record per line,
tab-separated: kind, target, condition (or "-"), value, witnessing state
sequence (for det-total the deterministic walk its total DFA is built
from). The words are those of ``complexity.key_query``, written as digit
strings when the alphabet fits (dot-separated otherwise) with an
``@alphabet_size`` suffix; sequences are comma-separated state indices.
A line is written from its key's symbol tuples, and one ``put_many`` batch
formats each distinct word field (symbols with the alphabet they are
written over) and each distinct walk once, then builds its lines from
those strings.

The file is append-only; ``compact()`` rewrites it atomically. A corrupt line,
a line that does not decode as ASCII among them, is skipped with a warning,
never served. The cache holds records only: ``complexity.compute`` checks
each hit before serving it, and ``audit()`` checks every line in full and
also proves every record minimal.
"""

from __future__ import annotations

import errno
import functools
import os
import stat
import tempfile
import warnings
from pathlib import Path

from .complexity import ComplexityQuery, audit_record, memo_key
from .kinds import KIND_DET_TOTAL
from .words import Word, is_slow

try:
    import fcntl
except ImportError:  # non-POSIX: appends are still atomic enough per line
    fcntl = None

ENV_CACHE_DIR = "AUTOCOMPLEXITY_CACHE_DIR"
CACHE_FILENAME = "results.tsv"


def format_symbols(symbols: tuple[int, ...], alphabet_size: int) -> str:
    """The word field of ``symbols`` over ``alphabet_size`` letters."""
    sep = "" if alphabet_size <= 10 else "."
    return f"{sep.join(map(str, symbols))}@{alphabet_size}"


def format_word(w: Word) -> str:
    return format_symbols(w.symbols, w.alphabet_size)


def parse_word(text: str) -> Word:
    body, sep, alpha = text.rpartition("@")
    if not sep or not alpha:
        raise ValueError(f"word field {text!r} lacks an alphabet suffix")
    alphabet_size = int(alpha)
    if not body:
        symbols: tuple[int, ...] = ()
    elif alphabet_size > 10 or "." in body:
        symbols = tuple(int(p) for p in body.split("."))
    else:
        symbols = tuple(int(c) for c in body)
    return Word(symbols, alphabet_size)


def _records(path: Path):
    """(query, value, sequence, line number, line) for each valid line of a
    cache file.

    A line is valid when it is ASCII, its kind and words make a
    ``ComplexityQuery`` and its sequence is a slow walk of one step per
    letter; other lines are skipped with a warning. Each distinct word field
    and each distinct slow walk is parsed once per file, and the records
    share them.
    """
    # a field that fails raises again on every line that holds it
    word = functools.cache(parse_word)

    @functools.cache
    def walk(text: str) -> tuple[int, ...]:
        sequence = tuple(int(s) for s in text.split(","))
        if not is_slow(Word(sequence, len(sequence))):
            raise ValueError("the sequence is not a slow walk")
        return sequence

    # a byte outside ASCII decodes to a lone surrogate, which fails its line only
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    raise ValueError("the line is not ASCII")
                kind, target, condition, value, seq = line.split("\t")
                query = ComplexityQuery(kind, word(target), None if condition == "-" else word(condition))
                sequence = walk(seq)
                if len(sequence) != len(query.target) + 1:
                    raise ValueError("the sequence is not a walk over the word")
                record = query, int(value), sequence, lineno, line + "\n"
            except (ValueError, IndexError):
                warnings.warn(f"skipping corrupt cache line {lineno} in {path}")
                continue
            yield record


def _word_field(fields: dict, symbols: tuple[int, ...], alphabet_size: int | None) -> str:
    """The word field of ``symbols`` over ``alphabet_size`` letters, None
    for the symbols they use, formatted once per ``fields``."""
    field = fields.get((symbols, alphabet_size))
    if field is None:
        size = max(symbols, default=0) + 1 if alphabet_size is None else alphabet_size
        field = fields[symbols, alphabet_size] = format_symbols(symbols, size)
    return field


class ResultCache:
    """Memo of canonical keys -> (value, sequence).

    Keys must already be canonical (``complexity.canonical_key``);
    ``complexity.compute`` builds them before calling in. A line read from
    the file is keyed by the ``memo_key`` of its query. With
    ``directory=None`` the cache is memory-only and formats no line. A
    ``directory`` that exists and is not a directory, or lies below a file,
    raises ``NotADirectoryError``.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            try:
                # unlike Path.exists, stat lets ENOTDIR through for a path below a file
                mode = self.directory.stat().st_mode
            except FileNotFoundError:
                pass
            else:
                if not stat.S_ISDIR(mode):
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(self.directory))
        self._memo: dict[tuple, tuple[int, tuple[int, ...]]] = {}
        self._loaded = self.directory is None

    @classmethod
    def from_environment(cls, override: str | None = None) -> ResultCache | None:
        """Cache at the override path, else at $AUTOCOMPLEXITY_CACHE_DIR, else None."""
        path = override if override is not None else os.environ.get(ENV_CACHE_DIR)
        return cls(path) if path else None

    @property
    def path(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / CACHE_FILENAME

    def _load(self) -> None:
        self._loaded = True
        path = self.path
        if path is None or not path.exists():
            return
        for query, value, sequence, _lineno, _line in _records(path):
            self._memo[memo_key(query)] = (value, sequence)

    def get(self, key: tuple) -> tuple[int, tuple[int, ...]] | None:
        if not self._loaded:
            self._load()
        return self._memo.get(key)

    def put(self, key: tuple, value: int, sequence: tuple[int, ...]) -> None:
        self.put_many([(key, value, sequence)])

    def put_many(self, records) -> None:
        """Store ``(key, value, sequence)`` records, skipping those equal to
        what the memo holds, and append their lines to the file in one write
        under one lock."""
        if not self._loaded:
            self._load()
        path = self.path
        lines = []
        fields = {}
        for key, value, sequence in records:
            sequence = tuple(sequence)
            if self._memo.get(key) == (value, sequence):
                continue
            self._memo[key] = (value, sequence)
            if path is not None:
                lines.append(self._format_line(key, value, sequence, fields))
        if not lines:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="ascii") as fh:
            if fcntl is not None:
                fcntl.flock(fh, fcntl.LOCK_EX)
            fh.write("".join(lines))
            fh.flush()
            if fcntl is not None:
                fcntl.flock(fh, fcntl.LOCK_UN)

    @staticmethod
    def _format_line(key: tuple, value: int, sequence: tuple[int, ...], fields: dict) -> str:
        """The line of the record: the words of ``complexity.key_query``,
        each over the symbols it uses (det-total's target over the alphabet
        size its key holds), written from the key's symbols.

        ``fields`` holds the fields already formatted in the batch: a word's
        under ``(symbols, alphabet size)``, the size None for a word over
        the symbols it uses, and a walk's under its state sequence (a tuple
        of ints, never equal to a word's pair)."""
        kind, target, third = key
        if kind == KIND_DET_TOTAL:
            target_field, condition = _word_field(fields, target, third), "-"
        else:
            target_field = _word_field(fields, target, None)
            condition = "-" if third is None else _word_field(fields, third, None)
        walk = fields.get(sequence)
        if walk is None:
            walk = fields[sequence] = ",".join(map(str, sequence))
        return f"{kind}\t{target_field}\t{condition}\t{value}\t{walk}\n"

    def __len__(self) -> int:
        if not self._loaded:
            self._load()
        return len(self._memo)

    def compact(self) -> None:
        """Rewrite the backing file with the last valid line per key, atomically."""
        path = self.path
        if path is None:
            return
        latest = {}
        if path.exists():
            for query, _value, _sequence, _lineno, line in _records(path):
                latest[memo_key(query)] = line
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".cache-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                for line in sorted(latest.values()):
                    fh.write(line)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def audit(self):
        """``(line number, line, reason)`` for every valid line of the file,
        in file order, with ``complexity.audit_record``'s reason, None for a
        record that holds. Lines come from the file, not the memo, so a line
        that a later one for the same query replaced is audited too."""
        path = self.path
        if path is None or not path.exists():
            return
        for query, value, sequence, lineno, line in _records(path):
            yield lineno, line, audit_record(query, value, sequence)

    def clear(self) -> None:
        self._memo.clear()
        self._loaded = True
        path = self.path
        if path is not None and path.exists():
            path.unlink()
