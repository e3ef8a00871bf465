"""Command-line interface.

Words on the command line are strings of the ASCII digits 0-9 over alphabets
of size at most 10 (alphabet size defaults to max digit + 1); an alphabet
option outside 1..10 is a usage error, and so are two words of unequal
length where a command reads a pair (``conditional``, ``sparse``,
``metric``). Exit codes: 2 usage, 3 parse errors and file errors (a path
that cannot be read or written, a certificate that is not ASCII, a cache
directory that is a file or below one), 4 budget exhausted, 5 capacity
limits, 6 failed verification. A reader that closes stdout early (``| head``)
ends the command quietly with 0. ``python -m autocomplexity`` runs the same
commands.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .automata import (
    CapacityError,
    certificate_from_json,
    certificate_to_dot,
    certificate_to_json,
    verify_certificate,
)
from .cache import ResultCache
from .complexity import (
    BudgetExceeded,
    ComplexityQuery,
    compute,
    search_emergent,
    sparse_witness_report,
)
from .kinds import KIND_ALIASES, KINDS
from .metrics import (
    ComplexityProvider,
    MetricKind,
    classify_unit_distance,
    distribution_table,
    format_table,
    metric_value,
    sample_distribution,
    verify_metric,
)
from .words import ParseError, Word

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_CAPACITY = 5
EXIT_VERIFICATION = 6


def _alphabet(size: int | None) -> int | None:
    """The value of an alphabet option (``--alphabet``, ``--alphabet-x``,
    ``--alphabet-y``); outside 1..10 a usage error, as command-line words
    are digit strings."""
    if size is not None and not 1 <= size <= 10:
        raise ValueError(f"alphabet_size must be at least 1 and at most 10, not {size}")
    return size


def _parse_word(text: str, alphabet: int | None) -> Word:
    return Word.parse(text, _alphabet(alphabet))


def _cache(args) -> ResultCache | None:
    return ResultCache.from_environment(args.cache_dir)


def _provider(args) -> ComplexityProvider:
    return ComplexityProvider(_cache(args), args.budget)


def _write(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout for "-"."""
    if path == "-":
        print(text, end="")
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _report(args, query: ComplexityQuery, label: str) -> int:
    """Compute ``query`` and print its value as ``symbol(label)``, then the
    ``--stats`` line and the ``--certificate`` and ``--dot`` outputs."""
    cache = _cache(args)
    started = time.perf_counter()
    result = compute(query, cache, max_states=args.max_states, max_nodes=args.budget)
    elapsed = time.perf_counter() - started
    print(f"{KINDS[query.kind].symbol}({label}) = {result.value}")
    if args.stats:
        print(f"explored {result.explored} nodes in {elapsed:.3f}s")
    if args.certificate:
        _write(args.certificate, certificate_to_json(result.certificate, indent=2) + "\n")
    if args.dot:
        _write(args.dot, certificate_to_dot(result.certificate))
    return EXIT_OK


def cmd_complexity(args) -> int:
    word = _parse_word(args.word, args.alphabet)
    return _report(args, ComplexityQuery(KIND_ALIASES[args.kind], word), args.word or "ε")


def cmd_conditional(args) -> int:
    x = _parse_word(args.x, args.alphabet_x)
    y = _parse_word(args.y, args.alphabet_y)
    kind = next(k for k in KINDS.values() if k.conditional and k.alias == args.kind)
    return _report(args, ComplexityQuery(kind.name, x, y), f"{args.x} | {args.y}")


def cmd_metric(args) -> int:
    kind = MetricKind(args.kind)
    x = _parse_word(args.x, None)
    y = _parse_word(args.y, None)
    value = metric_value(kind, x, y, _provider(args), det_baseline=args.det_baseline)
    print(f"{args.kind}({args.x}, {args.y}) = {value:.6f}")
    return EXIT_OK


def cmd_verify_metric(args) -> int:
    kind = MetricKind(args.kind)
    report = verify_metric(args.n, kind, _provider(args), tolerance=args.tolerance)
    print(
        f"{args.kind} on length-{args.n} representatives "
        f"({report.ground_set_size} words): {report.violation_count} violations"
    )
    for label, rows in (
        ("identity", report.identity_violations),
        ("symmetry", report.symmetry_violations),
        ("triangle", report.triangle_violations),
    ):
        for row in rows:
            print(f"  {label}: " + " ".join(str(p) for p in row))
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def _print_rows(rows, fmt: str) -> None:
    if fmt == "text":
        print(format_table(rows), end="")
    elif fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        width = max(len(r.counts) for r in rows)
        writer.writerow(["n"] + [f"q{q}" for q in range(1, width + 1)] + ["mode"])
        for r in rows:
            padded = list(r.counts) + [0] * (width - len(r.counts))
            writer.writerow([r.n] + padded + [r.mode])
        print(out.getvalue(), end="")
    else:
        doc = [
            {"n": r.n, "counts": list(r.counts), "mode": r.mode, "samples": r.sampled}
            for r in rows
        ]
        print(json.dumps(doc, indent=2))


def cmd_table(args) -> int:
    if args.sample is None and args.n is None:
        print("error: table needs --n or --sample", file=sys.stderr)
        return EXIT_USAGE
    if args.sample is not None and args.n is not None:
        print("error: table takes --n or --sample, not both", file=sys.stderr)
        return EXIT_USAGE
    provider = _provider(args)
    if args.sample is not None:
        rows = [sample_distribution(args.sample, args.samples, args.seed, provider)]
    else:
        rows = distribution_table(args.n, provider)
    _print_rows(rows, args.format)
    return EXIT_OK


def cmd_classify(args) -> int:
    provider = _provider(args)
    method = "exhaustive" if args.audit else "fast"
    pairs = classify_unit_distance(args.n, provider, method)
    doc = sorted(sorted(str(w) for w in pair) for pair in pairs)
    print(json.dumps(doc))
    return EXIT_OK


def cmd_search_emergent(args) -> int:
    words = search_emergent(args.max_len, _alphabet(args.alphabet), _cache(args), args.budget)
    for w in words:
        print(w)
    print(f"{len(words)} word(s) with emergent simplicity up to length {args.max_len}")
    return EXIT_OK


def cmd_sparse(args) -> int:
    x = _parse_word(args.x, None)
    y = _parse_word(args.y, None) if args.y is not None else None
    report = sparse_witness_report(x, y, max_nodes=args.budget, cache=_cache(args))
    label = f"({args.x} | {args.y})" if y is not None else f"({args.x})"
    print(f"A_Ne{label} = {report.exact_value}, A_Nu{label} = {report.unique_value}")
    print(
        "unique-witness edge counts:",
        " ".join(str(c) for c in sorted(report.unique_witness_edge_counts)),
    )
    print(f"{len(report.exact_witnesses)} exact witness(es) at {report.exact_value} states")
    for entry in report.sparse:
        seqs = " ".join("".join(str(s) for s in seq) for seq in entry.sequences)
        flavor = "also-unique" if entry.is_unique_witness else "not-unique"
        print(f"  sparse witness: {entry.edge_count} edges, {flavor}, sequences {seqs}")
    found = "yes" if report.has_sparse_non_unique_witness() else "no"
    print(f"sparse witness that is not a unique-acceptance witness: {found}")
    return EXIT_OK


def _read_certificate(path: str):
    """The certificate of the JSON file ``path``."""
    with open(path, "r", encoding="ascii") as fh:
        return certificate_from_json(fh.read())


def cmd_check(args) -> int:
    cert = _read_certificate(args.certificate)
    ok, why = verify_certificate(cert)
    target = str(cert.target)
    claim = f"{cert.kind} witness with {cert.claimed_states} state(s) for {target}"
    if cert.condition is not None:
        claim += f" given {cert.condition}"
    if ok:
        print(f"OK: {claim}")
        return EXIT_OK
    print(f"FAILED: {claim}: {why}")
    return EXIT_VERIFICATION


def cmd_export_dot(args) -> int:
    _write(args.output, certificate_to_dot(_read_certificate(args.certificate)))
    return EXIT_OK


def cmd_cache(args) -> int:
    cache = _cache(args)
    if cache is None:
        print("no cache directory configured (flag --cache-dir or "
              "AUTOCOMPLEXITY_CACHE_DIR)")
        return EXIT_USAGE
    if args.action == "stats":
        print(f"{len(cache)} cached result(s) in {cache.path}")
    elif args.action == "audit":
        checked = failed = 0
        for lineno, line, reason in cache.audit():
            checked += 1
            if reason is not None:
                failed += 1
                print(f"line {lineno}: {' '.join(line.split())}: {reason}")
        if failed:
            print(f"{failed} of {checked} cached record(s) failed in {cache.path}")
            return EXIT_VERIFICATION
        print(f"{checked} cached record(s) verified and minimal in {cache.path}")
    elif args.action == "compact":
        cache.compact()
        print(f"compacted {cache.path}")
    else:
        cache.clear()
        print(f"cleared {cache.path}")
    return EXIT_OK


def _add_common(p, one_query: bool = True) -> None:
    """The options of every searching command, and for those that compute
    one query (``_report``) their outputs and state allowance."""
    if one_query:
        p.add_argument("--certificate", metavar="PATH", help="write certificate JSON ('-' for stdout)")
        p.add_argument("--dot", metavar="PATH", help="write witness DOT ('-' for stdout)")
        p.add_argument("--stats", action="store_true")
    p.add_argument("--budget", type=int, default=10**9,
                   help="search node budget per query; where table, classify, metric and "
                        "verify-metric search many values at once (a row of table), per batch")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (defaults to $AUTOCOMPLEXITY_CACHE_DIR)")
    if one_query:
        p.add_argument("--max-states", type=int, default=None,
                       help="give up beyond this many states")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autocomplexity",
        description="Automatic complexity of words: values, certificates, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="complexity of one word")
    p.add_argument("word")
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="anu")
    p.add_argument("--alphabet", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("conditional", help="conditional complexity of x given y")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--kind", choices=[k.alias for k in KINDS.values() if k.conditional],
                   default="anu")
    p.add_argument("--alphabet-x", type=int, default=None)
    p.add_argument("--alphabet-y", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("metric", help="one of the four distances between two words")
    p.add_argument("kind", choices=[k.value for k in MetricKind])
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--det-baseline", action="store_true",
                   help="use deterministic unconditional values inside jmax")
    _add_common(p, one_query=False)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("verify-metric", help="exhaustively check the metric axioms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=[k.value for k in MetricKind], required=True)
    p.add_argument("--tolerance", type=float, default=1e-9)
    _add_common(p, one_query=False)
    p.set_defaults(func=cmd_verify_metric)

    p = sub.add_parser("table", help="conditional complexity distribution table")
    p.add_argument("--n", type=int, default=None, help="exhaustive rows 0..n")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="sample one row at length N instead")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    _add_common(p, one_query=False)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("classify", help="pairs at J distance exactly 1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--audit", action="store_true", help="use the exhaustive path")
    _add_common(p, one_query=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search-emergent", help="words whose squares get simpler")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=2)
    _add_common(p, one_query=False)
    p.set_defaults(func=cmd_search_emergent)

    p = sub.add_parser("sparse", help="sparse exact-acceptance witness report")
    p.add_argument("x")
    p.add_argument("y", nargs="?", default=None)
    _add_common(p, one_query=False)
    p.set_defaults(func=cmd_sparse)

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export-dot", help="render a certificate file as DOT")
    p.add_argument("certificate")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("cache", help="inspect, audit or maintain the on-disk cache")
    p.add_argument("action", choices=["stats", "audit", "compact", "clear"])
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_cache)

    return parser


# the exit code of each error, the first class that matches wins: a
# ParseError and a UnicodeDecodeError are ValueErrors; BrokenPipeError, an
# OSError, is handled before these
_ERROR_EXITS = (
    (ParseError, EXIT_PARSE),
    (BudgetExceeded, EXIT_BUDGET),
    (CapacityError, EXIT_CAPACITY),
    (OSError, EXIT_PARSE),
    (UnicodeDecodeError, EXIT_PARSE),
    (ValueError, EXIT_USAGE),
)


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--tolerance" in argv[:-1]:  # argparse reads a value such as -inf or -1e-3 as an option
        i = argv.index("--tolerance")
        argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; give the interpreter's final flush a sink
        sys.stdout = open(os.devnull, "w")
        return EXIT_OK
    except tuple(error for error, _ in _ERROR_EXITS) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for error, code in _ERROR_EXITS if isinstance(e, error))


if __name__ == "__main__":
    sys.exit(main())
