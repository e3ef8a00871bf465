"""Self-test: the benchmark's checks must reject deliberately wrong values.

    python3 bench/selftest.py

Runs on small inputs (a few seconds) and exits non-zero if a check accepts a
wrong value or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import sys

import run  # puts the checkout's src/ on the path
import checks
from autocomplexity import ComplexityProvider, DistributionRow, MetricKind, Word, verify_metric

N = 5
SMALL_LENGTHS = {
    "unique": 7,
    "exact": 6,
    "det-partial": 7,
    "det-total": 6,
    "conditional-unique": 7,
    "conditional-exact": 7,
}


class OffByOne(ComplexityProvider):
    """A provider whose conditional values are one too high."""

    def conditional(self, x, y):
        return super().conditional(x, y) + 1


def expect(name: str, problems: list[str], wrong: bool) -> bool:
    ok = bool(problems) == wrong
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    return ok


def main() -> int:
    results = []

    rows = [DistributionRow(n, counts) for n, counts in checks.APPENDIX_ROWS.items()]
    results.append(expect("appendix rows", checks.check_rows(rows, 8), wrong=False))
    bad = list(rows)
    bad[6] = DistributionRow(6, (63, 754, 192, 15))  # same sum, one pair moved
    results.append(expect("row 6 with one pair moved", checks.check_rows(bad, 8), wrong=True))

    provider = ComplexityProvider()
    results.append(expect("oracle sample", checks.check_oracle_sample(provider, N, 1), wrong=False))
    results.append(expect(
        "oracle sample, values off by one",
        checks.check_oracle_sample(OffByOne(), N, 1), wrong=True,
    ))

    reports = {kind: verify_metric(N, kind, provider) for kind in MetricKind}
    results.append(expect("axiom reports", checks.check_axioms(reports, N, provider, frozenset()), wrong=False))
    x, y, z = Word.parse("00000"), Word.parse("00001"), Word.parse("00010")
    invented = dataclasses.replace(reports[MetricKind.J], triangle_violations=((x, y, z, 1.0, 0.5),))
    tampered = {**reports, MetricKind.J: invented}
    results.append(expect("invented triangle violation", checks.check_axioms(tampered, N, provider, frozenset()), wrong=True))

    search = run.Search(1, run.OUT, lengths=SMALL_LENGTHS, count=4)
    _, _, found = search.round()
    results.append(expect("search results", search.check(found), wrong=False))
    key = (0, "exact")
    query, result = found[key]
    lowered = {**found, key: (query, dataclasses.replace(result, value=result.value - 1))}
    results.append(expect("exact value one too low", search.check(lowered), wrong=True))
    other = found[(1, "unique")][1]
    swapped = {**found, (0, "unique"): (found[(0, "unique")][0], other)}
    results.append(expect("another word's certificate", search.check(swapped), wrong=True))

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
