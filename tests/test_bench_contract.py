"""The names the benchmark harness reaches into the package by.

``bench/tracing.py`` patches functions by identity and looks the provider
methods up in ``vars(ComplexityProvider)``; a renamed or re-imported one
would otherwise show only as a failed or silently empty benchmark run. Both
checks run in a subprocess, since the tracer patches the package's modules.
"""

import json
import subprocess
import sys
from pathlib import Path

from autocomplexity.kinds import KINDS

ROOT = Path(__file__).resolve().parent.parent
BENCH, SRC = ROOT / "bench", ROOT / "src"

TRACED_ROUND = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]
import calibrate, tracing
from autocomplexity import ComplexityProvider, MetricKind, Word, distribution_table, verify_metric

tracer = tracing.Tracer(calibrate.Pacer())
with tracer.installed():
    provider = ComplexityProvider()
    distribution_table(5, provider)
    for kind in MetricKind:
        verify_metric(5, kind, provider)
    # single compute misses, which write through put; the batches above
    # write through put_many, and the conditional miss outside the rows
    # builds its track word for a search
    provider.det_unconditional(Word.parse("01101", 2))
    provider.conditional(Word.parse("0110100", 2), Word.parse("0011010", 2))
layer = tracer.layer_metrics(1.0, provider.cache)
print(json.dumps({{
    "names": sorted(layer), "entries": layer["cache.entries"][0], "calls": tracer.calls,
    "gets": layer["cache.get.calls"][0], "hits": layer["cache.get.hits"][0],
}}))
"""

LAYER_METRICS = {
    "complexity.compute.calls", "complexity.self_s", "complexity.nodes",
    "complexity.nodes_per_s", "complexity.canonical_s",
    *(f"complexity.nodes.{kind}" for kind in KINDS),
    *(f"complexity.self_s.{kind}" for kind in KINDS),
    "automata.walk_nfa.calls", "automata.walk_nfa_s", "automata.verify.calls",
    "automata.verify_s", "automata.verify.failures",
    "cache.load_s", "cache.get.calls", "cache.get.hits", "cache.get_s", "cache.hit_ratio",
    "cache.put.calls", "cache.put_s", "cache.file_bytes", "cache.file_lines", "cache.entries",
    "metrics.provider.calls", "metrics.provider.memo_hits", "metrics.memo_hit_ratio",
    "metrics.provider.self_s", "metrics.distribution_table.self_s",
    "metrics.verify_metric.self_s", "metrics.metric_value.self_s",
    "words.slow_normalize_s", "words.track_s",
}


def run(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_bench_selftest_passes():
    done = run(str(BENCH / "selftest.py"))
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_reaches_every_layer():
    done = run("-c", TRACED_ROUND)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert len(LAYER_METRICS) == 41
    assert set(report["names"]) == LAYER_METRICS
    for name in ("complexity.compute", "words.track", "cache.put", "metrics.provider"):
        assert report["calls"].get(name, 0) > 0, name
    assert report["entries"] > 0
    # the tracer counts hits from what ResultCache.get returns for a key
    assert report["gets"] > 0 and report["hits"] > 0
