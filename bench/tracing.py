"""Span wrappers that the benchmark puts around the package's functions.

Nothing in ``src/`` is changed: every module-level reference to a wrapped
function inside the ``autocomplexity`` package is swapped for a wrapper for
the duration of a ``with`` block, and the original is put back afterwards.
Spans are aggregated per name as they close (calls, inclusive seconds and
self seconds, i.e. inclusive minus the time of wrapped calls made inside),
so a study of a million calls keeps no per-call record.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from autocomplexity import automata, cache, complexity, metrics, words

KINDS = sorted(complexity.COMPLEXITY_KINDS)

PROVIDER_METHODS = ("unconditional", "conditional", "track_value", "det_unconditional")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "autocomplexity" or name.startswith("autocomplexity."))]


@contextmanager
def patched(functions: dict, methods: dict | None = None):
    """Swap functions (original -> replacement) in every package module and
    methods ((class, name) -> replacement) on their classes, then restore."""
    undo = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                for original, replacement in functions.items():
                    if value is original:
                        setattr(module, attr, replacement)
                        undo.append((module, attr, original))
        for (cls, name), replacement in (methods or {}).items():
            undo.append((cls, name, vars(cls)[name]))
            setattr(cls, name, replacement)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


@contextmanager
def timed_compute(times, slices_before, pacer):
    """Append the wall time of every ``compute`` call to ``times`` and the
    number of calibration slices run before it to ``slices_before``, and let
    ``pacer`` run a slice, if one is due, before each call."""
    original = complexity.compute
    tick = pacer.tick
    slices = pacer.slices

    def timed(*args, **kwargs):
        tick()
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(perf_counter() - start)
            slices_before.append(len(slices))

    with patched({original: timed}):
        yield


class Tracer:
    """Per-name span totals and counters for one traced round. Spans leave
    out the time of the calibration slices that ``pacer`` runs inside them."""

    def __init__(self, pacer):
        self.pacer = pacer
        self.calls = Counter()
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = Counter()
        self.by_kind = defaultdict(float)
        self._children: list[float] = []

    def span(self, name: str, fn, after=None):
        children = self._children
        pacer = self.pacer

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start, paused = perf_counter(), pacer.spent_wall
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (pacer.spent_wall - paused)
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.own[name] += elapsed - inner
            if after is not None:
                after(result, args, elapsed - inner)
            return result

        return wrapper

    # hooks that read a call's arguments and result

    def _after_compute(self, result, args, own):
        kind = args[0].kind
        self.counts["nodes"] += result.explored
        self.counts["nodes." + kind] += result.explored
        self.by_kind[kind] += own

    def _after_canonical(self, result, args, own):
        self.by_kind[args[0].kind] += own

    def _after_verify(self, result, args, own):
        if not result[0]:
            self.counts["verify.failures"] += 1

    def _after_get(self, result, args, own):
        if result is not None:
            self.counts["get.hits"] += 1

    def _provider(self, fn):
        inner = self.span("metrics.provider", fn)
        calls = self.calls

        def wrapper(*args, **kwargs):
            before = calls["complexity.compute"]
            result = inner(*args, **kwargs)
            if calls["complexity.compute"] == before:
                self.counts["provider.memo_hits"] += 1
            return result

        return wrapper

    @contextmanager
    def installed(self):
        span = self.span
        functions = {
            complexity.compute: span("complexity.compute", complexity.compute, self._after_compute),
            complexity.canonical_query: span(
                "complexity.canonical_query", complexity.canonical_query, self._after_canonical
            ),
            automata.walk_nfa: span("automata.walk_nfa", automata.walk_nfa),
            automata.verify_certificate: span(
                "automata.verify_certificate", automata.verify_certificate, self._after_verify
            ),
            words.slow_normalize: span("words.slow_normalize", words.slow_normalize),
            words.track: span("words.track", words.track),
            metrics.distribution_table: span("metrics.distribution_table", metrics.distribution_table),
            metrics.verify_metric: span("metrics.verify_metric", metrics.verify_metric),
            metrics.metric_value: span("metrics.metric_value", metrics.metric_value),
        }
        rc = cache.ResultCache
        methods = {
            (rc, "_load"): span("cache.load", rc._load),
            (rc, "get"): span("cache.get", rc.get, self._after_get),
            (rc, "put"): span("cache.put", rc.put),
        }
        for name in PROVIDER_METHODS:
            methods[(metrics.ComplexityProvider, name)] = self._provider(
                vars(metrics.ComplexityProvider)[name]
            )
        with patched(functions, methods):
            yield self

    def layer_metrics(self, factor: float, result_cache=None) -> dict[str, tuple[float, str]]:
        """Per-layer figures of the traced round, as name -> (value, unit),
        with times scaled by the host speed ``factor`` to reference seconds."""
        calls, total, own, counts = self.calls, self.total, self.own, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        kernel_s = own["complexity.compute"] + own["complexity.canonical_query"]
        out = {
            "complexity.compute.calls": (calls["complexity.compute"], "count"),
            "complexity.self_s": (kernel_s, "s"),
            "complexity.nodes": (counts["nodes"], "count"),
            "complexity.nodes_per_s": (ratio(counts["nodes"], kernel_s), "1/s"),
        }
        for kind in KINDS:
            out["complexity.nodes." + kind] = (counts["nodes." + kind], "count")
        for kind in KINDS:
            out["complexity.self_s." + kind] = (self.by_kind[kind], "s")
        out["complexity.canonical_s"] = (total["complexity.canonical_query"], "s")
        out.update({
            "automata.walk_nfa.calls": (calls["automata.walk_nfa"], "count"),
            "automata.walk_nfa_s": (total["automata.walk_nfa"], "s"),
            "automata.verify.calls": (calls["automata.verify_certificate"], "count"),
            "automata.verify_s": (total["automata.verify_certificate"], "s"),
            "automata.verify.failures": (counts["verify.failures"], "count"),
            "cache.load_s": (total["cache.load"], "s"),
            "cache.get.calls": (calls["cache.get"], "count"),
            "cache.get.hits": (counts["get.hits"], "count"),
            "cache.get_s": (total["cache.get"], "s"),
            "cache.hit_ratio": (ratio(counts["get.hits"], calls["cache.get"]), "ratio"),
            "cache.put.calls": (calls["cache.put"], "count"),
            "cache.put_s": (total["cache.put"], "s"),
        })
        file_bytes = file_lines = entries = 0
        if result_cache is not None:
            entries = len(result_cache)
            path = result_cache.path
            if path is not None and path.exists():
                data = path.read_bytes()
                file_bytes, file_lines = len(data), data.count(b"\n")
        out.update({
            "cache.file_bytes": (file_bytes, "B"),
            "cache.file_lines": (file_lines, "count"),
            "cache.entries": (entries, "count"),
            "metrics.provider.calls": (calls["metrics.provider"], "count"),
            "metrics.provider.memo_hits": (counts["provider.memo_hits"], "count"),
            "metrics.memo_hit_ratio": (
                ratio(counts["provider.memo_hits"], calls["metrics.provider"]), "ratio"
            ),
            "metrics.provider.self_s": (own["metrics.provider"], "s"),
            "metrics.distribution_table.self_s": (own["metrics.distribution_table"], "s"),
            "metrics.verify_metric.self_s": (own["metrics.verify_metric"], "s"),
            "metrics.metric_value.self_s": (own["metrics.metric_value"], "s"),
            "words.slow_normalize_s": (total["words.slow_normalize"], "s"),
            "words.track_s": (total["words.track"], "s"),
        })
        scale = {"s": factor, "1/s": 1 / factor}
        return {name: (value * scale.get(unit, 1), unit) for name, (value, unit) in out.items()}
