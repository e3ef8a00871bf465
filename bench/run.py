"""Seeded benchmark of autocomplexity: the walk-search kernel, the paper's
n <= 8 study, and the same study served from the on-disk cache.

Run from the root of a checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

Workloads (one process, one caller, a closed loop of whole rounds):

* ``search``      seeded words asked under all six kinds, no cache;
* ``study``       distribution_table(8) and verify_metric(8, k) for all four
                  metric kinds, cold, on a fresh on-disk cache;
* ``study-warm``  the same study from the cache that the set-up fills.

Rounds repeat while the next one still fits in ``--seconds`` (at least one
runs). Times are reported in reference seconds: measured seconds scaled by
the host speed that a calibration slice interleaved with the work measures
(see calibrate.py). Outputs are checked after the timed part. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1`` (one untraced pass, then
one traced round).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("search", "study", "study-warm")

# Search: the target length for each kind; words are random binary words, and
# the conditional kinds are asked given the next word. Query cost is
# heavy-tailed (over 1000 random words, a length-13 conditional-exact pair took
# up to 1.4 s against a median of 7 ms), so the lengths are kept short and a
# round holds many words; about 20 longer words moved by some 20% from seed to
# seed. The kinds' costs differ by up to 20 times, so the per-query
# percentiles fall between the kinds' clusters; at these lengths they moved by
# about 6% from seed to seed, against 10-15% with every length one shorter.
SEARCH_LENGTHS = {
    "unique": 14,
    "exact": 10,
    "det-partial": 12,
    "det-total": 12,
    "conditional-unique": 13,
    "conditional-exact": 13,
}
SEARCH_WORDS = 96
STUDY_N = 8
IMPORT_PROBES = 9


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "autocomplexity" / "__init__.py").is_file():
    fail(f"no package source at {SRC / 'autocomplexity'}; run from a full checkout")
sys.path.insert(0, str(SRC))

import autocomplexity as ac  # noqa: E402
from autocomplexity import complexity  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402

if not Path(ac.__file__).resolve().is_relative_to(SRC.resolve()):
    fail(f"imported autocomplexity from {ac.__file__}, not from {SRC}")

# verify_metric(8, jmax) lists triangle violations on every run; it is counted
# as a failed operation rather than as a wrong output.
KNOWN_FAULTS = frozenset({ac.MetricKind.J_MAX})


def start_and_import_s() -> float:
    """Median wall time of a fresh interpreter that imports the package.

    It is reported as measured: process start is mostly the kernel's and the
    file system's work, and it did not follow the calibration slices (over
    eight set-ups the probes' median ranged over 8% and the slices' mean
    over 40%).
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import autocomplexity"
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def prefix(w, n: int):
    return ac.Word(w.symbols[:n], w.alphabet_size)


class Search:
    """Seeded binary words, each asked under the six kinds (the conditional
    kinds given the next word), with no cache."""

    def __init__(self, seed: int, scratch: Path, lengths=SEARCH_LENGTHS, count=SEARCH_WORDS):
        rng = random.Random(seed)
        longest = max(lengths.values())
        self.words = [
            ac.Word(tuple(rng.randrange(2) for _ in range(longest)), 2)
            for _ in range(count)
        ]
        self.queries = []
        for i, w in enumerate(self.words):
            nxt = self.words[(i + 1) % len(self.words)]
            for kind, n in lengths.items():
                condition = prefix(nxt, n) if kind in complexity.CONDITIONAL_KINDS else None
                self.queries.append((i, ac.ComplexityQuery(kind, prefix(w, n), condition)))
        self.cache = None
        self.notes = {}

    # the part of the set-up spent in a child process, in seconds and in
    # reference seconds (only study-warm has one)
    fill_wall_s = fill_ref_s = 0.0

    def round(self):
        results = {}
        for i, query in self.queries:
            results[(i, query.kind)] = (query, ac.compute(query))
        return len(self.queries), 0, results

    def check(self, results) -> list[str]:
        def at_most(i, kind, n, bound):
            query, result = results[(i, kind)]
            if len(query.target) == n:
                return result.value <= bound
            query = ac.ComplexityQuery(kind, prefix(self.words[i], n))
            return ac.value_at_most(query, bound) is not None

        return checks.check_search(results, at_most)


def study(provider):
    rows = ac.distribution_table(STUDY_N, provider)
    reports = {kind: ac.verify_metric(STUDY_N, kind, provider) for kind in ac.MetricKind}
    return rows, reports


class Study:
    """distribution_table(8), then verify_metric(8, k) for every metric kind,
    with one provider on a fresh on-disk cache per round."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.cache = None
        self.notes = {}

    fill_wall_s = fill_ref_s = 0.0

    def cache_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def round(self):
        self.cache = ac.ResultCache(self.cache_dir())
        provider = ac.ComplexityProvider(self.cache)
        rows, reports = study(provider)
        failed = sum(not r.ok for r in reports.values())
        return 1 + len(reports), failed, (rows, reports, provider)

    def check(self, output) -> list[str]:
        rows, reports, provider = output
        self.notes = {
            kind.value: {
                "identity": len(r.identity_violations),
                "symmetry": len(r.symmetry_violations),
                "triangle": len(r.triangle_violations),
            }
            for kind, r in reports.items()
        }
        # values missing from the memo are computed without touching the cache
        provider.cache = None
        return (
            checks.check_rows(rows, STUDY_N)
            + checks.check_oracle_sample(provider, STUDY_N, self.seed)
            + checks.check_axioms(reports, STUDY_N, provider, KNOWN_FAULTS)
        )


class StudyWarm(Study):
    """The study again, every value served from the cache the set-up filled."""

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.warm_dir = scratch / "warm-cache"
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--fill-cache", str(self.warm_dir)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        self.fill_wall_s = time.perf_counter() - start
        factor, slices_s = json.loads(child.stdout)
        self.fill_ref_s = (self.fill_wall_s - slices_s) * factor

    def cache_dir(self) -> Path:
        return self.warm_dir


CLASSES = {"search": Search, "study": Study, "study-warm": StudyWarm}


def timed_rounds(workload, seconds: float, pacer) -> dict:
    """Whole rounds while the next one, as long as the last, fits in ``seconds``.

    Each round's wall and CPU time leave out the calibration slices run
    inside it and are scaled by the host speed those slices measured. Only the
    last round's output is kept (for the checks), so memory held for checking
    never adds to the next round's peak.
    """
    walls, cpus, raw_walls = [], [], []
    # compact arrays, so that the samples add little to the peak resident set
    times, slices_before = array("d"), array("q")
    attempted = failed = 0
    spent = 0.0
    run_mark = pacer.mark()
    while True:
        output = None
        with tracing.timed_compute(times, slices_before, pacer):
            mark = pacer.mark()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            ops, bad, output = workload.round()
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            factor, slices_wall, slices_cpu = pacer.since(mark)
        walls.append((wall - slices_wall) * factor)
        cpus.append((cpu - slices_cpu) * factor)
        raw_walls.append(wall - slices_wall)
        attempted += ops
        failed += bad
        spent += wall
        if spent + wall > seconds:
            break
    return {
        "walls": walls, "cpus": cpus, "raw_walls": raw_walls,
        "factor": pacer.since(run_mark)[0], "samples": pacer.scale_calls(times, slices_before),
        "attempted": attempted, "failed": failed, "output": output,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    pacer = calibrate.Pacer()
    try:
        probe = start_and_import_s()
        start = time.perf_counter()
        workload = CLASSES[name](seed, scratch)
        build = time.perf_counter() - start - workload.fill_wall_s
        # input generation is far too short to scale; the cache fill is scaled
        # by the slices its child process ran
        setup = probe + build + workload.fill_ref_s
        raw_setup = probe + build + workload.fill_wall_s

        timed = timed_rounds(workload, seconds, pacer)
        attempted, failed = timed["attempted"], timed["failed"]
        walls = timed["walls"]
        if trace:
            # the traced round runs slices too; the spans leave their time out
            tracer = tracing.Tracer(pacer)
            with tracing.timed_compute(array("d"), array("q"), pacer), tracer.installed():
                mark = pacer.mark()
                start = time.perf_counter()
                ops, bad, _ = workload.round()
                traced_wall = time.perf_counter() - start
                factor, slices_wall, _ = pacer.since(mark)
            attempted += ops
            failed += bad
            metrics = tracer.layer_metrics(factor, workload.cache)
            metrics["trace.overhead_s"] = (
                (traced_wall - slices_wall) * factor - statistics.median(walls), "s"
            )
        else:
            samples = timed["samples"]
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(timed["cpus"]), "s"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
                "query_p50_s": (statistics.median(samples), "s"),
                "query_p90_s": (statistics.quantiles(samples, n=10)[-1], "s"),
            }
        problems = workload.check(timed["output"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if workload.notes:
        print(f"axiom violations at n = {STUDY_N}: {workload.notes}")
    print(f"{name} seed={seed} rounds={len(walls)} queries={len(timed['samples'])} "
          f"attempted={attempted} failed={failed} correct={not problems}")
    print(f"  measured seconds: set-up {raw_setup:.6g}, round wall median "
          f"{statistics.median(timed['raw_walls']):.6g}; host speed factor {timed['factor']:.4g} "
          f"(reference seconds per measured second)")
    for k, (v, u) in metrics.items():
        print(f"  {k:40s} {v:.6g} {u}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  round_walls=walls, measured_round_walls=timed["raw_walls"],
                  measured_setup_s=raw_setup, host_factor=timed["factor"],
                  problems=problems, notes=workload.notes)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def run_all(args) -> None:
    """Each workload in its own process, in turn, then one summary."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(proc.stdout)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nworkload     attempted failed correct  metric")
    for name, r in results.items():
        for i, (k, m) in enumerate(r["metrics"].items()):
            head = f"{name:12s} {r['attempted']:9d} {r['failed']:6d} {str(r['correct']):7s}" if i == 0 else " " * 36
            print(f"{head}  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fill-cache", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.fill_cache:
        # prints the host speed factor and the slices' wall time for the parent
        pacer = calibrate.Pacer()
        mark = pacer.mark()
        with tracing.timed_compute(array("d"), array("q"), pacer):
            study(ac.ComplexityProvider(ac.ResultCache(args.fill_cache)))
        factor, slices_s, _ = pacer.since(mark)
        print(json.dumps([factor, slices_s]))
    elif args.workload == "all":
        run_all(args)
    else:
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
