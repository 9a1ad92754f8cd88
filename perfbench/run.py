"""One benchmark for the cold `ripki run`, the funnel and ROV.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 50 --trace 0

Every run does, in this one process, the three things the system is
for, over inputs generated from ``--seed``:

* a cold run: what ``ripki run --domains N`` does (world build, one
  serial study with observability off, the figure and table inputs);
* funnel passes over that world's top ranks, each with a fresh study
  and fresh resolvers, in a rotating order: serial, serial with
  ``obs.enable()``, and the ``workers`` backend with one worker per
  core;
* ROV campaigns: ``RovExperimentRunner.run`` over ``seeded_enforcers``
  and a serial ``WhatIfEngine.run_futures`` sweep.

Each of the workload's cold runs (each over another world) opens its
share of the run, which cycles of funnel rotations and ROV campaigns
fill until ``--seconds`` are used up (at least ``MIN_CYCLES``), so
every end-to-end metric is measured on every workload.  The workload
sets the sizes and the number of cold runs, and so which part takes
most of the time.  Times and throughputs are reported at the pace of a
reference loop timed between samples (see ``Pace``).

Every operation's output is checked: pinned digests for the seeds in
``digests.json``, and in-run oracles on every seed (observed and sharded
passes equal the plain pass, the observed registry agrees with the
statistics, repeats and replays are identical).  The last stdout line
is one JSON object; with ``--trace 0`` it holds the end-to-end metrics,
measured with tracing off.  ``--trace 1`` runs the workload's plan once
untraced and once with a span recorded around every public entry point
in ``probes.py``, and reports the per-layer metrics of the traced copy.
The exit status is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

_clock = time.perf_counter

# Public modules a cold `ripki run` imports before its first operation.
_IMPORTS = ("repro.cli", "repro.rov", "repro.exec", "repro.cache.fingerprint")
# Standard library modules the program does not import, and the time a
# fresh interpreter takes to import them at the reference pace.
_REFERENCE_IMPORTS = (
    "asyncio", "configparser", "decimal", "difflib", "email.mime.multipart",
    "fractions", "ipaddress", "pydoc", "sqlite3", "tarfile", "unittest",
    "urllib.request", "uuid", "xml.dom.minidom",
)
REFERENCE_IMPORT_S = 0.1
_SETUP_REPEATS = 5
# Run in a fresh interpreter: prints the time its imports of the
# modules argv[2:] (the program's found under argv[1]) take.
_IMPORT_PROBE = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - started)
"""
FUNNEL_KINDS = ("plain", "observed", "sharded")


@dataclass(frozen=True)
class Workload:
    domains: int             # world size: the cold run's --domains
    rotations: int           # funnel rotations per cycle
    campaigns: int           # ROV campaigns per cycle
    cold_runs: int           # cold runs a run makes, over as many worlds
    variants: int            # campaign inputs a run's campaigns cycle through

    @property
    def funnel_domains(self) -> int:
        """Top ranks each funnel pass measures."""
        return min(FUNNEL_DOMAINS, self.domains)


WORKLOADS: Dict[str, Workload] = {
    "cold-run": Workload(20_000, rotations=3, campaigns=1, cold_runs=2,
                         variants=4),
    "rov": Workload(2_000, rotations=2, campaigns=2, cold_runs=3, variants=8),
}
# Funnel passes measure at most this many top ranks, so a pass takes
# well under a second and many fit in a run.
FUNNEL_DOMAINS = 2_000
# Cycles (funnel rotations, then ROV campaigns) a run makes at least,
# enough for every workload to run a campaign on each of its variants.
MIN_CYCLES = 4
# Input variants of one seed at most (cold runs and campaign inputs).
# The rounds of one campaign input take up to 1.6 times as long as those
# of another, so a run averages over several.
VARIANTS = 8
# One ROV campaign, as `ripki rov` runs it by default: classification
# rounds, vantage points per round, sampled futures (on top of the
# named ones) and hijack replays per future.
ROUNDS = 48
VANTAGES = 10
FUTURES = 8
SAMPLES = 12


# Iterations of the reference loop, and its time at the reference pace
# that scaled times are quoted at (about its median time on a 2-vCPU
# shared cloud host).
REFERENCE_ITERATIONS = 50_000
REFERENCE_S = 0.025
# Readings on each side of a sample that its pace is the mean of.
PACE_WINDOW = 4


def _variant_seed(seed: int, variant: int) -> int:
    """The program seed of one input variant of the benchmark seed."""
    return seed * VARIANTS + variant


def _reference_loop() -> float:
    """Time one fixed pure-Python loop (dicts, tuples, strings, a sort),
    with the collector off so the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = _clock()
        table = {}
        for i in range(REFERENCE_ITERATIONS):
            table[(i * 7919) % 100_003] = (i, str(i))
        total = 0
        for key, (number, text) in sorted(table.items(),
                                          key=lambda item: item[1][1]):
            total ^= key + number + len(text)
        return _clock() - started
    finally:
        if enabled:
            gc.enable()


class Pace:
    """The machine's pace around each sample, read from a reference loop.

    The cores of a shared host run one fixed pure-Python loop at between
    one and two times its best time within a run, in phases of a few
    seconds, and the pace averaged over a run drifts by ~20% from one
    run to the next: more than any bound a regression check could hold
    a raw time to.  So the loop is timed after every sample, outside its
    timing, and a sample is reported times ``REFERENCE_S`` over the mean
    of the ``2 * PACE_WINDOW`` readings around it: seconds at the
    reference pace.  One reading is too noisy to scale its neighbour,
    but a few around it follow the phase the sample ran in.  A change to
    the program moves a scaled time as it moves the raw one; the raw
    samples and the readings are printed beside the metrics.
    """

    def __init__(self) -> None:
        self.readings = [_reference_loop()]

    def mark(self) -> int:
        """Read the pace just after a sample; the reading's index is the
        sample's mark."""
        self.readings.append(_reference_loop())
        return len(self.readings) - 1

    def scale(self, seconds: float, mark: int) -> float:
        window = self.readings[max(0, mark - PACE_WINDOW):mark + PACE_WINDOW]
        return seconds * REFERENCE_S / statistics.fmean(window)


def _settle() -> None:
    """Collect garbage before a timed operation, outside its timing.

    Without it, a collection owed by earlier operations (their results,
    a previous world) lands in whichever sample happens to cross the
    threshold.  Watchers in ``gc.callbacks`` do not see this collection.
    """
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        gc.collect()
    finally:
        gc.callbacks.extend(callbacks)


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool, operations: int = 1) -> None:
        self.attempted += operations
        if not ok:
            self.failed += operations
            print(f"check failed: {what}", file=sys.stderr)

    def fail_done(self, what: str, operations: int) -> None:
        """Fail operations already attempted (a cross-pass oracle)."""
        self.failed = min(self.attempted, self.failed + operations)
        print(f"check failed: {what}", file=sys.stderr)


class Bench:
    """The measured parts, over the program's public modules.

    The modules are imported when the object is made; set-up timed
    their import before, in fresh interpreters.
    """

    def __init__(self) -> None:
        self.core = importlib.import_module("repro.core")
        self.exec = importlib.import_module("repro.exec")
        self.fingerprint = importlib.import_module("repro.cache.fingerprint")
        self.obs = importlib.import_module("repro.obs")
        self.rov = importlib.import_module("repro.rov")
        self.web = importlib.import_module("repro.web")

    def cold_digests(self, world, result) -> Dict[str, str]:
        """Digests of a cold run's study result, table dump and VRP set."""
        fingerprint = self.fingerprint
        return {
            "study": _sha([
                self.exec.encode_measurements(list(result)),
                list(self.exec.encode_statistics(result.statistics)),
            ]),
            "dump": fingerprint.dump_digest(world.table_dump),
            "vrps": fingerprint.vrp_digest(
                fingerprint.vrp_items(world.payloads())
            ),
        }

    # -- the three measured parts ------------------------------------------

    def cold_run(self, domains: int, seed: int,
                 before: Callable[[], None],
                 after: Callable[[str, object], None]):
        """What `ripki run --domains N --seed S` computes, figures included.

        ``before()`` and ``after("cold", result)`` are called around the
        serial study.
        """
        core, web = self.core, self.web
        _settle()
        started = _clock()
        world = web.WebEcosystem.build(
            web.EcosystemConfig(domain_count=domains, seed=seed)
        )
        built = _clock()
        study = core.MeasurementStudy.from_ecosystem(world)
        before()
        result = study.run()
        after("cold", result)
        core.pipeline_statistics(result)
        core.figure1_www_overlap(result, None)
        core.figure2_rpki_outcome(result, None)
        classifier = web.HTTPArchiveClassifier(
            world.namespace, coverage=max(1, domains * 3 // 10)
        )
        archive = classifier.classify_all(world.ranking)
        core.figure3_cdn_popularity(result, archive, classifier.coverage, None)
        core.figure4_rpki_cdn(result, None)
        core.reports.render_table1(core.table1_top_covered(result))
        core.cdn_as_report(world).summary()
        done = _clock()
        times = {"build": built - started, "total": done - started}
        return world, result, times

    def funnel_pass(self, world, ranks: int, kind: str, workers: int):
        """One pass over the top ``ranks`` domains with a fresh study.

        The study is built as ``MeasurementStudy.from_ecosystem`` builds
        it, over fresh ``world.resolvers()``, so no answer cache carries
        over from an earlier pass.
        """
        registry = None
        _settle()
        started = _clock()
        study = self.core.MeasurementStudy(
            ranking=self.web.AlexaRanking(world.ranking.top(ranks)),
            resolver=world.resolvers()[0],
            table_dump=world.table_dump,
            payloads=world.payloads(),
        )
        if kind == "plain":
            result = study.run()
        elif kind == "observed":
            registry, _collector = self.obs.enable()
            try:
                result = study.run()
            finally:
                self.obs.disable()
        else:
            result = study.run(
                self.core.RunConfig(workers=workers, mode="workers")
            )
        return result, _clock() - started, registry

    def rov_inputs(self, world, seed: int):
        rov = self.rov
        enforcing = rov.seeded_enforcers(world.topology, seed=seed)
        experiment = rov.ExperimentSpec(
            rounds=ROUNDS, vantage_count=VANTAGES, seed=seed
        )
        futures = rov.named_futures(world) + rov.sample_futures(
            world, FUTURES, seed=seed
        )
        return enforcing, experiment, futures

    def rov_verdict(self, world, inputs) -> str:
        """The ``verdict_digest`` of a campaign's classification rounds."""
        enforcing, experiment, _futures = inputs
        return self.rov.RovExperimentRunner(world.topology, enforcing,
                                            experiment).run().digest

    def rov_campaign(self, world, result, seed: int, inputs):
        """Classification rounds, then a serial what-if sweep."""
        enforcing, experiment, futures = inputs
        runner = self.rov.RovExperimentRunner(world.topology, enforcing,
                                              experiment)
        engine = self.rov.WhatIfEngine(world, hijack_samples=SAMPLES,
                                       seed=seed, result=result)
        _settle()
        started = _clock()
        report = runner.run()
        classified = _clock()
        deltas = engine.run_futures(futures)
        done = _clock()
        digests = {"verdict": report.digest,
                   "deltas": _sha([delta.to_dict() for delta in deltas])}
        return digests, classified - started, done - classified


class Session:
    """One run's plan, with every output checked.

    Cold runs each build another world and ROV campaigns cycle through
    the workload's input sets (deployment, rounds, futures, hijacks), all
    derived from the run's seed, so a run's medians average over several
    inputs instead of hanging on one.  Funnel passes and campaigns use
    the first world.
    """

    def __init__(self, bench: Bench, spec: Workload, seed: int,
                 pins: Dict[str, dict], tally: Tally, workers: int,
                 pace: Pace) -> None:
        self.bench = bench
        self.pace = pace
        self.spec = spec
        self.seed = seed
        self.pins = pins
        self.tally = tally
        self.workers = workers
        self.world = None
        self.baseline = None        # the first cold run's study result
        self.reference = None       # the first funnel pass's result
        self.cold_digests: Dict[int, Dict[str, str]] = {}
        self.rov_digests: Dict[int, Dict[str, str]] = {}
        self.rov_inputs: Dict[int, tuple] = {}
        self.cold: List[Dict[str, float]] = []
        self.passes: List[Dict[str, tuple]] = []   # one dict per rotation
        self.rov: List[tuple] = []
        self.wall = 0.0
        # Optional hooks a traced run uses to attribute counts per pass.
        self.before_pass: Callable[[], None] = lambda: None
        self.after_pass: Callable[[str, object], None] = (
            lambda kind, result: None
        )

    def _check(self, part: str, seen: Dict[int, Dict[str, str]],
               variant: int, digests: Dict[str, str], operations: int) -> None:
        """Digests must repeat within the run and match any pinned ones."""
        pinned = self.pins.get(part, {}).get(str(variant), digests)
        expected = seen.setdefault(variant, digests)
        self.tally.check(f"{part} digests, input variant {variant}",
                         digests == expected == pinned, operations)

    def run_cold(self) -> None:
        variant = len(self.cold)
        world, result, times = self.bench.cold_run(
            self.spec.domains, _variant_seed(self.seed, variant),
            self.before_pass, self.after_pass,
        )
        times["mark"] = self.pace.mark()
        self.wall += times["total"]
        if self.world is None:
            self.world, self.baseline = world, result
        self._check("cold", self.cold_digests, variant,
                    self.bench.cold_digests(world, result), 1)
        self.cold.append(times)

    def run_rotation(self) -> None:
        rotation = len(self.passes)
        shift = rotation % len(FUNNEL_KINDS)
        order = FUNNEL_KINDS[shift:] + FUNNEL_KINDS[:shift]
        times: Dict[str, tuple] = {}
        ranks = self.spec.funnel_domains
        for kind in order:
            self.before_pass()
            result, seconds, registry = self.bench.funnel_pass(
                self.world, ranks, kind, self.workers
            )
            mark = self.pace.mark()
            self.after_pass(kind, result)
            self.wall += seconds
            if self.reference is None:
                self.reference = result
            ok = (result == self.reference
                  and list(result) == list(self.baseline)[:ranks])
            if registry is not None:
                ok = ok and result.statistics.consistent_with(registry)
            self.tally.check(f"{kind} funnel pass", ok)
            times[kind] = (seconds, mark)
        self.passes.append(times)

    def run_rov(self, variant: Optional[int] = None) -> None:
        """One campaign; ``variant`` runs a given input set untimed."""
        timed = variant is None
        if timed:
            variant = len(self.rov) % self.spec.variants
        seed = _variant_seed(self.seed, variant)
        if variant not in self.rov_inputs:
            self.rov_inputs[variant] = self.bench.rov_inputs(self.world, seed)
        digests, rounds_s, futures_s = self.bench.rov_campaign(
            self.world, self.baseline, seed, self.rov_inputs[variant],
        )
        self._check("rov", self.rov_digests, variant, digests, 2)
        if timed:
            self.wall += rounds_s + futures_s
            self.rov.append((rounds_s, futures_s, self.pace.mark()))

    def run_plan(self, seconds: float, min_cycles: int) -> None:
        """The workload's cold runs, each followed by cycles of funnel
        rotations and ROV campaigns until its share of ``seconds`` is
        spent (at least ``min_cycles`` cycles in all), so every kind of
        sample is spread over the whole run, as the pace readings are.
        The number of cold runs is fixed, so the work measured and the
        peak memory do not depend on how fast the program is."""
        started = _clock()
        parts = self.spec.cold_runs
        per_part = -(-min_cycles // parts)
        for part in range(parts):
            self.run_cold()
            deadline = seconds * (part + 1) / parts
            cycles = 0
            while True:
                cycle_started = _clock()
                for _ in range(self.spec.rotations):
                    self.run_rotation()
                for _ in range(self.spec.campaigns):
                    self.run_rov()
                cycles += 1
                now = _clock()
                if cycles >= per_part and (
                    now - started + now - cycle_started > deadline
                ):
                    break

    def replay_rov(self) -> None:
        """Replay, untimed, the first campaign's classification rounds:
        the verdict must repeat."""
        verdict = self.bench.rov_verdict(self.world, self.rov_inputs[0])
        self.tally.check("rov replay, input variant 0",
                         verdict == self.rov_digests[0]["verdict"])

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        """Medians of the samples, averaged over the input variants.

        Times and throughputs are at the reference pace; the ratios
        compare adjacent raw samples, which ran at the same pace.
        """
        scale = self.pace.scale
        domains = len(self.reference)
        futures = len(self.rov_inputs[0][2])
        median = statistics.median
        variants = self.spec.variants

        def passes(kind: str) -> List[float]:
            return [scale(*p[kind]) for p in self.passes]

        def raw(kind: str) -> List[float]:
            return [p[kind][0] for p in self.passes]

        return {
            "setup_s": setup_s,
            "cold_run_s": statistics.fmean(
                scale(c["total"], c["mark"]) for c in self.cold
            ),
            "build_s": statistics.fmean(
                scale(c["build"], c["mark"]) for c in self.cold
            ),
            "domains_per_s": domains / median(passes("plain")),
            "observed_domains_per_s": domains / median(passes("observed")),
            "obs_overhead_ratio": median(
                o / p for o, p in zip(raw("observed"), raw("plain"))
            ),
            "sharded_domains_per_s": domains / median(passes("sharded")),
            "parallel_speedup": median(
                p / s for p, s in zip(raw("plain"), raw("sharded"))
            ),
            "rounds_per_s": ROUNDS / _variant_mean(
                [scale(r, mark) for r, _f, mark in self.rov], variants
            ),
            "futures_per_s": futures / _variant_mean(
                [scale(f, mark) for _r, f, mark in self.rov], variants
            ),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }


def _variant_mean(samples: List[float], variants: int) -> float:
    """Mean over input variants of each variant's median sample.

    Sample ``i`` ran input variant ``i % variants``.  Work differs from
    one input to the next, so each variant counts once however many
    samples it got.
    """
    medians = [
        statistics.median(samples[variant::variants])
        for variant in range(min(variants, len(samples)))
    ]
    return sum(medians) / len(medians)


def _import_probe(modules) -> float:
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), *modules],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout)


def _timed_imports() -> tuple:
    """Cold imports of the program's public modules, at the reference
    pace: their median, the raw samples and the reference probes.

    Each sample imports them in a fresh interpreter, so the standard
    library modules the program pulls in are loaded anew every time, as
    in a cold `ripki run`; the interpreter's own start is not timed.
    Import time drifts from run to run with the host's state (up to 1.6
    times between runs whose own samples agree within 10%), apart from
    the reference loop's pace, so a probe of ``_REFERENCE_IMPORTS``
    runs before and after each sample, and the sample is scaled by
    ``REFERENCE_IMPORT_S`` over the mean of those two.
    """
    references = [_import_probe(_REFERENCE_IMPORTS)]
    samples = []
    for _ in range(_SETUP_REPEATS):
        samples.append(_import_probe(_IMPORTS))
        references.append(_import_probe(_REFERENCE_IMPORTS))
    scaled = [
        seconds * 2 * REFERENCE_IMPORT_S / (before + after)
        for seconds, before, after in zip(samples, references,
                                          references[1:])
    ]
    return statistics.median(scaled), samples, references


class GcWatch:
    """Collector pauses and counts, taken from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = _clock()
            return
        self.pause_s += _clock() - self._started
        self.collections += 1
        if info.get("generation") == 2:
            self.gen2 += 1


def _traced(bench: Bench, spec: Workload, seed: int, pins, tally: Tally,
            workers: int, out_dir: Path, label: str) -> Dict[str, float]:
    """Per-layer metrics from one traced copy of the workload's plan."""
    import probes
    from tracer import Instrumented, SpanStore, per_call_cost

    untraced = Session(bench, spec, seed, pins, tally, workers, Pace())
    untraced.run_plan(0.0, min_cycles=1)
    untraced.replay_rov()

    store = SpanStore()
    session = Session(bench, spec, seed, pins, tally, workers, Pace())
    per_pass: Dict[str, List[Dict[str, float]]] = {}
    mark: Dict[str, float] = {}

    def before() -> None:
        mark.clear()
        mark.update({key: store.counts.get(key, 0)
                     for key in probes.PASS_INVARIANTS})

    def after(kind: str, result) -> None:
        store.drain_pipe()
        report = result.scheduler_report
        if report is not None:
            store.count("exec.shards", report.jobs_total)
            store.count("exec.redispatched", report.redispatched)
            store.count("exec.stolen", report.stolen)
        per_pass.setdefault(kind, []).append({
            key: store.counts.get(key, 0) - mark[key]
            for key in probes.PASS_INVARIANTS
        })

    session.before_pass, session.after_pass = before, after
    watch = GcWatch()
    with Instrumented(store, probes.PROBES, probes.CHILD_ENTRY):
        gc.callbacks.append(watch)
        try:
            session.run_plan(0.0, min_cycles=1)
        finally:
            gc.callbacks.remove(watch)
    # The first cold run's study counts too when it covers the passes'
    # ranks, so a cache it warms for the passes shows; the other cold
    # runs are over other worlds.
    counts = [entry for kind in FUNNEL_KINDS
              for entry in per_pass.get(kind, [])]
    if spec.funnel_domains == spec.domains:
        counts += per_pass["cold"][:1]
    if any(entry != counts[0] for entry in counts):
        tally.fail_done("per-pass counts differ across passes", len(counts))
    if (session.cold_digests, session.rov_digests) != (
        untraced.cold_digests, untraced.rov_digests
    ):
        tally.fail_done("traced plan differs from the untraced plan",
                        tally.attempted)

    layers: Dict[str, float] = {name: 0.0 for name in
                                probes.SPAN_METRICS.values()}
    spans = store.self_times()
    for source in (spans, store.remote):
        for name, (seconds, _calls) in source.items():
            layers[probes.SPAN_METRICS[name]] += seconds
    for name in probes.COUNT_METRICS:
        layers[name] = float(store.counts.get(name, 0))
    # The probes' own cost: their calls, in the parent and in the
    # workers, times a probe's cost per call timed on a no-op.
    span_cost, count_cost = per_call_cost()
    span_calls = len(store.start) + sum(
        calls for _seconds, calls in store.remote.values()
    )
    counted_calls = sum(store.counts.get(probe.calls, 0)
                        for probe in probes.PROBES if probe.span is None)
    layers.update({
        "gc.pause_s": watch.pause_s,
        "gc.collections": float(watch.collections),
        "gc.gen2_collections": float(watch.gen2),
        "trace.overhead_s": (span_calls * span_cost
                             + counted_calls * count_cost),
        "trace.coverage_ratio": store.root_seconds() / session.wall,
    })
    out_dir.mkdir(exist_ok=True)
    written = store.write(str(out_dir / f"trace-{label}.json"))
    print(f"trace: {written} spans in {out_dir.name}/trace-{label}.json")
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--domains", type=int, default=None,
                        help="override the workload's domain count "
                             "(smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = WORKLOADS[args.workload]
    if args.domains is not None:
        spec = replace(spec, domains=args.domains)
    pins = {}
    if args.domains is None:
        pinned = json.loads((HERE / "digests.json").read_text())
        pins = pinned.get(args.workload, {}).get(str(args.seed), {})
    workers = len(os.sched_getaffinity(0))

    setup_s, setup_samples, setup_references = _timed_imports()
    pace = Pace()
    bench = Bench()
    tally = Tally()
    print(f"context: workload={args.workload} seed={args.seed} "
          f"domains={spec.domains} funnel_domains={spec.funnel_domains} "
          f"cpu_count={os.cpu_count()} "
          f"workers={workers} python={platform.python_version()} "
          f"pinned={'yes' if pins else 'no'}")
    try:
        if args.trace:
            metrics = {
                name: {"value": value, "unit": _unit(name)}
                for name, value in _traced(
                    bench, spec, args.seed, pins, tally, workers,
                    ROOT / ".perfbench_out",
                    f"{args.workload}-{args.seed}",
                ).items()
            }
        else:
            session = Session(bench, spec, args.seed, pins, tally, workers,
                              pace)
            session.run_plan(args.seconds, min_cycles=MIN_CYCLES)
            session.replay_rov()
            print("samples (s): " + json.dumps({
                "cold": session.cold, "passes": session.passes,
                "rov": session.rov, "pace": pace.readings,
                "setup": setup_samples, "setup_references": setup_references,
            }))
            metrics = {
                name: {"value": value, "unit": _unit(name)}
                for name, value in session.end_to_end(setup_s).items()
            }
    except Exception:  # the program raised: report it as a failed run
        traceback.print_exc()
        return 1
    correct = tally.failed == 0
    print(f"error_rate: {tally.failed}/{tally.attempted}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_speedup"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
