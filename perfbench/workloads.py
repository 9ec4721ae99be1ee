"""The benchmark's three workloads and their output gates.

Each workload builds everything it runs from one seed, times one
*repeat* of the work a user pays for, and checks the outputs of that
repeat against oracles that are not the code under test (the
independent partition verifier, the sequential-equivalence oracle, the
serve runtime's sequential shard oracle) and, at the reference seed,
against the committed result files.  Gates never raise: every failed
cell or run is counted in the repeat's :class:`Outcome`.

The program is imported lazily, inside the functions, so that the
runner can report a missing source tree before touching it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: The Fig-19/20 applications, in the paper's order.
SUITE_APPS = ("rx", "ipv4", "scheduler", "qm", "tx", "ip_v4", "ip_v6")
#: The Fig-19 applications (the ones ``EXPLORE_frontier.json`` covers).
EXPLORE_APPS = ("rx", "ipv4", "scheduler", "qm", "tx")
DEGREES = tuple(range(1, 10))
RINGS = ("nn-ring", "scratch-ring", "sram-ring")
EPSILONS = (1.0 / 16.0, 1.0 / 8.0)
#: Min-size packets per application in the compile workloads.
PACKETS = 60
#: Packets served per serve-verified repeat (about 156 batches of 32):
#: short enough that one run takes a median over a dozen repeats.
SERVE_PACKETS = 5_000
#: Iterations of :func:`reference_loop`, and the seconds
#: :func:`reference_pace` takes with 1 and with 2 busy processes on a
#: quiet host (the fastest of 150 tries each on a 2-vCPU x86-64 VM under
#: CPython 3.11.7).  Reported times are scaled to that host's speed.
REFERENCE_ITERATIONS = 150_000
REFERENCE_SECONDS = {1: 0.027, 2: 0.036}
#: The seed the committed reference files were produced with.
REFERENCE_SEED = 7
#: Committed files the gates read (and check are left unchanged).
REFERENCE_FILES = ("BENCH_headline.json", "EXPLORE_frontier.json")


@dataclass
class Outcome:
    """One timed repeat of a workload and the verdict on its outputs."""

    wall: float                       # seconds, the timed region
    ops: int                          # cells or packets completed
    #: Seconds of each timed part of the repeat (two per app in
    #: suite-cold, one per app in explore-grid, the whole run in
    #: serve-verified); ``wall`` is their sum.
    parts: dict = field(default_factory=dict)
    #: Each part's host scale (see :func:`host_scale`), from the
    #: reference pace taken just before and just after it.
    scale: dict = field(default_factory=dict)
    op_ms: list = field(default_factory=list)   # per-op latency samples
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: What the program computed, compared between a traced and an
    #: untraced repeat (see :func:`signature_mismatches`).
    signature: dict = field(default_factory=dict)
    #: Deterministic quality numbers (printed, gated at the reference).
    quality: dict = field(default_factory=dict)

    @property
    def scaled_wall(self) -> float:
        """``wall`` with each part scaled by its host scale."""
        return sum(seconds * self.scale[part]
                   for part, seconds in self.parts.items())


def file_digests(root: Path) -> dict[str, str]:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in REFERENCE_FILES}


def load_references(root: Path) -> dict:
    """The committed speedup series and frontier cells, read only."""
    with open(root / "BENCH_headline.json", encoding="utf-8") as handle:
        headline = json.load(handle)
    with open(root / "EXPLORE_frontier.json", encoding="utf-8") as handle:
        frontier = json.load(handle)
    # Apps in both figures (rx, tx) carry one committed copy per figure;
    # the measured series must equal each of them.
    series = {f"{figure}/{app}": values
              for figure, entry in headline["figures"].items()
              for app, values in entry["speedup_by_degree"].items()}
    cells = {cell["id"]: cell for app in frontier["apps"].values()
             for cell in app["cells"]}
    return {"series": series, "frontier_cells": cells}


# -- gates (pure functions, exercised by the self-tests) --------------------


def suite_reference_failures(series: dict, references: dict) -> dict:
    """Cells whose speedup differs from the committed series, as
    ``{(app, degree): message}``.

    ``series`` maps app -> {degree (str): speedup rounded to 4 places},
    the form ``repro bench`` writes.
    """
    failures = {}
    for label, want in sorted(references["series"].items()):
        app = label.split("/")[1]
        measured = series.get(app, {})
        for degree in sorted(set(want) | set(measured), key=int):
            if measured.get(degree) != want.get(degree):
                failures[app, int(degree)] = (
                    f"{app}/d{degree}: speedup {measured.get(degree)} "
                    f"!= committed {want.get(degree)} ({label})")
    return failures


def frontier_failures(cells: dict, references: dict) -> dict:
    """Committed frontier cells whose metrics differ or are missing, as
    ``{cell id: message}``."""
    failures = {}
    for cell_id, want in sorted(references["frontier_cells"].items()):
        got = cells.get(cell_id)
        if got is None:
            failures[cell_id] = f"{cell_id}: missing from the exploration"
        elif got["metrics"] != want["metrics"]:
            failures[cell_id] = (f"{cell_id}: metrics {got['metrics']} != "
                                 f"committed {want['metrics']}")
    return failures


def signature_mismatches(untraced: dict, traced: dict) -> list[str]:
    """Keys whose computed result differs between two repeats."""
    mismatches = []
    for key in sorted(set(untraced) | set(traced), key=str):
        if untraced.get(key) != traced.get(key):
            mismatches.append(f"{key}: traced run computed a different "
                              f"result")
    return mismatches


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The benchmark shares a few cores with other tenants, whose load
    slows every interpreter on the host by up to a third for minutes at
    a time.  The loop is slowed alike, so a time divided by the loop's
    time next to it measures the program rather than the neighbours.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        total += table.get(key, 0) ^ (i * 31)
        table[key] = total & 0xFFFF
    return perf_counter() - start


def reference_pace(procs: int = 1) -> float:
    """Seconds until ``procs`` copies of :func:`reference_loop`, run at
    once in forked processes, have all ended: the host's current speed
    for a part that keeps ``procs`` processes busy."""
    if procs <= 1:
        return reference_loop()
    start = perf_counter()
    children = []
    for _ in range(procs - 1):
        pid = os.fork()
        if pid == 0:                  # the child runs one loop and leaves
            try:
                reference_loop()
            finally:
                os._exit(0)
        children.append(pid)
    reference_loop()
    for pid in children:
        os.waitpid(pid, 0)
    return perf_counter() - start


def host_scale(procs: int, paces) -> float:
    """The factor that scales a time measured between reference
    ``paces`` (seconds of :func:`reference_pace` with ``procs`` busy
    processes) to the quiet host of ``REFERENCE_SECONDS``."""
    return REFERENCE_SECONDS[procs] / statistics.median(paces)


@contextmanager
def timed(outcome: Outcome, part: str, procs: int = 1):
    """Time one part of a repeat into ``outcome``, with the reference
    pace for ``procs`` busy processes taken just before and just after
    it (garbage from earlier parts is collected first; neither is in
    the part's time)."""
    gc.collect()
    before = reference_pace(procs)
    start = perf_counter()
    try:
        yield
    finally:
        seconds = perf_counter() - start
        outcome.scale[part] = host_scale(procs,
                                         [before, reference_pace(procs)])
        outcome.parts[part] = seconds
        outcome.wall += seconds


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- workloads ----------------------------------------------------------------


class Workload:
    """Base: ``setup`` once, then ``run`` one timed repeat at a time."""

    name = ""

    def __init__(self, seed: int, workdir: Path, root: Path, jobs: int):
        self.seed = seed
        self.workdir = Path(workdir)
        self.root = Path(root)
        self.jobs = jobs
        self.references = None

    def setup(self) -> None:
        self.references = load_references(self.root)

    def run(self, tracer=None) -> Outcome:
        raise NotImplementedError

    def _report(self, tracer, values: dict) -> None:
        """Fold a report-derived per-layer number into the trace."""
        if tracer is not None:
            tracer.instant("report", "bench", values)


class SuiteCold(Workload):
    """Cold build + partition + verify + simulate of the Fig-19/20 suite."""

    name = "suite-cold"

    def setup(self) -> None:
        super().setup()
        from repro.apps.suite import build_app

        for app in SUITE_APPS:
            build_app(app, packets=PACKETS, seed=self.seed)

    def run(self, tracer=None) -> Outcome:
        # Imported per repeat: a traced repeat must see the wrappers.
        from repro.apps.suite import build_app
        from repro.cache import CompileCache
        from repro.eval.metrics import measure_sequential, partition_app
        from repro.runtime.compile import clear_cache

        clear_cache()
        cache_dir = tempfile.mkdtemp(prefix="suite-cache-", dir=self.workdir)
        cache = CompileCache(cache_dir)
        outcome = Outcome(wall=0.0, ops=0,
                          attempted=len(SUITE_APPS) * len(DEGREES))
        failed_cells: set = set()
        series: dict[str, dict[str, float]] = {}
        for name in SUITE_APPS:
            # Two timed parts an app, each paced close by: the build and
            # partition, then the verification and simulation.
            with timed(outcome, f"{name}.partition"):
                app = build_app(name, packets=PACKETS, seed=self.seed)
                try:
                    transforms, breakdown = partition_app(app, DEGREES,
                                                          cache=cache)
                except Exception as exc:   # the whole row failed
                    transforms = None
                    row_error = exc
            if transforms is not None:
                with timed(outcome, f"{name}.check"):
                    try:
                        baseline = measure_sequential(app)
                    except Exception as exc:   # the whole row failed
                        transforms = None
                        row_error = exc
                    else:
                        series[name] = self._check_row(
                            name, app, transforms, breakdown, baseline,
                            outcome, failed_cells)
            if transforms is None:
                outcome.failures.append(f"{name}: {type(row_error).__name__}"
                                        f": {row_error}")
                failed_cells.update((name, d) for d in DEGREES)
        shutil.rmtree(cache_dir, ignore_errors=True)

        if self.seed == REFERENCE_SEED:
            mismatched = suite_reference_failures(series, self.references)
            outcome.failures.extend(mismatched.values())
            failed_cells.update(mismatched)
        outcome.failed = min(outcome.attempted, len(failed_cells))
        outcome.ops = outcome.attempted - outcome.failed
        top = str(DEGREES[-1])
        if all(top in values for values in series.values()) and series:
            outcome.quality["speedup_geomean_d9"] = geomean(
                values[top] for values in series.values())
        outcome.quality["live_words_total"] = sum(
            sum(words) for _, words in outcome.signature.values())
        return outcome

    @staticmethod
    def _check_row(name, app, transforms, breakdown, baseline, outcome,
                   failed_cells) -> dict[str, float]:
        """Verify and simulate one app's partitions; returns its speedup
        series and records each cell's signature and failures."""
        from repro.eval.metrics import measure_pipeline
        from repro.pipeline.verify import verify_partition

        app_series = {"1": 1.0}
        for degree in DEGREES[1:]:
            outcome.op_ms.append(breakdown[str(degree)]["seconds"] * 1e3)
            result = transforms[degree]
            verdict = verify_partition(result)
            if not verdict.ok:
                outcome.failures.append(f"{name}/d{degree}: verifier "
                                        f"rejected: {verdict.summary()}")
                failed_cells.add((name, degree))
            try:
                measured = measure_pipeline(
                    app, degree, baseline=baseline, transform=result)
            except Exception as exc:   # equivalence or runtime failure
                outcome.failures.append(f"{name}/d{degree}: "
                                        f"{type(exc).__name__}: {exc}")
                failed_cells.add((name, degree))
                continue
            app_series[str(degree)] = round(measured.speedup, 4)
            outcome.signature[f"{name}/d{degree}"] = (
                tuple(sorted(result.assignment.block_stage.items())),
                tuple(measured.message_words))
        return app_series


class ExploreGrid(Workload):
    """``repro explore`` over 3 cost tables x 2 epsilons x 9 degrees."""

    name = "explore-grid"

    def space(self, apps=EXPLORE_APPS):
        from repro.eval.explore import SearchSpace

        return SearchSpace(apps=apps, degrees=DEGREES, rings=RINGS,
                           epsilons=EPSILONS, incremental=(True,),
                           max_block_instructions=(12,), packets=PACKETS,
                           seed=self.seed)

    def setup(self) -> None:
        super().setup()
        from repro.apps.suite import build_app

        self.space().validate()
        for app in EXPLORE_APPS:
            build_app(app, packets=PACKETS, seed=self.seed)

    def run(self, tracer=None) -> Outcome:
        from repro.eval.explore import explore

        outcome = Outcome(wall=0.0, ops=0,
                          attempted=self.space().cell_count())
        # One exploration per app, each its own timed part: the frontier
        # and pick are per app anyway, and five parts a repeat give the
        # per-part medians five times the samples of one whole call.
        reports = []
        for app in EXPLORE_APPS:
            with timed(outcome, app, procs=self.jobs):
                reports.append(explore(self.space((app,)), jobs=self.jobs,
                                       cache=None, keep_going=True))

        cells = {cell["id"]: cell for report in reports
                 for app in report["apps"].values() for cell in app["cells"]}
        bad = set()
        for failure in (failure for report in reports
                        for failure in report.get("failures", [])):
            outcome.failures.append(f"sweep failure: {failure['error']}")
        for cell_id, cell in cells.items():
            if (not cell["verified"] or cell["degraded"]
                    or cell["metrics"] is None):
                outcome.failures.append(
                    f"{cell_id}: verified={cell['verified']} "
                    f"degraded={cell['degraded']}")
                bad.add(cell_id)
            if cell["config"]["degree"] > 1:
                outcome.op_ms.append(
                    cell["timing"]["partition_seconds"] * 1e3)
            outcome.signature[cell_id] = json.dumps(
                {key: cell.get(key) for key in ("verified", "degraded",
                                                "achieved_degree",
                                                "metrics")},
                sort_keys=True)
        if self.seed == REFERENCE_SEED:
            mismatched = frontier_failures(cells, self.references)
            outcome.failures.extend(mismatched.values())
            bad.update(mismatched)
        passed = len(cells) - len(bad & set(cells))
        outcome.failed = outcome.attempted - passed
        outcome.ops = passed
        busy = sum(report["timing"][key] for report in reports
                   for key in ("build_seconds", "partition_seconds"))
        self._report(tracer, {
            "pipeline.supervisor.degraded_cells":
                sum(1 for cell in cells.values() if cell["degraded"]),
            "eval.sweep.busy_ratio": busy / (self.jobs * outcome.wall),
        })
        return outcome


class ServeVerified(Workload):
    """``repro serve`` of ipv4 on 2 shards with the sequential oracle on."""

    name = "serve-verified"
    shards, degree, batch = 2, 4, 32

    def setup(self) -> None:
        super().setup()
        from repro.apps.suite import build_app
        from repro.cache import CompileCache
        from repro.pipeline.transform import pipeline_pps

        app = build_app("ipv4", packets=SERVE_PACKETS, seed=self.seed)
        self.cache = CompileCache(
            tempfile.mkdtemp(prefix="serve-cache-", dir=self.workdir))
        pipeline_pps(app.module, app.pps_name, self.degree, cache=self.cache)

    def run(self, tracer=None) -> Outcome:
        from repro.serve.supervise import ServeRuntime

        runtime = ServeRuntime("ipv4", shards=self.shards,
                               degree=self.degree, batch=self.batch,
                               packets=SERVE_PACKETS, seed=self.seed,
                               cache=self.cache, verify=True)
        commits: dict[int, list[float]] = {}

        def on_commit(shard: int, seq: int) -> None:
            now = perf_counter()
            commits.setdefault(shard, []).append(now)
            if tracer is not None:
                tracer.instant("commit", "serve",
                               {"shard": shard, "seq": seq}, at=now)

        runtime.on_commit = on_commit
        outcome = Outcome(wall=0.0, ops=0, attempted=SERVE_PACKETS)
        # Paced for one busy process: the sequential oracle, which runs
        # alone after the pool, is more than half of the run.
        with timed(outcome, "serve"):
            report = runtime.run()

        committed = sum(entry["iterations"] for entry in report.shard_stats)
        outcome.ops = committed
        if report.verified is not True:
            outcome.failures.append("oracle verification did not pass")
        outcome.failures.extend(report.mismatches)
        if report.counters.get("pending", 0) != 0:
            outcome.failures.append(
                f"{report.counters['pending']} batches left pending")
        if report.exit_code() != 0:
            outcome.failures.append(f"exit code {report.exit_code()}")
        if committed != SERVE_PACKETS:
            outcome.failures.append(f"{committed} of {SERVE_PACKETS} "
                                    f"packets committed")
        if outcome.failures:
            # Nothing of a run that failed its oracle counts as served.
            outcome.failed, outcome.ops = SERVE_PACKETS, 0
        for stamps in commits.values():
            outcome.op_ms.extend((b - a) * 1e3
                                 for a, b in zip(stamps, stamps[1:]))
        for entry in report.shard_stats:
            outcome.signature[f"shard{entry['shard']}"] = tuple(
                entry[key] for key in ("batches", "committed",
                                       "instructions", "weight",
                                       "iterations"))
        self._report(tracer, {
            "serve.restarts": report.counters.get("restarts", 0),
            "serve.redeliveries": report.counters.get("redeliveries", 0),
        })
        return outcome


WORKLOADS = {cls.name: cls for cls in (SuiteCold, ExploreGrid, ServeVerified)}
