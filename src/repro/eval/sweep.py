"""Parallel sweep runner: fan (app, degree) measurements over processes.

Fig-19-style sweeps re-partition the same four NPF apps over and over;
each (app, D) cell is independent, deterministic given its seed, and
dominated by the balanced-cut search — an embarrassingly parallel
workload.  :func:`run_sweep` executes :class:`SweepTask` cells on a
``concurrent.futures.ProcessPoolExecutor`` (``-j N`` on the CLI) with:

* **deterministic merge** — results are returned in *task order* (the
  builders emit tasks ordered by (app, D)) no matter which worker
  finishes first, so ``-j 4`` output is byte-identical to ``-j 1``
  modulo the explicitly nondeterministic ``timing`` / ``cache`` fields
  (strip them with :func:`deterministic_view`);
* **per-task seed threading** — :func:`derive_seed` gives every cell a
  stable seed derived from the base seed and the cell identity, so
  chaos sweeps stay reproducible under any parallelism;
* **structured failure** — a worker exception or a hard worker crash
  (OOM-killed, segfault) surfaces as :class:`SweepError` (a
  :class:`~repro.errors.ReproError`, CLI exit 1), never a hang;
* **shared artifact cache** — workers open the same on-disk
  :class:`~repro.cache.CompileCache` (atomic writes make racing safe),
  so repeated cells cost one partition across the whole sweep.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.errors import ReproError


class SweepError(ReproError):
    """A sweep task failed or its worker process died.

    The message always carries the failing task's derived seed and its
    full argument tuple plus a copy-paste reproduction command, so any
    sweep failure reproduces inline with a one-liner.  ``task`` holds
    the :class:`SweepTask` itself when one is attributable.
    """

    def __init__(self, message: str, *, task: "SweepTask | None" = None):
        super().__init__(message)
        self.task = task


@dataclass(frozen=True)
class SweepTask:
    """One self-contained sweep cell, picklable for worker dispatch."""

    kind: str                       # "bench" | "chaos" | "partition" |
    #                                 "explore" | "fuzz"
    app: str
    degrees: tuple                  # pipeline degrees to measure
    packets: int
    seed: int
    plans: tuple | None = None      # chaos: builtin plan names (None = all)
    cache_dir: str | None = None    # shared CompileCache root
    warm_start: bool = True         # bench/partition: cross-degree seeding
    ring: str | None = None         # explore: cost-table name
    epsilon: float | None = None    # explore: balance slack knob
    incremental: bool | None = None  # explore: incremental-restart knob
    max_block_instructions: int | None = None  # explore: block-split knob
    keep_going: bool = False        # explore: record failed degree cells
    #                                 instead of failing the whole row

    def describe(self) -> str:
        knobs = ""
        if self.kind == "explore":
            knobs = (f" ring={self.ring} eps={self.epsilon:g} "
                     f"inc={'on' if self.incremental else 'off'} "
                     f"mbi={self.max_block_instructions}")
        degrees = ",".join(map(str, self.degrees))
        return f"{self.kind} {self.app} D={degrees}{knobs}"

    def repro_command(self) -> str:
        """A copy-paste one-liner that re-runs this exact cell inline."""
        degrees = ",".join(map(str, self.degrees))
        if self.kind == "chaos":
            plans = (" --plans " + " ".join(self.plans)
                     if self.plans else "")
            return (f"repro chaos --app {self.app} --degrees {degrees} "
                    f"--packets {self.packets} --seed {self.seed}{plans}")
        if self.kind == "partition":
            warm = "" if self.warm_start else " --no-warm-start"
            return (f"repro bench --packets {self.packets} -j 1{warm}  "
                    f"# plan cell: app={self.app} degrees={degrees}")
        if self.kind == "fuzz":
            return (f"repro fuzz --seeds 1 --start-seed {self.seed} "
                    f"--degrees {degrees} --packets {self.packets}")
        if self.kind == "explore":
            warm = "" if self.warm_start else " --no-warm-start"
            inc = "on" if self.incremental else "off"
            return (f"repro explore --apps {self.app} --degrees {degrees} "
                    f"--rings {self.ring} --epsilons {self.epsilon:g} "
                    f"--incremental {inc} "
                    f"--max-block-instructions {self.max_block_instructions} "
                    f"--packets {self.packets} --seed {self.seed} -j 1{warm}")
        return (f"repro bench --packets {self.packets} -j 1  "
                f"# cell: app={self.app} degrees={degrees} "
                f"seed={self.seed}")

    def detail(self) -> str:
        """The failure context every SweepError message must carry:
        the derived seed and the full argument tuple."""
        return (f"seed={self.seed} args={self!r}; "
                f"reproduce: {self.repro_command()}")


def derive_seed(base: int, *parts) -> int:
    """A stable per-task seed from the base seed and the task identity.

    Pure function of its arguments (no global RNG state), so a sweep is
    reproducible regardless of worker scheduling or ``-j`` level.
    """
    text = ":".join([str(base), *(str(part) for part in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


# -- task builders ----------------------------------------------------------


def bench_tasks(apps: list[str], degrees: list[int], *, packets: int,
                seed: int, cache_dir: str | None = None,
                warm_start: bool = True) -> list[SweepTask]:
    """Bench cells ordered by app (each cell covers all its degrees)."""
    return [SweepTask(kind="bench", app=app, degrees=tuple(degrees),
                      packets=packets, seed=seed, cache_dir=cache_dir,
                      warm_start=warm_start)
            for app in apps]


def partition_tasks(apps: list[str], degrees, *, packets: int, seed: int,
                    cache_dir: str | None = None,
                    warm_start: bool = True) -> list[SweepTask]:
    """Partition-plan cells: one per app, covering its whole degree row.

    A cell keeps all of an app's degrees together so the worker shares
    one :class:`~repro.analysis.context.AnalysisContext` and one warm
    -start cache across the row — the cross-degree seeding the planner
    exists to exploit; parallelism comes from fanning the *apps*.
    """
    return [SweepTask(kind="partition", app=app, degrees=tuple(degrees),
                      packets=packets, seed=seed, cache_dir=cache_dir,
                      warm_start=warm_start)
            for app in apps]


def explore_tasks(space, *, cache_dir: str | None = None,
                  warm_start: bool = True,
                  keep_going: bool = False) -> list[SweepTask]:
    """Explore cells: one task per (app, knob combo), covering the whole
    degree row.

    Like :func:`partition_tasks`, a task keeps all of a combo's degrees
    together so the worker shares one analysis context and one baseline
    measurement across the row; parallelism fans the (app, combo) pairs.
    ``space`` is a :class:`repro.eval.explore.SearchSpace`.
    """
    tasks = []
    for app in space.apps:
        for ring, epsilon, incremental, mbi in space.combos():
            tasks.append(SweepTask(
                kind="explore", app=app, degrees=tuple(space.degrees),
                packets=space.packets, seed=space.seed,
                cache_dir=cache_dir, warm_start=warm_start,
                ring=ring, epsilon=epsilon, incremental=incremental,
                max_block_instructions=mbi, keep_going=keep_going))
    return tasks


def chaos_tasks(apps: list[str], degrees: tuple, *, packets: int, seed: int,
                plans: tuple | None = None,
                cache_dir: str | None = None) -> list[SweepTask]:
    """Chaos cells ordered by app, each with its own derived seed."""
    return [SweepTask(kind="chaos", app=app, degrees=tuple(degrees),
                      packets=packets, seed=derive_seed(seed, "chaos", app),
                      plans=plans, cache_dir=cache_dir)
            for app in sorted(apps)]


# -- workers ----------------------------------------------------------------


def _open_cache(task: SweepTask):
    if task.cache_dir is None:
        return None
    from repro.cache import CompileCache

    return CompileCache(task.cache_dir)


def _execute(task: SweepTask) -> dict:
    """Run one cell; module-level so the pool can pickle it by name."""
    if task.kind == "bench":
        return _execute_bench(task)
    if task.kind == "chaos":
        return _execute_chaos(task)
    if task.kind == "partition":
        return _execute_partition(task)
    if task.kind == "explore":
        return _execute_explore(task)
    raise SweepError(f"unknown sweep task kind {task.kind!r}")


def _execute_explore(task: SweepTask) -> dict:
    """Evaluate one (app, knob combo) row of a design-space exploration.

    Every degree of the row goes through the *supervised* pipeline —
    partition, independent verification, graceful degradation — and is
    then simulated with the observational-equivalence check on.  The
    returned record carries one cell dict per degree; the nondeterministic
    numbers (partition wall seconds) live under each cell's ``timing``
    key so the frontier artifact can strip them.
    """
    from time import perf_counter

    from repro.analysis.context import AnalysisContext
    from repro.apps.suite import build_app
    from repro.eval.metrics import (
        make_profiler,
        measure_pipeline,
        measure_sequential,
    )
    from repro.machine.costs import cost_table
    from repro.pipeline.supervisor import supervise_partition

    cache = _open_cache(task)
    before = dict(cache.counters()) if cache is not None else {}
    costs = cost_table(task.ring)
    start = perf_counter()
    app = build_app(task.app, packets=task.packets, seed=task.seed)
    build_seconds = perf_counter() - start

    baseline = measure_sequential(app)
    profiler = make_profiler(app)
    context = AnalysisContext(app.module, app.pps_name,
                              task.max_block_instructions)

    def cell_id(degree: int) -> str:
        inc = "inc" if task.incremental else "noinc"
        return (f"{task.app}/{costs.name}/d{degree}/e{task.epsilon:g}/"
                f"{inc}/b{task.max_block_instructions}")

    def config(degree: int) -> dict:
        return {
            "degree": degree,
            "ring": costs.name,
            "epsilon": task.epsilon,
            "incremental": task.incremental,
            "max_block_instructions": task.max_block_instructions,
        }

    cells = []
    cell_failures = []
    partition_total = 0.0
    for degree in sorted(set(task.degrees)):
        if degree <= 1:
            # The sequential "pipeline": always valid, nothing transmitted.
            cells.append({
                "id": cell_id(1),
                "app": task.app,
                "config": config(1),
                "verified": True,
                "degraded": False,
                "achieved_degree": 1,
                "metrics": {
                    "speedup": 1.0,
                    "transmitted_words": 0,
                    "stages": 1,
                    "longest_stage": round(baseline.per_packet, 4),
                },
                "timing": {"partition_seconds": 0.0},
            })
            continue
        start = perf_counter()
        try:
            outcome = supervise_partition(
                app.module, app.pps_name, degree,
                costs=costs, epsilon=task.epsilon,
                incremental=task.incremental,
                max_block_instructions=task.max_block_instructions,
                profiler=profiler, cache=cache, context=context,
                warm_start=task.warm_start)
            partition_seconds = perf_counter() - start
            partition_total += partition_seconds
            cell = {
                "id": cell_id(degree),
                "app": task.app,
                "config": config(degree),
                "verified": outcome.ok,
                "degraded": outcome.degraded,
                "achieved_degree": outcome.achieved_degree,
            }
            if not outcome.ok:
                cell["error"] = outcome.summary()
                cell["metrics"] = None
            else:
                achieved = outcome.achieved_degree
                measured = measure_pipeline(app, achieved,
                                            baseline=baseline,
                                            costs=costs,
                                            transform=outcome.result)
                cell["metrics"] = {
                    "speedup": round(measured.speedup, 4),
                    "transmitted_words": sum(measured.message_words),
                    "stages": achieved,
                    "longest_stage": round(measured.longest_stage, 4),
                }
            if len(outcome.attempts) > 1:
                cell["attempts"] = len(outcome.attempts)
            cell["timing"] = {
                "partition_seconds": round(partition_seconds, 4)}
            cells.append(cell)
        except Exception as exc:
            # A single grid cell crashing (partitioner bug, measurement
            # fault) must not take out the row's other degrees when the
            # sweep runs keep-going; record it with a degree-exact repro
            # one-liner instead.
            if not task.keep_going:
                raise
            cell_task = replace(task, degrees=(degree,))
            if isinstance(exc, SweepError):
                error = exc
            else:
                error = SweepError(
                    f"explore cell {cell_id(degree)} failed: {exc}; "
                    f"{cell_task.detail()}", task=cell_task)
            record = _failure_record(cell_task, error)
            record["cell"] = cell_id(degree)
            cell_failures.append(record)

    counters = dict(cache.counters()) if cache is not None else None
    if counters:
        counters = {key: counters.get(key, 0) - before.get(key, 0)
                    for key in counters}
    return {
        "kind": "explore",
        "app": task.app,
        "seed": task.seed,
        "ring": costs.name,
        "epsilon": task.epsilon,
        "incremental": task.incremental,
        "max_block_instructions": task.max_block_instructions,
        "degrees": sorted(set(task.degrees)),
        "warm_start": task.warm_start,
        "cells": cells,
        "cell_failures": cell_failures,
        "timing": {
            "build_seconds": round(build_seconds, 4),
            "partition_seconds": round(partition_total, 4),
        },
        "cache": counters,
    }


def _execute_partition(task: SweepTask) -> dict:
    """Partition one app's whole degree row (the planner worker).

    The results land in the shared compile cache, so a following bench /
    fuzz / run phase gets pure cache hits; the returned record carries
    the per-degree breakdown for profiling output.
    """
    from time import perf_counter

    from repro.apps.suite import build_app
    from repro.eval.metrics import partition_app

    cache = _open_cache(task)
    before = dict(cache.counters()) if cache is not None else {}
    start = perf_counter()
    app = build_app(task.app, packets=task.packets, seed=task.seed)
    build_seconds = perf_counter() - start

    start = perf_counter()
    _, breakdown = partition_app(app, task.degrees, cache=cache,
                                 warm_start=task.warm_start)
    partition_seconds = perf_counter() - start
    counters = dict(cache.counters()) if cache is not None else None
    if counters:
        counters = {key: counters.get(key, 0) - before.get(key, 0)
                    for key in counters}
    return {
        "kind": "partition",
        "app": task.app,
        "seed": task.seed,
        "degrees": sorted(task.degrees),
        "warm_start": task.warm_start,
        "partition_breakdown": breakdown,
        "timing": {
            "build_seconds": build_seconds,
            "partition_seconds": partition_seconds,
        },
        "cache": counters,
    }


def _execute_bench(task: SweepTask) -> dict:
    """Build, partition, compile and simulate one app's degree row.

    Each phase is a :class:`~repro.obs.PhaseTimer` span, so an inline
    (``jobs=1``) bench under a tracer shows the same phases the record's
    ``timing`` reports.  Compilation is measured cold; it is otherwise
    amortized into the first simulation of each function.
    """
    from repro.apps.suite import build_app
    from repro.eval.metrics import (
        measure_pipeline,
        measure_sequential,
        partition_app,
    )
    from repro.obs import PhaseTimer
    from repro.runtime.compile import clear_cache, compile_function

    cache = _open_cache(task)
    phases = PhaseTimer()
    with phases.phase("build", app=task.app):
        app = build_app(task.app, packets=task.packets, seed=task.seed)

    with phases.phase("partition", app=task.app):
        transforms, breakdown = partition_app(app, task.degrees, cache=cache,
                                              warm_start=task.warm_start)

    clear_cache()
    with phases.phase("compile", app=task.app):
        compile_function(app.module.pps(app.pps_name))
        for transform in transforms.values():
            for stage in transform.stages:
                compile_function(stage.function)

    instructions = 0
    series: dict[int, float] = {1: 1.0}
    with phases.phase("simulate", app=task.app):
        baseline = measure_sequential(app)
        instructions += baseline.total_instructions
        for degree, transform in transforms.items():
            measured = measure_pipeline(app, degree, baseline=baseline,
                                        transform=transform)
            instructions += measured.total_instructions
            series[degree] = round(measured.speedup, 4)

    return {
        "kind": "bench",
        "app": task.app,
        "seed": task.seed,
        "degrees": sorted(task.degrees),
        "speedup_by_degree": series,
        "partition_breakdown": breakdown,
        "simulated_instructions": instructions,
        "timing": {f"{name}_seconds": seconds
                   for name, seconds in phases.seconds.items()},
        "cache": cache.counters() if cache is not None else None,
    }


def _execute_chaos(task: SweepTask) -> dict:
    from time import perf_counter

    from repro.eval.chaos import chaos_differential
    from repro.runtime.faults import builtin_plans

    cache = _open_cache(task)
    plans = None
    if task.plans is not None:
        available = builtin_plans()
        unknown = [name for name in task.plans if name not in available]
        if unknown:
            raise SweepError(f"unknown builtin fault plans: "
                             f"{', '.join(unknown)}")
        plans = {name: available[name] for name in task.plans}
    letters: list = []
    start = perf_counter()
    report = chaos_differential(task.app, plans=plans,
                                degrees=tuple(task.degrees),
                                packets=task.packets, seed=task.seed,
                                collect_letters=letters, cache=cache)
    wall = perf_counter() - start
    return {
        "kind": "chaos",
        "app": task.app,
        "seed": task.seed,
        "ok": report.ok,
        "report": report.as_dict(),
        "dead_letters": letters,
        "rendered": report.render(),
        "timing": {"wall_seconds": wall},
        "cache": cache.counters() if cache is not None else None,
    }


# -- the partition planner --------------------------------------------------


def plan_partitions(apps: list[str], degrees, *, packets: int, seed: int,
                    jobs: int = 1, cache=None, warm_start: bool = True,
                    keep_going: bool = False) -> list[dict]:
    """Partition the whole (app x degree) matrix up front, in parallel.

    Fans one :func:`partition_tasks` cell per app over the sweep runner
    (``jobs`` worker processes) with all results stored through the
    shared on-disk compile ``cache`` — after planning, a cold ``repro
    bench`` / ``repro fuzz`` / ``repro run`` gets pure cache hits for
    every partition it needs.  Within each cell the worker shares one
    analysis context and warm-start cache across the degree row, so the
    parallel plan produces partitions bit-identical to a serial sweep
    (and to cold, unseeded solves).

    Returns the task-order list of worker records (app, per-degree
    breakdown, timings, cache counter deltas).  ``cache`` may be ``None``
    (the plan then only returns the breakdown — nothing persists), but
    that defeats the point when ``jobs > 1``.
    """
    cache_dir = None
    if cache is not None:
        cache_dir = str(getattr(cache, "root", cache))
    tasks = partition_tasks(sorted(set(apps)), degrees, packets=packets,
                            seed=seed, cache_dir=cache_dir,
                            warm_start=warm_start)
    results = run_sweep(tasks, jobs=jobs, keep_going=keep_going)
    if cache is not None:
        for entry in results:
            if entry.get("cache"):
                cache.merge_counters(entry["cache"])
    return results


# -- the runner -------------------------------------------------------------


def run_sweep(tasks, *, jobs: int = 1, worker=None,
              keep_going: bool = False) -> list[dict]:
    """Execute every task; results come back in *task order*.

    ``jobs <= 1`` runs inline through the exact same worker function, so
    the parallel path cannot diverge from the sequential one.  ``worker``
    replaces the per-kind dispatch: a picklable module-level callable or
    a ``functools.partial`` of one (``run_fuzz`` passes its shrink knobs
    that way; tests use it as a seam).

    ``keep_going=False`` (the default) fails fast: the first failing
    task raises :class:`SweepError` and sibling results are discarded.
    ``keep_going=True`` records each failure as a placeholder dict
    (``{"failed": True, "ok": False, "error", "task", "seed",
    "repro"}``) in its task-order slot and keeps running, so one bad
    cell no longer costs the rest of the sweep.
    """
    tasks = list(tasks)
    worker = worker or _execute
    if jobs <= 1:
        return [_guarded(worker, task, keep_going=keep_going)
                for task in tasks]

    results: list = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(worker, task): index
                   for index, task in enumerate(tasks)}
        for future in as_completed(futures):
            index = futures[future]
            task = tasks[index]
            try:
                results[index] = future.result()
            except BrokenProcessPool as exc:
                error = SweepError(
                    f"sweep worker process died while running "
                    f"{task.describe()} (killed or crashed); "
                    f"{task.detail()}", task=task)
                if keep_going:
                    results[index] = _failure_record(task, error)
                    continue
                # Cancel what has not started; the pool is dead anyway.
                for pending in futures:
                    pending.cancel()
                raise error from exc
            except Exception as exc:
                error = (exc if isinstance(exc, SweepError)
                         else SweepError(
                             f"sweep task {task.describe()} failed: "
                             f"{exc}; {task.detail()}", task=task))
                if keep_going:
                    results[index] = _failure_record(task, error)
                    continue
                raise error from exc
    return results


def _failure_record(task: SweepTask, error: Exception) -> dict:
    """The task-order placeholder a ``keep_going`` sweep returns for a
    failed cell."""
    return {
        "kind": task.kind,
        "app": task.app,
        "seed": task.seed,
        "ok": False,
        "failed": True,
        "error": str(error),
        "task": task.describe(),
        "repro": task.repro_command(),
    }


def _guarded(worker, task: SweepTask, *, keep_going: bool = False) -> dict:
    try:
        return worker(task)
    except ReproError as exc:
        if keep_going:
            return _failure_record(task, exc)
        raise
    except Exception as exc:
        error = SweepError(f"sweep task {task.describe()} failed: {exc}; "
                           f"{task.detail()}", task=task)
        if keep_going:
            return _failure_record(task, error)
        raise error from exc


def deterministic_view(results: list[dict]) -> list[dict]:
    """Results with the nondeterministic fields (wall-clock timing,
    cache hit patterns, the per-degree partition breakdown — it embeds
    wall seconds) stripped — the byte-identical part of a sweep."""
    return [{key: value for key, value in result.items()
             if key not in ("timing", "cache", "partition_breakdown")}
            for result in results]
