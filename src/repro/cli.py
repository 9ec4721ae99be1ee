"""Command-line interface: compile, partition, run, and report.

Usage (also via ``python -m repro``)::

    repro check file.ppc                     # compile + semantic check
    repro ir file.ppc [--pps NAME]           # dump the lowered, inlined IR
    repro pipeline file.ppc --pps NAME -d 4  # partition; print stage map
    repro run file.ppc --pps NAME -d 4 \\
        --feed in_q=1,2,3 --iterations 3     # execute on the simulator
    repro run ... --profile                  # + runtime counter report
    repro run ... --faults plan.json \\
        --watchdog-quantum 200000 \\
        --isolate-traps                      # chaos-hardened execution
    repro trace file.ppc --pps NAME -d 4 \\
        -o trace.json                        # `run` under a tracer
    repro chaos [--app ipv4] [--plans ...]   # chaos differential check
    repro chaos --sweep -j 4                 # parallel multi-app chaos sweep
    repro serve --shards 4 \\
        --faults worker-kill                 # supervised sharded serving
    repro figures [--packets 60]             # regenerate the paper figures
    repro bench [--quick] [-j N] [-o FILE]   # performance regression harness
    repro bench --profile                    # + partition-phase table
    repro plan -j 4                          # pre-partition matrix into cache
    repro fuzz [--seeds 50] [--out DIR]      # progen fuzz of the partitioner
    repro fuzz -j 4                          # parallel fuzz campaign
    repro fuzz --self-test                   # verifier mutation self-test

PPS-C files conventionally use the ``.ppc`` extension.

``repro pipeline`` / ``repro run`` partition through the supervisor
(:mod:`repro.pipeline.supervisor`): the result is independently verified
(:mod:`repro.pipeline.verify`), and on partitioner faults or verifier
rejection the requested degree degrades down a D → ⌈D/2⌉ → … → 1 ladder
rather than failing outright.  ``repro trace`` is ``repro run`` under a
tracer (``run``'s flags, defaults ``-d 2`` and ``-o trace.json``,
always profiling): the trace records the verified partition and the
sequential reference run the equivalence check compares against.
``--keep-going`` on ``chaos --sweep``, ``bench``, ``plan`` and
``explore`` likewise trades fail-fast for per-cell failure records.

Partition results are memoized in a content-addressed artifact cache
(``--cache-dir DIR``, default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
``--no-cache`` opts out) — see ``docs/caching.md``.

Exit codes (see :mod:`repro.errors`): 0 success, 1 compile/pipeline/IO
failure (including sweep worker crashes), 2 usage error (unknown PPS,
malformed ``--feed`` or fault plan), 3 runtime failure (interpreter
trap, deadlock/livelock, serving pool collapse), 4 degraded success
(the supervisor delivered a verified partition, but at a lower degree
than requested), 5 degraded serving (``repro serve`` delivered every
committed batch, but only by re-sharding a failed worker's flows onto
survivors or by leaving a drained tail undelivered).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import (
    EXIT_DEGRADED,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    DeadlockError,
    FaultPlanError,
    ReproError,
    TrapError,
)
from repro.eval.sweep import SweepError
from repro.ir.function import Module
from repro.ir.inline import inline_module
from repro.ir.lowering import lower_program
from repro.ir.optimize import optimize_module
from repro.ir.printer import format_function, format_module
from repro.lang import FrontendError, compile_source
from repro.machine.costs import cost_table, cost_table_names
from repro.pipeline.liveset import Strategy
from repro.pipeline.transform import PipelineError
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState
from repro.serve import ServeError


class CLIError(ReproError):
    """A usage error (bad flag value, unknown PPS): exit code 2."""


def _load_module(path: str, *, optimize: bool = True) -> Module:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    module = lower_program(compile_source(source, path), path)
    inline_module(module)
    if optimize:
        optimize_module(module)
    return module


def _resolve_pps(module: Module, name: str | None) -> str:
    if name is not None:
        if name not in module.ppses:
            raise CLIError(f"no pps named {name!r} "
                           f"(available: {', '.join(module.ppses)})")
        return name
    if len(module.ppses) == 1:
        return next(iter(module.ppses))
    raise CLIError(f"choose one of the PPSes with --pps: "
                   f"{', '.join(module.ppses)}")


def _parse_feed(specs: list[str]) -> dict[str, list[int]]:
    feeds: dict[str, list[int]] = {}
    for spec in specs:
        if "=" not in spec:
            raise CLIError(f"--feed expects pipe=v1,v2,... (got {spec!r})")
        pipe, _, values = spec.partition("=")
        try:
            feeds[pipe] = [int(v, 0) for v in values.split(",") if v]
        except ValueError as exc:
            raise CLIError(f"bad feed value in {spec!r}: {exc}") from exc
    return feeds


def _load_fault_plan(spec: str):
    """Resolve ``--faults``: a builtin plan name or a JSON file path."""
    from repro.runtime.faults import FaultPlan, builtin_plans

    plans = builtin_plans()
    if spec in plans:
        return plans[spec]
    return FaultPlan.load(spec)


def _parse_list(flag: str, value, convert=str) -> tuple:
    """A comma-separated flag value as a tuple of ``convert``-ed items.

    ``value`` may also be an ``nargs`` list (``--apps rx tx``) whose
    entries are comma-separated in turn (``--apps rx,tx``).  A bad or
    missing item is a usage error.
    """
    entries = [value] if isinstance(value, str) else value
    try:
        items = tuple(convert(part) for entry in entries
                      for part in entry.split(",") if part)
    except ValueError as exc:
        raise CLIError(f"bad {flag} {value!r}: {exc}") from exc
    if not items:
        raise CLIError(f"bad {flag} {value!r}: empty list")
    return items


def _write_json(path: str, obj, *, sort_keys: bool = False) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")


def _add_source_flags(parser, *, pps: bool = True,
                      degree: int | None = None) -> None:
    """The PPS-C ``file``, with ``--pps`` and ``-d`` where the command
    picks a PPS and partitions it."""
    parser.add_argument("file")
    if pps:
        parser.add_argument("--pps")
    if degree is not None:
        parser.add_argument("-d", "--degree", type=int, default=degree)


def _add_workload_flags(parser, *, packets: int = 60, seed: bool = True,
                        app: bool = False,
                        packets_help: str | None = None) -> None:
    """The generated-traffic knobs: ``--app`` for single-app commands,
    ``--packets`` (each command keeps its own default) and ``--seed``."""
    if app:
        parser.add_argument("--app", default="ipv4",
                            help="benchmark app (default: ipv4)")
    parser.add_argument("--packets", type=int, default=packets,
                        help=packets_help)
    if seed:
        parser.add_argument("--seed", type=int, default=7)


def _add_sweep_flags(parser, jobs_help: str, *,
                     keep_going: bool = True) -> None:
    """``-j`` of the commands that fan cells over a worker pool, and
    ``--keep-going`` of those that can record a failed cell and go on."""
    parser.add_argument("-j", "--jobs", type=int, default=1, help=jobs_help)
    if keep_going:
        parser.add_argument("--keep-going", action="store_true",
                            help="record failed cells and keep running "
                                 "instead of failing fast")


def _add_warm_start_flag(parser) -> None:
    parser.add_argument("--no-warm-start", action="store_true",
                        help="solve every cut cold instead of seeding it "
                             "from related earlier solves (the cuts are "
                             "identical either way)")


def _add_cache_flags(parser) -> None:
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="compilation-artifact cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the compilation-artifact cache")


def _open_cache(args):
    """The ``--cache-dir`` / ``--no-cache`` policy for one subcommand."""
    from repro.cache import resolve_cache

    return resolve_cache(args.cache_dir, args.no_cache)


def _add_partition_flags(parser) -> None:
    """The knobs of commands that partition *and* verify."""
    _add_warm_start_flag(parser)
    parser.add_argument("--paranoid-verify", action="store_true",
                        help="make the verifier rebuild SSA/dependence/"
                             "liveness from scratch instead of sharing "
                             "the partitioner's analysis context")


def _add_run_flags(parser, *, degree: int) -> None:
    """The flags ``run`` and ``trace`` share (``trace`` is a traced
    ``run``); only the ``-d`` default differs."""
    _add_source_flags(parser, degree=degree)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--feed", action="append",
                        help="pipe=v1,v2,... (repeatable)")
    parser.add_argument("--faults", metavar="PLAN",
                        help="fault-injection plan: builtin name or JSON "
                             "file")
    parser.add_argument("--watchdog-quantum", type=int, default=None,
                        metavar="N",
                        help="livelock check every N scheduler steps "
                             "(enables the deadlock watchdog)")
    parser.add_argument("--isolate-traps", action="store_true",
                        help="quarantine trapped packets instead of aborting")
    parser.add_argument("--dead-letters", metavar="FILE",
                        help="write quarantined-packet records as JSON")
    _add_partition_flags(parser)
    _add_cache_flags(parser)


# -- subcommands ------------------------------------------------------------


def cmd_check(args) -> int:
    module = _load_module(args.file)
    blocks = sum(len(p.blocks) for p in module.ppses.values())
    print(f"{args.file}: OK — {len(module.ppses)} pps, "
          f"{len(module.pipes)} pipes, {len(module.regions)} memories, "
          f"{blocks} basic blocks after inlining")
    return 0


def cmd_ir(args) -> int:
    module = _load_module(args.file, optimize=not args.no_optimize)
    if args.pps:
        print(format_function(module.pps(_resolve_pps(module, args.pps))))
    else:
        print(format_module(module))
    return 0


def cmd_pipeline(args) -> int:
    from repro.pipeline.supervisor import supervise_partition

    module = _load_module(args.file)
    pps_name = _resolve_pps(module, args.pps)
    outcome = supervise_partition(
        module, pps_name, args.degree,
        costs=cost_table(args.ring),
        epsilon=args.epsilon,
        strategy=Strategy(args.strategy),
        cache=_open_cache(args),
        warm_start=not args.no_warm_start,
        paranoid_verify=args.paranoid_verify,
    )
    if outcome.result is None:
        raise PipelineError(outcome.summary())
    result = outcome.result
    print(f"{pps_name}: {outcome.achieved_degree} stages over {args.ring} "
          f"rings (epsilon={args.epsilon}, {args.strategy} transmission)")
    weights = result.assignment.stage_weights(result.model)
    for stage in result.stages:
        layout = (result.layouts[stage.index - 1]
                  if stage.index <= len(result.layouts) else None)
        message = (f"-> {layout.words(result.strategy)} words"
                   if layout else "(last stage)")
        print(f"  stage {stage.index}: weight={weights[stage.index]:5d} "
              f"blocks={len(stage.local_blocks):3d} {message}")
    for diag in result.assignment.diagnostics:
        print(f"  cut {diag.stage}: target={diag.target:.1f} "
              f"got={diag.weight} cost={diag.cut_value} "
              f"balanced={diag.balanced}")
    if outcome.verdict is not None:
        print(f"  verify: {outcome.verdict.summary()}")
    if args.emit:
        for stage in result.stages:
            print()
            print(format_function(stage.function))
    if outcome.degraded:
        print(f"warning: {outcome.summary()}", file=sys.stderr)
        return EXIT_DEGRADED
    return EXIT_OK


def cmd_run(args, tracer=None) -> int:
    """``repro run``; :func:`cmd_trace` calls it with its installed
    ``tracer``, which also gets the run's counter events."""
    module = _load_module(args.file)
    # Resolved in place, so cmd_trace can name the PPS it traced.
    pps_name = args.pps = _resolve_pps(module, args.pps)
    feeds = _parse_feed(args.feed or [])

    plan = _load_fault_plan(args.faults) if args.faults else None
    if plan is not None:
        from repro.runtime.faults import FaultInjector

        # Perturb the host-fed streams ONCE; every run below shares them.
        stream_injector = FaultInjector(plan)
        feeds = {pipe: stream_injector.perturb(pipe, values)
                 for pipe, values in feeds.items()}

    def fresh() -> MachineState:
        state = MachineState(module)
        if plan is not None:
            injector = FaultInjector(plan)
            injector.arm(state)
            injector.absorb_stream(stream_injector)
        for pipe, values in feeds.items():
            state.feed_pipe(pipe, values)
        return state

    def watchdog():
        from repro.runtime.watchdog import Watchdog

        if args.watchdog_quantum is None and plan is None:
            return None
        return Watchdog(args.watchdog_quantum)

    iterations = args.iterations
    sequential = fresh()
    seq_watchdog = watchdog()
    stats = run_sequential(module.pps(pps_name), sequential,
                           iterations=iterations, watchdog=seq_watchdog,
                           isolate_traps=args.isolate_traps)
    print(f"sequential: {stats.iterations - 1} iterations, "
          f"{stats.weight} weighted instructions")

    run_watchdog = seq_watchdog
    cache = _open_cache(args) if args.degree > 1 else None
    outcome = None
    if args.degree > 1:
        from repro.pipeline.supervisor import supervise_partition

        outcome = supervise_partition(module, pps_name, args.degree,
                                      cache=cache,
                                      warm_start=not args.no_warm_start,
                                      paranoid_verify=args.paranoid_verify)
        if outcome.result is None:
            raise PipelineError(outcome.summary())
        degree = outcome.achieved_degree
        pipelined = fresh()
        run_watchdog = watchdog()
        run = run_pipeline(outcome.result.stages, pipelined,
                           iterations=iterations,
                           watchdog=run_watchdog,
                           isolate_traps=args.isolate_traps)
        longest = max(s.weight for s in run.stats.values())
        if plan is None or plan.semantics_preserving():
            assert_equivalent(observe(sequential), observe(pipelined))
            print(f"pipelined x{degree}: longest stage {longest} "
                  f"weighted instructions; observationally equivalent ✔")
        else:
            print(f"pipelined x{degree}: longest stage {longest} "
                  f"weighted instructions; equivalence skipped "
                  f"(fault plan is not semantics-preserving)")
        state = pipelined
        run_stats = run.stats
    else:
        state = sequential
        run_stats = {pps_name: stats}

    for name, pipe in sorted(state.pipes.items()):
        if pipe.queue and ".xfer" not in name:
            print(f"pipe {name}: {list(pipe.queue)}")
    for tag, events in sorted(state.traces.items()):
        print(f"trace[{tag}]: {events}")
    if state.dead_letters:
        print(f"dead letters: {len(state.dead_letters)} quarantined "
              f"iterations")
        for letter in state.dead_letters:
            print(f"  {letter.stage} iter {letter.iteration} "
                  f"block {letter.last_block}: {letter.detail}")
    if args.dead_letters:
        _write_json(args.dead_letters,
                    [letter.as_dict() for letter in state.dead_letters])
        print(f"wrote {args.dead_letters}")
    if args.profile:
        from repro.obs import emit_counter_events, runtime_report

        report = runtime_report(run_stats, state, watchdog=run_watchdog,
                                cache=cache, partition=outcome)
        print(report.render())
        if tracer is not None:
            emit_counter_events(tracer, report)
    if outcome is not None and outcome.degraded:
        print(f"warning: {outcome.summary()}", file=sys.stderr)
        return EXIT_DEGRADED
    return EXIT_OK


def cmd_trace(args) -> int:
    """``repro trace``: :func:`cmd_run` under a tracer, so the trace is
    of the verified run, sequential reference included."""
    from repro.obs import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        code = cmd_run(args, tracer)
    tracer.write(args.output)
    spans = sum(1 for e in tracer.events if e.get("ph") == "X")
    instants = sum(1 for e in tracer.events if e.get("ph") == "i")
    counters = sum(1 for e in tracer.events if e.get("ph") == "C")
    print(f"{args.pps}: traced compile + run at degree {args.degree}")
    print(f"  {spans} spans, {instants} instants, {counters} counter samples")
    print(f"wrote {args.output} (load in chrome://tracing or Perfetto)")
    return code


def cmd_chaos(args) -> int:
    from repro.eval.chaos import chaos_differential

    degrees = _parse_list("--degrees", args.degrees, int)
    cache = _open_cache(args)
    if args.sweep:
        ok, document, letters = _chaos_sweep(args, degrees, cache)
    else:
        plans = None
        if args.plans:
            plans = {}
            for spec in args.plans:
                plan = _load_fault_plan(spec)
                plans[plan.name or spec] = plan
        letters = []
        report = chaos_differential(args.app, plans=plans, degrees=degrees,
                                    packets=args.packets, seed=args.seed,
                                    collect_letters=letters, cache=cache)
        print(report.render())
        ok, document = report.ok, report.as_dict()
    if args.output:
        _write_json(args.output, document)
        print(f"wrote {args.output}")
    if args.dead_letters:
        _write_json(args.dead_letters, letters)
        print(f"wrote {args.dead_letters}")
    return 0 if ok else 1


#: Apps with a stream/feed split — the ones the chaos sweep can drive.
_CHAOS_SWEEP_APPS = ["ip_v4", "ip_v6", "ipv4", "rx"]


def _chaos_sweep(args, degrees: tuple, cache) -> tuple[bool, dict, list]:
    """``repro chaos --sweep``: the multi-app differential, ``-j N``.

    Returns (ok, the merged JSON report, every app's dead letters)."""
    from repro.eval.sweep import chaos_tasks, run_sweep
    from repro.runtime.faults import builtin_plans

    apps = (_parse_list("--apps", args.apps) if args.apps
            else _CHAOS_SWEEP_APPS)
    plans = None
    if args.plans:
        available = builtin_plans()
        unknown = [spec for spec in args.plans if spec not in available]
        if unknown:
            raise CLIError(
                f"--sweep accepts builtin plan names only "
                f"(unknown: {', '.join(unknown)}; "
                f"available: {', '.join(sorted(available))})")
        plans = tuple(args.plans)

    tasks = chaos_tasks(apps, degrees, packets=args.packets, seed=args.seed,
                        plans=plans,
                        cache_dir=str(cache.root) if cache else None)
    results = run_sweep(tasks, jobs=args.jobs, keep_going=args.keep_going)

    letters: list = []
    failures: list = []
    ok = True
    for result in results:
        if result.get("failed"):
            ok = False
            failures.append(result)
            print(f"[seed {result['seed']}] {result['task']}: FAILED — "
                  f"{result['error']}")
            continue
        print(f"[seed {result['seed']}] {result['rendered']}")
        ok = ok and result["ok"]
        for letter in result["dead_letters"]:
            letter = dict(letter)
            letter["app"] = result["app"]
            letters.append(letter)
    print(f"sweep: {len(results)} apps x degrees "
          f"{','.join(str(d) for d in degrees)} (-j {args.jobs}): "
          f"{'ok' if ok else 'FAIL'}")
    if failures:
        print(f"  {len(failures)} cells failed; reproduce with:")
        for failure in failures:
            print(f"    {failure['repro']}")

    merged = {
        "sweep": True,
        "seed": args.seed,
        "jobs": args.jobs,
        "ok": ok,
        "apps": {result["app"]: result.get("report") for result in results},
    }
    if failures:
        merged["failures"] = failures
    return ok, merged, letters


def _load_serve_plan(spec: str):
    """Resolve ``serve --faults``: a serve plan name, a builtin chaos
    plan name, or a JSON file path."""
    from repro.runtime.faults import serve_plans

    plans = serve_plans()
    if spec in plans:
        return plans[spec]
    return _load_fault_plan(spec)


def cmd_serve(args) -> int:
    from repro.obs import Tracer, emit_counter_events, tracing
    from repro.serve import ServePolicy, ServeRuntime

    plan = _load_serve_plan(args.faults) if args.faults else None
    policy = ServePolicy(max_restarts=args.max_restarts,
                         backoff_base=args.backoff,
                         hang_timeout=args.hang_timeout,
                         drain_grace=args.drain_grace)
    cache = _open_cache(args)
    runtime = ServeRuntime(args.app, shards=args.shards,
                           degree=args.degree, packets=args.packets,
                           seed=args.seed, batch=args.batch, plan=plan,
                           policy=policy, cache=cache,
                           journal_dir=args.journal_dir,
                           watchdog_quantum=args.watchdog_quantum,
                           verify=not args.no_verify)

    tracer = Tracer() if args.trace else None
    with tracing(tracer, enabled=tracer is not None):
        report = runtime.run(install_sigterm=True)

    print(report.render())
    if args.profile:
        print(report.runtime_report(cache=cache).render())
    if args.output:
        _write_json(args.output, report.as_dict())
        print(f"wrote {args.output}")
    if tracer is not None:
        emit_counter_events(tracer, report.runtime_report(cache=cache))
        tracer.write(args.trace)
        print(f"wrote {args.trace}")
    return report.exit_code()


def cmd_figures(args) -> int:
    from repro.eval.experiments import (
        ExperimentConfig,
        figure19,
        figure20,
        figure21,
        figure22,
        headline_speedups,
    )
    from repro.eval.report import render_figure

    config = ExperimentConfig(packets=args.packets,
                              cache=_open_cache(args))
    print(render_figure("Figure 19: speedup, IPv4 forwarding PPSes",
                        figure19(config)))
    print()
    print(render_figure("Figure 20: speedup, IP forwarding PPSes",
                        figure20(config)))
    print()
    print(render_figure("Figure 21: live-set overhead, IPv4 forwarding",
                        figure21(config), value_format="{:6.3f}"))
    print()
    print(render_figure("Figure 22: live-set overhead, IP forwarding",
                        figure22(config), value_format="{:6.3f}"))
    print()
    print("Headline (9-stage pipeline):")
    for name, value in headline_speedups(config).items():
        print(f"  {name:8s} {value:5.2f}x")
    return 0


def cmd_bench(args) -> int:
    import os

    from repro.eval.metrics import bench_headline

    degrees = list(range(1, 5)) if args.quick else None
    result = bench_headline(packets=args.packets,
                            degrees=degrees,
                            jobs=args.jobs,
                            cache=_open_cache(args),
                            keep_going=args.keep_going,
                            warm_start=not args.no_warm_start)
    parent = os.path.dirname(args.output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    _write_json(args.output, result)

    print(f"bench: packets={args.packets} "
          f"degrees={result['config']['degrees']} jobs={args.jobs}")
    print(f"  build     {result['build_seconds']:8.3f}s")
    print(f"  partition {result['partition_seconds']:8.3f}s")
    print(f"  compile   {result['compile_seconds']:8.3f}s")
    for figure, entry in result["figures"].items():
        rate = entry["instructions_per_second"]
        line = (f"  {figure}: {entry['wall_seconds']:.3f}s simulation, "
                f"{entry['simulated_instructions']} instructions "
                f"({rate / 1e6:.2f} Minstr/s)" if rate else
                f"  {figure}: {entry['wall_seconds']:.3f}s simulation")
        print(line)
    if args.profile and result.get("partition_breakdown"):
        print(_partition_profile_table(result["partition_breakdown"]))
    if "cache" in result:
        counters = result["cache"]
        print(f"  cache     {counters['hits']} hits, "
              f"{counters['misses']} misses, {counters['stores']} stores, "
              f"{counters['evictions']} evicted")
    if result.get("failures"):
        print(f"  {len(result['failures'])} sweep cells FAILED:")
        for failure in result["failures"]:
            print(f"    {failure['task']}: {failure['error']}")
    print(f"wrote {args.output}")
    return EXIT_FAILURE if result.get("failures") else EXIT_OK


def _partition_profile_table(breakdown: dict) -> str:
    """The ``repro bench --profile`` partition-phase table.

    One row per (app, degree): wall seconds, balanced-cut collapse
    iterations, push-relabel discharges, and how many of the degree's
    cuts started from a warm seed — enough to localize a partitioner
    regression without loading a Chrome trace.
    """
    lines = ["  partition phases (per app x degree):",
             "    app        D   seconds   cut_iters    pr_work  warm_hits"]
    for app in sorted(breakdown):
        for degree in sorted(breakdown[app], key=int):
            cell = breakdown[app][degree]
            lines.append(
                f"    {app:10s} {int(degree):d} {cell['seconds']:9.4f} "
                f"{cell['cut_iterations']:11d} {cell['pr_work']:10d} "
                f"{cell['warm_hits']:10d}")
    return "\n".join(lines)


def cmd_plan(args) -> int:
    """``repro plan``: pre-partition the (app x degree) matrix in parallel."""
    from repro.eval.experiments import FIGURE19_APPS, FIGURE20_APPS
    from repro.eval.sweep import plan_partitions

    degrees = _parse_list("--degrees", args.degrees, int)
    apps = (_parse_list("--apps", args.apps) if args.apps
            else sorted(set(FIGURE19_APPS) | set(FIGURE20_APPS)))
    cache = _open_cache(args)
    if cache is None and args.jobs > 1:
        print("warning: --no-cache with -j > 1 plans in parallel but "
              "persists nothing", file=sys.stderr)
    results = plan_partitions(apps, degrees, packets=args.packets,
                              seed=args.seed, jobs=args.jobs, cache=cache,
                              warm_start=not args.no_warm_start,
                              keep_going=args.keep_going)
    failures = [entry for entry in results if entry.get("failed")]
    breakdown = {entry["app"]: entry["partition_breakdown"]
                 for entry in results if not entry.get("failed")}
    total = sum(cell["seconds"] for per_app in breakdown.values()
                for cell in per_app.values())
    print(f"plan: {len(breakdown)}/{len(results)} apps x degrees "
          f"{args.degrees} (-j {args.jobs}): "
          f"{total:.3f}s partition work"
          + ("" if cache is None else f", cached under {cache.root}"))
    print(_partition_profile_table(breakdown))
    for failure in failures:
        print(f"  {failure['task']}: FAILED — {failure['error']}",
              file=sys.stderr)
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_explore(args) -> int:
    """``repro explore``: cost-aware design-space exploration."""
    import os

    from repro.eval.experiments import FIGURE19_APPS
    from repro.eval.explore import (
        ExploreError,
        SearchSpace,
        Weights,
        deterministic_report,
        explore,
        render_markdown,
        render_summary,
    )

    apps = (_parse_list("--apps", args.apps) if args.apps
            else tuple(FIGURE19_APPS))
    incremental = {"on": (True,), "off": (False,),
                   "both": (True, False)}[args.incremental]
    try:
        space = SearchSpace(
            apps=apps,
            degrees=_parse_list("--degrees", args.degrees, int),
            rings=_parse_list("--rings", args.rings),
            epsilons=_parse_list("--epsilons", args.epsilons, float),
            incremental=incremental,
            max_block_instructions=_parse_list(
                "--max-block-instructions", args.max_block_instructions, int),
            packets=args.packets,
            seed=args.seed,
        ).validate()
        weights = (Weights.parse(args.weights) if args.weights
                   else Weights())
    except (ExploreError, ValueError) as exc:
        raise CLIError(str(exc)) from exc

    cache = _open_cache(args)
    report = explore(space, weights=weights, rule=args.pick_rule,
                     min_gain=args.min_gain, jobs=args.jobs, cache=cache,
                     warm_start=not args.no_warm_start,
                     keep_going=args.keep_going)

    os.makedirs(args.out, exist_ok=True)
    frontier = deterministic_report(report)
    frontier_path = os.path.join(args.out, "frontier.json")
    _write_json(frontier_path, frontier, sort_keys=True)
    with open(os.path.join(args.out, "frontier.md"), "w",
              encoding="utf-8") as handle:
        handle.write(render_markdown(frontier))
        handle.write("\n")
    timings = {"timing": report.get("timing"),
               "cache": report.get("cache"),
               "jobs": args.jobs,
               "cells": space.cell_count()}
    _write_json(os.path.join(args.out, "timings.json"), timings,
                sort_keys=True)

    print(render_summary(report))
    if args.auto_pick:
        for app, entry in report["apps"].items():
            pick = entry["pick"]
            if pick is None:
                print(f"pick {app}: none — no verified, non-degraded "
                      f"cell in the space")
                continue
            print(f"pick {app}: {pick['id']} "
                  f"(score {pick['score']:.4f}) — {pick['why']}")
            if pick.get("tie_break"):
                print(f"  tie-break: {pick['tie_break']}")
    print(f"wrote {frontier_path}")
    return EXIT_FAILURE if report.get("failures") else EXIT_OK


def cmd_fuzz(args) -> int:
    import os

    from repro.eval.fuzz import run_fuzz, self_test

    if args.self_test:
        outcome = self_test()
        for name, checks in sorted(outcome["caught"].items()):
            print(f"  defect {name}: caught by {', '.join(checks)}")
        if outcome["missed"]:
            print(f"fuzz self-test: MISSED defects: "
                  f"{', '.join(outcome['missed'])}")
            return EXIT_FAILURE
        print("fuzz self-test: every seeded defect caught")
        return EXIT_OK

    degrees = _parse_list("--degrees", args.degrees, int)
    report = run_fuzz(args.seeds, start_seed=args.start_seed,
                      degrees=degrees, packets=args.packets,
                      shrink=not args.no_shrink, jobs=args.jobs)
    print(report.render())
    if args.out and report.failures:
        os.makedirs(args.out, exist_ok=True)
        for failure in report.failures:
            stem = f"seed{failure.seed}_d{failure.degree}_{failure.phase}"
            with open(os.path.join(args.out, stem + ".ppc"), "w",
                      encoding="utf-8") as handle:
                handle.write(failure.artifact())
            _write_json(os.path.join(args.out, stem + ".json"),
                        failure.as_dict())
        print(f"wrote {len(report.failures)} failing programs to "
              f"{args.out}")
    return EXIT_OK if report.ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-pipelining compiler for packet processing "
                    "applications (PLDI 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="compile and semantic-check")
    _add_source_flags(p_check, pps=False)
    p_check.set_defaults(func=cmd_check)

    p_ir = sub.add_parser("ir", help="dump the lowered, inlined IR")
    _add_source_flags(p_ir)
    p_ir.add_argument("--no-optimize", action="store_true")
    p_ir.set_defaults(func=cmd_ir)

    p_pipe = sub.add_parser("pipeline", help="partition a PPS into stages")
    _add_source_flags(p_pipe, degree=2)
    p_pipe.add_argument("--ring", default="nn",
                        choices=cost_table_names(aliases=True))
    p_pipe.add_argument("--epsilon", type=float, default=1.0 / 16.0)
    p_pipe.add_argument("--strategy", default="packed",
                        choices=[s.value for s in Strategy])
    p_pipe.add_argument("--emit", action="store_true",
                        help="print the realized stage IR")
    _add_partition_flags(p_pipe)
    _add_cache_flags(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_run = sub.add_parser("run", help="execute on the simulator")
    _add_run_flags(p_run, degree=1)
    p_run.add_argument("--profile", action="store_true",
                       help="print per-stage/per-pipe runtime counters")
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="`run` under a tracer: write a Chrome-trace JSON of "
                      "the verified compile + run")
    _add_run_flags(p_trace, degree=2)
    p_trace.add_argument("-o", "--output", default="trace.json")
    # A trace always carries the runtime counters, so it always profiles.
    p_trace.set_defaults(func=cmd_trace, profile=True)

    p_chaos = sub.add_parser(
        "chaos", help="run the chaos differential (faults + pipelining)")
    _add_workload_flags(p_chaos, packets=40, app=True)
    p_chaos.add_argument("--degrees", default="1,2,4",
                         help="comma-separated pipeline degrees")
    p_chaos.add_argument("--plans", nargs="*",
                         help="builtin plan names or JSON files "
                              "(default: all builtin plans)")
    p_chaos.add_argument("-o", "--output",
                         help="write the chaos report as JSON")
    p_chaos.add_argument("--dead-letters", metavar="FILE",
                         help="write all dead-letter records as JSON")
    p_chaos.add_argument("--sweep", action="store_true",
                         help="run the differential for several apps "
                              "(see --apps) instead of one")
    p_chaos.add_argument("--apps", nargs="*",
                         help="apps for --sweep (default: every "
                              "stream-driven app); comma or space "
                              "separated")
    _add_sweep_flags(p_chaos, "worker processes for --sweep (default: 1)")
    _add_cache_flags(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="fault-tolerant sharded serving (supervised worker pool)")
    _add_workload_flags(p_serve, packets=48, app=True)
    p_serve.add_argument("--shards", type=int, default=4,
                         help="worker processes / flow shards (default: 4)")
    p_serve.add_argument("-d", "--degree", type=int, default=1,
                         help="pipeline degree inside each worker")
    p_serve.add_argument("--batch", type=int, default=4,
                         help="packets per journaled batch (the commit "
                              "and replay unit)")
    p_serve.add_argument("--faults", metavar="PLAN",
                         help="fault plan with a workers section: serve "
                              "plan name (worker-kill, worker-storm), "
                              "builtin chaos plan name, or JSON file")
    p_serve.add_argument("--max-restarts", type=int, default=3,
                         help="per-shard restart budget before the "
                              "circuit breaker re-shards (default: 3)")
    p_serve.add_argument("--backoff", type=float, default=0.05,
                         help="first restart delay, seconds; doubles per "
                              "restart (default: 0.05)")
    p_serve.add_argument("--hang-timeout", type=float, default=10.0,
                         help="seconds a live worker may stay silent "
                              "before a hang kill (default: 10)")
    p_serve.add_argument("--drain-grace", type=float, default=2.0,
                         help="seconds a SIGTERM drain waits before "
                              "killing stragglers (default: 2)")
    p_serve.add_argument("--journal-dir", metavar="DIR", default=None,
                         help="persist per-shard journals as JSONL "
                              "under DIR")
    p_serve.add_argument("--watchdog-quantum", type=int, default=200_000,
                         metavar="N",
                         help="worker livelock check every N scheduler "
                              "steps (default: 200000)")
    p_serve.add_argument("--no-verify", action="store_true",
                         help="skip the sequential-oracle differential "
                              "after the run")
    p_serve.add_argument("--profile", action="store_true",
                         help="print per-shard runtime counters")
    p_serve.add_argument("--trace", metavar="FILE", default=None,
                         help="write a Chrome trace of shard lifecycle "
                              "events to FILE")
    p_serve.add_argument("-o", "--output",
                         help="write the serve report as JSON")
    _add_cache_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    _add_workload_flags(p_fig, seed=False)
    _add_cache_flags(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_bench = sub.add_parser(
        "bench", help="run the performance regression harness")
    _add_workload_flags(p_bench, seed=False)
    p_bench.add_argument("-o", "--output",
                         default="bench-out/BENCH_headline.json",
                         help="report path (default: "
                              "bench-out/BENCH_headline.json; the "
                              "committed baseline stays untouched)")
    p_bench.add_argument("--quick", action="store_true",
                         help="small degree sweep (1-4) for smoke runs")
    _add_sweep_flags(p_bench, "fan the per-app sweep cells over N worker "
                              "processes")
    _add_warm_start_flag(p_bench)
    p_bench.add_argument("--profile", action="store_true",
                         help="print the partition-phase table (per app x "
                              "degree: seconds, cut iterations, pr work, "
                              "warm-start hits)")
    _add_cache_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_plan = sub.add_parser(
        "plan", help="pre-partition the benchmark matrix into the cache")
    p_plan.add_argument("--apps", nargs="*",
                        help="apps to plan (default: the Figure 19+20 "
                             "suite); comma or space separated")
    p_plan.add_argument("--degrees", default="1,2,3,4,5,6,7,8,9",
                        help="comma-separated pipeline degrees")
    _add_workload_flags(p_plan)
    _add_sweep_flags(p_plan, "fan apps over N worker processes; each "
                             "worker keeps its app's whole degree row so "
                             "warm starts still apply")
    _add_warm_start_flag(p_plan)
    _add_cache_flags(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_explore = sub.add_parser(
        "explore",
        help="cost-aware design-space exploration with a Pareto frontier")
    p_explore.add_argument("--apps", nargs="*",
                           help="apps to explore (default: the Figure 19 "
                                "suite); comma or space separated")
    p_explore.add_argument("--degrees", default="1,2,3,4,5,6,7,8,9",
                           help="comma-separated pipeline degrees "
                                "(include 1: the sequential floor)")
    p_explore.add_argument("--rings", default="nn-ring",
                           help="comma-separated cost-table names "
                                "(see repro.machine.costs registry, e.g. "
                                "nn-ring,scratch-ring)")
    p_explore.add_argument("--epsilons", default="0.0625",
                           help="comma-separated balance-slack values")
    p_explore.add_argument("--incremental", default="on",
                           choices=["on", "off", "both"],
                           help="incremental-restart partitioner knob")
    p_explore.add_argument("--max-block-instructions", default="12",
                           help="comma-separated block-split thresholds")
    _add_workload_flags(p_explore)
    p_explore.add_argument("--weights", default=None,
                           help="objective weights, e.g. "
                                "speedup=1,words=0.005,stages=0.01")
    p_explore.add_argument("--pick-rule", default="marginal",
                           choices=["marginal", "score"],
                           help="marginal: climb the degree ladder until "
                                "the weighted score plateaus (the paper's "
                                "'levels off' knee); score: plain argmax")
    p_explore.add_argument("--min-gain", type=float, default=0.0,
                           help="marginal rule: minimum score gain to "
                                "keep climbing (default: 0)")
    p_explore.add_argument("--auto-pick", action="store_true",
                           help="print the explained per-app pick "
                                "(the pick is always in frontier.json)")
    p_explore.add_argument("-o", "--out", default="explore-out",
                           help="output directory (frontier.json, "
                                "frontier.md, timings.json)")
    _add_sweep_flags(p_explore, "fan (app, knob-combo) rows over N worker "
                                "processes; frontier.json is identical "
                                "at any -j level")
    _add_warm_start_flag(p_explore)
    _add_cache_flags(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz the partitioner with generated programs")
    p_fuzz.add_argument("--seeds", type=int, default=50,
                        help="number of generated programs (default: 50)")
    p_fuzz.add_argument("--start-seed", type=int, default=0)
    p_fuzz.add_argument("--degrees", default="2,3,4",
                        help="comma-separated pipeline degrees, applied "
                             "round-robin per seed")
    _add_workload_flags(p_fuzz, packets=24, seed=False,
                        packets_help="packets per differential run "
                                     "(default: 24)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report failing programs unshrunk")
    _add_sweep_flags(p_fuzz, "fan fuzz cases over N worker processes "
                             "(identical report at any -j level)",
                     keep_going=False)
    p_fuzz.add_argument("--self-test", action="store_true",
                        help="seed known partition defects instead; the "
                             "verifier must catch every one")
    p_fuzz.add_argument("--out", metavar="DIR", default=None,
                        help="write failing programs (shrunk) and their "
                             "metadata into DIR")
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, FaultPlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FrontendError, PipelineError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except DeadlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for name, key in sorted(exc.parked.items()):
            marker = "!" if name in exc.offenders else " "
            print(f"  {marker} {name} parked on {key!r}", file=sys.stderr)
        return EXIT_RUNTIME
    except TrapError as exc:
        print(f"error: trap: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ServeError as exc:
        print(f"error: serve: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
