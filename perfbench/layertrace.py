"""Outside-in layer tracing for the benchmark's traced run.

Nothing here touches the program's source.  :class:`LayerTracer`
replaces the public functions of each layer with timing wrappers for
the duration of one traced repeat: a module-level function is swapped
in every loaded module that holds a reference to it, a method or
property on its class.  Each wrapped call records one Chrome-trace
complete event (``ph: "X"``) whose ``cat`` is the layer name and whose
``args`` carry the layer's counters (cut iterations, cache hits, IR
size, ...).  Spans stay in memory; forked worker processes (the sweep
pool and the serve shards) inherit the wrappers and append their spans
to one spill file per process, which the parent folds in at the end.

Per-layer metrics are a pure function of the event list
(:func:`layer_metrics`), so the numbers printed for a traced run can be
recomputed from the Chrome trace written for it.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import threading
import time
import types
from pathlib import Path

#: Per-layer metrics in report order: (name, unit).
LAYER_METRICS = [
    ("apps.build_s", "s"),
    ("apps.stream_s", "s"),
    ("lang.s", "s"),
    ("ir.s", "s"),
    ("ir.instructions", "count"),
    ("analysis.s", "s"),
    ("analysis.units", "count"),
    ("flownet.cut_s", "s"),
    ("flownet.cut_iterations", "count"),
    ("flownet.pr_work", "count"),
    ("flownet.warm_hit_ratio", "ratio"),
    ("pipeline.liveset_s", "s"),
    ("pipeline.live_words", "count"),
    ("pipeline.realize_s", "s"),
    ("pipeline.verify_s", "s"),
    ("pipeline.verify_rejects", "count"),
    ("pipeline.supervisor.degraded_cells", "count"),
    ("cache.store_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.bytes", "bytes"),
    ("runtime.compile_s", "s"),
    ("runtime.simulate_s", "s"),
    ("runtime.instr_per_s", "1/s"),
    ("runtime.equivalence_s", "s"),
    ("eval.sweep.busy_ratio", "ratio"),
    ("eval.explore.frontier_s", "s"),
    ("serve.shard_s", "s"),
    ("serve.first_commit_s", "s"),
    ("serve.pool_s", "s"),
    ("serve.oracle_s", "s"),
    ("serve.commit_gap_ms_p50", "ms"),
    ("serve.commit_gap_ms_p90", "ms"),
    ("serve.delta_bytes_per_batch", "bytes"),
    ("serve.restarts", "count"),
    ("serve.redeliveries", "count"),
    ("obs.trace_overhead", "ratio"),
]

#: Layers whose summed span self time is reported as ``<layer>_s``
#: (``<layer>.s`` for the single-word layers).  Self time is a span's
#: duration minus the part of it covered by its child spans, so nested
#: layers are never counted twice.
TIMED_LAYERS = {
    "apps.build": "apps.build_s",
    "apps.stream": "apps.stream_s",
    "lang": "lang.s",
    "ir": "ir.s",
    "analysis": "analysis.s",
    "flownet.cut": "flownet.cut_s",
    "pipeline.liveset": "pipeline.liveset_s",
    "pipeline.realize": "pipeline.realize_s",
    "pipeline.verify": "pipeline.verify_s",
    "cache.store": "cache.store_s",
    "cache.lookup": "cache.lookup_s",
    "runtime.compile": "runtime.compile_s",
    "runtime.simulate": "runtime.simulate_s",
    "runtime.equivalence": "runtime.equivalence_s",
    "eval.explore.frontier": "eval.explore.frontier_s",
    "serve.shard": "serve.shard_s",
}

#: Phases reported by their whole span duration, children included: the
#: serve oracle is a phase of the serving run whose cost is mostly the
#: sequential simulation it runs (that simulation is *also* in
#: ``runtime.simulate_s``, as self time of its own spans).
INCLUSIVE_LAYERS = {
    "serve.oracle": "serve.oracle_s",
}

#: Span counters summed into a per-layer count: metric -> (layer, arg).
COUNTED = {
    "ir.instructions": ("ir", "instructions"),
    "analysis.units": ("analysis", "units"),
    "flownet.cut_iterations": ("flownet.cut", "iterations"),
    "flownet.pr_work": ("flownet.cut", "pr_work"),
    "pipeline.live_words": ("pipeline.liveset", "words"),
    "pipeline.verify_rejects": ("pipeline.verify", "rejects"),
    "cache.hits": ("cache.lookup", "hit"),
    "cache.misses": ("cache.lookup", "miss"),
    "cache.bytes": ("cache.store", "bytes"),
}

_US = 1e6


# -- counters read from a wrapped call's result -------------------------------


def _ir_size(args, result):
    module = args[0]
    functions = list(module.functions.values()) + list(module.ppses.values())
    return {"instructions": sum(len(function.all_instructions())
                                for function in functions)}


def _cut_counters(args, result):
    diagnostics = result.diagnostics
    return {"iterations": sum(diag.iterations for diag in diagnostics),
            "pr_work": sum(diag.pr_work for diag in diagnostics),
            "warm_hits": sum(1 for diag in diagnostics if diag.warm_hit),
            "cuts": len(diagnostics)}


def _live_words(args, result):
    from repro.pipeline.liveset import Strategy

    return {"words": sum(layout.words(Strategy.PACKED) for layout in result)}


def _verify_counters(args, result):
    return {"rejects": 0 if result.ok else 1}


def _lookup_counters(args, result):
    return {"hit": int(result is not None), "miss": int(result is None)}


def _store_counters(args, result):
    cache, key = args[0], args[1]
    path = cache.entry_path(key)
    return {"bytes": path.stat().st_size if path.exists() else 0}


def _simulated(args, result):
    stats = getattr(result, "stats", None)
    if isinstance(stats, dict):          # run_pipeline's RunResult
        return {"instructions": sum(s.instructions for s in stats.values())}
    return {"instructions": result.instructions}


def _model_units(args, result):
    return {"units": len(args[0].units)}


def _oracle_counters(args, result):
    return {"batches": len(result),
            "delta_bytes": sum(len(pickle.dumps(delta)) for delta in result)}


#: (module, attribute, layer, counters) for module-level functions.
FUNCTIONS = [
    ("repro.apps.suite", "build_app", "apps.build", None),
    ("repro.lang", "compile_source", "lang", None),
    ("repro.ir.lowering", "lower_program", "ir", None),
    ("repro.ir.inline", "inline_module", "ir", None),
    ("repro.ir.optimize", "optimize_module", "ir", _ir_size),
    ("repro.ssa.construct", "construct_ssa", "analysis", None),
    ("repro.pipeline.cuts", "select_stages", "flownet.cut", _cut_counters),
    ("repro.pipeline.liveset", "compute_cut_layouts", "pipeline.liveset",
     _live_words),
    ("repro.pipeline.realize", "realize_stages", "pipeline.realize", None),
    ("repro.pipeline.verify", "verify_partition", "pipeline.verify",
     _verify_counters),
    ("repro.runtime.compile", "compile_function", "runtime.compile", None),
    ("repro.runtime.scheduler", "run_sequential", "runtime.simulate",
     _simulated),
    ("repro.runtime.scheduler", "run_pipeline", "runtime.simulate",
     _simulated),
    ("repro.runtime.equivalence", "observe", "runtime.equivalence", None),
    ("repro.runtime.equivalence", "assert_equivalent",
     "runtime.equivalence", None),
    ("repro.eval.explore", "pareto_flags", "eval.explore.frontier", None),
    ("repro.eval.explore", "auto_pick", "eval.explore.frontier", None),
    ("repro.serve.shard", "shard_stream", "serve.shard", None),
    ("repro.serve.shard", "make_batches", "serve.shard", None),
    ("repro.serve.supervise", "shard_oracle", "serve.oracle",
     _oracle_counters),
]

#: (module, class, attribute, layer, counters) for methods; counters of
#: ``__init__`` read the constructed instance (``args[0]``).
METHODS = [
    ("repro.analysis.context", "AnalysisContext", "__init__", "analysis",
     None),
    ("repro.analysis.context", "AnalysisContext", "profiles_for",
     "analysis", None),
    ("repro.analysis.dependence_graph", "LoopDependenceModel", "__init__",
     "analysis", _model_units),
    ("repro.analysis.liveness", "Liveness", "__init__", "analysis", None),
    ("repro.cache.store", "CompileCache", "lookup", "cache.lookup",
     _lookup_counters),
    ("repro.cache.store", "CompileCache", "store", "cache.store",
     _store_counters),
]

#: The tracer whose buffer a fork must reset (see ``_after_fork``).
_ACTIVE: "LayerTracer | None" = None


#: The benchmark's own modules (imported by file name from perfbench/).
BENCH_MODULES = {"workloads", "__main__"}


def _program_modules() -> list:
    """Loaded modules that may hold references to layer functions: the
    program's own and the benchmark's."""
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro"
                                       or name.startswith("repro.")
                                       or name in BENCH_MODULES)]


def _after_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE.forked()


class LayerTracer:
    """In-memory span recorder that wraps layer functions while active.

    ``spill_dir`` receives one JSON-lines file per forked child; the
    parent reads them back in :meth:`events`.
    """

    _fork_hook_registered = False

    def __init__(self, spill_dir: str | Path):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.root_pid = self.pid
        self._events: list[dict] = []
        self._unflushed = 0
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _set_depth(self, value: int) -> None:
        self._local.depth = value

    def complete(self, name: str, layer: str, start: float, end: float,
                 args: dict | None = None) -> None:
        """Record one finished span (times in seconds, perf_counter)."""
        self._events.append({
            "name": name, "cat": layer, "ph": "X",
            "ts": start * _US, "dur": (end - start) * _US,
            "pid": self.pid, "tid": threading.get_ident() % 1_000_000,
            "args": args or {},
        })

    def instant(self, name: str, layer: str, args: dict | None = None,
                at: float | None = None) -> None:
        self._events.append({
            "name": name, "cat": layer, "ph": "i", "s": "p",
            "ts": (time.perf_counter() if at is None else at) * _US,
            "pid": self.pid, "tid": threading.get_ident() % 1_000_000,
            "args": args or {},
        })

    def _wrap(self, original, name: str, layer: str, counters):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            depth = tracer._depth()
            tracer._set_depth(depth + 1)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._set_depth(depth)
            extra = counters(args, result) if counters is not None else None
            tracer.complete(name, layer, start, end, extra)
            if layer == "apps.build" and result.stream is not None:
                # The packet generator is a per-app closure: wrap the
                # built instance's so its calls land in apps.stream.
                result.stream = tracer._wrap(result.stream, "stream",
                                             "apps.stream", None)
            if depth == 0 and tracer.pid != tracer.root_pid:
                tracer._spill()
            return result

        return traced

    # -- fork support ---------------------------------------------------------

    def forked(self) -> None:
        """In a forked child: drop the parent's spans, spill our own."""
        self.pid = os.getpid()
        self._events = []
        self._unflushed = 0
        self._set_depth(0)

    def _spill(self) -> None:
        new = self._events[self._unflushed:]
        if not new:
            return
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for event in new:
                handle.write(json.dumps(event) + "\n")
        self._unflushed = len(self._events)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Swap every listed layer function for its traced wrapper."""
        global _ACTIVE
        import importlib

        self.spill_dir.mkdir(parents=True, exist_ok=True)
        if not LayerTracer._fork_hook_registered:
            os.register_at_fork(after_in_child=_after_fork)
            LayerTracer._fork_hook_registered = True
        _ACTIVE = self
        for module_name, attr, layer, counters in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(original, attr, layer, counters)
            for holder in _program_modules():
                namespace = vars(holder)
                if namespace.get(attr) is original:
                    setattr(holder, attr, wrapper)
                    self._restore.append((holder, attr, original))
                # Keyword defaults bound at definition time (the
                # supervisor's ``verifier=verify_partition`` seam).
                for value in list(namespace.values()):
                    defaults = getattr(value, "__kwdefaults__", None)
                    if not isinstance(value, types.FunctionType) \
                            or not defaults:
                        continue
                    for key, default in defaults.items():
                        if default is original:
                            self._restore.append(
                                (defaults, key, original))
                            defaults[key] = wrapper
        for module_name, class_name, attr, layer, counters in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, f"{class_name}.{attr}",
                                            layer, counters))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        global _ACTIVE
        for holder, attr, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._restore.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------------

    def events(self) -> list[dict]:
        """Parent spans plus every spilled child span, in time order."""
        events = list(self._events)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                events.extend(json.loads(line) for line in handle)
        events.sort(key=lambda event: (event["ts"], -event.get("dur", 0)))
        return events


# -- analysis of an event list ------------------------------------------------


def self_times(events: list[dict]) -> list[float]:
    """Self time (µs) of every complete event, in input order.

    A span's self time is its duration minus the part of its interval
    covered by its direct child spans on the same process and thread.
    """
    result = [0.0] * len(events)
    lanes: dict[tuple, list[int]] = {}
    for index, event in enumerate(events):
        if event.get("ph") == "X":
            lanes.setdefault((event["pid"], event["tid"]), []).append(index)
    for indices in lanes.values():
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack: list[tuple[int, float]] = []     # (index, end)
        for index in indices:
            event = events[index]
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and stack[-1][1] <= start:
                stack.pop()
            result[index] += event["dur"]
            if stack:
                parent, parent_end = stack[-1]
                covered = min(end, parent_end) - start
                result[parent] -= max(0.0, covered)
            stack.append((index, end))
    return result


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values`` (0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th
    percentile."""
    if count == 0:
        return 0
    return count - int(max(1, -(-count * q // 100)))


def layer_metrics(events: list[dict]) -> dict[str, float]:
    """Every per-layer metric, computed from a Chrome-trace event list."""
    metrics = {name: 0.0 for name, _unit in LAYER_METRICS}
    own = self_times(events)
    counted = {layer_arg: metric for metric, layer_arg in COUNTED.items()}
    warm = cuts = instructions = 0
    batches = delta_bytes = 0
    for event, self_us in zip(events, own):
        layer, args = event.get("cat"), event.get("args", {})
        if event.get("ph") == "X":
            if layer in INCLUSIVE_LAYERS:
                metrics[INCLUSIVE_LAYERS[layer]] += event["dur"] / _US
            elif layer in TIMED_LAYERS:
                metrics[TIMED_LAYERS[layer]] += self_us / _US
            for arg, value in args.items():
                metric = counted.get((layer, arg))
                if metric is not None:
                    metrics[metric] += value
            if layer == "flownet.cut":
                warm += args.get("warm_hits", 0)
                cuts += args.get("cuts", 0)
            elif layer == "runtime.simulate":
                instructions += args.get("instructions", 0)
            elif layer == "serve.oracle":
                batches += args.get("batches", 0)
                delta_bytes += args.get("delta_bytes", 0)
        elif event.get("name") == "report":
            for key, value in args.items():
                metrics[key] = value
    metrics["flownet.warm_hit_ratio"] = warm / cuts if cuts else 0.0
    simulate = metrics["runtime.simulate_s"]
    metrics["runtime.instr_per_s"] = (instructions / simulate
                                      if simulate else 0.0)
    metrics["serve.delta_bytes_per_batch"] = (delta_bytes / batches
                                              if batches else 0.0)
    metrics.update(_serve_timeline(events))
    return metrics


def _serve_timeline(events: list[dict]) -> dict[str, float]:
    """First-commit, pool and commit-gap numbers from the commit instants
    (pool start = end of the parent's last sharding span)."""
    commits = [event for event in events
               if event.get("ph") == "i" and event.get("name") == "commit"]
    if not commits:
        return {}
    parent = commits[0]["pid"]
    shard_ends = [event["ts"] + event["dur"] for event in events
                  if event.get("cat") == "serve.shard"
                  and event["pid"] == parent]
    start = max(shard_ends) if shard_ends else commits[0]["ts"]
    times = sorted(event["ts"] for event in commits)
    gaps: list[float] = []
    by_shard: dict[int, list[float]] = {}
    for event in commits:
        by_shard.setdefault(event["args"]["shard"], []).append(event["ts"])
    for stamps in by_shard.values():
        stamps.sort()
        gaps.extend((b - a) / 1e3 for a, b in zip(stamps, stamps[1:]))
    return {
        "serve.first_commit_s": (times[0] - start) / _US,
        "serve.pool_s": (times[-1] - start) / _US,
        "serve.commit_gap_ms_p50": nearest_rank(gaps, 50),
        "serve.commit_gap_ms_p90": nearest_rank(gaps, 90),
    }


def write_chrome_trace(events: list[dict], path: str | Path,
                       metadata: dict | None = None) -> None:
    """Write ``events`` as a Chrome-trace JSON object."""
    names = []
    for pid in sorted({event["pid"] for event in events}):
        names.append({"name": "process_name", "ph": "M", "pid": pid,
                      "tid": 0, "args": {"name": f"pid {pid}"}})
    document = {"traceEvents": names + events, "displayTimeUnit": "ms",
                "otherData": metadata or {}}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def read_chrome_trace(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [event for event in document["traceEvents"]
            if event.get("ph") != "M"]
