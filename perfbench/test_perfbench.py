"""Self-tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import workloads  # noqa: E402
from layertrace import (  # noqa: E402
    LayerTracer,
    beyond,
    layer_metrics,
    nearest_rank,
    read_chrome_trace,
    self_times,
    write_chrome_trace,
)


def _span(name, ts, dur, tid=1, pid=1, **args):
    return {"name": name, "cat": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": args}


# -- percentile choice --------------------------------------------------------


def test_reported_tail_has_ten_samples_beyond_it():
    suite_cells = len(workloads.SUITE_APPS) * (len(workloads.DEGREES) - 1)
    explore_cells = (len(workloads.EXPLORE_APPS) * len(workloads.RINGS)
                     * len(workloads.EPSILONS) * (len(workloads.DEGREES) - 1))
    serve_gaps = workloads.SERVE_PACKETS // 32 - 2
    assert beyond(suite_cells, 80) == 11          # 56 cells
    assert beyond(explore_cells, 80) >= 10        # 240 cells
    assert beyond(serve_gaps, 90) >= 10           # ~624 commit gaps
    # Too few samples for p80 is detected, not silently reported.
    assert beyond(49, 80) < 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 80) == 80
    assert nearest_rank([5.0], 80) == 5.0
    assert nearest_rank([], 50) == 0.0


# -- host-scaled timing -------------------------------------------------------


def test_wall_sums_each_parts_host_scaled_median():
    import run

    repeats = [
        workloads.Outcome(wall=0.0, ops=1, parts={"a": 1.0, "b": 2.0},
                          scale={"a": 0.5, "b": 1.0}),
        workloads.Outcome(wall=0.0, ops=1, parts={"a": 3.0, "b": 4.0},
                          scale={"a": 1.0, "b": 0.5}),
        # A repeat whose row failed early times fewer parts.
        workloads.Outcome(wall=0.0, ops=1, parts={"a": 2.0},
                          scale={"a": 1.0}),
    ]
    assert run.part_medians(repeats, scaled=True) == {"a": 2.0, "b": 2.0}
    assert run.part_medians(repeats, scaled=False) == {"a": 2.0, "b": 3.0}
    assert repeats[0].scaled_wall == 2.5


def test_host_scale_is_relative_to_the_quiet_host():
    quiet = workloads.REFERENCE_SECONDS[1]
    assert workloads.host_scale(1, [quiet, quiet]) == 1.0
    # Neighbours that double the loop's time halve the scale.
    assert workloads.host_scale(1, [2 * quiet, 2 * quiet, 9.0]) == 0.5


def test_reference_pace_reaps_its_processes():
    import os

    assert workloads.reference_pace(2) > 0
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass                                  # no child left, as required
    else:
        raise AssertionError("reference_pace left a child process")


def test_a_zero_second_run_makes_one_repeat():
    import run

    calls = []
    assert run.repeat_until(0, lambda: calls.append(1) or len(calls)) == [1]


# -- self time ----------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    events = [
        _span("root", 0, 100),
        _span("a", 10, 30),          # child of root
        _span("a1", 15, 10),         # grandchild, inside a
        _span("b", 50, 40),          # child of root
        _span("other", 20, 60, tid=2),   # another thread: no nesting
        _span("late", 100, 5),       # starts as root ends: a sibling
    ]
    assert self_times(events) == [30, 20, 10, 40, 60, 5]


def test_layer_totals_sum_self_times_and_counters():
    events = [
        {**_span("select_stages", 0, 50, iterations=3, pr_work=7,
                 warm_hits=1, cuts=2), "cat": "flownet.cut"},
        {**_span("AnalysisContext.__init__", 10, 20), "cat": "analysis"},
        {**_span("select_stages", 60, 10, iterations=1, pr_work=1,
                 warm_hits=1, cuts=2), "cat": "flownet.cut"},
    ]
    metrics = layer_metrics(events)
    assert metrics["flownet.cut_s"] == 40e-6          # 30 + 10 µs
    assert metrics["analysis.s"] == 20e-6
    assert metrics["flownet.cut_iterations"] == 4
    assert metrics["flownet.warm_hit_ratio"] == 0.5


# -- output gates -------------------------------------------------------------


def test_perturbed_reference_fails_the_suite_gate():
    references = workloads.load_references(ROOT)
    measured = {label.split("/")[1]: dict(values)
                for label, values in references["series"].items()}
    assert len(measured) == len(workloads.SUITE_APPS)
    assert workloads.suite_reference_failures(measured, references) == {}

    # rx appears in both figures: a change to either copy is caught.
    for label in ("figure19/ipv4", "figure20/rx", "figure19/rx"):
        perturbed = copy.deepcopy(references)
        perturbed["series"][label]["9"] += 0.0001
        failures = workloads.suite_reference_failures(measured, perturbed)
        assert list(failures) == [(label.split("/")[1], 9)]


def test_frontier_gate_flags_changed_and_missing_cells():
    references = workloads.load_references(ROOT)
    cells = copy.deepcopy(references["frontier_cells"])
    assert workloads.frontier_failures(cells, references) == {}
    first, second = sorted(cells)[:2]
    cells[first]["metrics"]["speedup"] += 0.01
    del cells[second]
    assert set(workloads.frontier_failures(cells, references)) == {
        first, second}


def _copy_tree(target: Path, *, with_program: bool) -> None:
    """A checkout-like copy: the benchmark, and optionally the program
    and its committed reference files."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, target / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", target)
    if with_program:
        shutil.copytree(ROOT / "src", target / "src", ignore=skip)
        for name in workloads.REFERENCE_FILES:
            shutil.copy(ROOT / name, target)


def test_runner_exits_nonzero_on_a_perturbed_reference(tmp_path):
    _copy_tree(tmp_path, with_program=True)
    path = tmp_path / "BENCH_headline.json"
    headline = json.loads(path.read_text(encoding="utf-8"))
    headline["figures"]["figure19"]["speedup_by_degree"]["rx"]["5"] += 0.5
    path.write_text(json.dumps(headline), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold",
         "--seed", str(workloads.REFERENCE_SEED), "--seconds", "0",
         "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "rx/d5" in done.stderr


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    _copy_tree(tmp_path, with_program=False)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# -- the traced run measures the same program ---------------------------------


def _partition_signature(degree: int) -> dict:
    from repro.apps.suite import build_app
    from repro.pipeline.transform import pipeline_pps
    from repro.pipeline.liveset import Strategy

    app = build_app("ipv4", packets=8, seed=3)
    result = pipeline_pps(app.module, app.pps_name, degree)
    words = tuple(layout.words(Strategy.PACKED) for layout in result.layouts)
    return {f"ipv4/d{degree}": (
        tuple(sorted(result.assignment.block_stage.items())), words)}


def test_flipped_block_stage_fails_the_identity_check(tmp_path):
    plain = _partition_signature(3)
    with LayerTracer(tmp_path / "spill"):
        traced = _partition_signature(3)
    assert workloads.signature_mismatches(plain, traced) == []

    stages, words = traced["ipv4/d3"]
    block, stage = stages[0]
    flipped = ((block, 1 if stage != 1 else 2),) + stages[1:]
    traced["ipv4/d3"] = (flipped, words)
    assert workloads.signature_mismatches(plain, traced) == [
        "ipv4/d3: traced run computed a different result"]


def test_chrome_trace_totals_match_the_printed_metrics(tmp_path):
    from repro.cache import CompileCache
    from repro.pipeline import transform

    original = transform.select_stages
    tracer = LayerTracer(tmp_path / "spill")
    with tracer:
        assert transform.select_stages is not original
        from repro.apps.suite import build_app

        app = build_app("ipv4", packets=8, seed=3)
        cache = CompileCache(tmp_path / "cache")
        transform.pipeline_pps(app.module, app.pps_name, 2, cache=cache)
        transform.pipeline_pps(app.module, app.pps_name, 2, cache=cache)
    assert transform.select_stages is original

    events = tracer.events()
    metrics = layer_metrics(events)
    assert metrics["flownet.cut_s"] > 0
    assert metrics["cache.misses"] == 1 and metrics["cache.hits"] == 1
    assert metrics["ir.instructions"] > 0
    path = tmp_path / "trace.json"
    write_chrome_trace(events, path)
    assert layer_metrics(read_chrome_trace(path)) == metrics


def _child_work(queue):
    from repro.apps.suite import build_app

    build_app("rx", packets=4, seed=1)
    queue.put("done")


def test_forked_workers_spill_their_spans(tmp_path):
    context = multiprocessing.get_context("fork")
    tracer = LayerTracer(tmp_path / "spill")
    with tracer:
        queue = context.Queue()
        child = context.Process(target=_child_work, args=(queue,))
        child.start()
        assert queue.get(timeout=60) == "done"
        child.join(timeout=60)
    assert not child.is_alive()
    pids = {event["pid"] for event in tracer.events()
            if event["cat"] == "apps.build"}
    assert pids == {child.pid}


def test_every_benchmark_metric_is_declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    import run

    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        layertrace.LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == \
        list(run.WORKLOAD_NAMES)
