"""The repository benchmark: one workload per process, outputs gated.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-cold --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

``--trace 0`` times repeats of the workload with tracing off and reports
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
repeats, reports the per-layer metrics of the last traced repeat, and
writes its Chrome trace to ``.bench_out/``.  Either way the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) and the exit code is 0 only when every output
gate passed.  Scratch files live in ``.bench_work/`` and are removed on
exit; nothing else in the tree is written.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("suite-cold", "explore-grid", "serve-verified")
#: End-to-end metrics, identical for every workload: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
#: What one "op" is per workload, and the name its per-op latency is
#: printed under (for the table; latencies are not in the JSON line).
OP_NAMES = {
    "suite-cold": ("cells_per_s", "partition_ms", "(app, degree) cell"),
    "explore-grid": ("cells_per_s", "partition_ms",
                     "(app, degree, ring, epsilon) cell"),
    "serve-verified": ("pkts_per_s", "commit_gap_ms",
                       "oracle-verified packet"),
}
#: Fresh-process set-ups timed per measurement.
SETUP_SAMPLES = 9
#: The op-latency tail percentile; every repeat must leave at least
#: ``MIN_TAIL`` samples beyond it.
TAIL_Q, MIN_TAIL = 80, 10
#: Child processes (setup probes, ``--workload all``) must finish within.
CHILD_TIMEOUT = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(args) -> tuple[float, float]:
    """Set the workload up in a fresh interpreter; returns its seconds
    and their host scale (see ``workloads.timed``)."""
    from workloads import host_scale, reference_pace

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0"]
    # A set-up is short, so one burst of load on a single reference
    # loop would skew its pace: take three on each side.
    paces = [reference_pace() for _ in range(3)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    paces += [reference_pace() for _ in range(3)]
    seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    return seconds, host_scale(1, paces)


def repeat_until(seconds: float, once) -> list:
    """Call ``once`` (at least once) while another call is expected to
    end within ``seconds``, judged by the median call so far."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def part_medians(outcomes, scaled: bool) -> dict:
    """Each timed part's median seconds over the repeats that ran it,
    host-scaled (see ``workloads.timed``) or as measured."""
    samples: dict[str, list[float]] = {}
    for outcome in outcomes:
        for part, seconds in outcome.parts.items():
            factor = outcome.scale[part] if scaled else 1.0
            samples.setdefault(part, []).append(seconds * factor)
    return {part: statistics.median(values)
            for part, values in samples.items()}


def end_to_end(args, outcomes, setups):
    """The JSON metrics, run-level problems, and the extra table lines
    (per-op latency percentiles, per-repeat walls)."""
    from layertrace import beyond, nearest_rank

    problems = []
    p50s, tails = [], []
    for outcome in outcomes:
        if beyond(len(outcome.op_ms), TAIL_Q) < MIN_TAIL:
            problems.append(f"only {len(outcome.op_ms)} op samples: "
                            f"p{TAIL_Q} has fewer than {MIN_TAIL} beyond it")
        p50s.append(nearest_rank(outcome.op_ms, 50))
        tails.append(nearest_rank(outcome.op_ms, TAIL_Q))
    # A repeat's wall time is the sum of its parts; summing each part's
    # median over the repeats keeps a burst of host load that slows a
    # minority of one part's samples out of the figure.  Times are
    # host-scaled: the load of other tenants moves the raw ones by a
    # third between runs minutes apart.
    parts = part_medians(outcomes, scaled=True)
    raw = part_medians(outcomes, scaled=False)
    wall = sum(parts.values())
    values = {
        "setup_s": statistics.median(seconds * scale
                                     for seconds, scale in setups),
        "wall_s": wall,
        "ops_per_s": statistics.median(o.ops for o in outcomes) / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    rate, latency, op = OP_NAMES[args.workload]
    samples = len(outcomes[0].op_ms)
    extra = [
        f"op = one {op}; ops_per_s is {rate}",
        f"{latency + '_p50':38s} {statistics.median(p50s):16.6f} ms",
        f"{latency + f'_p{TAIL_Q}':38s} {statistics.median(tails):16.6f} ms"
        f"  (medians over repeats; {samples} samples a repeat)",
        f"{'raw_setup_s':38s} "
        f"{statistics.median(seconds for seconds, _ in setups):16.6f} s"
        f"  (as measured; median of {len(setups)} fresh set-ups)",
        f"{'raw_wall_s':38s} {sum(raw.values()):16.6f} s  (as measured)",
        "repeat walls (s, as measured): "
        + " ".join(f"{o.wall:.3f}" for o in outcomes),
        "part medians (s, host-scaled): "
        + " ".join(f"{part}={seconds:.3f}" for part, seconds in parts.items()),
    ]
    return values, problems, extra


def traced_repeats(args, workload, workdir: Path):
    """Untraced/traced repeat pairs; returns (outcomes, metrics, problems,
    trace path) for the last traced repeat."""
    from layertrace import (
        LayerTracer,
        layer_metrics,
        read_chrome_trace,
        write_chrome_trace,
    )
    from workloads import signature_mismatches

    pairs = []

    def pair():
        plain = workload.run()
        tracer = LayerTracer(workdir / f"spill-{len(pairs)}")
        with tracer:
            start = time.perf_counter()
            traced = workload.run(tracer)
            tracer.complete("repeat", "bench", start, time.perf_counter())
        pairs.append((plain, traced, tracer))
        return plain

    repeat_until(args.seconds, pair)
    problems = []
    for plain, traced, _tracer in pairs:
        problems.extend(signature_mismatches(plain.signature,
                                             traced.signature))
    overhead = statistics.median(traced.scaled_wall / plain.scaled_wall
                                 for plain, traced, _ in pairs)
    tracer = pairs[-1][2]
    tracer.instant("report", "bench", {"obs.trace_overhead": overhead})
    events = tracer.events()
    metrics = layer_metrics(events)
    path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    write_chrome_trace(events, path, {
        "workload": args.workload, "seed": args.seed, "nproc": nproc(),
        "python": platform.python_version()})
    reloaded = layer_metrics(read_chrome_trace(path))
    for name, value in metrics.items():
        if abs(reloaded[name] - value) > 1e-9 * max(1.0, abs(value)):
            problems.append(f"{name}: printed {value} but the Chrome trace "
                            f"sums to {reloaded[name]}")
    outcomes = [outcome for plain, traced, _ in pairs
                for outcome in (plain, traced)]
    return outcomes, metrics, problems, path


def print_table(args, outcomes, values, units, extra_lines):
    failed = sum(o.failed for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repeats {len(outcomes)}  nproc {nproc()}  "
          f"python {platform.python_version()}  trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:38s} {value:16.6f} {units[name]}")
    for line in extra_lines:
        print(f"  {line}")
    print(f"  {'error_rate':38s} {failed / attempted:16.6f} "
          f"({failed} failed of {attempted} ops)")


def run_workload(args) -> int:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    # Never touch the user's compile cache: anything that resolves the
    # default cache lands in this run's scratch directory.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from layertrace import LAYER_METRICS

        digests = workloads.file_digests(ROOT)
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workdir, ROOT, jobs=min(2, nproc()))
        workload.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        extra = []
        if args.trace:
            outcomes, values, problems, path = traced_repeats(
                args, workload, workdir)
            units = dict(LAYER_METRICS)
            extra.append(f"chrome trace: {path}")
        else:
            setups = [setup_probe(args) for _ in range(SETUP_SAMPLES)]
            outcomes = repeat_until(args.seconds, workload.run)
            values, problems, extra = end_to_end(args, outcomes, setups)
            units = dict(END_TO_END)
            for key, value in sorted(outcomes[-1].quality.items()):
                extra.append(f"{key:38s} {value:16.6f}")
        if workloads.file_digests(ROOT) != digests:
            problems.append("a committed reference file changed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()           # only when no other run uses it

    for outcome in outcomes:
        for failure in outcome.failures:
            print(f"FAIL {failure}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print_table(args, outcomes, values, units, extra)
    attempted = sum(o.attempted for o in outcomes)
    # A run-level problem (trace/identity mismatch, a changed reference
    # file) fails the run even when every op passed its own gate.
    failed = min(attempted, sum(o.failed for o in outcomes) + len(problems))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; the last line sums them."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
        lines = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:     # the child died before its result
            result = {"correct": False}
        summary["correct"] &= bool(result.get("correct")) \
            and done.returncode == 0
        summary["attempted"] += result.get("attempted", 0)
        summary["failed"] += result.get("failed", 0)
        for metric, entry in result.get("metrics", {}).items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
