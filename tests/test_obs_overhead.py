"""Tracing must cost nothing when off, and change nothing when on.

Two guarantees, each with its own test:

* **Differential**: the same workload run with a tracer installed and
  with none produces byte-identical interpreter statistics and
  observationally equivalent machine states — instrumentation only
  *reads* the simulation.
* **Overhead**: running with tracing explicitly disabled
  (``tracing(enabled=False)``) executes no tracer hook at all, and with a
  tracer on, hooks fire per phase boundary, never per packet or per
  instruction.  Both are counted, not timed: a wall-clock comparison of
  two ~0.2s runs measures scheduler jitter, while a hook call count is
  the same on every machine.  Zero hook calls when off is what keeps the
  disabled path within the 2% budget; a fixed, packet-independent count
  when on is what keeps an enabled trace cheap.
"""

from collections import Counter

import pytest

from repro.apps.suite import build_app
from repro.eval.metrics import measure_pipeline, measure_sequential
from repro.obs import Tracer, tracing
from repro.obs.tracer import active
from repro.pipeline.transform import pipeline_pps
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential


def _run_workload(app):
    """Compile, partition and simulate one app; return (stats, state)."""
    transform = pipeline_pps(app.module, app.pps_name, 3)
    state, iterations = app.fresh_state()
    run = run_pipeline(transform.stages, state, iterations=iterations)
    return run.stats, state


def test_traced_run_is_bit_identical_to_untraced():
    app = build_app("ipv4", packets=24, seed=7)
    plain_stats, plain_state = _run_workload(app)
    tracer = Tracer()
    with tracing(tracer):
        traced_stats, traced_state = _run_workload(app)

    assert sorted(traced_stats) == sorted(plain_stats)
    for name, stats in plain_stats.items():
        assert traced_stats[name] == stats  # InterpStats dataclass equality
    assert_equivalent(observe(plain_state), observe(traced_state))
    # ...and the traced run actually recorded the compile + runtime story.
    names = {event["name"] for event in tracer.events}
    assert {"pipeline_pps", "balanced_cut", "cut_iteration",
            "run_group"} <= names


def test_sequential_traced_matches_untraced():
    app = build_app("rx", packets=24, seed=7)
    state_a, iterations = app.fresh_state()
    stats_a = run_sequential(app.module.pps(app.pps_name), state_a,
                             iterations=iterations)
    with tracing():
        state_b, _ = app.fresh_state()
        stats_b = run_sequential(app.module.pps(app.pps_name), state_b,
                                 iterations=iterations)
    assert stats_a == stats_b
    assert_equivalent(observe(state_a), observe(state_b))


def _sweep(packets: int) -> None:
    """The guarded hot path: partition and simulate ipv4 at d=2,3."""
    app = build_app("ipv4", packets=packets, seed=7)
    baseline = measure_sequential(app)
    for degree in (2, 3):
        measure_pipeline(app, degree, baseline=baseline)


class _CountingTracer(Tracer):
    """A tracer that counts every hook call by (hook, event name)."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def span(self, name, **kwargs):
        self.calls["span", name] += 1
        return super().span(name, **kwargs)

    def instant(self, name, **kwargs):
        self.calls["instant", name] += 1
        super().instant(name, **kwargs)

    def counter(self, name, values, **kwargs):
        self.calls["counter", name] += 1
        super().counter(name, values, **kwargs)


@pytest.mark.overhead
def test_disabled_tracing_under_two_percent(monkeypatch):
    def hook_called(self, name, *args, **kwargs):
        raise AssertionError(f"tracer hook {name!r} ran with tracing off")

    for hook in ("span", "instant", "counter"):
        monkeypatch.setattr(Tracer, hook, hook_called)
    with tracing(enabled=False) as installed:
        assert installed is None
        assert active() is None
        _sweep(24)  # any hook call on any tracer raises

    monkeypatch.undo()
    calls = {}
    for packets in (24, 48):
        tracer = _CountingTracer()
        with tracing(tracer):
            _sweep(packets)
        calls[packets] = tracer.calls
    # Doubling the traffic doubles the interpreted instructions but not
    # the hook calls: hooks mark phase boundaries only.
    assert calls[24] and calls[24] == calls[48]
