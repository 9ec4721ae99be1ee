"""``repro bench`` has one path: every ``-j`` level runs the same sweep.

:func:`repro.eval.metrics.bench_headline` fans one ``bench`` sweep task
per unique Figure 19/20 app through :func:`repro.eval.sweep.run_sweep`
(inline at ``jobs=1``), so ``keep_going`` and the per-app partitioning
hold at every level.
"""

from __future__ import annotations

from repro.cache import CompileCache
from repro.eval import sweep
from repro.eval.experiments import FIGURE19_APPS, FIGURE20_APPS
from repro.eval.metrics import bench_headline

APPS = set(FIGURE19_APPS) | set(FIGURE20_APPS)


def _series(report: dict) -> dict:
    return {figure: entry["speedup_by_degree"]
            for figure, entry in report["figures"].items()}


def test_every_jobs_level_gives_the_same_bench(tmp_path):
    reports = {}
    for jobs in (1, 2):
        cache = CompileCache(tmp_path / f"cache-j{jobs}")
        reports[jobs] = bench_headline(packets=8, degrees=[1, 2, 3],
                                       jobs=jobs, cache=cache)
    inline, fanned = reports[1], reports[2]
    assert _series(inline) == _series(fanned)
    assert inline["headline_speedup_degree3"] == \
        fanned["headline_speedup_degree3"]
    assert set(inline["headline_speedup_degree3"]) == APPS
    for report in (inline, fanned):
        assert set(report["partition_breakdown"]) == APPS
        # One cache lookup per (app, degree > 1): rx and tx, shared by
        # both figures, are partitioned once.  (ip_v4 and ip_v6 share a
        # PPS, so which of them hits depends on worker timing.)
        counters = report["cache"]
        assert counters["hits"] + counters["misses"] == len(APPS) * 2
        assert set(report["phase_seconds"]) == {
            "sweep", "build", "partition", "compile", "simulate"}


def test_keep_going_records_a_failed_app_at_jobs_1(monkeypatch):
    intact = bench_headline(packets=4, degrees=[1, 2], jobs=1)
    execute_bench = sweep._execute_bench

    def failing_for_qm(task):
        if task.app == "qm":
            raise RuntimeError("synthetic qm failure")
        return execute_bench(task)

    monkeypatch.setattr(sweep, "_execute_bench", failing_for_qm)
    report = bench_headline(packets=4, degrees=[1, 2], jobs=1,
                            keep_going=True)

    [failure] = report["failures"]
    assert failure["app"] == "qm"
    assert "synthetic qm failure" in failure["error"]
    expected = _series(intact)
    del expected["figure19"]["qm"]
    assert _series(report) == expected
    assert "qm" not in report["partition_breakdown"]
    assert "qm" not in report["headline_speedup_degree2"]
