"""The progen fuzz harness (src/repro/eval/fuzz.py).

Three contracts:

* the fuzz loop itself is deterministic and clean on generated
  programs (frontend → partition → verify → differential execution);
* the shrinker removes everything but the failure-relevant region while
  preserving the program scaffold and brace balance;
* the mutation self-test seeds one defect per class into a clean
  partition and the verifier catches every one.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.eval.fuzz import (
    CheckFailure,
    check_program,
    run_fuzz,
    self_test,
    shrink_source,
)

SIMPLE = """\
pipe in_q;
pipe out_q;
readonly memory tab0[16];

pps fuzzed {
    for (;;) {
        int v = pipe_recv(in_q);
        int a = v * 3;
        int b = mem_read(tab0, v & 15);
        trace(1, a);
        if (a > b) { trace(2, a - b); }
        pipe_send(out_q, a + b);
    }
}
"""


def test_fuzz_smoke_is_clean_and_deterministic():
    first = run_fuzz(6, packets=12)
    second = run_fuzz(6, packets=12)
    assert first.ok, first.render()
    assert first.cases == 6
    assert first.as_dict() == second.as_dict()
    assert json.loads(json.dumps(first.as_dict()))["ok"] is True


def test_check_program_passes_a_known_good_program():
    check_program(SIMPLE, 3, packets=8)


def test_check_failure_carries_phase_and_signature():
    with pytest.raises(CheckFailure) as excinfo:
        check_program("pps broken { for (;;) { undeclared = 1; } }", 2)
    failure = excinfo.value
    assert failure.phase == "frontend"
    assert failure.signature[0] == "frontend"


def test_shrinker_drops_irrelevant_lines_keeps_scaffold():
    # Synthetic predicate: the "failure" is the presence of trace(1, …).
    def still_fails(text: str) -> bool:
        return "trace(1" in text and "pps fuzzed" in text

    shrunk, tests = shrink_source(SIMPLE, still_fails)
    assert tests > 0
    assert "trace(1" in shrunk                  # failure region kept
    assert "pps fuzzed" in shrunk               # scaffold kept
    assert "pipe_recv(in_q)" in shrunk
    assert "pipe_send(out_q" in shrunk
    assert "trace(2" not in shrunk              # irrelevant region dropped
    assert "mem_read" not in shrunk
    assert shrunk.count("{") == shrunk.count("}")  # still brace-balanced
    # The shrunk program still compiles as far as the scaffold goes.
    assert len(shrunk.splitlines()) < len(SIMPLE.splitlines())


def test_shrinker_respects_the_test_budget():
    calls = []

    def still_fails(text: str) -> bool:
        calls.append(text)
        return True

    _, tests = shrink_source(SIMPLE, still_fails, max_tests=3)
    assert tests == len(calls) == 3


def test_self_test_catches_every_seeded_defect():
    outcome = self_test()
    assert outcome["missed"] == []
    assert set(outcome["caught"]) == {
        "drop-live-var", "flip-cut-edge", "unbalance-stage",
        "break-control-object",
    }
    assert "liveness" in outcome["caught"]["drop-live-var"]
    assert "balance" in outcome["caught"]["unbalance-stage"]
    assert "reconstruction" in outcome["caught"]["break-control-object"]


def test_parallel_fuzz_report_is_identical_to_serial():
    from repro.eval.fuzz import run_fuzz

    serial = run_fuzz(seeds=4, packets=8, jobs=1)
    parallel = run_fuzz(seeds=4, packets=8, jobs=2)
    assert serial.as_dict() == parallel.as_dict()
    assert parallel.cases == 4


def _crashing_case(*args, **kwargs):
    os._exit(13)  # hard death: no exception, no cleanup


def test_fuzz_worker_crash_is_a_sweep_error_with_its_seed(monkeypatch,
                                                          capsys):
    import repro.eval.fuzz as fuzz_module
    from repro.cli import main
    from repro.eval.sweep import SweepError

    monkeypatch.setattr(fuzz_module, "_fuzz_case", _crashing_case)
    with pytest.raises(SweepError) as excinfo:
        run_fuzz(seeds=2, start_seed=5, degrees=(3,), packets=8, jobs=2)
    seed = excinfo.value.task.seed
    assert seed in (5, 6)
    assert (f"repro fuzz --seeds 1 --start-seed {seed} --degrees 3"
            in str(excinfo.value))

    assert main(["fuzz", "--seeds", "2", "--packets", "8", "-j", "2"]) == 1
    assert "repro fuzz --seeds 1 --start-seed" in capsys.readouterr().err
