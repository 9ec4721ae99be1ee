"""Tests for the command-line interface."""

import pytest

from repro.cli import main

from helpers import flaky_supervisor

DEMO = """
pipe in_q;
pipe out_q;

pps demo {
    for (;;) {
        int v = pipe_recv(in_q);
        int w = v * 3;
        if (w > 10) { trace(1, w); }
        pipe_send(out_q, w);
    }
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.ppc"
    path.write_text(DEMO)
    return str(path)


def test_check_ok(demo_file, capsys):
    assert main(["check", demo_file]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "1 pps" in out


def test_check_reports_frontend_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ppc"
    bad.write_text("pps p { for (;;) { undeclared = 1; } }")
    assert main(["check", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["check", "/nonexistent.ppc"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ir_dump(demo_file, capsys):
    assert main(["ir", demo_file, "--pps", "demo"]) == 0
    out = capsys.readouterr().out
    assert "pps_header" in out
    assert "pipe_recv" in out


def test_pipeline_summary(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 stages" in out
    assert "cut 1:" in out and "cut 2:" in out


def test_pipeline_emit_prints_stage_ir(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "2", "--emit"]) == 0
    out = capsys.readouterr().out
    assert "stage_recv" in out
    assert "pipe_in" in out


def test_pipeline_with_ring_and_strategy(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "2", "--ring", "scratch",
                 "--strategy", "unified"]) == 0
    out = capsys.readouterr().out
    assert "scratch rings" in out


def test_run_sequential(demo_file, capsys):
    assert main(["run", demo_file, "--feed", "in_q=1,2,5",
                 "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "pipe out_q: [3, 6, 15]" in out
    assert "trace[1]: [15]" in out


def test_run_pipelined_checks_equivalence(demo_file, capsys):
    assert main(["run", demo_file, "-d", "2", "--feed", "in_q=1,2,5",
                 "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "observationally equivalent" in out
    assert "pipe out_q: [3, 6, 15]" in out


def test_bad_feed_spec(demo_file, capsys):
    assert main(["run", demo_file, "--feed", "garbage"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "garbage" in err


def test_unknown_pps_rejected(demo_file, capsys):
    assert main(["ir", demo_file, "--pps", "nope"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "no pps named 'nope'" in err
    assert "demo" in err  # lists the available PPSes


def test_multi_pps_requires_selection(tmp_path, capsys):
    path = tmp_path / "two.ppc"
    path.write_text("""
        pipe q;
        pps a { for (;;) { pipe_send(q, 1); } }
        pps b { for (;;) { int v = pipe_recv(q); trace(1, v); } }
    """)
    assert main(["pipeline", str(path), "-d", "2"]) == 2
    err = capsys.readouterr().err
    assert "--pps" in err
    assert "a" in err and "b" in err


def test_pipeline_prints_verifier_verdict(demo_file, capsys):
    assert main(["pipeline", demo_file, "-d", "3"]) == 0
    out = capsys.readouterr().out
    assert "verify:" in out
    assert "verified" in out


def test_run_degraded_partition_exits_4(demo_file, capsys, monkeypatch):
    flaky_supervisor(monkeypatch, threshold=2)
    assert main(["run", demo_file, "-d", "4", "--feed", "in_q=1,2,5",
                 "--iterations", "3"]) == 4
    captured = capsys.readouterr()
    assert "pipelined x2" in captured.out          # ran at the degraded D
    assert "pipe out_q: [3, 6, 15]" in captured.out  # output still right
    assert "degraded to 2 stages" in captured.err
    assert "warning:" in captured.err


def test_pipeline_degraded_partition_exits_4(demo_file, capsys, monkeypatch):
    flaky_supervisor(monkeypatch, threshold=2)
    assert main(["pipeline", demo_file, "-d", "4"]) == 4
    captured = capsys.readouterr()
    assert "2 stages" in captured.out
    assert "degraded to 2 stages" in captured.err


def test_run_profile_reports_partition_verdict(demo_file, capsys):
    assert main(["run", demo_file, "-d", "2", "--feed", "in_q=1,2,5",
                 "--iterations", "3", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "partition: verified at degree 2" in out


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--seeds", "4", "--packets", "8"]) == 0
    out = capsys.readouterr().out
    assert "fuzz: 4 programs" in out
    assert "ok" in out


def test_fuzz_self_test(capsys):
    assert main(["fuzz", "--self-test"]) == 0
    out = capsys.readouterr().out
    assert "every seeded defect caught" in out
    assert "drop-live-var" in out


def test_fuzz_bad_degrees_is_usage_error(capsys):
    assert main(["fuzz", "--degrees", "x,y"]) == 2
    assert "error:" in capsys.readouterr().err


def test_keep_going_flags_parse():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["chaos", "--sweep",
                              "--keep-going"]).keep_going is True
    assert parser.parse_args(["chaos", "--sweep"]).keep_going is False
    assert parser.parse_args(["bench", "-j", "2",
                              "--keep-going"]).keep_going is True
    assert parser.parse_args(["bench"]).keep_going is False


def test_bench_writes_report(tmp_path, capsys):
    output = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--packets", "8",
                 "-o", str(output)]) == 0
    out = capsys.readouterr().out
    assert "figure19" in out
    assert str(output) in out

    import json

    report = json.loads(output.read_text())
    assert report["config"]["packets"] == 8
    assert report["config"]["degrees"] == [1, 2, 3, 4]
    assert report["figures"]["figure19"]["simulated_instructions"] > 0


def test_chaos_sweep_accepts_comma_separated_apps(capsys):
    assert main(["chaos", "--sweep", "--apps", "rx,ipv4", "--packets", "6",
                 "--degrees", "1,2", "--plans", "drop-light",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "app rx," in out and "app ipv4," in out
    assert "sweep: 2 apps" in out


def test_list_flags_reject_bad_items_with_exit_2(capsys):
    for argv in (["chaos", "--degrees", "1,x"],
                 ["plan", "--degrees", "two"],
                 ["explore", "--epsilons", "0.1,wide"]):
        assert main(argv) == 2
        assert "error: bad --" in capsys.readouterr().err
