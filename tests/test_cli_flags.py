"""The flag inventory of every ``repro`` subcommand, pinned.

Each action's option strings, dest, default, choices, action class,
converter type and nargs must match ``tests/golden/cli_flags.json``, so
a refactor of the parser cannot rename, drop or re-default a flag
without this test saying so.  Help texts and declaration order are not
pinned.  After an intended flag change, regenerate the golden file with
``PYTHONPATH=src python tests/test_cli_flags.py``.
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_flags.json"


def flag_inventory() -> dict:
    """``{command: [flag record, ...]}`` for every subcommand."""
    parser = build_parser()
    [subparsers] = [action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
    inventory = {}
    for command, subparser in sorted(subparsers.choices.items()):
        records = [{
            "options": list(action.option_strings) or [action.dest],
            "dest": action.dest,
            "default": action.default,
            "choices": list(action.choices) if action.choices else None,
            "action": type(action).__name__,
            "type": getattr(action.type, "__name__", None),
            "nargs": action.nargs,
        } for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)]
        inventory[command] = sorted(records,
                                    key=lambda record: record["options"])
    return inventory


def test_flag_inventory_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(flag_inventory()))
    assert sorted(got) == sorted(want), "subcommands added or removed"
    for command in want:
        assert got[command] == want[command], (
            f"flags of 'repro {command}' drifted from {GOLDEN.name}")


if __name__ == "__main__":  # pragma: no cover
    GOLDEN.write_text(json.dumps(flag_inventory(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
