"""Golden stdout corpus: the exact ``--compact`` stdout bytes and exit code of
every README CLI example (without ``--budget``), plus ``construct trace`` and
``plan`` at p=5, three ``search`` cases, and level-3 ``witt breaks`` at p=3
(one forcing an extension to F_{3^9}) and p=5.

tests/golden/cases.json lists each case; tests/golden/<name>.stdout holds its
stdout.  Re-record only when an output change is intended (for example a
schema version bump):

    PYTHONPATH=src python3 tests/test_golden.py --record
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from ddcrit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(argv) -> tuple[bytes, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--compact", *argv])
    return out.getvalue().encode(), code


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_stdout(case):
    stdout, code = run_case(case["argv"])
    assert code == case["exit_code"]
    assert stdout == (GOLDEN / f"{case['name']}.stdout").read_bytes()


# argparse rejects these before any subcommand runs
BAD_ARGVS = [
    ["check", "--p", "3"],
    ["no-such-subcommand"],
    ["plan", "--p", "three", "--m", "2", "--n", "2"],
]


def test_one_process_many_calls():
    """main keeps one parser per process: every case twice in a row,
    with an argparse error after each, gives its golden bytes and code."""
    from ddcrit import cli

    for round_index in range(2):
        for i, case in enumerate(CASES):
            stdout, code = run_case(case["argv"])
            assert code == case["exit_code"], case["name"]
            assert stdout == (GOLDEN / f"{case['name']}.stdout").read_bytes()
            parser = cli._parser
            assert run_case(BAD_ARGVS[(i + round_index) % len(BAD_ARGVS)]) == (b"", 2)
            assert cli._parser is parser


def record() -> None:
    for case in CASES:
        stdout, case["exit_code"] = run_case(case["argv"])
        (GOLDEN / f"{case['name']}.stdout").write_bytes(stdout)
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    record()
