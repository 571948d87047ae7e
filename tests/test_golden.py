"""Golden stdout corpus: the exact ``--compact`` stdout bytes and exit code of
every README CLI example (without ``--budget``), plus ``plan`` at p=5 and
at (3,2,3), the first n = 3 plan,
``construct trace`` at p=5 and at four quadruples whose splitting fields lie
above the log-table bound (F_{3^16}, F_{5^6}) or have m > 2 (m = 6 at p=7,
m = 5 at p=11), ``construct trace`` at (7,2,31) with its 93 reps over
F_{7^15}, seven ``search`` cases (one over F_{3^8}, above the
log-table bound), two ``check`` cases with N1 = 0
and a nonempty exponent range (one exit 0, one exit 1; with the ``search``
case at (5,4,7,0) they pin that an empty isolation matrix counts as
isolated), one ``check`` over F_9 whose residues leave F_3 and whose
splitting field F_{3^12} is no field (ROADMAP defect 1), so the verdict
must come before any splitting field, three ``check`` cases whose
isolation Schur factor is embedded from f's field into a larger splitting
field (F_25, F_27 above the log-table bound, and F_49 with s_lambda = 0,
exit 1), level-3 ``witt breaks`` at p=3
(one forcing an extension to F_{3^9}) and p=5, one level-3 ``witt breaks``
over F_9 with no extension, whose carries run in column form
(``kronecker_columns``) from slot 0, and two ``witt breaks``
cases with poles below the catalog's t^-12: a cascade t^-27 -> t^-1 in one
slot with a constant that forces F_{3^9}, t^-49 at p=7 with an
extension to F_{7^7}, and a level-3 case at p=7 whose carries are packed
on digits wider than a machine word.  The two scripts CI runs,
``scripts/run_d9.py`` and ``scripts/sweep_trace_family.py --steps 1``, are
pinned the same way as tests/golden/run_d9.stdout and
tests/golden/sweep_trace_steps1.stdout.  tests/golden/plan_7_3_3.stdout,
the largest catalog plan (294 profiles), stays out of cases.json, as the
large search golden does, since every case here runs three times; CI
compares it.  So does tests/golden/construct_trace_13_2_49.stdout, the
294 reps of (13,2,49) over F_{13^14}, a run of several seconds that
checks the big-field products, and
tests/golden/witt_breaks_11_level3.stdout, a level-3 ``witt breaks`` at
p=11 whose carries are packed on digits of up to 13 bytes.
tests/golden/moduli.json pins the
canonical modulus of every field in ``test_gf.PINNED_MODULUS_PAIRS``, since
each certificate over F_{p^k} prints it.

tests/golden/cases.json lists each case; tests/golden/<name>.stdout holds its
stdout.  Re-record only when an output change is intended (for example a
schema version bump):

    PYTHONPATH=src python3 tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ddcrit.cli import main
from ddcrit.gf import make_field
from test_gf import PINNED_MODULUS_PAIRS

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"
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


# one golden case per subcommand, for the pretty (indent=2) branch of the
# output, which every case above skips with --compact
PRETTY_CASES = [
    "plan_3_2_2", "check_3_2_5_8", "search_3_2_5_8_isolated",
    "construct_small_5_4", "witt_breaks_3", "reduce_jumps_5_2",
]


@pytest.mark.parametrize("name", PRETTY_CASES)
def test_pretty_stdout(name):
    """Without --compact the stdout is the golden JSON indented by two."""
    case = next(c for c in CASES if c["name"] == name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case["argv"])
    assert code == case["exit_code"]
    golden = json.loads((GOLDEN / f"{name}.stdout").read_bytes())
    assert out.getvalue() == json.dumps(golden, indent=2) + "\n"


# script argv -> golden stdout file; both scripts exit 0
SCRIPTS = {
    "run_d9": ["scripts/run_d9.py"],
    "sweep_trace_steps1": ["scripts/sweep_trace_family.py", "--steps", "1"],
}


def run_script(argv) -> tuple[bytes, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True
    )
    return proc.stdout, proc.returncode


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_stdout(name):
    stdout, code = run_script(SCRIPTS[name])
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


def field_moduli() -> list[dict]:
    return [make_field(p, k).to_json() for p, k in PINNED_MODULUS_PAIRS]


def test_canonical_moduli():
    assert field_moduli() == json.loads((GOLDEN / "moduli.json").read_text())


# argparse rejects these before any subcommand runs
BAD_ARGVS = [
    ["check", "--p", "3"],
    ["no-such-subcommand"],
    ["plan", "--p", "three", "--m", "2", "--n", "2"],
]


def test_one_process_many_calls():
    """main builds the parser at most once per process: every case twice in
    a row, with an argparse error after each, gives its golden bytes and
    code, and every error finds the parser the first one built."""
    from ddcrit import cli

    parser = None
    for round_index in range(2):
        for i, case in enumerate(CASES):
            stdout, code = run_case(case["argv"])
            assert code == case["exit_code"], case["name"]
            assert stdout == (GOLDEN / f"{case['name']}.stdout").read_bytes()
            assert run_case(BAD_ARGVS[(i + round_index) % len(BAD_ARGVS)]) == (b"", 2)
            parser = parser or cli._parser
            assert parser is not None and cli._parser is parser


def record() -> None:
    for case in CASES:
        stdout, case["exit_code"] = run_case(case["argv"])
        (GOLDEN / f"{case['name']}.stdout").write_bytes(stdout)
    for name, argv in SCRIPTS.items():
        (GOLDEN / f"{name}.stdout").write_bytes(run_script(argv)[0])
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n")
    rows = ",\n".join(json.dumps(spec) for spec in field_moduli())
    (GOLDEN / "moduli.json").write_text(f"[\n{rows}\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    record()
