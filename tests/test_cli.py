import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from ddcrit import cli
from ddcrit.cli import main, parse_laurent, parse_poly
from ddcrit.gf import make_field
from reference import plan_payload_reference
from test_golden import BAD_ARGVS, CASES as GOLDEN_CASES

F3 = make_field(3, 1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_laurent_grammar():
    lp = parse_laurent(F3, "2*t^-5+t^-1")
    assert {e: c.coeffs[0] for e, c in lp.terms()} == {-5: 2, -1: 1}
    lp = parse_laurent(F3, "t^-1-1+t")
    assert {e: c.coeffs[0] for e, c in lp.terms()} == {-1: 1, 0: 2, 1: 1}
    lp = parse_laurent(F3, "2")
    assert lp.term_dict() == {0: F3.from_int(2)}
    # blanks may stand between tokens
    assert parse_laurent(F3, " 2 * t ^ -5 + t^-1 - 1 ") == parse_laurent(
        F3, "2*t^-5+t^-1-1"
    )
    with pytest.raises(ValueError):
        parse_laurent(F3, "2*^-1")
    with pytest.raises(ValueError):
        parse_laurent(F3, "")


@pytest.mark.parametrize("entries", ["t^-1 2", "1 2", "t^-5t^-3", "t 2"])
def test_witt_breaks_cli_rejects_a_blank_in_a_number_or_a_missing_sign(
    capsys, entries
):
    """A blank inside a number is no blank between tokens ("t^-1 2" is not
    t^-12), and every monomial after the first needs its sign."""
    code, out, err = run(
        capsys, "--compact", "witt", "breaks", "--p", "3", "--entries", entries
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("bad laurent string")


def test_reduce_jumps_cli(capsys):
    code, out, _ = run(
        capsys, "--compact", "reduce-jumps", "--p", "5", "--m", "2",
        "--jumps", "11,79,433,2165",
    )
    assert code == 0
    assert json.loads(out) == [1, 9, 53, 265]


def test_reduce_jumps_cli_rejects_bad_p_and_m(capsys):
    for p, m in (("0", "2"), ("4", "3"), ("5", "0")):
        code, out, err = run(
            capsys, "reduce-jumps", "--p", p, "--m", m, "--jumps", "11"
        )
        assert code == 2 and out == ""
        assert "odd prime" in json.loads(err)["error"]


def test_reduce_jumps_cli_rejects_p_above_the_miller_rabin_bound(capsys):
    # 2^89 + 1 has the factor 3; the prime 2^89 - 1 is not decided
    for p, message in ((2**89 + 1, "odd prime"), (2**89 - 1, "not decided")):
        start = time.monotonic()
        code, out, err = run(
            capsys, "reduce-jumps", "--p", str(p), "--m", "2", "--jumps", "1"
        )
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == ""
        assert message in json.loads(err)["error"]


def test_reduce_jumps_cli_rejects_m_not_dividing_p_minus_1(capsys):
    code, out, err = run(
        capsys, "--compact", "reduce-jumps", "--p", "5", "--m", "3", "--jumps", "2"
    )
    assert code == 2 and out == ""
    assert "divide p-1" in json.loads(err)["error"]


@pytest.mark.parametrize("argv, message", [
    (["reduce-jumps", "--p", "5", "--m", "2", "--jumps", "0"],
     "jumps must be positive"),
    (["reduce-jumps", "--p", "5", "--m", "2", "--jumps", "2"],
     "all input jumps must be -1 mod m"),
    (["search", "--p", "3", "--m", "2", "--u", "1", "--n1", "2",
      "--field-degree", "9"],
     "field degree must be in [1, 8]"),
])
def test_invalid_jumps_and_search_field_degree_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "--compact", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and json.loads(err) == {"error": message}


def test_closed_stdout_exits_3_without_traceback():
    """A reader that went away before the answer was written: exit 3, the
    code of its own, and nothing on stderr."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ddcrit.cli", "--compact", "plan",
             "--p", "5", "--m", "2", "--n", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b""


def test_check_cli_pass(capsys):
    code, out, _ = run(
        capsys, "check", "--p", "3", "--m", "2", "--u", "5", "--n1", "8",
        "--f", "1,0,0,0,0,0,1,0,1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["flags"] == {"ddc": True, "power_sum": True, "isolated": True}


def test_check_cli_fail_exit_code(capsys):
    code, out, _ = run(
        capsys, "check", "--p", "3", "--m", "2", "--u", "5", "--n1", "8",
        "--f", "1,0,0,0,0,0,0,0,1",
    )
    assert code == 1
    assert json.loads(out)["flags"]["ddc"] is False


def test_invalid_input_exit_code(capsys):
    code, _, err = run(
        capsys, "check", "--p", "4", "--m", "2", "--u", "1", "--n1", "2",
        "--f", "2,0,1",
    )
    assert code == 2
    assert "error" in err


def test_non_square_n1_exits_2(capsys):
    """N1 outside {(p-1)u~, (p-1)u~ - m} gives a non-square power-sum
    system: an error JSON and exit 2, not a traceback."""
    code, out, err = run(
        capsys, "check", "--p", "3", "--m", "2", "--u", "5", "--n1", "2",
        "--f", "1,0,2",
    )
    assert code == 2
    assert out == ""
    assert "not square" in json.loads(err)["error"]


def test_parse_poly_rejects_out_of_range_indices(capsys):
    F9 = make_field(3, 2)
    assert parse_poly(F9, "8,0,1").coeffs[0] == F9.element_by_index(8)
    for text in ("-1,0,1", "9,0,1"):
        with pytest.raises(ValueError):
            parse_poly(F9, text)
    for f in ("-1,0,1", "1,0,3"):
        code, out, err = run(
            capsys, "check", "--p", "3", "--m", "2", "--u", "1", "--n1", "2",
            f"--f={f}",
        )
        assert code == 2 and out == ""
        assert "outside" in json.loads(err)["error"]


def test_search_cli_has_no_workers_option(capsys):
    code, out, _ = run(
        capsys, "search", "--p", "3", "--m", "2", "--u", "1", "--n1", "2",
        "--workers", "2",
    )
    assert code == 2 and out == ""


def test_search_cli(capsys):
    code, out, _ = run(
        capsys, "--compact", "search", "--p", "3", "--m", "2", "--u", "1",
        "--n1", "2", "--isolated",
    )
    assert code == 0
    assert json.loads(out)["f"] == [[2], [0], [1]]


def test_search_cli_result_that_cannot_be_rendered_exits_2(capsys):
    """An aborted search at top = 10000 tried a rank of over 4300 digits,
    which json.dumps refuses to write: that is an error JSON and exit 2,
    never a traceback and exit 1 ("criterion failed")."""
    code, out, err = run(
        capsys, "--compact", "search", "--p", "3", "--m", "2", "--u", "1",
        "--n1", "20000", "--budget", "0",
    )
    assert code == 2 and out == ""
    assert "digits" in json.loads(err)["error"]


def test_search_cli_rejects_a_nan_or_negative_budget(capsys):
    # monotonic() > nan is never true, so NaN would mean no budget at all
    for budget in ("nan", "-1", "-inf"):
        code, out, err = run(
            capsys, "search", "--p", "5", "--m", "2", "--u", "7", "--n1", "26",
            f"--budget={budget}",
        )
        assert code == 2 and out == ""
        assert "budget" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", BAD_ARGVS + [
    ["search", "--p", "5", "--m", "2", "--u", "7", "--n1", "26", "--budget", "-inf"],
    ["plan", "--p", "3", "--m", "2", "--n", "2", "--no-such-flag"],
    # each construct family takes its own options, after the family
    ["construct", "d9", "--p", "5"],
    ["construct", "small", "--p", "5", "--n1", "4", "--m", "2"],
    ["construct", "--p", "5", "--n1", "4", "small"],
])
def test_argparse_errors_print_an_error_json(capsys, argv):
    """A usage error is invalid input like any other: exit 2, nothing on
    stdout, and one error JSON on stderr instead of argparse's usage text."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("ddcrit")


def test_help_prints_usage_on_stdout(capsys):
    for command in (
        [], ["check"], ["search"], ["plan"], ["construct"], ["construct", "small"],
        ["construct", "trace"], ["construct", "d9"], ["witt"], ["witt", "breaks"],
        ["reduce-jumps"],
    ):
        code, out, err = run(capsys, *command, "--help")
        assert code == 0 and err == ""
        assert out.startswith(" ".join(["usage: ddcrit", *command]))
        if command == ["construct", "small"]:
            assert "--p P --n1 N1" in out


def test_search_cli_not_found(capsys):
    code, out, _ = run(
        capsys, "search", "--p", "3", "--m", "2", "--u", "1", "--n1", "4",
    )
    assert code == 1
    assert json.loads(out)["found"] is False


def test_plan_cli(capsys):
    code, out, _ = run(capsys, "plan", "--p", "3", "--m", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["quadruples"]) == 4
    assert data["profiles"] == [[1, 3], [1, 5], [1, 7], [5, 15], [5, 17], [5, 19]]
    assert len(data["radii"]) == 6


def test_plan_builds_each_distinct_step_once(capsys, monkeypatch):
    """A step (u_(i-1), u_i) recurs in every profile that extends it; plan
    computes its quadruple and radii once and numbers it in each profile."""
    import ddcrit.cli

    calls = []
    real = ddcrit.cli.step_radii
    monkeypatch.setattr(
        ddcrit.cli, "step_radii", lambda *a: calls.append(a[2:]) or real(*a)
    )
    code, out, _ = run(capsys, "plan", "--p", "3", "--m", "2", "--n", "3")
    assert code == 0
    radii = json.loads(out)["radii"]
    steps = {
        tuple(r["profile"][r["step"] - 2 : r["step"]]) for r in radii
    }
    assert sorted(calls) == sorted(steps) and len(calls) < len(radii)
    assert {r["step"] for r in radii} == {2, 3}


def test_plan_builds_no_fraction(capsys, monkeypatch):
    """plan keeps every radius as an int pair from step to stdout: with
    ``fractions.Fraction`` replaced by a function that raises, the largest
    catalog plan still prints its golden bytes."""
    import fractions

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    code, out, _ = run(capsys, "--compact", "plan", "--p", "7", "--m", "3", "--n", "3")
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "plan_7_3_3.stdout"
    assert out.encode() == golden.read_bytes()


def _reference_stdout(p, m, n, compact):
    payload = plan_payload_reference(p, m, n)
    if compact:
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("group", [(3, 2, 1), (5, 2, 1), (3, 2, 2), (3, 2, 3),
                                   (5, 4, 3), (7, 3, 3), (3, 2, 5)])
def test_plan_streams_the_reference_payload(capsys, group, compact):
    """plan writes its arrays in batches of rows as it renders them; its
    stdout is json.dumps of the whole payload built first, in both modes.
    At n = 1 the quadruples and radii are empty arrays; (3,2,5) has radii
    rows of four steps, with profiles of five breaks."""
    p, m, n = map(str, group)
    argv = ["--compact"] * compact + ["plan", "--p", p, "--m", m, "--n", n]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == _reference_stdout(*group, compact)


def _row_text(row, compact):
    """row's text as a row of an array in a dict: compact, or indented two
    levels deeper than json.dumps lays it out alone."""
    if compact:
        return json.dumps(row, separators=(",", ":"))
    return json.dumps(row, indent=2).replace("\n", "\n    ")


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("n", range(1, 7))
def test_plan_templates_render_the_rows_json_dumps_does(n, compact):
    """template % ints is the text json.dumps gives the row at the depth of
    plan's rows, for profiles of 1 to 6 breaks and ints of 1 to 20 digits,
    in both modes."""
    quadruple, profile, radii = cli._plan_templates(compact, n)
    for digits in range(1, 21):
        # n + 14 ints of this many digits, distinct from two digits on
        ints = [k % 10 if digits == 1 else 10**digits - 1 - k for k in range(n + 14)]
        breaks, step, quad, r = ints[:n], ints[n], ints[n + 1:n + 5], ints[n + 5:]
        quad_json = dict(zip(("p", "m", "u_tilde", "n1"), quad))
        pair = lambda j: {"num": r[j], "den": r[j + 1]}  # noqa: E731
        row = {"profile": breaks, "step": step, "quadruple": quad_json,
               "radii": {"r_crit": pair(0), "r_hub": pair(2), "r_n": pair(4),
                         "n2": r[6], "delta_hub": pair(7)}}
        assert quadruple % tuple(quad) == _row_text(quad_json, compact)
        assert profile % tuple(breaks) == _row_text(breaks, compact)
        assert radii % tuple(ints) == _row_text(row, compact)


# (3,2,3) has 22 quadruples, 18 profiles and 36 radii rows; a group's radii
# count (p-1) p^(n-1) (n-1) is even, so no group has one row more than a
# multiple of the default 64, and the batch size is set instead
@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("batch", [1, 5, 11, 18, 35, 36, 37])
def test_plan_batches_join_at_any_batch_size(capsys, monkeypatch, batch, compact):
    """Every array is written in whole batches and a last short one: row
    counts that are exact multiples of the batch size (36 radii rows of 1,
    18 and 36; 22 quadruples of 11; 18 profiles of 18), one more than a
    multiple (36 of 5 and 35) and less than one batch (36 of 37) all give
    the same bytes."""
    monkeypatch.setattr(cli, "BATCH", batch)
    argv = ["--compact"] * compact + ["plan", "--p", "3", "--m", "2", "--n", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == _reference_stdout(3, 2, 3, compact)


class _Sink:
    """A stdout that counts what it is given and keeps none of it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)

    def flush(self):
        pass


def test_plan_peak_memory_stays_below_its_output(monkeypatch):
    """plan holds one batch of rendered rows and the ints of each distinct
    step, not the payload and the encoder's tokens: written to a sink that
    keeps nothing, the traced peak of plan (3,2,7) stays under the 2.0 MB
    it prints (about half of it), where one json.dumps of the whole payload
    peaked at 4.7 times and batches rendered by the encoder at 1.6 times."""
    import tracemalloc

    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["--compact", "plan", "--p", "3", "--m", "2", "--n", "7"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.length == 2_100_331
    assert peak < sink.length, f"peak {peak} for {sink.length} bytes"


def test_reader_that_closes_mid_stream_gets_exit_3(tmp_path):
    """A reader that goes away after the first 100 bytes of a 2.0 MB plan:
    exit 3 and nothing on stderr, not a traceback."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(tmp_path / "err", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ddcrit.cli", "--compact", "plan",
             "--p", "3", "--m", "2", "--n", "7"],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err.seek(0)
        assert head.startswith(b'{"quadruples":[{')
        assert (code, err.read()) == (3, b"")


def test_plan_error_after_the_first_write_exits_2(capsys, monkeypatch):
    """A row that raises after plan has begun to write: exit 2 and one
    error JSON on stderr, and stdout holds the part written before it."""
    from ddcrit.errors import InvalidQuadruple

    calls = []
    real = cli.step_radii

    def fails_on_the_50th(*args):
        calls.append(args)
        if len(calls) == 50:
            raise InvalidQuadruple("step 50 refused")
        return real(*args)

    monkeypatch.setattr(cli, "step_radii", fails_on_the_50th)
    code, out, err = run(capsys, "--compact", "plan", "--p", "3", "--m", "2", "--n", "7")
    assert code == 2 and len(calls) == 50
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {"error": "step 50 refused"}
    assert out.startswith('{"quadruples":[{') and '"radii":[{' in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize("argv", [
    ("--p", "4", "--m", "3", "--n", "3"), ("--p", "7", "--m", "4", "--n", "3"),
    ("--p", "3", "--m", "2", "--n", "0"), ("--p", "1009", "--m", "2", "--n", "2"),
])
def test_plan_cli_rejects_an_invalid_group_before_any_write(capsys, argv):
    """An invalid group is refused before the first piece is written, in
    both modes: exit 2, nothing on stdout."""
    for compact in ([], ["--compact"]):
        code, out, err = run(capsys, *compact, "plan", *argv)
        assert code == 2 and out == ""
        assert "error" in json.loads(err)


@pytest.mark.parametrize("p, m, message", [
    ("4", "3", "p = 4"), ("9", "2", "p = 9"), ("3", "5", "m = 5"), ("2", "1", "p = 2"),
])
def test_plan_cli_rejects_an_invalid_group_at_n_1(capsys, p, m, message):
    """n = 1 lists no quadruple, so no Quadruple checks p and m; the planner
    checks the group itself, as it does for every n."""
    code, out, err = run(capsys, "plan", "--p", p, "--m", m, "--n", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(message)


@pytest.mark.parametrize("p, n", [("1009", "2"), ("3", "1000000000")])
def test_plan_cli_refuses_a_group_with_too_many_profiles(p, n):
    """(p-1) p^(n-1) jump profiles above the cap exit 2 with an error JSON
    before any enumeration, in a fresh process well inside its timeout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ddcrit.cli", "plan", "--p", p, "--m", "2", "--n", n],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"].endswith("more than 65536 jump profiles")


def test_construct_cli(capsys):
    code, out, _ = run(capsys, "construct", "d9")
    assert code == 0
    assert len(json.loads(out)) == 4

    code, out, _ = run(capsys, "construct", "small", "--p", "5", "--n1", "4")
    assert code == 0
    assert json.loads(out)["flags"]["isolated"] is True

    code, out, _ = run(capsys, "construct", "trace", "--p", "3", "--m", "2", "--u", "5")
    assert code == 0
    data = json.loads(out)
    assert data["flags"]["power_sum"] is True
    assert data["flags"]["isolated"] is False


@pytest.mark.parametrize("argv", [
    ("construct", "small", "--p", "5", "--n1", "4"),
    ("construct", "trace", "--p", "5", "--m", "2", "--u", "1"),
])
def test_construct_cli_wrong_family_data_exits_2(capsys, monkeypatch, argv):
    """A family that built wrong residue data (here every residue doubled)
    is caught by the certificate: exit 2 with an error JSON, no traceback."""
    from ddcrit import construct
    from ddcrit.criterion import ResidueData

    def doubled(q, degree, reps, residues):
        return ResidueData(q, degree, reps, tuple(2 * a % q.p for a in residues))

    monkeypatch.setattr(construct, "ResidueData", doubled)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("reconstructed f ")


def test_construct_d9_exits_1_unless_every_certificate_is_all_ok(
    capsys, monkeypatch
):
    from ddcrit import construct

    monkeypatch.setattr(
        construct, "d9_residue_data", lambda: [construct.construct_trace(3, 2, 5)]
    )
    code, out, _ = run(capsys, "construct", "d9")
    assert code == 1
    (cert,) = json.loads(out)
    assert cert["flags"]["isolated"] is False


CONSTRUCT_CASES = [c for c in GOLDEN_CASES if c["argv"][0] == "construct"]


@pytest.mark.parametrize(
    "case", CONSTRUCT_CASES, ids=[c["name"] for c in CONSTRUCT_CASES]
)
def test_check_prints_the_certificate_construct_prints(capsys, case):
    """``check`` on a certificate's own quadruple, field degree and f prints
    the certificate ``construct`` printed: construct's known reps and check's
    searched ones agree through the CLI alone."""
    code, out, _ = run(capsys, "--compact", *case["argv"])
    assert code == case["exit_code"]
    printed = json.loads(out)
    certs = printed if isinstance(printed, list) else [printed]
    for cert in certs:
        q, field = cert["quadruple"], cert["field"]
        spec = make_field(field["p"], field["k"])
        f = ",".join(str(spec.index_of(spec.element(c))) for c in cert["f"])
        _, out, _ = run(
            capsys, "--compact", "check", "--p", str(q["p"]), "--m", str(q["m"]),
            "--u", str(q["u_tilde"]), "--n1", str(q["n1"]),
            "--field-degree", str(field["k"]), "--f", f,
        )
        assert out == json.dumps(cert, separators=(",", ":")) + "\n"


def test_witt_breaks_cli(capsys):
    code, out, _ = run(
        capsys, "witt", "breaks", "--p", "3", "--entries", "t^-9;2*t^-5+t^-1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["breaks"] == [1, 5]
    assert data["extension_degree"] == 1


@pytest.mark.parametrize("entries", ["t^-1;t^-1;t^-1;t^-1", "t^-3;t^-1;t^-1;t^-1"])
def test_witt_breaks_cli_rejects_level_4(capsys, entries):
    """The level cap holds whether or not the standard form runs a Witt
    addition: the first vector is already standard, the second is not."""
    code, out, err = run(
        capsys, "--compact", "witt", "breaks", "--p", "3", "--entries", entries
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "truncation level 4 exceeds the cap 3"


@pytest.mark.parametrize("entries", ["t^-999999999", "t^-999999999+1", "t^999999999"])
def test_witt_breaks_refuses_huge_exponents_at_once(entries):
    """A dense span of 10^9 coefficients used to get the process killed
    from outside with no error JSON; now the exponent is refused before
    any Laurent polynomial is built."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ddcrit.cli", "--compact", "witt", "breaks",
         "--p", "3", "--entries", entries],
        capture_output=True, env=env, timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert "exceeds the cap" in json.loads(proc.stderr)["error"]


def test_witt_breaks_exponent_cap_scales_by_level(capsys, monkeypatch):
    """Entry j of n may reach WITT_EXPONENT_CAP / p^(n-1-j) and no further;
    a refused input builds no Laurent polynomial."""
    cap = cli.WITT_EXPONENT_CAP
    for entries in (f"t^-{cap}", f"t^-{cap // 3};t^-{cap}", f"t^-{cap // 9};1;1"):
        _, _, err = run(capsys, "--compact", "witt", "breaks", "--p", "3",
                        "--entries", entries)
        assert "exceeds the cap" not in err
    monkeypatch.setattr(cli, "parse_laurent", None)
    for entries in (f"t^{cap + 1}", f"t^-{cap // 3 + 1};1", f"t^-{cap // 9 + 1};1;1",
                    f"1;t^-{cap + 1}", f"t^-{cap // 9 + 1};1;1;1"):
        code, out, err = run(capsys, "--compact", "witt", "breaks", "--p", "3",
                             "--entries", entries)
        assert code == 2 and out == ""
        assert f"exceeds the cap {cap}" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["check", "--p", "3", "--m", "2", "--u", "1", "--n1", "2", "--f", "1,0,1"],
    ["witt", "breaks", "--p", "3", "--entries", "t^-5"],
])
def test_field_degree_above_the_cap_exits_2_before_any_field_build(
    capsys, monkeypatch, argv
):
    """``check`` and ``witt breaks`` refuse --field-degree 17, one above
    ``construct``'s degree cap, with exit 2, nothing on stdout and one
    error JSON line, and build no field; the cap itself is accepted."""
    from ddcrit.construct import DEFAULT_DEGREE_CAP

    assert DEFAULT_DEGREE_CAP == 16
    monkeypatch.setattr(cli, "make_field", lambda p, k: pytest.fail(f"F_{p}^{k} built"))
    code, out, err = run(capsys, "--compact", *argv, "--field-degree", "17")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "--field-degree 17 exceeds the cap 16"
    monkeypatch.undo()
    code, out, err = run(capsys, "--compact", *argv, "--field-degree", "16")
    assert code in (0, 1) and out and err == ""


CONSTRUCT_OPTIONS = {
    "small": {"--p": "5", "--n1": "4"},
    "trace": {"--p": "3", "--m": "2", "--u": "5"},
}


@pytest.mark.parametrize("family, missing", [
    (family, option)
    for family, options in CONSTRUCT_OPTIONS.items()
    for option in options
])
def test_construct_cli_names_a_missing_family_option(capsys, family, missing):
    argv = [
        word
        for option, value in CONSTRUCT_OPTIONS[family].items()
        if option != missing
        for word in (option, value)
    ]
    code, out, err = run(capsys, "construct", family, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith(f"ddcrit construct {family}: ")
    assert error.endswith(f"required: {missing}")


def test_witt_breaks_over_a_reducible_modulus_exits_2():
    """ROADMAP defect 1: t^-5 + 1 over F_{3^4} needs F_{3^12}, whose
    canonical modulus is reducible.  The splitting must stop, well within
    the timeout, with exit 2 and an error JSON naming that field."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ddcrit.cli", "--compact", "witt", "breaks",
         "--p", "3", "--field-degree", "4", "--entries", "t^-5+1"],
        capture_output=True, env=env, timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert "F_{3^12}" in json.loads(proc.stderr)["error"]


def test_byte_stable_output(capsys):
    args = ("--compact", "plan", "--p", "3", "--m", "2", "--n", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# -- fast parse ----------------------------------------------------------------

ROOT = pathlib.Path(__file__).parent.parent
CATALOG_ARGVS = [
    job["argv"]
    for spec in json.loads((ROOT / "perfbench" / "catalog.json").read_text())[
        "workloads"].values()
    for jobs in [*spec["classes"].values(), spec.get("known_defect_probes", [])]
    for job in jobs
]
# the declared options no golden or catalog argv gives
COVERAGE_ARGVS = [
    ["search", "--p", "3", "--m", "2", "--u", "1", "--n1", "2", "--budget", "5"],
    ["witt", "breaks", "--p", "3", "--field-degree", "2", "--entries", "t^-5"],
]
SPELLED_OUT = [case["argv"] for case in GOLDEN_CASES] + COVERAGE_ARGVS
WELL_FORMED = SPELLED_OUT + [["--compact", *argv] for argv in SPELLED_OUT] + CATALOG_ARGVS


def _options(argv):
    """The (index, option) pairs of argv's `--` words after the subcommand."""
    start = next(i for i, word in enumerate(argv) if not word.startswith("-"))
    return [(i, w) for i, w in enumerate(argv) if i > start and w.startswith("--")]


def _takes_value(argv, i):
    return i + 1 < len(argv) and not argv[i + 1].startswith("--")


def _variants(argv):
    """(kind, argv) for the grid of argvs around a well-formed one."""
    for i, option in _options(argv):
        if len(option) > 3:
            yield "abbreviated", [*argv[:i], option[:-1], *argv[i + 1:]]
        if _takes_value(argv, i):
            value = argv[i + 1]
            yield "equals", [*argv[:i], f"{option}={value}", *argv[i + 2:]]
            for negative in ("-1", "-inf"):
                yield "negative", [*argv[:i + 1], negative, *argv[i + 2:]]
            yield "duplicated", [*argv, option, value]
            yield "missing", [*argv[:i], *argv[i + 2:]]
            yield "dashes", [*argv[:i + 1], "--", *argv[i + 1:]]
            yield "no value", [*argv, option]
            yield "empty", [*argv[:i + 1], "", *argv[i + 2:]]
            for padded in (f" {value}", f"{value} "):
                yield "padded", [*argv[:i + 1], padded, *argv[i + 2:]]
        else:
            yield "duplicated", [*argv, option]
            yield "missing", [*argv[:i], *argv[i + 1:]]
            yield "flag value", [*argv[:i + 1], "1", *argv[i + 1:]]
    words = [w for w in argv if w != "--compact"]
    yield "unknown", [*argv, "--no-such-option", "1"]
    yield "unknown", [*argv, "--no-such-flag"]
    yield "compact after", [*words[:1], "--compact", *words[1:]]
    yield "compact after", [*words, "--compact"]
    yield "compact twice", ["--compact", "--compact", *words]
    yield "flag value", ["--compact", "1", *words]
    yield "stray", [*argv, "extra"]
    yield "stray", [*argv[:1], "extra", *argv[1:]]
    yield "dashes", [*argv, "--"]
    yield "dashes", ["--", *argv]
    yield "help", [*argv, "-h"]
    yield "help", ["-h", *argv]


# the kinds of argv the fast parse leaves to argparse, whatever argparse does
DECLINED_KINDS = {
    "abbreviated", "equals", "negative", "unknown", "compact after",
    "compact twice", "stray", "dashes", "help",
}


def _argparse_vars(parser, argv):
    """vars() of parse_args, or None if it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_fast_parse_parses_every_golden_and_catalog_argv_as_argparse_does():
    parser = cli.build_parser()
    for argv in WELL_FORMED:
        args = cli._fast_parse(argv)
        assert args is not None, argv
        assert vars(args) == _argparse_vars(parser, argv), argv


def test_fast_parse_declines_what_it_does_not_parse_as_argparse_does():
    """Around every spelled-out argv: the fast parse declines every argv
    argparse rejects and every kind in DECLINED_KINDS, and parses the
    others (a duplicated option, last value first, a missing optional one,
    an empty or padded value) as argparse does."""
    parser = cli.build_parser()
    argvs = [(kind, variant)
             for argv in SPELLED_OUT
             for kind, variant in _variants(["--compact", *argv])]
    argvs += [("bad", argv) for argv in BAD_ARGVS]
    argvs += [("help", [*command, "--help"])
              for command in ([], ["construct"], ["witt", "breaks"])]
    argvs += [("bad", argv) for argv in ([], ["--compact"], ["construct"], [""])]
    assert {kind for kind, _ in argvs} >= {
        "no value", "empty", "padded", "flag value", "compact twice"}
    for kind, argv in argvs:
        args = cli._fast_parse(argv)
        expected = _argparse_vars(parser, argv)
        if kind in DECLINED_KINDS or expected is None:
            assert args is None, argv
        else:
            assert args is not None and vars(args) == expected, argv


def test_every_declared_option_occurs_in_the_equivalence_corpus():
    declared = {(path, option)
                for path, _, _, options in cli.COMMANDS for option, *_ in options}
    given = set()
    for argv in WELL_FORMED:
        words = argv[1:] if argv[0] == "--compact" else argv
        end = next((i for i, w in enumerate(words) if w.startswith("-")), len(words))
        given |= {(tuple(words[:end]), w) for w in words[end:] if w.startswith("--")}
    assert declared - given == set()


def test_main_reads_sys_argv_through_the_fast_parse_and_argparse(capsys, monkeypatch):
    golden = (ROOT / "tests" / "golden" / "construct_small_5_4.stdout").read_text()
    for argv in (["--compact", "construct", "small", "--p", "5", "--n1", "4"],
                 ["--compact", "construct", "small", "--p=5", "--n", "4"]):
        monkeypatch.setattr(sys, "argv", ["ddcrit", *argv])
        assert main() == 0
        assert capsys.readouterr().out == golden


def _fresh_python(code, stdin=""):
    """stdout of a fresh interpreter that runs code with src on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_import_builds_no_parser():
    """The parser is built when the fast parse first declines an argv, so
    importing the CLI costs nothing more."""
    assert _fresh_python("import ddcrit.cli as c; print(c._parser)") == "None\n"


def test_only_a_declined_argv_loads_argparse():
    """argparse is imported by ``build_parser`` alone: in a fresh
    interpreter neither ``import ddcrit.cli`` nor a spelled-out argv loads
    it, and the first argv the fast parse declines does."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        loaded = ["argparse" in sys.modules]
        from ddcrit import cli
        loaded.append("argparse" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["--compact", "construct", "small", "--p", "5", "--n1", "4"],
                         ["--compact", "construct", "small", "--p=5", "--n1", "4"]):
                assert cli.main(argv) == 0
                loaded.append("argparse" in sys.modules)
        print(*loaded)
    """)
    assert _fresh_python(code) == "False False False True\n"


def test_a_spelled_out_argv_never_builds_the_parser():
    """In a fresh interpreter, main on every golden argv leaves no parser;
    the first argv the fast parse declines builds it and a second one
    reuses it."""
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from ddcrit import cli
        argvs, declined = json.load(sys.stdin)
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                cli.main(argv)
            built = [cli._parser is None]
            for argv in declined:
                assert cli.main(argv) == 0
                built.append(cli._parser)
        print(built[0], built[1] is not None, built[2] is built[1])
    """)
    argvs = [case["argv"] for case in GOLDEN_CASES]
    argvs += [["--compact", *argv] for argv in argvs]
    declined = [["construct", "small", "--p=5", "--n", "4"],
                ["construct", "small", "--p", "5", "--n", "4"]]
    assert _fresh_python(code, json.dumps([argvs, declined])) == "True True True\n"
