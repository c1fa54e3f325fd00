"""CLI surface: formats, exit codes, round trips, route agreement."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmloci.cli import build_parser, run
from csmloci.emit import class_json_dict, parse_class_json


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_class_interp_chern_example(capsys):
    code, out, _ = capture(capsys, ["class", "--family", "wedge", "--n", "3", "--r", "1",
                                    "--kind", "csm", "--route", "interp", "--basis", "chern"])
    assert code == 0
    assert out.strip() == "1 + 2c1 + c1^2 + c2"


def test_class_latex(capsys):
    code, out, _ = capture(capsys, ["class", "--family", "wedge", "--n", "3", "--r", "1",
                                    "--basis", "chern", "--format", "latex"])
    assert code == 0
    assert out.strip() == "1 + 2c_{1} + c_{1}^{2} + c_{2}"


def test_table_json_matches_table1(capsys):
    code, out, _ = capture(capsys, ["table", "--family", "sym", "--n", "3",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[0, 1, -1, 3, -1, 1], [3, 2, 1, 0, 3, 0], [3, 2, 4, 0, 0, 0]]
    assert doc["column_sums"] == [6, 5, 4, 3, 2, 1]


def test_routes_produce_identical_documents(capsys):
    base = ["--family", "sym", "--n", "3", "--r", "1", "--kind", "ssm",
            "--trunc", "4", "--basis", "schur", "--format", "json"]
    _, out1, _ = capture(capsys, ["class", "--route", "sieve"] + base)
    _, out2, _ = capture(capsys, ["class", "--route", "interp"] + base)
    assert json.loads(out1)["terms"] == json.loads(out2)["terms"]


def test_json_round_trip(capsys):
    code, out, _ = capture(capsys, ["class", "--family", "wedge", "--n", "4", "--r", "2",
                                    "--kind", "ssm", "--route", "sieve", "--trunc", "5",
                                    "--basis", "schur", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    cls = parse_class_json(doc)
    assert class_json_dict(cls) == doc


def test_exit_code_usage_errors(capsys):
    assert capture(capsys, ["class", "--family", "wedge", "--n", "3", "--r", "1",
                            "--kind", "ssm"])[0] == 1          # missing --trunc
    assert capture(capsys, ["class", "--family", "wedge", "--n", "3", "--r", "1",
                            "--bogus"])[0] == 1                # unknown flag
    code, _, err = capture(capsys, ["class", "--family", "wedge", "--n", "3", "--r", "2"])
    assert code == 1 and "r=2" in err                          # parity, parameter named
    code, _, err = capture(capsys, ["ktheory", "--n", "6", "--r", "2"])
    assert code == 1 and "n <= 4" in err and "n=6" in err      # out of K scope
    code, out, err = capture(capsys, ["class", "--family", "wedge", "--n", "3", "--r", "1",
                                      "--trunc", "-1"])        # default csm/interp route
    assert code == 1 and not out and "--trunc" in err
    for fam, n in (("wedge", "1"), ("sym", "0")):              # empty table
        code, out, err = capture(capsys, ["table", "--family", fam, "--n", n])
        assert code == 1 and not out and "--n" in err
    code, out, err = capture(capsys, ["verify", "--suite", "cross", "--max-n", "-3"])
    assert code == 1 and not out and "--max-n" in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["class", "--help"]):
        code, out, err = capture(capsys, argv)
        assert code == 0 and out.startswith(" ".join(["usage: csmloci"] + argv[:-1]))
        assert not err


def test_phi_warnings_on_divergent_print(capsys):
    code, out, err = capture(capsys, ["phi", "--family", "wedge", "--n", "3", "--r", "3",
                                      "--trunc", "5"])
    assert code == 0
    assert "tabulated" in err and "computed value kept" in err


def test_verify_suites_exit_zero(capsys):
    for suite in ("core", "cross"):
        code, out, _ = capture(capsys, ["verify", "--suite", suite, "--max-n", "3"])
        assert code == 0, out
        assert "PASS" in out


def test_verify_axioms_suite(capsys):
    code, out, _ = capture(capsys, ["verify", "--suite", "axioms", "--max-n", "4"])
    assert code == 0
    assert "degree-perturbed control fails axiom 3" in out


def test_verify_conjectures_suite_is_report_only(capsys):
    code, out, _ = capture(capsys, ["verify", "--suite", "conjectures", "--max-n", "3"])
    assert code == 0
    assert "OBSERVED" in out and "WARN" in out


def test_invariants_command(capsys):
    code, out, _ = capture(capsys, ["invariants", "--family", "wedge", "--n", "6",
                                    "--r", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["codim"], doc["degree"], doc["euler_char"]) == (6, 14, 15)
    assert doc["closed_formulas_agree_with_classes"]


def test_projective_command(capsys):
    code, out, _ = capture(capsys, ["projective", "--family", "sym", "--n", "3",
                                    "--r", "1"])
    assert code == 0
    assert out.strip() == "3xi + 9xi^2 + 10xi^3 + 6xi^4 + 3xi^5"


def test_mather_command(capsys):
    code, out, _ = capture(capsys, ["mather", "--n", "4", "--r", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["euler_obstruction"] == [1, 2]


def test_ktheory_command_json(capsys):
    code, out, _ = capture(capsys, ["ktheory", "--n", "2", "--r", "2", "--class", "phi",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["numerator"] == [{"key": [0, 0, 0], "coeff": "-1/1"},
                                {"key": [1, 1, 0], "coeff": "1/1"}]
    assert doc["denominator"] == [{"key": [0, 0, 1], "coeff": "1/1"},
                                  {"key": [1, 1, 0], "coeff": "1/1"}]


# Every subcommand with each of its flags and a value domain that includes
# out-of-range numbers.
FAMILY = ["wedge", "sym"]
FORMAT = ["text", "json", "latex"]
BASIS = ["chern", "schur", "alpha"]
NUMBERS = {"--n": range(-1, 5), "--r": range(-1, 5), "--trunc": range(-1, 7),
           "--max-n": range(-1, 4)}
ORBIT = {"--family": FAMILY, "--n": None, "--r": None, "--format": FORMAT}
SUBCOMMANDS = {
    "class": {**ORBIT, "--trunc": None, "--kind": ["csm", "ssm"],
              "--route": ["interp", "sieve"], "--basis": BASIS, "--closure": True},
    "phi": {**ORBIT, "--trunc": None, "--basis": BASIS},
    "projective": {**ORBIT, "--kind": ["csm", "ssm"], "--closure": True},
    "table": {"--family": FAMILY, "--n": None, "--format": FORMAT, "--closures": True},
    "invariants": dict(ORBIT),
    "mather": {"--n": None, "--r": None, "--basis": BASIS, "--format": FORMAT},
    "ktheory": {"--n": None, "--r": None, "--class": ["phi", "segre"],
                "--q-convention": ["minus-y", "symbolic"], "--format": FORMAT},
    "verify": {"--suite": ["core", "axioms", "cross", "conjectures"], "--max-n": None},
}


@st.composite
def requests(draw, command):
    flags = SUBCOMMANDS[command]
    missing = draw(st.sampled_from([None] * 3 + list(flags)))  # now and then one
    argv = [command]
    for flag, values in flags.items():
        if flag == missing:
            continue
        if values is True:
            if draw(st.booleans()):
                argv.append(flag)
            continue
        argv += [flag, str(draw(st.sampled_from(list(values or NUMBERS[flag]))))]
    extra = draw(st.sampled_from([None] * 8 + ["--bogus", "--help"]))  # now and then
    if extra:
        argv.append(extra)
    return argv


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_cli_fuzz_exit_codes_and_replay(command, data):
    argv = data.draw(requests(command))
    # any request gives a result or a named error, never a traceback; an
    # accepted one prints the same bytes when replayed after a usage error
    # and on a freshly built parser, so the shared parser keeps no state
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert "error:" in err
    if argv[-1] == "--help":
        assert code == 0 and out.startswith(f"usage: csmloci {command}")
    if code == 0:
        assert run_captured(["class", "--family", "wedge", "--n", "oops"])[0] == 1
        replayed = run_captured(argv)
        build_parser.cache_clear()       # a parser that has parsed nothing yet
        assert replayed[:2] == run_captured(argv)[:2] == (code, out)
