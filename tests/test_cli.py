"""CLI surface: formats, exit codes, round trips, route agreement."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmloci.cli import _respond, build_parser, run
from csmloci.classes import ClassExpr
from csmloci.emit import TermList, class_json_dict, class_text, coeff_str, json_text, poly_text, \
    sorted_terms
from csmloci.interp import csm_class
from csmloci.oracles import parse_class_json
from csmloci.orbits import Family, OrbitId, alpha_vars, chern_vars
from csmloci.poly import Poly
from csmloci.schur import schur_dict_to_alpha, schur_to_chern

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def test_schur_labels_with_a_part_of_ten_or_more(capsys):
    # the parts of a label are comma-separated once one is >= 10
    argv = "class --family sym --n 2 --r 1 --kind ssm --trunc 12 --basis schur".split()
    assert capture(capsys, argv)[1].endswith("+ 2048s11 + 2048s10,1 - 4096s12 - 4096s11,1\n")
    assert capture(capsys, argv + ["--format", "latex"])[1].endswith(
        "+ 2048s_{10,1} - 4096s_{12} - 4096s_{11,1}\n")


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
    # csm cut at --trunc: on both routes, in every basis, for the orbit and
    # its closure, the untruncated class with its terms above --trunc dropped
    trunc, n = 3, 3
    for closure in ([], ["--closure"]):
        orbit = ["class", "--family", "sym", "--n", str(n), "--r", "1", "--kind", "csm",
                 "--format", "json"] + closure
        _, out, _ = capture(capsys, orbit + ["--basis", "schur"])
        full = parse_class_json(json.loads(out)).payload
        cut = {lam: c for lam, c in full.items() if sum(lam) <= trunc}
        assert cut != full
        expected = {"schur": cut, "chern": schur_to_chern(cut, n),
                    "alpha": schur_dict_to_alpha(cut, n)}
        for route in ("interp", "sieve"):
            for basis, payload in expected.items():
                code, out, _ = capture(capsys, orbit + ["--route", route, "--basis", basis,
                                                        "--trunc", str(trunc)])
                got = parse_class_json(json.loads(out))
                assert code == 0 and (got.trunc, got.closure) == (trunc, bool(closure))
                assert got.payload == payload, (route, basis, closure)


def test_json_round_trip(capsys):
    code, out, _ = capture(capsys, ["class", "--family", "wedge", "--n", "4", "--r", "2",
                                    "--kind", "ssm", "--route", "sieve", "--trunc", "5",
                                    "--basis", "schur", "--format", "json"])
    assert code == 0
    # the printed document parses back to a class that prints the same bytes
    cls = parse_class_json(json.loads(out))
    assert "".join(json_text(class_json_dict(cls, "schur"))) + "\n" == out


@pytest.mark.parametrize("fam", ["wedge", "sym"])
def test_class_at_full_corank_for_large_n(capsys, fam):
    # the zero orbit at r = n is the weight product coeff s_lam; n = r = 1000
    # once overflowed the recursion limit in the pushforward read-off
    from csmloci.orbits import inside_weights
    code, out, _ = capture(capsys, ["class", "--family", fam, "--n", "1000", "--r", "1000",
                                    "--basis", "schur", "--format", "json"])
    assert code == 0
    lam, coeff = inside_weights(fam, 1000)
    assert parse_class_json(json.loads(out)).payload == {lam: coeff}


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


def test_verify_core_ignores_max_n_and_says_so(capsys):
    outs = {capture(capsys, ["verify", "--suite", "core", "--max-n", k])[1] for k in ("2", "4")}
    assert len(outs) == 1
    code, out, _ = capture(capsys, ["verify", "--help"])
    assert code == 0 and "core suite ignores it" in " ".join(out.split())


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
    # accepted one writes the same bytes when replayed after a usage error,
    # and again with no cached response on a freshly built parser, so
    # neither the cache nor the shared parser keeps state between requests
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
        _respond.cache_clear()
        build_parser.cache_clear()       # a parser that has parsed nothing yet
        assert replayed == run_captured(argv) == (code, out, err)


@pytest.mark.parametrize("argv, code, err_has", [
    ("phi --family wedge --n 3 --r 3 --trunc 5", 0, "warning: Phi(wedge,3,3)"),
    ("ktheory --n 2 --r 0", 0, "note: sieve coefficients"),
    ("class --family sym --n 3 --r 1 --kind ssm", 1, "usage error: --trunc is required"),
])
def test_repeated_request_is_answered_from_the_response_cache(argv, code, err_has):
    _respond.cache_clear()
    first = run_captured(argv.split())
    assert first[0] == code and err_has in first[2] and bool(first[1]) == (code == 0)
    assert run_captured(argv.split()) == first
    assert _respond.cache_info()[:2] == (1, 1)       # (hits, misses)


def test_response_cache_key_is_the_argument_list():
    # two spellings of one request are two entries with the same bytes
    _respond.cache_clear()
    first = run_captured("projective --family sym --n 02 --r 1".split())
    assert run_captured("projective --family sym --n 2 --r 1".split()) == first
    assert _respond.cache_info()[:2] == (0, 2) and _respond.cache_info().currsize == 2
    for argv, code in (("verify --suite core --max-n 2", 0),
                       ("verify --suite cross --max-n 0", 1)):
        info = _respond.cache_info()
        assert run_captured(argv.split())[0] == code
        assert _respond.cache_info() == info         # verify always re-runs


def test_each_distinct_argv_is_parsed_once():
    _respond.cache_clear()
    argvs = ["projective --family sym --n 2 --r 1", "projective --family sym --n 02 --r 1",
             "verify --suite core --max-n 2"]
    first = [run_captured(argv.split()) for argv in argvs]
    assert [run_captured(argv.split()) for argv in argvs] == first
    # one miss, and so one parse, per distinct argv that is not a verify
    assert _respond.cache_info()[:2] == (2, 2)        # (hits, misses)


@pytest.mark.parametrize("argv, code, stream, text, kept", [
    ("class --family sym --n 3 --r 1 --kind ssm", 1, 2, "usage error: --trunc is required", 1),
    ("class --family sym --n oops --r 1", 1, 2, "usage error: argument --n", 1),
    ("class --help", 0, 1, "usage: csmloci class", 0),
])
def test_refused_requests_print_again_on_replay(argv, code, stream, text, kept):
    # a usage error raised by a command and an argparse error are kept
    # responses that carry their stderr text; --help raises out of the cache
    # and is never kept.  Each prints again on a replay
    _respond.cache_clear()
    for _ in range(2):
        got = run_captured(argv.split())
        assert got[0] == code and text in got[stream]
    assert _respond.cache_info().currsize == kept


@st.composite
def display_polys(draw):
    # over the alpha roots, the Chern classes (deg c_i = i) or the K-theory
    # ring (a_1..a_n, y), whose Laurent exponents may be negative
    n = draw(st.integers(1, 5))
    variables, low = draw(st.sampled_from([(alpha_vars(n), 0), (chern_vars(n), 0),
                                           (alpha_vars(n) + ("y",), -2)]))
    exps = st.tuples(*[st.integers(low, 4)] * len(variables))
    return Poly(variables, draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                                                max_size=30)))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(display_polys())
def test_sorted_terms_is_degree_then_descending_exponents(poly):
    weights = [int(name[1:]) if name[0] == "c" else 1 for name in poly.vars]
    expect = sorted(poly.terms.items(),
                    key=lambda item: (sum(w * x for w, x in zip(weights, item[0])),
                                      tuple(-x for x in item[0])))
    assert sorted_terms(poly) == expect


# strings with quotes, backslashes, control and non-ASCII characters
JSON_STRINGS = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f ab1é€\u2028😀') | st.characters(),
                       max_size=8)
JSON_SCALARS = st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | JSON_STRINGS


@st.composite
def term_lists(draw):
    """(TermList, the list of {"key", "coeff"} dicts json.dumps is given)."""
    pairs = draw(st.lists(st.tuples(st.lists(st.integers(-3, 30), max_size=4).map(tuple),
                                    JSON_STRINGS), max_size=4))
    return TermList(iter, pairs), [{"key": list(key), "coeff": text} for key, text in pairs]


# (document for the writer, document for json.dumps): equal but for TermLists
JSON_DOCS = st.recursive(
    JSON_SCALARS.map(lambda v: (v, v)) | term_lists(),
    lambda kids: (st.lists(kids, max_size=4).map(
                      lambda xs: ([a for a, _ in xs], [b for _, b in xs]))
                  | st.dictionaries(JSON_STRINGS, kids, max_size=4).map(
                      lambda d: ({k: a for k, (a, _) in d.items()},
                                 {k: b for k, (_, b) in d.items()}))),
    max_leaves=16)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(JSON_DOCS)
def test_json_writer_is_json_dumps_indent_2(pair):
    doc, reference = pair
    assert "".join(json_text(doc)) == json.dumps(reference, indent=2)


COEFFS = (st.integers(-40, 40).filter(bool) | st.sampled_from([1, -1])
          | st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)))


@st.composite
def schur_dicts(draw):
    # partitions of size <= 6, now and then longer than n (zero in n variables)
    n = draw(st.integers(1, 5))
    parts = st.lists(st.integers(1, 4), max_size=n + 1).map(
        lambda xs: tuple(sorted(xs, reverse=True))).filter(lambda lam: sum(lam) <= 6)
    return draw(st.dictionaries(parts, COEFFS, max_size=8)), n


def alpha_poly_doc(cls, poly):
    """The document json.dumps is given for cls in the alpha basis, its
    terms read off the expanded polynomial poly."""
    return dict(class_json_dict(cls, "schur"), basis="alpha", terms=[
        {"key": list(key), "coeff": coeff_str(c)} for key, c in sorted_terms(poly)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(schur_dicts())
@example(({}, 3))
@example(({(): 1}, 2))
@example(({(): -1}, 1))
@example(({(): Fraction(-3, 2), (1,): 1}, 4))
def test_alpha_writer_matches_the_alpha_poly(drawn):
    # text, LaTeX and JSON written from the monomial coefficients equal those
    # of the expanded polynomial, written term by term from sorted_terms
    coeffs, n = drawn
    cls = ClassExpr("csm", Family.SYM, n, 0, coeffs, 6)
    poly = schur_dict_to_alpha(coeffs, n)
    for latex in (False, True):
        assert "".join(class_text(cls, "alpha", latex=latex)) == poly_text(poly, latex)
    assert "".join(json_text(class_json_dict(cls, "alpha"))) == \
        json.dumps(alpha_poly_doc(cls, poly), indent=2)


def test_long_outputs_are_written_in_blocks():
    # s_12 alone has 6,188 monomials in 6 variables: more than one block of
    # terms, so the text and the JSON document come in several pieces
    coeffs, n = {(12,): 1, (6, 3, 2, 1): -3, (): Fraction(1, 2)}, 6
    cls = ClassExpr("csm", Family.SYM, n, 0, coeffs, 12)
    poly = schur_dict_to_alpha(coeffs, n)
    for latex in (False, True):
        pieces = class_text(cls, "alpha", latex=latex)
        assert len(pieces) > 1 and "".join(pieces) == poly_text(poly, latex)
    pieces = json_text(class_json_dict(cls, "alpha"))
    assert len(pieces) > 1 and "".join(pieces) == json.dumps(alpha_poly_doc(cls, poly), indent=2)


def test_a_response_of_several_pieces_is_printed_whole(capsys):
    # the alpha text of W_{6,0} is several blocks of terms, so its response
    # is a tuple of pieces; run prints them all, and again from the cache
    argv = "class --family wedge --n 6 --r 0 --basis alpha".split()
    want = "".join(class_text(csm_class(OrbitId(Family.WEDGE, 6, 0)), "alpha")) + "\n"
    _respond.cache_clear()
    assert capture(capsys, argv) == (0, want, "")
    assert isinstance(_respond(tuple(argv))[1], tuple)
    assert capture(capsys, argv) == (0, want, "")
    assert _respond.cache_info()[:2] == (2, 1)       # (hits, misses)


OPTIMIZED_REPLAY = """
import contextlib, hashlib, io, json, sys
from csmloci.cli import run
got = {}
for request in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(request.split())
        except Exception as ex:
            code = f"raised {type(ex).__name__}: {ex}"
    got[request] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps({"optimize": sys.flags.optimize, "got": got}))
"""


def test_golden_records_replay_under_python_O():
    # exactness checks are not assert statements, so python -O keeps them: every
    # golden record replays in one optimized interpreter with its recorded exit
    # code and stdout digest (the record file is read, never written)
    records = json.loads((ROOT / "perfbench" / "expected" / "queries.json").read_text())["records"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_REPLAY],
                          input=json.dumps(sorted(records)), capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["optimize"] == 1
    mismatches = {req: got for req, got in doc["got"].items()
                  if got != [records[req]["exit"], records[req]["stdout_sha256"]]}
    assert len(doc["got"]) == len(records) and not mismatches
