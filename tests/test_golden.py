"""Golden CLI outputs: every request recorded in perfbench/expected/queries.json.

Each request is run in-process through cli.run; its exit code and the sha256
of its stdout must match the record, and no exception may escape.  Requests
recorded with exit 1 must also name their error on stderr.  The record file
is read, never written.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from csmloci.cli import _respond, run

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = json.loads((ROOT / "perfbench" / "expected" / "queries.json").read_text())["records"]


def replay(request):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(request.split())
        except Exception as ex:  # reported as a mismatch, not raised
            return f"raised {type(ex).__name__}: {ex}"
    expected = RECORDS[request]
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    if hashlib.sha256(out.getvalue().encode()).hexdigest() != expected["stdout_sha256"]:
        return "stdout differs from the record"
    if code == 1 and "error:" not in err.getvalue():
        return "exit 1 without a named error"
    return None


def test_golden_outputs():
    assert len(RECORDS) == 255
    _respond.cache_clear()           # every response is rendered here
    mismatches = {req: why for req in sorted(RECORDS) if (why := replay(req))}
    assert not mismatches


def test_golden_outputs_with_warm_caches():
    # the second replay renders every response again from the class caches the
    # first one filled, so a request that changed a class it was handed would
    # show here; the third is served from the response cache
    for req in sorted(RECORDS):
        replay(req)
    _respond.cache_clear()
    for label in ("warm class caches", "response cache"):
        mismatches = {req: why for req in sorted(RECORDS) if (why := replay(req))}
        assert not mismatches, label


def test_alpha_records_never_build_the_alpha_poly(monkeypatch):
    # the CLI writes the alpha basis from the monomial coefficients, so every
    # alpha-basis record prints its bytes with the Poly route made to raise
    import csmloci.schur

    def refuse(coeffs, n):
        raise RuntimeError("the alpha Poly was built")

    monkeypatch.setattr(csmloci.schur, "schur_dict_to_alpha", refuse)
    alpha = sorted(req for req in RECORDS if "--basis alpha" in req)
    assert len(alpha) == 31
    _respond.cache_clear()
    mismatches = {req: why for req in alpha if (why := replay(req))}
    _respond.cache_clear()           # no response rendered under the patch is kept
    assert not mismatches
