"""The package namespace: every public name resolves, submodules load lazily,
and README's library example runs."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import csmloci


def test_public_names_resolve():
    for name in csmloci.__all__:
        assert getattr(csmloci, name).__name__ == name
    with pytest.raises(AttributeError):
        csmloci.no_such_name


def test_cli_import_skips_the_math_layers():
    # every CLI launch pays for what `import csmloci, csmloci.cli` loads
    code = ("import sys, csmloci, csmloci.cli; print(' '.join("
            "m for m in sys.modules if m.startswith('csmloci.') or m == 'json'))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(csmloci.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True).stdout.split()
    assert "csmloci.cli" in loaded
    for heavy in ("poly", "interp", "sieve", "ktheory", "projective", "mather", "verify",
                  "oracles"):
        assert f"csmloci.{heavy}" not in loaded
    assert "json" not in loaded  # emit imports it when a document is written


def test_readme_library_example(capsys):
    # the code block under "## Library" prints the class that `csmloci class`
    # prints for the same orbit
    from csmloci.cli import run
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(code, {})
    printed = capsys.readouterr().out
    assert run(["class", "--family", "wedge", "--n", "4", "--r", "2"]) == 0
    assert printed.splitlines()[-1] == capsys.readouterr().out.rstrip("\n")
