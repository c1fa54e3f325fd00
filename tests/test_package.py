"""The package namespace: every public name resolves, submodules load lazily."""

import os
import pathlib
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
