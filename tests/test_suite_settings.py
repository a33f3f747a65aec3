"""The test suite's own pytest settings (``pyproject.toml``)."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, max_examples=5)
def test_fails(x):
    assert x is None


def test_passes():
    pass
'''


def test_failing_given_test_is_reported_not_fatal(tmp_path):
    # Reporting a failing example imports libcst, which warns; under the
    # suite's warnings-as-errors setting that must not end the session.
    (tmp_path / "test_probe.py").write_text(FAILING_GIVEN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
