"""The suite's own pytest configuration reports every failure it meets."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_TESTS = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(i):
    assert i < 0


def test_passes():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    """Under the repo's ``filterwarnings``, a failing @given test is one failure.

    Hypothesis's failure report must raise no warning that the ini turns
    into an INTERNALERROR, which would drop it and every later test.
    """
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    printed = run.stdout + run.stderr
    assert run.returncode == 1, printed
    assert "1 failed, 1 passed" in run.stdout, printed
    assert "INTERNALERROR" not in printed
