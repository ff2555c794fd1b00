import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_FAILURES = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_fails():
    assert False
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # with warnings as errors, a warning raised while hypothesis reports a
    # failing example must not end the session before the next test runs
    (tmp_path / "test_two_failures.py").write_text(_TWO_FAILURES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two_failures.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
