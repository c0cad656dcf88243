"""The repo's pytest settings must let a failing @given test fail like any other
test: no warning filter may turn the hypothesis plugin's report into an
INTERNALERROR that ends the session before the remaining tests run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
