"""The pytest settings let a failing Hypothesis property report itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(n):
    assert n < 5
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    """Under the project's warning filters, a failing property fails as one
    test with Hypothesis's report, not as a pytest INTERNALERROR."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed" in out
    assert "Falsifying example: test_below_five(" in out
