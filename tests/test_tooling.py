"""The suite's own pytest settings: a failing property test is reported as
one failure and the run goes on to the tests after it.

hypothesis's failure report triggers a ``DeprecationWarning`` (from
``mypy_extensions.TypedDict``) inside pytest's report hook; under
``filterwarnings = ["error"]`` alone that warning became an INTERNALERROR
that ended the session, so every later test went unreported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FILE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_runs_after():
    pass
"""


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_property.py").write_text(FILE)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
