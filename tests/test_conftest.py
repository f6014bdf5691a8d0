"""The shared test configuration: a failing property test is reported under
``-W error``, not turned into an ``INTERNALERROR`` that names no test."""

import pathlib
import shutil
import subprocess
import sys

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_property_that_fails(x):
    assert x != x


def test_plain_that_passes():
    pass
'''


def test_failing_property_test_is_reported_under_warnings_as_errors(tmp_path):
    """pytest exits 1 (tests failed) and names the test, where it exited 3
    (internal error) when ``libcst``'s import warning reached the hypothesis
    plugin's failure report."""
    shutil.copy(pathlib.Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider", "."],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_property.py::test_property_that_fails" in run.stdout, run.stdout
    assert "1 failed, 1 passed" in run.stdout and "INTERNALERROR" not in run.stdout, run.stdout
