"""A failing property test is reported like any other failure (tests/conftest.py).

The run below is a fresh pytest over two tests, a failing @given test and then
a passing plain test, under -W error with this suite's conftest loaded as a
plugin.  Without the conftest's pre-import, hypothesis' failure report raises a
DeprecationWarning inside pytest's report hook, pytest stops with
INTERNALERROR and the second test never runs.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = str(Path(__file__).resolve().parent)

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x != 0


def test_plain_passes():
    pass
"""


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\n", encoding="utf-8")
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [TESTS, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "conftest",
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
