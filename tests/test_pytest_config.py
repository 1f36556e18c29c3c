"""The pytest settings of ``pyproject.toml`` report every failure.

Every warning is an error there.  A failing ``hypothesis`` test must still
fail as a test: exit code 1 with its falsifying example printed, and the
tests after it run.  Exit code 3 (``INTERNALERROR``) would mean that a
warning raised while the failure was reported aborted the session, hiding
every test after the failing one.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_after():
    pass
'''


def test_failing_property_test_exits_1(tmp_path):
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_property.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout
    assert "Falsifying example: test_fails(" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
