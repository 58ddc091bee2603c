"""The suite's own pytest configuration: a failing test is reported as a
failure, and the rest of the session still runs."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_fails(v):
        assert v < 5


    def test_passes():
        pass
""")


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report imports libcst, whose use of the deprecated
    # mypy_extensions.TypedDict warns; with DeprecationWarning as an error
    # that warning ended the session with INTERNALERROR
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
