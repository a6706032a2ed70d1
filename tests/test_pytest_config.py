"""The repository's pytest configuration, run on a throwaway module."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    # reporting a falsifying example must not raise under "error": the
    # session goes on and counts the failure like any other
    (tmp_path / "test_module.py").write_text(MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
