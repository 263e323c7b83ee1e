"""The suite's pytest configuration keeps reporting after a failing
property test."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one failing hypothesis test, then one that passes.  A failing example
# makes hypothesis's pytest plugin import its patch writer, whose libcst
# dependency warns about mypy_extensions.TypedDict; under a bare
# ``filterwarnings = error`` that warning became an INTERNALERROR that
# ended the session before the second test ran.
TWO_TESTS = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.just(0))
def test_fails(x):
    assert x == 1


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-p", "no:benchmark",
            "-q", "test_two.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in result.stdout, output
