"""Tier-1's own settings report a failing property test as a failure."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_and_later_tests_run(pytester):
    # the repo's [tool.pytest.ini_options], filterwarnings = "error" included
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(
        test_planted="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_planted.py")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
