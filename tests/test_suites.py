"""run_suite's trial counts."""

import pytest

from surfqp.suites import DEFAULT_TRIALS, SUITE_NAMES, run_suite
from surfqp.words import SurfaceSignature


@pytest.mark.parametrize("name", SUITE_NAMES)
@pytest.mark.parametrize("trials", [0, -1])
def test_every_suite_needs_a_trial(name, trials):
    # a suite that samples nothing has checked nothing, which must not read as ok
    with pytest.raises(ValueError, match="at least one trial"):
        run_suite(name, SurfaceSignature(1, 1), 7, trials=trials)


def test_trials_none_keeps_the_defaults():
    report = run_suite("fox", SurfaceSignature(0, 1), 7)
    assert report.ok
    assert report.params["trials"] == DEFAULT_TRIALS["fox"]
    assert {c.detail["trials"] for c in report.checks} == {DEFAULT_TRIALS["fox"]}
