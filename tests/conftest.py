"""Shared fixtures: the STA engine a test class runs on."""

import pytest

from repro.sta import VectorTimingAnalyzer


@pytest.fixture(scope="class")
def engine(request):
    """STA engine class under test.

    The flow's :class:`~repro.sta.VectorTimingAnalyzer`, unless the test
    class sets ``sta_engine``.  Each ``...Oracle`` subclass sets it to the
    dict oracle :class:`repro.sta.timing.TimingAnalyzer` and so reruns its
    base class's tests on that engine under its own test ids.
    """
    return getattr(request.cls, "sta_engine", VectorTimingAnalyzer)
