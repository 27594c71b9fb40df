"""Figs. 1-2: actuator-profile and dose-sensitivity concept data.

These are concept illustrations in the paper; their mathematical content
(profile families, the negative-Ds CD line) is rendered as data series so
the figure coverage is complete.  Fig. 9 (cell bounding box) has no data
content; its math is the neighborhood bounding box of dosePl's position
index (repro.core.dosepl._PositionIndex), tested in
tests/test_dosepl_internals.py.
"""

import numpy as np
import pytest

from repro.experiments import fig1_dose_profiles, fig2_dose_sensitivity


def test_fig1(benchmark, save_result):
    table = benchmark.pedantic(fig1_dose_profiles, rounds=1, iterations=1)
    save_result(table, "fig1_dose_profiles")
    slit = np.array(table.column("slit dose %"))
    # the default filter is quadratic and symmetric
    assert np.allclose(slit, slit[::-1])
    scan = np.array(table.column("scan dose %"))
    assert scan.std() > 0  # the Legendre profile actually modulates


def test_fig2(benchmark, save_result):
    table = benchmark.pedantic(fig2_dose_sensitivity, rounds=1, iterations=1)
    save_result(table, "fig2_dose_sensitivity")
    doses = np.array(table.column("dose %"))
    cds = np.array(table.column("CD nm"))
    slope = np.polyfit(doses, cds, 1)[0]
    assert slope < 0, "increasing dose must decrease CD"
    assert slope == pytest.approx(-2.0)  # the paper's typical Ds
