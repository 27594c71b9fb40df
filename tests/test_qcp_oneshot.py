"""The one-shot QCP: one IPM run with the leakage budget as an inequality.

Checks it against the Lagrangian bisection (the fallback chain's last
step) on the ``qcp_table`` benchmark cells, the least-leakage rule for a
budget that is slack at the minimum T, and the fallback chain itself.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import DesignContext, optimize_dose_map
from repro.core.snap import SNAP_NEAREST, snap_dose_map
from repro.netlist import make_design
from repro.resilience import chaos
from repro.solver import robust, solve_qcp, solve_qp_ipm
from repro.solver.qcp import bisect_qcp

#: The cells of the ``qcp_table`` benchmark: (grid um, both layers).
TABLE_CELLS = ((10.0, False), (30.0, True), (30.0, False))


@pytest.fixture(scope="module")
def contexts():
    return {
        False: DesignContext(make_design("AES-65")),
        True: DesignContext(make_design("AES-65"), fit_width=True),
    }


def _bisection_goldens(ctx, form, budget):
    """Golden (MCT, leakage) and multiplier of the bisection's answer,
    signed off the way DMopt signs off its own."""
    c = np.zeros(form.n_vars)
    c[form.idx_T] = 1.0
    res = bisect_qcp(c, form.A, form.l, form.u, form.P_leak, form.q_leak,
                     budget, workspace={})
    assert res.ok
    poly, active, _ = form.split(res.x)
    poly = snap_dose_map(poly, ctx.library, mode=SNAP_NEAREST)
    if active is not None:
        active = snap_dose_map(active, ctx.library, mode=SNAP_NEAREST)
    golden, leak = ctx.golden_eval(poly, active)
    return golden.mct, leak, res.info["lam"]


class TestAgainstBisection:
    @pytest.mark.parametrize("grid,both", TABLE_CELLS)
    def test_same_goldens_and_multiplier(self, contexts, grid, both):
        ctx = contexts[both]
        res = optimize_dose_map(ctx, grid, mode="qcp", both_layers=both)
        assert res.ok
        assert [a["step"] for a in res.solve.info["attempts"]] == ["ipm"]
        assert res.solve.info["inner_solves"] == 1
        assert res.solve.iterations <= 30
        budget = -0.01 * ctx.baseline_leakage
        mct, leak, lam = _bisection_goldens(ctx, res.formulation, budget)
        assert repr(res.mct) == repr(mct)
        assert repr(res.leakage) == repr(leak)
        assert res.solve.info["lam"] == pytest.approx(lam, rel=1e-3)


class TestSlackBudget:
    """A budget slack at the minimum T leaves a face of T-optimal dose
    maps; DMopt returns the least-leakage one and reports lam = 0."""

    @pytest.fixture(scope="class")
    def case(self):
        ctx = DesignContext(make_design("AES-65", scale=0.3))
        res = optimize_dose_map(ctx, 10.0, mode="qcp", leakage_budget=1000.0)
        form = res.formulation
        c = np.zeros(form.n_vars)
        c[form.idx_T] = 1.0
        bare = solve_qcp(c, form.A, form.l, form.u, form.P_leak, form.q_leak,
                         s=1000.0 - 0.01 * ctx.baseline_leakage)
        return ctx, res, bare

    def test_multiplier_is_zero(self, case):
        _, res, bare = case
        assert res.ok
        assert res.solve.info["lam"] == 0.0
        assert res.solve.info["budget_slack"]
        assert bare.info["lam"] == 0.0 and bare.info["budget_slack"]

    def test_least_leakage_among_t_optimal_maps(self, case):
        ctx, res, bare = case
        form = res.formulation
        t_star = bare.x[form.idx_T]
        assert res.predicted_T == pytest.approx(t_star, rel=1e-6)
        # the bare solve returns the face's barrier centre, not its
        # least-leakage point
        centre = form.predicted_delta_leakage(bare.x)
        assert res.predicted_delta_leakage < centre - 1.0
        # ... and equals QP mode's least leakage at the clock bound T*
        qp = optimize_dose_map(ctx, 10.0, mode="qp", snap_mode=SNAP_NEAREST,
                               timing_bound=t_star * (1.0 + 1e-7))
        assert qp.ok
        assert res.predicted_delta_leakage == pytest.approx(
            qp.predicted_delta_leakage, rel=1e-6
        )
        assert (res.mct, res.leakage) == (qp.mct, qp.leakage)


def _small_qcp():
    """min -sum(x), -1 <= x <= 1, ||x||^2/2 <= 1: binding budget."""
    n = 6
    return (-np.ones(n), sp.eye(n, format="csc"), -np.ones(n), np.ones(n),
            sp.eye(n, format="csc"), np.zeros(n), 1.0)


class TestWarmMultiplier:
    def test_lam_seed_saves_iterations(self):
        """A warm state's ``lam`` seeds the row's multiplier: far from the
        cold default of 1, it saves iterations over ``{x, z}`` alone."""
        n = 20
        c = -0.01 * np.abs(np.random.default_rng(7).standard_normal(n))
        box = np.ones(n)
        problem = (c, sp.eye(n), -box, box, sp.eye(n), np.zeros(n), 0.25 * n)
        cold = solve_qcp(*problem)
        assert cold.ok and cold.info["lam"] < 0.1
        state = {"x": cold.x, "z": cold.info["z"]}
        without = solve_qcp(*problem, warm=state)
        seeded = solve_qcp(*problem, warm={**state, "lam": cold.info["lam"]})
        assert without.ok and seeded.ok
        assert seeded.iterations < without.iterations
        assert seeded.obj == pytest.approx(cold.obj, rel=1e-6)


class TestFallbackChain:
    def test_happy_path_is_one_ipm_solve(self):
        res = solve_qcp(*_small_qcp())
        assert res.ok
        assert res.info["inner_solves"] == 1
        assert [a["step"] for a in res.info["attempts"]] == ["ipm"]
        # x = 1/sqrt(3) in every coordinate, lam = sqrt(3)
        assert np.allclose(res.x, 1 / np.sqrt(3), atol=1e-5)
        assert res.info["lam"] == pytest.approx(np.sqrt(3), rel=1e-5)

    def test_injected_failure_retries_regularized(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_FLAG, json.dumps(
            {"solver_nan": {"nth": 1}}))
        chaos.reset()
        try:
            res = solve_qcp(*_small_qcp())
        finally:
            monkeypatch.delenv(chaos.ENV_FLAG)
            chaos.reset()
        assert res.ok
        steps = [(a["step"], a["status"]) for a in res.info["attempts"]]
        assert steps == [("ipm", "diverged"), ("ipm-regularized", "solved")]

    def test_bisection_is_the_last_step(self, monkeypatch):
        """Both one-shot attempts fail: the bisection answers, and each
        failed attempt keeps its diagnostic status."""
        ipm = robust.solve_qp_ipm

        def one_shot_breaks(*args, quad=None, **kwargs):
            res = ipm(*args, quad=quad, **kwargs)
            if quad is not None:
                res.status = "ill_conditioned"
            return res

        monkeypatch.setattr(robust, "solve_qp_ipm", one_shot_breaks)
        res = solve_qcp(*_small_qcp())
        assert res.ok
        steps = [(a["step"], a["status"]) for a in res.info["attempts"]]
        assert steps == [("ipm", "ill_conditioned"),
                         ("ipm-regularized", "ill_conditioned"),
                         ("bisection", "solved")]
        assert res.info["inner_solves"] > 2
        assert res.info["lam"] == pytest.approx(np.sqrt(3), rel=1e-2)

    def test_no_finite_linear_constraints_not_dropped(self):
        """Without inequality rows the IPM cannot carry the quadratic
        row: it must not answer with the unconstrained shortcut."""
        n = 2
        free = np.full(n, np.inf)
        res = solve_qp_ipm(sp.csc_matrix((n, n)), -np.ones(n), sp.eye(n),
                           -free, free, quad=(sp.eye(n), np.zeros(n), 1.0))
        assert not res.ok

    def test_admm_qcp_rejected(self):
        ctx = DesignContext(make_design("AES-65", scale=0.3))
        with pytest.raises(ValueError):
            optimize_dose_map(ctx, 30.0, mode="qcp", method="admm")
