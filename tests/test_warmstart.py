"""Warm-start regression tests: fewer iterations, same golden answers.

Covers the whole warm-start chain: solver-level seeds (IPM ``warm``/
``workspace``, ADMM ``x0``/``y0``), the QCP's ``{x, z, lam}`` seed of
its one-shot IPM, and the DMopt-level ``warm_start=`` plumbing used by
:func:`repro.core.dmopt_dose_range_sweep`.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import DesignContext, dmopt_dose_range_sweep, optimize_dose_map
from repro.solver import solve_qcp, solve_qp, solve_qp_ipm
from repro.solver.ipm import IPMWorkspace

ATOL = 1e-6


@pytest.fixture(scope="module")
def aes_ctx():
    return DesignContext("AES-65")


def box_qp(n=40, seed=3):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    P = sp.csc_matrix(M @ M.T + n * np.eye(n))
    q = rng.standard_normal(n)
    A = sp.eye(n, format="csc")
    return P, q, A, -np.ones(n), np.ones(n)


class TestIPMWarmStart:
    def test_warm_flag_and_fewer_iterations(self):
        P, q, A, l, u = box_qp()
        cold = solve_qp_ipm(P, q, A, l, u)
        assert cold.ok and not cold.warm_started
        warm = solve_qp_ipm(
            P, q, A, l, u, warm={"x": cold.x, "z": cold.info["z"]}
        )
        assert warm.ok and warm.warm_started
        assert warm.iterations < cold.iterations
        assert np.allclose(warm.x, cold.x, atol=ATOL)

    def test_primal_only_warm_start(self):
        P, q, A, l, u = box_qp()
        cold = solve_qp_ipm(P, q, A, l, u)
        warm = solve_qp_ipm(P, q, A, l, u, warm={"x": cold.x})
        assert warm.ok and warm.warm_started
        assert np.allclose(warm.x, cold.x, atol=ATOL)

    def test_workspace_reused_across_solves(self):
        P, q, A, l, u = box_qp()
        ws = {}
        r1 = solve_qp_ipm(P, q, A, l, u, workspace=ws)
        assert isinstance(ws.get("ws"), IPMWorkspace)
        first = ws["ws"]
        r2 = solve_qp_ipm(P, q + 0.1, A, l, u, workspace=ws)
        assert ws["ws"] is first  # same pattern -> no rebuild
        assert r1.ok and r2.ok

    def test_workspace_rebuilt_on_pattern_change(self):
        P, q, A, l, u = box_qp()
        ws = {}
        solve_qp_ipm(P, q, A, l, u, workspace=ws)
        first = ws["ws"]
        u2 = u.copy()
        u2[0] = np.inf  # different finiteness mask -> different G
        r = solve_qp_ipm(P, q, A, l, u2, workspace=ws)
        assert r.ok
        assert ws["ws"] is not first

    def test_workspace_same_answer(self):
        P, q, A, l, u = box_qp()
        plain = solve_qp_ipm(P, q, A, l, u)
        ws = {}
        solve_qp_ipm(P, q, A, l, u, workspace=ws)
        again = solve_qp_ipm(P, q, A, l, u, workspace=ws)
        assert np.allclose(again.x, plain.x, atol=ATOL)


class TestADMMWarmStart:
    def test_x0_y0_flag_and_answer(self):
        P, q, A, l, u = box_qp(n=25, seed=11)
        cold = solve_qp(P, q, A, l, u)
        assert cold.ok and not cold.warm_started
        warm = solve_qp(P, q, A, l, u, x0=cold.x, y0=cold.info["y"])
        assert warm.ok and warm.warm_started
        assert warm.iterations <= cold.iterations
        assert np.allclose(warm.x, cold.x, atol=1e-4)


class TestQCPWarmStart:
    def test_dmopt_qcp_warm_fewer_iterations(self, aes_ctx):
        cold = optimize_dose_map(aes_ctx, 10.0, mode="qcp")
        warm = optimize_dose_map(
            aes_ctx, 10.0, mode="qcp", warm_start=cold.solve
        )
        assert not cold.solve.warm_started
        assert warm.solve.warm_started
        assert warm.solve.iterations < cold.solve.iterations
        assert warm.mct == pytest.approx(cold.mct, abs=1e-6)
        assert warm.leakage == pytest.approx(cold.leakage, rel=1e-6)

    def test_qcp_warm_state_with_multiplier(self):
        n = 20
        rng = np.random.default_rng(7)
        c = -np.abs(rng.standard_normal(n))  # push x to its bounds
        A = sp.eye(n, format="csc")
        l, u = -np.ones(n), np.ones(n)
        Q = sp.eye(n, format="csc")
        g = np.zeros(n)
        s = 0.25 * n  # binding: ||x||^2/2 <= s < n/2
        cold = solve_qcp(c, A, l, u, Q, g, s)
        assert cold.ok and not cold.warm_started
        assert cold.info["lam"] > 0
        warm = solve_qcp(
            c, A, l, u, Q, g, s,
            warm={"x": cold.x, "z": cold.info["z"], "lam": cold.info["lam"]},
        )
        assert warm.ok and warm.warm_started
        assert warm.iterations < cold.iterations
        assert warm.obj == pytest.approx(cold.obj, rel=1e-4)


class TestDMoptQPWarm:
    def test_qp_warm_same_goldens(self, aes_ctx):
        cold = optimize_dose_map(aes_ctx, 10.0, mode="qp")
        warm = optimize_dose_map(
            aes_ctx, 10.0, mode="qp", warm_start=cold.solve
        )
        assert warm.solve.warm_started
        assert warm.solve.iterations < cold.solve.iterations
        assert warm.mct == pytest.approx(cold.mct, abs=1e-6)
        assert warm.leakage == pytest.approx(cold.leakage, rel=1e-6)


class TestSweepChaining:
    def test_sweep_matches_independent_solves(self, aes_ctx):
        ranges = [4.0, 5.0]
        chained = dmopt_dose_range_sweep(aes_ctx, 10.0, ranges, mode="qp")
        independent = [
            optimize_dose_map(aes_ctx, 10.0, mode="qp", dose_range=r)
            for r in ranges
        ]
        assert len(chained) == 2
        assert not chained[0].solve.warm_started
        assert chained[1].solve.warm_started
        for got, want in zip(chained, independent):
            assert got.mct == pytest.approx(want.mct, abs=1e-6)
            assert got.leakage == pytest.approx(want.leakage, rel=1e-6)
        # warm chaining must actually help on the second point
        assert chained[1].solve.iterations < independent[1].solve.iterations

    def test_sweep_warm_start_off(self, aes_ctx):
        res = dmopt_dose_range_sweep(
            aes_ctx, 30.0, [4.0, 5.0], mode="qp", warm_start=False
        )
        assert not any(r.solve.warm_started for r in res)

    def test_sweep_accepts_generator(self, aes_ctx):
        """A generator of ranges sweeps every point, like the equal list."""
        ranges = [4.0, 5.0]
        listed = dmopt_dose_range_sweep(aes_ctx, 30.0, ranges, mode="qp")
        generated = dmopt_dose_range_sweep(
            aes_ctx, 30.0, (r for r in ranges), mode="qp"
        )
        assert len(generated) == len(listed) == 2
        for got, want in zip(generated, listed):
            assert got.mct == want.mct
            assert got.leakage == want.leakage
            assert got.solve.iterations == want.solve.iterations
