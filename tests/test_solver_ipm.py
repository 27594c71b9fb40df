"""Tests for the interior-point QP backend (repro.solver.ipm)."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from repro.solver import (
    STATUS_ILL_CONDITIONED,
    STATUS_INFEASIBLE,
    solve_qp,
    solve_qp_ipm,
    solve_qp_robust,
)
from repro.solver.ipm import IPMWorkspace, _to_inequalities, factor_spd_ordered


class TestInequalityConversion:
    def test_two_sided_becomes_two_rows(self):
        A = sp.eye(2)
        l = np.array([-1.0, -np.inf])
        u = np.array([1.0, 2.0])
        G, h = _to_inequalities(A, l, u)
        assert G.shape == (3, 2)  # 2 upper rows + 1 lower row
        assert np.allclose(h, [1.0, 2.0, 1.0])

    def test_no_finite_bounds_rejected(self):
        A = sp.eye(1)
        with pytest.raises(ValueError, match="no finite constraints"):
            _to_inequalities(A, np.array([-np.inf]), np.array([np.inf]))


class TestIPMBasics:
    def test_box_qp(self):
        res = solve_qp_ipm(
            sp.eye(2), np.array([-5.0, -0.3]), sp.eye(2),
            np.zeros(2), np.ones(2),
        )
        assert res.ok
        assert np.allclose(res.x, [1.0, 0.3], atol=1e-5)

    def test_pure_lp_direction(self):
        """P = 0: the IPM must solve plain LPs too."""
        res = solve_qp_ipm(
            sp.csc_matrix((2, 2)), np.array([1.0, -1.0]), sp.eye(2),
            -np.ones(2), np.ones(2),
        )
        assert res.ok
        assert np.allclose(res.x, [-1.0, 1.0], atol=1e-5)

    def test_equality_like_tight_bounds(self):
        res = solve_qp_ipm(
            2 * sp.eye(2), np.zeros(2), sp.csc_matrix([[1.0, 1.0]]),
            np.array([1.0]), np.array([1.0]),
        )
        assert res.ok
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-4)

    def test_infeasible_detected(self):
        """x <= -1 and x >= 1 simultaneously."""
        A = sp.csc_matrix([[1.0], [1.0]])
        res = solve_qp_ipm(
            sp.eye(1), np.zeros(1), A,
            np.array([-np.inf, 1.0]), np.array([-1.0, np.inf]),
        )
        assert not res.ok
        assert res.status in (STATUS_INFEASIBLE, "max_iter")

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            solve_qp_ipm(sp.eye(2), np.zeros(3), sp.eye(2),
                         np.zeros(2), np.ones(2))

    def test_inconsistent_bounds_diagnosed(self):
        """l > u returns a diagnostic infeasible result, not a raise."""
        res = solve_qp_ipm(sp.eye(1), np.zeros(1), sp.eye(1),
                           np.array([2.0]), np.array([1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert not res.ok
        assert res.info["n_bound_conflicts"] == 1

    def test_high_accuracy(self):
        """IPM should reach much tighter KKT residuals than ADMM."""
        rng = np.random.default_rng(0)
        n = 20
        M = rng.normal(size=(n, n))
        P = sp.csc_matrix(M @ M.T + np.eye(n))
        q = rng.normal(size=n)
        res = solve_qp_ipm(P, q, sp.eye(n), -np.ones(n), np.ones(n))
        assert res.ok
        assert res.r_prim < 1e-6 and res.r_dual < 1e-5


class TestIPMAgainstReferences:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 5, 8
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        x_feas = rng.normal(size=n)
        center = A @ x_feas
        l = center - rng.uniform(0.5, 2.0, size=m)
        u = center + rng.uniform(0.5, 2.0, size=m)
        res = solve_qp_ipm(sp.csc_matrix(P), q, sp.csc_matrix(A), l, u)
        assert res.ok

        def f(x):
            return 0.5 * x @ P @ x + q @ x

        cons = []
        for i in range(m):
            cons.append({"type": "ineq",
                         "fun": lambda x, r=A[i], b=u[i]: b - r @ x})
            cons.append({"type": "ineq",
                         "fun": lambda x, r=A[i], b=l[i]: r @ x - b})
        ref = minimize(f, x_feas, constraints=cons, method="SLSQP",
                       options={"maxiter": 500, "ftol": 1e-10})
        assert f(res.x) <= ref.fun + 1e-4 * (1 + abs(ref.fun))
        ax = A @ res.x
        assert np.all(ax >= l - 1e-5) and np.all(ax <= u + 1e-5)

    @settings(deadline=None, max_examples=6)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_admm(self, seed):
        """Both in-house backends agree on random strictly convex QPs."""
        rng = np.random.default_rng(seed)
        n = 8
        M = rng.normal(size=(n, n))
        P = sp.csc_matrix(M @ M.T + np.eye(n))
        q = rng.normal(size=n)
        A = sp.eye(n)
        l, u = -np.ones(n), np.ones(n)
        ipm = solve_qp_ipm(P, q, A, l, u)
        admm = solve_qp(P, q, A, l, u, eps_abs=1e-7, eps_rel=1e-7)
        assert ipm.ok and admm.ok
        assert np.allclose(ipm.x, admm.x, atol=1e-3)


def _sparse_qp(n=60, m=90, seed=5):
    """A sparse convex QP with two-sided, one-sided and free rows."""
    rng = np.random.default_rng(seed)
    B = sp.random(n, n, density=0.05, random_state=rng, format="csc")
    P = (B @ B.T).tocsc()
    P = 0.5 * (P + P.T)
    P.sum_duplicates()
    P.sort_indices()
    A = sp.random(m, n, density=0.06, random_state=rng, format="csc")
    A = (A + sp.eye(m, n)).tocsc()  # no empty row
    l = -rng.uniform(0.5, 2.0, m)
    u = rng.uniform(0.5, 2.0, m)
    l[::4] = -np.inf
    u[1::5] = np.inf
    return P, A, l, u, rng


@pytest.fixture(params=["scatter", "dense_rows"])
def workspace_path(request, monkeypatch):
    """Run on the scatter-operator path and on the ``E is None`` path."""
    if request.param == "dense_rows":
        monkeypatch.setattr(IPMWorkspace, "MAX_EXPANSION_RATIO", 0.0)
    return request.param


class TestSymmetricFactorization:
    def _setup(self, workspace_path):
        P, A, l, u, rng = _sparse_qp()
        ws = IPMWorkspace(P, A, l, u)
        assert (ws.E is None) == (workspace_path == "dense_rows")
        w = rng.uniform(0.1, 10.0, ws.m)
        reg = 1e-3
        G, _ = _to_inequalities(A, l, u)
        N = (P + reg * sp.eye(P.shape[0]) + G.T @ sp.diags(w) @ G).tocsc()
        return ws, P, w, reg, N, rng

    def test_order_is_permutation(self, workspace_path):
        ws, P, *_ = self._setup(workspace_path)
        assert np.array_equal(np.sort(ws.order), np.arange(P.shape[0]))

    def test_normal_is_permuted_normal_matrix(self, workspace_path):
        ws, P, w, reg, N, _ = self._setup(workspace_path)
        got = ws.normal(P, w, reg)
        want = N[ws.order][:, ws.order]
        assert np.allclose(got.toarray(), want.toarray(),
                           rtol=1e-13, atol=1e-13)

    def test_ordered_solve_matches_spsolve(self, workspace_path):
        ws, P, w, reg, N, rng = self._setup(workspace_path)
        rhs = rng.normal(size=P.shape[0])
        x = ws.solve(factor_spd_ordered(ws.normal(P, w, reg)), rhs)
        ref = spla.spsolve(N, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @staticmethod
    def _untouched_variable_qp():
        """x2 appears in neither P nor A: with reg = 0 the normal matrix
        has an all-zero column, a genuinely singular system."""
        P = sp.csc_matrix(np.diag([1.0, 1.0, 0.0]))
        q = np.array([-5.0, -0.3, 0.0])
        A = sp.csc_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        return P, q, A, np.zeros(2), np.ones(2)

    def test_singular_normal_matrix_is_diagnosed(self, workspace_path):
        P, q, A, l, u = self._untouched_variable_qp()
        res = solve_qp_ipm(P, q, A, l, u, reg=0.0)
        assert res.status == STATUS_ILL_CONDITIONED
        assert res.info["failed_at_iter"] == 1

    def test_robust_chain_recovers_singular_normal(self, workspace_path):
        P, q, A, l, u = self._untouched_variable_qp()
        res = solve_qp_robust(P, q, A, l, u, qp_kwargs={"reg": 0.0})
        assert res.ok
        steps = [(a["step"], a["status"]) for a in res.info["attempts"]]
        assert steps[0] == ("ipm", STATUS_ILL_CONDITIONED)
        assert steps[1][0] == "ipm-regularized"
        assert np.allclose(res.x, [1.0, 0.3, 0.0], atol=1e-5)
