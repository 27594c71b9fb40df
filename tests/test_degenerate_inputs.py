"""Degenerate-input coverage: diagnostics instead of tracebacks.

The robustness contract (solver fallback chain + prevalidation): no
uncaught exception escapes ``repro.solver``, ``core.dmopt`` or
``core.dosepl`` for infeasible, degenerate, or ill-conditioned inputs --
every such input yields a diagnostic :class:`SolveResult` (or a clear,
early ``ValueError`` for caller bugs like dimension mismatches).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import DesignContext, optimize_dose_map
from repro.library import CellLibrary
from repro.netlist import Netlist, make_design
from repro.netlist.designs import DesignBundle
from repro.solver import (
    FAMILY_TIMING,
    STATUS_INFEASIBLE,
    solve_qp,
    solve_qp_ipm,
    solve_qp_robust,
)


class TestSolverDegenerates:
    """Both backends and the chain accept pathological problem data."""

    def test_crossed_bounds_qp(self):
        res = solve_qp(sp.eye(2), np.zeros(2), sp.eye(2),
                       np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert res.info["n_bound_conflicts"] == 1
        assert res.info["worst_row"] == 1

    def test_crossed_bounds_ipm(self):
        res = solve_qp_ipm(sp.eye(2), np.zeros(2), sp.eye(2),
                           np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert not res.ok

    def test_crossed_bounds_robust_not_retried(self):
        """Infeasible data must not burn fallback attempts."""
        res = solve_qp_robust(sp.eye(1), np.zeros(1), sp.eye(1),
                              np.array([2.0]), np.array([1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert len(res.info["attempts"]) == 1

    def test_all_infinite_rows_solved_unconstrained(self):
        """+-inf on every row: effectively unconstrained, still answered."""
        n = 3
        l = np.full(n, -np.inf)
        u = np.full(n, np.inf)
        for solver in (solve_qp, solve_qp_ipm):
            res = solver(sp.eye(n), np.array([-1.0, 2.0, 0.5]),
                         sp.eye(n), l, u)
            assert res.ok
            assert np.allclose(res.x, [1.0, -2.0, -0.5], atol=1e-6)
            assert "unconstrained" in res.info["note"]

    def test_empty_constraint_matrix(self):
        """m = 0 rows: unconstrained minimum, no raise."""
        A = sp.csc_matrix((0, 2))
        res = solve_qp_ipm(sp.eye(2), np.array([1.0, -1.0]), A,
                           np.zeros(0), np.zeros(0))
        assert res.ok
        assert np.allclose(res.x, [-1.0, 1.0], atol=1e-6)

    def test_dimension_mismatch_still_raises(self):
        """Caller bugs (not problem data) keep raising ValueError."""
        with pytest.raises(ValueError, match="dimensions"):
            solve_qp_robust(sp.eye(2), np.zeros(3), sp.eye(2),
                            np.zeros(2), np.ones(2))


def _tiny_ctx():
    return DesignContext(make_design("AES-65", scale=0.3))


class TestDMoptDegenerates:
    def test_one_by_one_dose_grid(self):
        """Grid coarser than the die: a single dose variable still works."""
        ctx = _tiny_ctx()
        die = ctx.placement.die
        res = optimize_dose_map(ctx, max(die.width, die.height) * 2, mode="qp")
        assert res.formulation.partition.m == 1
        assert res.formulation.partition.n == 1
        assert res.solve is not None  # diagnostic or solved, never a raise

    def test_combinational_only_netlist(self):
        """No flip-flops: MCT is the max PI->PO arrival; DMopt still runs."""
        lib = CellLibrary("65nm")
        nl = Netlist("comb")
        nl.add_primary_input("a")
        nl.add_primary_input("b")
        nl.add_gate("u1", "NAND2X1", ["a", "b"], "n1")
        nl.add_gate("u2", "INVX1", ["n1"], "y")
        nl.add_primary_output("y")
        bundle = DesignBundle(name="comb", netlist=nl, library=lib,
                              die_width=20.0, die_height=20.0)
        ctx = DesignContext(bundle)
        res = optimize_dose_map(ctx, 30.0, mode="qp")
        assert res.solve is not None
        if res.ok:
            assert res.mct <= res.baseline_mct + 1e-9

    def test_empty_netlist_diagnosed_early(self):
        """Zero gates: one clear ValueError, not a deep numpy error."""
        lib = CellLibrary("65nm")
        nl = Netlist("empty")
        nl.add_primary_input("a")
        nl.add_primary_output("a")
        bundle = DesignBundle(name="empty", netlist=nl, library=lib,
                              die_width=10.0, die_height=10.0)
        with pytest.raises(ValueError, match="no gates"):
            DesignContext(bundle)

    def test_unachievable_timing_bound(self):
        """tau far below tau_min: infeasible verdict with the slack needed."""
        ctx = _tiny_ctx()
        tau = ctx.baseline.mct * 0.1  # no dose map can deliver a 10x speedup
        res = optimize_dose_map(ctx, 30.0, mode="qp", timing_bound=tau)
        assert not res.ok
        assert res.status == STATUS_INFEASIBLE
        # graceful degradation: baseline numbers, zero delta doses
        assert res.mct == ctx.baseline.mct
        assert res.leakage == ctx.baseline_leakage
        assert np.allclose(res.dose_map_poly.values, 0.0)
        # the diagnosis names timing and quantifies the concession
        report = res.infeasibility
        assert report is not None
        assert FAMILY_TIMING in report.blocking
        assert report.tau_min is not None
        assert report.tau_min > tau
        assert report.tau_slack_needed == pytest.approx(
            report.tau_min - tau, abs=1e-9
        )
        assert "tau" in report.summary()

    def test_diagnosis_recorded_on_diagnose_span(self, tmp_path,
                                                 monkeypatch):
        """Traced, the diagnosis rides on the ``dmopt.diagnose`` span and
        the ``dmopt`` span reports the baseline fallback."""
        import json

        from repro import telemetry

        manifest = tmp_path / "infeasible.jsonl"
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        monkeypatch.setenv(telemetry.ENV_PATH, str(manifest))
        telemetry.reset()
        try:
            ctx = _tiny_ctx()
            res = optimize_dose_map(ctx, 30.0, mode="qp",
                                    timing_bound=ctx.baseline.mct * 0.1)
        finally:
            telemetry.reset()
        spans = {
            e["name"]: e
            for e in map(json.loads, manifest.read_text().splitlines())
            if e["event"] == "span"
        }
        report = res.infeasibility
        diag = spans["dmopt.diagnose"]
        assert diag["blocking"] == report.blocking
        assert diag["tau_min"] == report.tau_min
        assert diag["tau_slack_needed"] == report.tau_slack_needed
        assert diag["probes"] == report.probes
        assert spans["dmopt"]["status"] == STATUS_INFEASIBLE
        assert spans["dmopt"]["mct"] == ctx.baseline.mct
